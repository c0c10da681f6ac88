"""The out-of-order core — gem5 O3 analog with bit-level state.

An 8-issue speculative pipeline: fetch (through the L1I, so corrupted
instruction bits are fetched as corrupted bytes), decode to micro-ops,
rename onto physical register files with explicit free lists, issue from an
instruction queue to functional-unit pools, load/store queues with
forwarding and per-ISA drain policy, and in-order commit with precise
exceptions.

Fault-effect realism comes from *computing with the corrupted bits*:

* a flipped PRF bit flows into every dependent value,
* a flipped L1D bit is what loads (and write-backs) observe,
* a flipped L1I bit decodes into a different (possibly illegal) micro-op,
* a flipped LQ/SQ address or data bit redirects or corrupts memory traffic,
* wrong-path work is squashed, masking faults the way real pipelines do.

Commit also records/compares the architectural trace (instruction bytes,
destination values, store address/data, branch direction) which implements
the paper's HVF methodology: the first commit-stage mismatch versus the
fault-free trace marks the fault as an HVF *Corruption* (Figure 3a).

Issue wakeup is event-driven, as in gem5's O3 dependency graph.  Rename
gives every uop its functional-unit index and the number of its sources
that are not yet ready, and puts it on the consumer list of each such
physical register.  ``PhysRegFile.wake`` -- the one path from not-ready to
ready: writeback, and the release of a squashed destination -- counts the
register off every consumer.  Issue walks the queue in age order and takes
the entries whose count is zero, so it never rescans operands.  The count
is exactly "every source ready": when rename allocates a register that a
queued uop still reads and counted ready (only a double release can do
that), the uop waits for it again.  The counts and lists are derived
state: snapshots and checkpoint digests leave them out, and ``restore``
rebuilds them from the issue queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.branch import BimodalPredictor
from repro.cpu.cache import Cache
from repro.cpu.config import CPUConfig
from repro.cpu.exec import compute, load_value
from repro.cpu.lsq import LSQueue
from repro.cpu.memory import MainMemory
from repro.cpu.mshr import MSHRFile
from repro.cpu.prefetch import StridePrefetcher
from repro.cpu.regfile import PhysRegFile
from repro.cpu.storebuffer import StoreBuffer
from repro.isa.base import ISA, MicroOp, SysFn, UopKind
from repro.kernel.compiler import Executable
from repro.kernel.ir import MASK64

ZERO_PHYS = -1  # pseudo physical register: hardwired zero

#: functional-unit index of each uop kind: every kind has its own issue
#: slots per cycle and its own execute latency
_FU_INDEX = {kind: i for i, kind in enumerate(UopKind)}
_FU_DIV = _FU_INDEX[UopKind.DIV]
_FU_FDIV = _FU_INDEX[UopKind.FDIV]


class CrashError(Exception):
    """A catastrophic guest event (the paper's Crash outcome class)."""

    def __init__(self, reason: str, pc: int, cycle: int):
        super().__init__(f"{reason} at pc={pc:#x} cycle={cycle}")
        self.reason = reason
        self.pc = pc
        self.cycle = cycle


class _RE:
    """Reorder-buffer entry."""

    #: the pipeline state a checkpoint digest covers
    STATE = (
        "seq", "uop", "state", "phys_dst", "old_phys", "src_phys", "value",
        "addr", "store_data", "taken", "target", "exception", "lq_idx",
        "sq_idx", "pred_taken", "out_value", "squashed", "phase", "mmio",
    )
    #: plus issue bookkeeping derived from it at rename: the functional-unit
    #: index and the count of sources not yet ready
    __slots__ = STATE + ("fu", "pending")

    WAIT = 0
    DONE = 2

    def __init__(self, seq: int, uop: MicroOp):
        self.seq = seq
        self.uop = uop
        self.state = self.WAIT
        self.phys_dst: int | None = None
        self.old_phys: int | None = None
        self.src_phys: tuple[int, ...] = ()
        self.value: int | None = None
        self.addr: int | None = None
        self.store_data: int | None = None
        self.taken: bool | None = None
        self.target: int | None = None
        self.exception: str | None = None
        self.lq_idx: int | None = None
        self.sq_idx: int | None = None
        self.pred_taken: bool = False
        self.out_value: int | None = None
        self.squashed = False
        self.phase = 0
        self.mmio = False
        self.fu = _FU_INDEX[uop.kind]
        self.pending = 0


@dataclass
class RunResult:
    """Outcome of one simulated execution."""

    output: bytes
    cycles: int
    instructions: int
    halted: bool
    crashed: str | None = None
    crash_pc: int = 0
    hvf_corrupt: bool = False
    hvf_seq: int = -1
    checkpoint_cycle: int | None = None
    switch_cycle: int | None = None
    commit_trace: list | None = None
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.halted and self.crashed is None


class OoOCore:
    """Cycle-level out-of-order CPU over a loaded memory image."""

    def __init__(
        self,
        isa: ISA,
        cfg: CPUConfig,
        memory: MainMemory,
        entry_pc: int,
        injector=None,
    ):
        self.isa = isa
        self.cfg = cfg
        self.memory = memory
        self.injector = injector

        self.l2 = Cache("l2", cfg.l2, memory)
        self.l1i = Cache("l1i", cfg.l1i, self.l2)
        self.l1d = Cache("l1d", cfg.l1d, self.l2)
        self.prf_int = PhysRegFile("prf_int", cfg.int_phys_regs)
        self.prf_fp = PhysRegFile("prf_fp", cfg.fp_phys_regs)
        self.lq = LSQueue("lq", cfg.lq_entries)
        self.sq = LSQueue("sq", cfg.sq_entries)
        self.predictor = BimodalPredictor(cfg.predictor_entries)
        # optional memory-side structures — None (entries=0) reproduces the
        # legacy blocking-L1D / drain-from-SQ core exactly
        self.mshr = (
            MSHRFile("mshr", cfg.mshr_entries, cfg.l1d.line_size,
                     cfg.lq_entries)
            if cfg.mshr_entries > 0 else None
        )
        self.store_buffer = (
            StoreBuffer("store_buffer", cfg.store_buffer_entries)
            if cfg.store_buffer_entries > 0 else None
        )
        self.prefetcher = (
            StridePrefetcher("prefetcher", cfg.prefetcher_entries)
            if cfg.prefetcher_entries > 0 else None
        )

        n_arch_int = isa.total_int_regs
        if cfg.int_phys_regs < n_arch_int + 8:
            raise ValueError("int PRF too small for the architectural state")
        self.rat_int = list(range(n_arch_int))
        self.rat_fp = list(range(isa.fp_regs))
        self.prf_int.free = list(range(n_arch_int, cfg.int_phys_regs))
        self.prf_fp.free = list(range(isa.fp_regs, cfg.fp_phys_regs))

        self.fetch_pc = entry_pc
        self.fetch_queue: list[tuple[MicroOp, bool]] = []  # (uop, pred_taken)
        self.fetch_ready_at = 0
        self.fetch_stalled = False       # waiting on redirect (halt/illegal/jalr)
        self.rob: list[_RE] = []
        self.iq: list[_RE] = []
        self.inflight: list[tuple[int, _RE]] = []
        self.seq = 0
        self.cycle = 0
        self.instructions = 0
        # last simulated cycle that retired an instruction — the hang
        # detector's reference point (travels with snapshot/restore so
        # checkpointed runs detect hangs at the same cycle as full runs)
        self.last_commit_cycle = 0
        self.halted = False
        self.wfi_sleep = False
        self.irq_pending = False
        self.output = bytearray()
        self.checkpoint_cycle: int | None = None
        self.switch_cycle: int | None = None
        # divider occupancy (unpipelined units)
        self._div_busy: list[int] = [0] * cfg.mul_div_units
        self._fdiv_busy: list[int] = [0] * cfg.fp_units
        # issue slots per cycle and execute latency, by functional-unit
        # index; loads time their own access, so they have no latency here
        pools = {
            UopKind.ALU: (cfg.int_alu_units, 1),
            UopKind.MUL: (cfg.mul_div_units, cfg.mul_latency),
            UopKind.DIV: (cfg.mul_div_units, cfg.div_latency),
            UopKind.FPU: (cfg.fp_units, cfg.fp_latency),
            UopKind.FDIV: (cfg.fp_units, cfg.fdiv_latency),
            UopKind.LOAD: (cfg.load_ports, None),
            UopKind.STORE: (cfg.store_ports, 1),
            UopKind.BRANCH: (cfg.int_alu_units, 1),
            UopKind.JUMP: (cfg.int_alu_units, 1),
            UopKind.SYS: (1, 1),
            UopKind.ILLEGAL: (cfg.width, 1),
        }
        self._fu_slots = [pools[kind][0] for kind in _FU_INDEX]
        self._fu_latency = [pools[kind][1] for kind in _FU_INDEX]
        # commit trace (HVF machinery)
        self.trace_mode: str | None = None       # None | 'record' | 'compare'
        self.trace: list = []
        self.golden_trace: list | None = None
        self.hvf_corrupt = False
        self.hvf_seq = -1
        self.stop_on_hvf = False
        self._decode_cache: dict = {}

    # ================================================================ helpers

    @classmethod
    def from_executable(
        cls, exe: Executable, isa: ISA, cfg: CPUConfig, injector=None
    ) -> "OoOCore":
        mem = MainMemory(exe.memmap.size, latency=cfg.mem_latency)
        mem.load_image(exe.initial_memory())
        return cls(isa, cfg, mem, exe.entry, injector)

    def _read_phys(self, phys: int, fp: bool) -> int:
        if phys == ZERO_PHYS:
            return 0
        return (self.prf_fp if fp else self.prf_int).read(phys)

    def _src_fp(self, uop: MicroOp, i: int) -> bool:
        if uop.srcs_fp and i < len(uop.srcs_fp):
            return uop.srcs_fp[i]
        return False

    def _sources(self, entry: _RE) -> list[tuple[PhysRegFile, int]]:
        """(register file, physical register) of each renamed source that
        is not the hardwired zero."""
        fps = entry.uop.srcs_fp
        n_fp = len(fps)
        return [
            (self.prf_fp if i < n_fp and fps[i] else self.prf_int, p)
            for i, p in enumerate(entry.src_phys)
            if p != ZERO_PHYS
        ]

    # ================================================================ wakeup

    def _await_sources(self, entry: _RE) -> None:
        """Count ``entry``'s not-ready sources onto their consumer lists."""
        seq = entry.seq
        entry.pending = 0
        for prf, p in self._sources(entry):
            prf.read_seq[p] = seq
            if not prf.ready[p]:
                prf.wait(p, entry)

    def _allocate(self, prf: PhysRegFile) -> int | None:
        """Take a destination register off ``prf``'s free list.

        It becomes not-ready, so each queued uop that reads it but counted
        it ready waits for it again.  A sound free list never holds a
        register a queued uop still reads.  The age test skips the scan
        when every uop renamed to read the register is older than the
        queue; a squash leaves younger readers' seqs behind, and the scan
        then finds nothing in a fault-free run.
        """
        reg = prf.allocate()
        iq = self.iq
        if reg is None or not iq or prf.read_seq[reg] < iq[0].seq:
            return reg
        consumers = prf.consumers[reg]
        for entry in iq:
            if reg not in entry.src_phys:
                continue
            if any(c is entry for c in consumers):
                continue  # already counts reg as not ready
            for src_prf, p in self._sources(entry):
                if src_prf is prf and p == reg:
                    prf.wait(reg, entry)
        return reg

    # ================================================================ fetch

    def _fetch(self) -> None:
        if (
            self.halted
            or self.wfi_sleep
            or self.fetch_stalled
            or self.cycle < self.fetch_ready_at
            or len(self.fetch_queue) >= 2 * self.cfg.width
        ):
            return
        fetched = 0
        while fetched < self.cfg.width:
            pc = self.fetch_pc
            nbytes = min(self.isa.max_instr_bytes, self.memory.size - pc)
            if nbytes < self.isa.min_instr_bytes:
                self.fetch_queue.append(
                    (MicroOp(kind=UopKind.ILLEGAL, pc=pc, size=4), False)
                )
                self.fetch_stalled = True
                return
            raw_int, lat = self.l1i.read(pc, nbytes)
            if lat > self.cfg.l1i.hit_latency:
                # instruction cache miss: stall fetch until the fill completes
                self.fetch_ready_at = self.cycle + lat
                return
            raw = raw_int.to_bytes(nbytes, "little")
            key = (pc, raw)
            uops = self._decode_cache.get(key)
            if uops is None:
                uops = self.isa.decode(raw, pc, 0)
                self._decode_cache[key] = uops
            first = uops[0]
            redirect = None
            pred_taken = False
            if first.kind is UopKind.BRANCH:
                pred_taken = self.predictor.predict(pc)
                if pred_taken:
                    redirect = first.target
            elif first.kind is UopKind.JUMP:
                if first.fn == "indirect":
                    self.fetch_stalled = True  # resolve at execute
                else:
                    redirect = first.target
            elif first.kind is UopKind.ILLEGAL or (
                first.kind is UopKind.SYS and first.fn in (SysFn.HALT, SysFn.WFI)
            ):
                self.fetch_stalled = True
            for u in uops:
                self.fetch_queue.append((u, pred_taken))
                fetched += 1
            if self.fetch_stalled:
                return
            if redirect is not None:
                self.fetch_pc = redirect
                return  # taken-branch fetch bubble
            self.fetch_pc = pc + first.size

    # ================================================================ rename

    def _rename(self) -> None:
        renamed = 0
        while self.fetch_queue and renamed < self.cfg.width:
            if len(self.rob) >= self.cfg.rob_entries:
                return
            if len(self.iq) >= self.cfg.iq_entries:
                return
            uop, pred_taken = self.fetch_queue[0]
            entry = _RE(self.seq, uop)
            entry.pred_taken = pred_taken

            if uop.kind is UopKind.LOAD:
                idx = self.lq.allocate(self.seq)
                if idx is None:
                    return
                entry.lq_idx = idx
            elif uop.kind is UopKind.STORE:
                idx = self.sq.allocate(self.seq)
                if idx is None:
                    return
                entry.sq_idx = idx

            # source renaming
            phys = []
            for i, arch in enumerate(uop.srcs):
                fp = self._src_fp(uop, i)
                if not fp and arch == self.isa.zero_reg:
                    phys.append(ZERO_PHYS)
                elif fp:
                    phys.append(self.rat_fp[arch % len(self.rat_fp)])
                else:
                    phys.append(self.rat_int[arch % len(self.rat_int)])
            entry.src_phys = tuple(phys)

            # destination renaming
            if uop.dst is not None and not (
                not uop.dst_fp and uop.dst == self.isa.zero_reg
            ):
                prf = self.prf_fp if uop.dst_fp else self.prf_int
                rat = self.rat_fp if uop.dst_fp else self.rat_int
                arch = uop.dst % len(rat)
                new_phys = self._allocate(prf)
                if new_phys is None:
                    # undo queue allocation and stall
                    if entry.lq_idx is not None:
                        self.lq.free(entry.lq_idx)
                    if entry.sq_idx is not None:
                        self.sq.free(entry.sq_idx)
                    return
                entry.phys_dst = new_phys
                entry.old_phys = rat[arch]
                rat[arch] = new_phys

            self.fetch_queue.pop(0)
            self.seq += 1
            self.rob.append(entry)
            # after the destination allocation, which may itself make a
            # source not-ready
            self._await_sources(entry)
            self.iq.append(entry)
            renamed += 1

    # ================================================================ issue

    def _issue(self) -> None:
        # No copy of the queue: a squash during issue rebinds self.iq
        # instead of mutating the list walked here.
        slots = self._fu_slots.copy()
        width = self.cfg.width
        taken: list[_RE] = []
        for entry in self.iq:
            if entry.pending or entry.squashed:
                continue
            fu = entry.fu
            if slots[fu] <= 0:
                continue
            if fu == _FU_DIV:
                unit = self._free_unit(self._div_busy)
                if unit is None:
                    continue
                self._div_busy[unit] = self.cycle + self.cfg.div_latency
            elif fu == _FU_FDIV:
                unit = self._free_unit(self._fdiv_busy)
                if unit is None:
                    continue
                self._fdiv_busy[unit] = self.cycle + self.cfg.fdiv_latency
            slots[fu] -= 1
            taken.append(entry)
            self._start_execute(entry)
            if len(taken) >= width:
                break
        if taken:
            taken_ids = set(map(id, taken))
            self.iq = [
                e for e in self.iq if id(e) not in taken_ids and not e.squashed
            ]

    def _free_unit(self, busy: list[int]) -> int | None:
        for i, until in enumerate(busy):
            if until <= self.cycle:
                return i
        return None

    def _start_execute(self, entry: _RE) -> None:
        uop = entry.uop
        srcvals = [
            self._read_phys(p, self._src_fp(uop, i))
            for i, p in enumerate(entry.src_phys)
        ]
        if uop.kind is UopKind.LOAD:
            res = compute(uop, srcvals)
            self.lq.set_addr(entry.lq_idx, res.addr, uop.width)
            entry.phase = 1  # address computed; access next
            self.inflight.append((self.cycle + 1, entry))
            return
        if uop.kind is UopKind.STORE:
            res = compute(uop, srcvals)
            self.sq.set_addr(entry.sq_idx, res.addr, uop.width)
            self.sq.set_data(entry.sq_idx, res.store_data)
            if uop.fn == "pair":
                self.sq.entries[entry.sq_idx].pair = True
            entry.addr = res.addr
            entry.store_data = res.store_data
            span = uop.width * (2 if uop.fn == "pair" else 1)
            if not self._addr_ok(res.addr, span):
                entry.exception = "mem_fault"
            self.inflight.append((self.cycle + 1, entry))
            if entry.exception is None:
                self._check_order_violation(entry, res.addr, span)
            return
        if uop.kind is UopKind.ILLEGAL:
            entry.exception = "illegal_instruction"
            self.inflight.append((self.cycle + 1, entry))
            return
        res = compute(uop, srcvals)
        entry.value = res.value
        entry.taken = res.taken
        entry.target = res.target
        if uop.kind is UopKind.SYS and uop.fn is SysFn.OUT:
            entry.out_value = srcvals[0] if srcvals else 0
        self.inflight.append((self.cycle + self._fu_latency[entry.fu], entry))

    def _addr_ok(self, addr: int, width: int) -> bool:
        if self.memory.is_mmio(addr):
            return True
        return 0 <= addr and addr + width <= self.memory.size

    # ================================================================ memory

    def _load_access(self, entry: _RE) -> None:
        """Phase-1 of a load: forwarding check + cache access."""
        uop = entry.uop
        lq_entry = self.lq.read_entry(entry.lq_idx)
        addr = lq_entry.addr
        width = uop.width
        if not self._addr_ok(addr, width):
            entry.exception = "mem_fault"
            entry.phase = 3
            self.inflight.append((self.cycle + 1, entry))
            return

        # Scan the store queue: youngest older overlapping store wins.
        # Loads speculate past older stores whose address is still unknown;
        # the store CAM-searches the load queue when it resolves and squashes
        # any violating load (memory-order violation replay).
        best = None
        for se_idx, se in enumerate(self.sq.entries):
            if not se.valid or se.seq >= entry.seq or not se.addr_known:
                continue
            if self.sq.probe:
                # the CAM compares this entry's stored address — an
                # observation of the addr field (liveness pin point)
                self.sq.probe.on_entry_scan(self.sq, se_idx)
            span = se.width * (2 if se.pair else 1)
            if se.addr + span <= addr or addr + width <= se.addr:
                continue  # no overlap
            covers = se.addr <= addr and se.addr + span >= addr + width
            if not covers or not se.data_known:
                best = "stall"
                break
            if best is None or best.seq < se.seq:
                best = se
        if best == "stall":
            self.inflight.append((self.cycle + 1, entry))  # replay
            return

        # No SQ match: the post-commit store buffer (when present) holds
        # committed-but-undrained stores, all older than anything in the SQ,
        # so it is searched second and a hit forwards the same way.
        sb_raw = None
        if best is None and self.store_buffer is not None:
            sb_best = None
            for bi, be in enumerate(self.store_buffer.entries):
                if not be.valid:
                    continue
                if self.store_buffer.probe:
                    self.store_buffer.probe.on_entry_scan(self.store_buffer, bi)
                span = be.width * (2 if be.pair else 1)
                if be.addr + span <= addr or addr + width <= be.addr:
                    continue
                covers = be.addr <= addr and be.addr + span >= addr + width
                if not covers:
                    sb_best = "stall"
                    break
                if sb_best is None or self.store_buffer.entries[sb_best].seq < be.seq:
                    sb_best = bi
            if sb_best == "stall":
                self.inflight.append((self.cycle + 1, entry))  # replay
                return
            if sb_best is not None:
                be = self.store_buffer.read_entry(sb_best)
                shift = (addr - be.addr) * 8
                sb_raw = (be.data >> shift) & ((1 << (width * 8)) - 1)

        if best is not None:
            shift = (addr - best.addr) * 8
            raw = (best.data >> shift) & ((1 << (width * 8)) - 1)
            latency = 1
            if self.sq.probe:
                self.sq.probe.on_entry_read(self.sq, self.sq.entries.index(best))
        elif sb_raw is not None:
            raw = sb_raw
            latency = 1
        elif self.memory.is_mmio(addr):
            raw = self.memory.read(addr, width)
            latency = self.cfg.l1d.hit_latency
            entry.mmio = True
        else:
            raw, latency = self._l1d_access(entry, addr, width)
            if raw is None:
                # MSHR file full: lockup back-pressure, replay next cycle
                self.inflight.append((self.cycle + 1, entry))
                return
        self.lq.set_data(entry.lq_idx, raw)
        entry.addr = addr
        entry.phase = 2
        self.inflight.append((self.cycle + latency, entry))

    def _l1d_access(self, entry: _RE, addr: int, width: int):
        """Demand L1D access, through the MSHR file when non-blocking.

        Functionally the L1D fills synchronously (``Cache.read`` installs
        the line and returns correct data; latency is modeled separately
        via the in-flight list), so the MSHR's job is timing and tracking:
        a secondary miss CAM-hits the outstanding entry and pays only the
        primary's remaining latency, a primary miss allocates an entry (or
        replays when the file is full), and a plain hit bypasses the file.
        Returns ``(None, 0)`` for the structural-stall case.
        """
        if self.mshr is None:
            raw, latency = self.l1d.read(addr, width)
        else:
            block = addr - (addr % self.cfg.l1d.line_size)
            idx = self.mshr.lookup(block)
            if idx is not None:
                ready_at = self.mshr.merge(idx, entry.lq_idx)
                raw, _ = self.l1d.read(addr, width)
                latency = max(1, ready_at - self.cycle)
            elif not self.l1d.contains(addr):
                if self.mshr.occupancy() >= len(self.mshr.entries):
                    return None, 0
                raw, latency = self.l1d.read(addr, width)
                fill = self.l1d.peek_block(block) or b""
                self.mshr.allocate(block, self.cycle + latency,
                                   entry.lq_idx, fill)
            else:
                raw, latency = self.l1d.read(addr, width)
        if self.prefetcher is not None:
            pf = self.prefetcher.train(entry.uop.pc, addr)
            if pf is not None:
                line = self.cfg.l1d.line_size
                pf_block = pf - (pf % line)
                if (not self.memory.is_mmio(pf_block)
                        and pf_block + line <= self.memory.size):
                    self.l1d.prefetch_fill(pf_block)
        return raw, latency

    def _check_order_violation(self, store: _RE, addr: int, span: int) -> None:
        """A resolving store CAM-searches the load queue for younger loads
        that already executed against a (now) overlapping address; the
        oldest violator and everything after it replays."""
        victim_seq = None
        victim_pc = None
        for idx, le in enumerate(self.lq.entries):
            if not le.valid or le.seq <= store.seq or not le.addr_known:
                continue
            le = self.lq.read_entry(idx)  # the CAM read (injectable)
            if le.addr + le.width <= addr or addr + span <= le.addr:
                continue
            if victim_seq is None or le.seq < victim_seq:
                victim_seq = le.seq
        if victim_seq is None:
            return
        for e in self.rob:
            if e.seq == victim_seq:
                victim_pc = e.uop.pc
                break
        if victim_pc is None:
            return
        self._squash_after(victim_seq - 1, victim_pc)

    def _load_finish(self, entry: _RE) -> None:
        uop = entry.uop
        raw = self.lq.read_entry(entry.lq_idx).data
        entry.value = load_value(raw & ((1 << (uop.width * 8)) - 1), uop.width, uop.signed)

    def _drain_stores(self) -> None:
        """Write committed stores to the L1D at the ISA's drain rate."""
        if self.store_buffer is not None:
            self._fill_store_buffer()
            self._drain_store_buffer(self.isa.memory_model.store_drain_rate)
            return
        budget = self.isa.memory_model.store_drain_rate
        # strict program order among committed stores
        committed = sorted(
            (
                (se.seq, idx)
                for idx, se in enumerate(self.sq.entries)
                if se.valid and se.committed
            ),
        )
        for _, idx in committed[:budget]:
            se = self.sq.read_entry(idx)
            if self.memory.is_mmio(se.addr):
                self.memory.write(se.addr, se.data, se.width)
            else:
                self.l1d.write(se.addr, se.data, se.width)
            if se.pair:
                self.l1d.write(se.addr + se.width, se.data >> (se.width * 8), se.width)
            self.sq.free(idx)

    def _fill_store_buffer(self) -> None:
        """Move committed stores from the SQ into the buffer, in seq order.

        This is what makes the SQ slot available to the front-end early;
        a full buffer leaves the store in the SQ (back-pressure).
        """
        committed = sorted(
            (se.seq, idx)
            for idx, se in enumerate(self.sq.entries)
            if se.valid and se.committed
        )
        for _, idx in committed:
            se = self.sq.read_entry(idx)
            if self.store_buffer.push(
                se.seq, se.addr, se.data, se.width, se.pair
            ) is None:
                break
            self.sq.free(idx)

    def _drain_store_buffer(self, budget: int | None) -> None:
        """Drain the oldest buffered stores; ``None`` = full fence flush."""
        while budget is None or budget > 0:
            idx = self.store_buffer.oldest()
            if idx is None:
                return
            se = self.store_buffer.read_entry(idx)
            if self.memory.is_mmio(se.addr):
                self.memory.write(se.addr, se.data, se.width)
            else:
                self.l1d.write(se.addr, se.data, se.width)
            if se.pair:
                self.l1d.write(se.addr + se.width, se.data >> (se.width * 8),
                               se.width)
            self.store_buffer.free(idx)
            if budget is not None:
                budget -= 1

    # ================================================================ complete

    def _complete(self) -> None:
        if not self.inflight:
            return
        still: list[tuple[int, _RE]] = []
        finished: list[tuple[int, _RE]] = []
        for when, entry in self.inflight:
            if entry.squashed:
                continue
            (finished if when <= self.cycle else still).append((when, entry))
        self.inflight = still
        for _, entry in sorted(finished, key=lambda t: t[1].seq):
            if entry.squashed:
                continue
            uop = entry.uop
            if uop.kind is UopKind.LOAD and entry.exception is None:
                if entry.phase == 1:
                    self._load_access(entry)
                    continue
                if entry.phase == 2:
                    self._load_finish(entry)
            # writeback
            if entry.phys_dst is not None and entry.value is not None:
                prf = self.prf_fp if uop.dst_fp else self.prf_int
                prf.write(entry.phys_dst, entry.value)
            elif entry.phys_dst is not None:
                # defined but value-less (e.g. exception path): mark ready
                prf = self.prf_fp if uop.dst_fp else self.prf_int
                prf.write(entry.phys_dst, 0)
            entry.state = _RE.DONE
            if uop.kind is UopKind.BRANCH:
                mispredicted = entry.taken != entry.pred_taken
                self.predictor.update(uop.pc, entry.taken, mispredicted)
                if mispredicted:
                    new_pc = entry.target if entry.taken else uop.pc + uop.size
                    self._squash_after(entry.seq, new_pc)
            elif uop.kind is UopKind.JUMP and uop.fn == "indirect":
                self._squash_after(entry.seq, entry.target)

    # ================================================================ squash

    def _squash_after(self, seq: int, new_pc: int) -> None:
        while self.rob and self.rob[-1].seq > seq:
            entry = self.rob.pop()
            entry.squashed = True
            uop = entry.uop
            if entry.phys_dst is not None:
                rat = self.rat_fp if uop.dst_fp else self.rat_int
                prf = self.prf_fp if uop.dst_fp else self.prf_int
                arch = uop.dst % len(rat)
                rat[arch] = entry.old_phys
                prf.release(entry.phys_dst)
                prf.wake(entry.phys_dst)
            if entry.lq_idx is not None:
                self.lq.free(entry.lq_idx)
            if entry.sq_idx is not None and not self.sq.entries[entry.sq_idx].committed:
                self.sq.free(entry.sq_idx)
        self.iq = [e for e in self.iq if not e.squashed]
        self.fetch_queue.clear()
        self.fetch_pc = new_pc
        self.fetch_stalled = False
        self.fetch_ready_at = self.cycle + 1

    # ================================================================ commit

    def _commit(self) -> None:
        commits = 0
        while self.rob and commits < self.cfg.width:
            entry = self.rob[0]
            if entry.state != _RE.DONE:
                return
            uop = entry.uop
            if entry.exception is not None:
                raise CrashError(entry.exception, uop.pc, self.cycle)
            if uop.kind is UopKind.ILLEGAL:
                raise CrashError("illegal_instruction", uop.pc, self.cycle)
            self.rob.pop(0)
            commits += 1
            self.last_commit_cycle = self.cycle
            if uop.first_of_instr:
                self.instructions += 1

            if uop.kind is UopKind.STORE:
                se = self.sq.entries[entry.sq_idx]
                se.committed = True
            elif uop.kind is UopKind.LOAD:
                le = self.lq.read_entry(entry.lq_idx)
                entry.addr = le.addr
                self.lq.free(entry.lq_idx)
            elif uop.kind is UopKind.SYS:
                self._commit_sys(entry)

            if entry.old_phys is not None:
                prf = self.prf_fp if uop.dst_fp else self.prf_int
                prf.release(entry.old_phys)

            if self.trace_mode is not None:
                self._trace_commit(entry)
            if self.halted:
                return

    def _commit_sys(self, entry: _RE) -> None:
        fn = entry.uop.fn
        # HALT / CHECKPOINT / SWITCH_CPU / WFI are fences for the store
        # buffer: every buffered store must reach memory before the final
        # state is read, a checkpoint is cut, or an accelerator takes over.
        if fn in (SysFn.HALT, SysFn.CHECKPOINT, SysFn.SWITCH_CPU, SysFn.WFI):
            if self.store_buffer is not None:
                self._drain_store_buffer(None)
        if fn is SysFn.HALT:
            self.halted = True
        elif fn is SysFn.OUT:
            width = entry.uop.width
            value = (entry.out_value or 0) & ((1 << (width * 8)) - 1)
            self.output += value.to_bytes(width, "little")
        elif fn is SysFn.CHECKPOINT:
            if self.checkpoint_cycle is None:
                self.checkpoint_cycle = self.cycle
            if self.injector is not None:
                self.injector.on_checkpoint(self)
        elif fn is SysFn.SWITCH_CPU:
            if self.switch_cycle is None:
                self.switch_cycle = self.cycle
            if self.injector is not None:
                self.injector.on_switch_cpu(self)
        elif fn is SysFn.WFI:
            if not self.irq_pending:
                self.wfi_sleep = True
            self.irq_pending = False
            self.fetch_stalled = False
            self.fetch_pc = entry.uop.pc + entry.uop.size
            self.fetch_queue.clear()

    def _trace_commit(self, entry: _RE) -> None:
        uop = entry.uop
        rec = (
            uop.pc,
            uop.raw,
            uop.dst,
            entry.value,
            entry.addr,
            entry.store_data,
            entry.taken,
        )
        if self.trace_mode == "record":
            self.trace.append(rec)
        elif not self.hvf_corrupt:
            idx = len(self.trace)
            self.trace.append(None)  # placeholder to track position cheaply
            golden = self.golden_trace
            if golden is None or idx >= len(golden) or golden[idx] != rec:
                self.hvf_corrupt = True
                self.hvf_seq = idx
                if self.stop_on_hvf:
                    self.halted = True

    # ================================================================ state

    def _copy_entries(self, entries, memo: dict):
        """Structured copy of _RE lists preserving identity sharing.

        ROB, IQ and the in-flight list alias the same entry objects; the
        memo keeps one copy per identity so the restored pipeline keeps the
        aliasing (a writeback must mark the *same* entry the ROB commits).
        """
        out = []
        for e in entries:
            new = memo.get(id(e))
            if new is None:
                new = _RE.__new__(_RE)
                for slot in _RE.__slots__:
                    setattr(new, slot, getattr(e, slot))
                memo[id(e)] = new
            out.append(new)
        return out

    def snapshot(self) -> dict:
        """Capture the complete mid-flight simulator state.

        A fast structured copy (no ``deepcopy``): leaf containers are
        copied, ``MicroOp`` objects are shared by reference (immutable after
        decode), and pipeline entries are memo-copied so ROB/IQ/in-flight
        aliasing survives.  The commit trace is stored as its length only —
        compare mode uses just the position, and storing the golden trace
        per checkpoint would be quadratic.
        """
        memo: dict[int, _RE] = {}
        snap = {
            "memory": self.memory.snapshot(),
            "l1i": self.l1i.snapshot(),
            "l1d": self.l1d.snapshot(),
            "l2": self.l2.snapshot(),
            "prf_int": self.prf_int.snapshot(),
            "prf_fp": self.prf_fp.snapshot(),
            "rat_int": list(self.rat_int),
            "rat_fp": list(self.rat_fp),
            "lq": self.lq.snapshot(),
            "sq": self.sq.snapshot(),
            "predictor": self.predictor.snapshot(),
            "fetch_pc": self.fetch_pc,
            "fetch_queue": list(self.fetch_queue),
            "fetch_ready_at": self.fetch_ready_at,
            "fetch_stalled": self.fetch_stalled,
            "last_commit_cycle": self.last_commit_cycle,
            "rob": self._copy_entries(self.rob, memo),
            "iq": self._copy_entries(self.iq, memo),
            "inflight": [
                (when, self._copy_entries([e], memo)[0])
                for when, e in self.inflight
            ],
            "seq": self.seq,
            "cycle": self.cycle,
            "instructions": self.instructions,
            "halted": self.halted,
            "wfi_sleep": self.wfi_sleep,
            "irq_pending": self.irq_pending,
            "output": bytes(self.output),
            "checkpoint_cycle": self.checkpoint_cycle,
            "switch_cycle": self.switch_cycle,
            "div_busy": list(self._div_busy),
            "fdiv_busy": list(self._fdiv_busy),
            "trace_len": len(self.trace),
            "hvf_corrupt": self.hvf_corrupt,
            "hvf_seq": self.hvf_seq,
        }
        # keys only exist when the structure does, so snapshots (and their
        # digests) of legacy configurations are unchanged
        if self.mshr is not None:
            snap["mshr"] = self.mshr.snapshot()
        if self.store_buffer is not None:
            snap["store_buffer"] = self.store_buffer.snapshot()
        if self.prefetcher is not None:
            snap["prefetcher"] = self.prefetcher.snapshot()
        return snap

    def restore(self, snap: dict) -> None:
        """Restore a :meth:`snapshot` into a core with the same config.

        Entries are copied back out of the snapshot (never aliased into it),
        so one snapshot can seed any number of runs.  All cycle-valued
        fields (``fetch_ready_at``, in-flight completion times, divider
        occupancy) are absolute, so a restored core replays the exact future
        of the snapshotted one.  The commit trace is refilled with
        placeholders: compare mode only indexes by position.
        """
        memo: dict[int, _RE] = {}
        self.memory.restore(snap["memory"])
        self.l1i.restore(snap["l1i"])
        self.l1d.restore(snap["l1d"])
        self.l2.restore(snap["l2"])
        self.prf_int.restore(snap["prf_int"])
        self.prf_fp.restore(snap["prf_fp"])
        self.rat_int[:] = snap["rat_int"]
        self.rat_fp[:] = snap["rat_fp"]
        self.lq.restore(snap["lq"])
        self.sq.restore(snap["sq"])
        self.predictor.restore(snap["predictor"])
        self.fetch_pc = snap["fetch_pc"]
        self.fetch_queue = list(snap["fetch_queue"])
        self.fetch_ready_at = snap["fetch_ready_at"]
        self.fetch_stalled = snap["fetch_stalled"]
        self.last_commit_cycle = snap.get("last_commit_cycle", 0)
        self.rob = self._copy_entries(snap["rob"], memo)
        self.iq = self._copy_entries(snap["iq"], memo)
        for entry in self.iq:  # the register files came back without lists
            self._await_sources(entry)
        self.inflight = [
            (when, self._copy_entries([e], memo)[0])
            for when, e in snap["inflight"]
        ]
        self.seq = snap["seq"]
        self.cycle = snap["cycle"]
        self.instructions = snap["instructions"]
        self.halted = snap["halted"]
        self.wfi_sleep = snap["wfi_sleep"]
        self.irq_pending = snap["irq_pending"]
        self.output = bytearray(snap["output"])
        self.checkpoint_cycle = snap["checkpoint_cycle"]
        self.switch_cycle = snap["switch_cycle"]
        self._div_busy = list(snap["div_busy"])
        self._fdiv_busy = list(snap["fdiv_busy"])
        self.trace = [None] * snap["trace_len"]
        self.hvf_corrupt = snap["hvf_corrupt"]
        self.hvf_seq = snap["hvf_seq"]
        if self.mshr is not None:
            self.mshr.restore(snap["mshr"])
        if self.store_buffer is not None:
            self.store_buffer.restore(snap["store_buffer"])
        if self.prefetcher is not None:
            self.prefetcher.restore(snap["prefetcher"])

    # ================================================================ run

    def wake_interrupt(self) -> None:
        """Signal an external interrupt (accelerator completion)."""
        if self.wfi_sleep:
            self.wfi_sleep = False
        else:
            self.irq_pending = True

    def step(self) -> None:
        """Advance one clock cycle."""
        if self.injector is not None:
            self.injector.tick(self)
        if self.mshr is not None:
            self.mshr.retire(self.cycle, self.l1d)
        self._commit()
        if self.halted:
            return
        self._drain_stores()
        self._complete()
        self._issue()
        self._rename()
        self._fetch()
        self.cycle += 1

    def run(self, max_cycles: int = 5_000_000, on_cycle=None) -> RunResult:
        """Run to HALT / crash / cycle budget; always returns a RunResult.

        ``on_cycle(core)`` is called at the top of every cycle, before the
        injector tick — the point a checkpoint collector observes the state
        a restored run resumes from.
        """
        crashed: str | None = None
        crash_pc = 0
        try:
            while not self.halted and self.cycle < max_cycles:
                if on_cycle is not None:
                    on_cycle(self)
                self.step()
            if not self.halted:
                crashed = "timeout"
        except CrashError as exc:
            crashed = exc.reason
            crash_pc = exc.pc
        return RunResult(
            output=bytes(self.output),
            cycles=self.cycle,
            instructions=self.instructions,
            halted=self.halted,
            crashed=crashed,
            crash_pc=crash_pc,
            hvf_corrupt=self.hvf_corrupt,
            hvf_seq=self.hvf_seq,
            checkpoint_cycle=self.checkpoint_cycle,
            switch_cycle=self.switch_cycle,
            commit_trace=self.trace if self.trace_mode == "record" else None,
            stats={
                "l1i": vars(self.l1i.stats).copy(),
                "l1d": vars(self.l1d.stats).copy(),
                "l2": vars(self.l2.stats).copy(),
                "branch_lookups": self.predictor.lookups,
                "branch_mispredicts": self.predictor.mispredicts,
            },
        )
