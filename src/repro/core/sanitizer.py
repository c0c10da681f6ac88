"""Microarchitectural integrity sanitizer: runtime invariant auditing.

The SFI methodology only trusts a campaign's AVF/HVF numbers because the
injector corrupts *exactly* what the fault mask says.  A simulator bug that
does not raise — a subtly wrong ``snapshot()/restore()``, a double-released
physical register, a cache line aliased into two ways — silently produces an
*impossible* microarchitectural state that today would be folded into the
vulnerability factors as SDC or Masked.  This module is the runtime defense:

* a registry of per-structure **invariant checks** (rename-map/free-list
  bijection, ROB age ordering and occupancy bounds, LQ/SQ entries referencing
  live ROB entries, cache tag/valid/PLRU consistency, SPM access-counter
  monotonicity), audited from the existing ``on_cycle`` hook at a
  configurable stride (``--sanitize=off|sampled|full``, ``--audit-stride N``);
* **fault-aware suppression**: corruption reachable from the active fault
  mask (the injected structure and its architecturally propagated effects)
  is expected and suppressed, while impossible states escalate to a
  structured :class:`IntegrityReport` and quarantine the run as
  ``Outcome.SIM_FAULT`` with ``sim_error_kind="integrity"``;
* a **deterministic hang detector** in *simulated* time — no commit for K
  cycles while the ROB is non-empty and nothing is outstanding (CPU), no
  dataflow progress for K cycles (accel) — classifying ``Crash(hang)``
  reproducibly instead of burning the nondeterministic wall-clock watchdog.

Check taxonomy
--------------

Checks are either **structural** or **value** checks.  Fault masks flip
*data* bits only (register values, cache data bytes, LSQ address/data bits,
SPM bytes) — never free lists, rename maps, sequence numbers, tags, valid
bits or PLRU state.  A violated structural check is therefore impossible
regardless of the active mask and always escalates.  Value checks audit
redundancy in the data path itself (e.g. a 1-byte load carrying a 128-bit
value) and are suppressed when the active mask can reach the structure:

* any flip already **read** or **escaped** taints the whole datapath —
  all value checks are suppressed;
* an **armed** flip (corruption sits in the structure, not yet consumed)
  suppresses only value checks on that structure;
* pending or masked flips suppress nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.core.injector import ARMED, CORRECTED, DETECTED, ESCAPED, READ

#: default audit stride for ``--sanitize=sampled`` (matches the checkpoint
#: engine's initial stride so audits land on checkpoint-aligned cycles)
DEFAULT_AUDIT_STRIDE = 64

#: default hang-detector window in *simulated* cycles.  Must comfortably
#: exceed the longest legitimate commit gap (a full-ROB dependency chain of
#: L2 misses resolves in well under a thousand cycles at the default
#: geometry); 2048 keeps detection cheap and false-positive-free.
DEFAULT_HANG_CYCLES = 2048

SANITIZE_MODES = ("off", "sampled", "full")

STRUCTURAL = "structural"
VALUE = "value"

#: sentinel reach: a consumed flip taints everything downstream
ALL_STRUCTURES = frozenset({"*"})


@dataclass(frozen=True)
class SanitizerPolicy:
    """How (and whether) invariants are audited during a run.

    ``corruptor`` is a test instrument: a picklable callable invoked as
    ``corruptor(state, n_prior_audits)`` at every audit point *before* the
    checks run, used by the mutation tests to plant impossible states and
    hang wedges mid-run.  It is never set in production.
    """

    mode: str = "sampled"
    audit_stride: int = DEFAULT_AUDIT_STRIDE
    corruptor: Callable | None = None

    def __post_init__(self) -> None:
        if self.mode not in SANITIZE_MODES:
            raise ValueError(f"unknown sanitize mode {self.mode!r}; "
                             f"expected one of {SANITIZE_MODES}")
        if self.audit_stride < 1:
            raise ValueError("audit_stride must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def stride(self) -> int:
        return 1 if self.mode == "full" else self.audit_stride


DEFAULT_SANITIZER = SanitizerPolicy()
NO_SANITIZER = SanitizerPolicy(mode="off")
FULL_SANITIZER = SanitizerPolicy(mode="full")


@dataclass(frozen=True)
class IntegrityReport:
    """Structured evidence for one impossible microarchitectural state."""

    check: str             # registry name of the violated invariant
    structure: str         # structure family the check audits
    kind: str              # STRUCTURAL | VALUE
    cycle: int             # simulated cycle the audit fired at
    detail: str            # human-readable description of the violation
    mask_id: int = -1      # fault mask active during the run (-1: golden)
    mode: str = "sampled"  # sanitizer mode that caught it
    #: differential-escalation label: ``deterministic`` (reproduces from
    #: scratch), ``checkpoint-divergence`` (clean without fast-forward), or
    #: ``None`` when the violation was not escalated (e.g. golden runs)
    divergence: str | None = None

    def describe(self) -> str:
        tag = f" [{self.divergence}]" if self.divergence else ""
        return (f"integrity violation{tag}: {self.check} ({self.kind}) on "
                f"{self.structure} at cycle {self.cycle}: {self.detail}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "IntegrityReport":
        return cls(**data)


class IntegrityViolation(Exception):
    """An invariant check failed on state the fault mask cannot explain."""

    def __init__(self, report: IntegrityReport):
        super().__init__(report.describe())
        self.report = report


@dataclass(frozen=True)
class InvariantCheck:
    name: str
    structure: str          # display name for reports
    kind: str               # STRUCTURAL | VALUE
    #: mask structure names whose injected corruption could trip the check
    #: (only consulted for VALUE checks)
    reaches: tuple[str, ...]
    fn: Callable            # fn(core) -> str | None (violation detail)


def should_suppress(check: InvariantCheck, reach: frozenset) -> bool:
    """Is a violation of ``check`` explainable by the active mask's reach?"""
    if check.kind != VALUE:
        return False
    if reach is ALL_STRUCTURES or "*" in reach:
        return True
    return bool(reach.intersection(check.reaches))


def cpu_reach(controller) -> frozenset:
    """Structures whose data the active CPU mask can have corrupted.

    Reads the per-flip lifecycle states tracked by the injection
    controller; see the module docstring for the taint rules.
    """
    if controller is None:
        return frozenset()
    reach: set[str] = set()
    for fs in controller.flips:
        if fs.status in (READ, ESCAPED):
            return ALL_STRUCTURES
        if fs.status == ARMED:
            reach.add(fs.flip.structure)
    return frozenset(reach)


# --------------------------------------------------------------------------
# CPU invariant registry
# --------------------------------------------------------------------------

CPU_CHECKS: list[InvariantCheck] = []


def _cpu_check(name: str, structure: str, kind: str,
               reaches: tuple[str, ...] = ()):
    def register(fn):
        CPU_CHECKS.append(InvariantCheck(name, structure, kind, reaches, fn))
        return fn
    return register


@_cpu_check("rename_free_bijection", "prf/rat", STRUCTURAL)
def _check_rename_free_bijection(core) -> str | None:
    """Free list holds each register at most once, in range, and never a
    register the rename map still points at."""
    for prf, rat in ((core.prf_int, core.rat_int), (core.prf_fp, core.rat_fp)):
        free = prf.free
        if len(set(free)) != len(free):
            dup = sorted(r for r in set(free) if free.count(r) > 1)
            return f"{prf.name}: registers {dup} double-released to free list"
        for r in free:
            if not 0 <= r < prf.size:
                return f"{prf.name}: free-list register p{r} out of range"
        overlap = set(free).intersection(rat)
        if overlap:
            return (f"{prf.name}: registers {sorted(overlap)} are both free "
                    f"and rename-mapped")
    return None


@_cpu_check("rob_phys_ownership", "rob", STRUCTURAL)
def _check_rob_phys_ownership(core) -> str | None:
    """Every live ROB entry exclusively owns its allocated registers."""
    free = (set(core.prf_int.free), set(core.prf_fp.free))
    seen: tuple[set, set] = (set(), set())
    for e in core.rob:
        if e.phys_dst is None:
            continue
        fp = 1 if e.uop.dst_fp else 0
        if e.phys_dst in free[fp]:
            return (f"seq {e.seq}: in-flight phys_dst p{e.phys_dst} is on "
                    f"the free list (double allocation)")
        if e.phys_dst in seen[fp]:
            return f"phys_dst p{e.phys_dst} owned by two live ROB entries"
        seen[fp].add(e.phys_dst)
        if e.old_phys is not None and e.old_phys in free[fp]:
            return (f"seq {e.seq}: old_phys p{e.old_phys} freed before "
                    f"its overwriting instruction committed")
    return None


@_cpu_check("rob_age_order", "rob", STRUCTURAL)
def _check_rob_age_order(core) -> str | None:
    """ROB entries stay in strictly increasing program order within bounds."""
    if len(core.rob) > core.cfg.rob_entries:
        return (f"occupancy {len(core.rob)} exceeds capacity "
                f"{core.cfg.rob_entries}")
    prev = None
    for e in core.rob:
        if e.squashed:
            return f"squashed entry seq {e.seq} still resident in ROB"
        if prev is not None and e.seq <= prev:
            return f"age order broken: seq {e.seq} follows seq {prev}"
        prev = e.seq
    return None


@_cpu_check("iq_subset_of_rob", "iq", STRUCTURAL)
def _check_iq_subset_of_rob(core) -> str | None:
    """Every issue-queue entry is a live ROB entry."""
    if len(core.iq) > core.cfg.iq_entries:
        return (f"occupancy {len(core.iq)} exceeds capacity "
                f"{core.cfg.iq_entries}")
    rob_ids = set(map(id, core.rob))
    for e in core.iq:
        if e.squashed:
            return f"squashed entry seq {e.seq} still resident in IQ"
        if id(e) not in rob_ids:
            return f"IQ entry seq {e.seq} not present in the ROB"
    return None


@_cpu_check("iq_wakeup_consistency", "iq", STRUCTURAL)
def _check_iq_wakeup_consistency(core) -> str | None:
    """Each issue-queue entry's outstanding-source count equals its number
    of not-ready sources, and it sits on each such register's consumer
    list once per source: issue reads the count instead of the sources."""
    for e in core.iq:
        waiting = [(prf, p) for prf, p in core._sources(e) if not prf.ready[p]]
        if e.pending != len(waiting):
            return (f"seq {e.seq}: outstanding-source count {e.pending}, "
                    f"but {len(waiting)} sources are not ready")
        for prf, p in waiting:
            listed = sum(1 for c in prf.consumers[p] if c is e)
            if listed != waiting.count((prf, p)):
                return (f"seq {e.seq}: waits on {prf.name} p{p} but is "
                        f"listed {listed} times among its consumers")
    return None


@_cpu_check("lsq_liveness", "lsq", STRUCTURAL)
def _check_lsq_liveness(core) -> str | None:
    """Valid LQ (and uncommitted SQ) entries reference live ROB entries."""
    live = {e.seq for e in core.rob}
    if core.lq.occupancy() > len(core.lq.entries):
        return "LQ occupancy exceeds capacity"
    for idx, le in enumerate(core.lq.entries):
        if le.valid and le.seq not in live:
            return f"lq[{idx}]: seq {le.seq} references no live ROB entry"
    for idx, se in enumerate(core.sq.entries):
        if se.valid and not se.committed and se.seq not in live:
            return f"sq[{idx}]: seq {se.seq} references no live ROB entry"
    return None


@_cpu_check("cache_consistency", "cache", STRUCTURAL)
def _check_cache_consistency(core) -> str | None:
    """No tag aliases two valid ways; dirty implies valid; PLRU in range."""
    for cache in (core.l1i, core.l1d, core.l2):
        cfg = cache.cfg
        plru_bound = 1 << max(0, cfg.assoc - 1)
        for s in range(cfg.num_sets):
            if not 0 <= cache.plru[s] < plru_bound:
                return (f"{cache.name}: PLRU state {cache.plru[s]} out of "
                        f"range for set {s} (assoc {cfg.assoc})")
            seen: dict[int, int] = {}
            for way in range(cfg.assoc):
                line = s * cfg.assoc + way
                if cache.dirty[line] and not cache.valid[line]:
                    return f"{cache.name}: set {s} way {way} dirty but invalid"
                if not cache.valid[line]:
                    continue
                tag = cache.tags[line]
                if tag in seen:
                    return (f"{cache.name}: tag {tag:#x} aliases valid ways "
                            f"{seen[tag]} and {way} of set {s}")
                seen[tag] = way
    return None


@_cpu_check("prf_value_width", "prf",
            VALUE, reaches=("regfile_int", "regfile_fp"))
def _check_prf_value_width(core) -> str | None:
    """Physical registers hold non-negative values within 64 bits."""
    for prf in (core.prf_int, core.prf_fp):
        if prf.values and max(prf.values) >> 64:
            return f"{prf.name}: register value wider than 64 bits"
        if prf.values and min(prf.values) < 0:
            return f"{prf.name}: negative register value"
    return None


@_cpu_check("lq_data_width", "lq", VALUE, reaches=("lq",))
def _check_lq_data_width(core) -> str | None:
    """A completed load's data fits the access width it performed."""
    for idx, le in enumerate(core.lq.entries):
        if (le.valid and le.data_known and not le.pair
                and le.data >> (le.width * 8)):
            return (f"lq[{idx}]: {le.width}-byte load carries data "
                    f"{le.data:#x} wider than its access")
    return None


@_cpu_check("mshr_state", "mshr", VALUE, reaches=("mshr",))
def _check_mshr_state(core) -> str | None:
    """MSHR entries reference in-flight misses only.

    A valid entry is a dispatched, not-yet-retired miss: block-aligned,
    still pointing where it was dispatched, with at least one waiting
    load in range.  Invalid slots are cleared by ``free``.  VALUE check:
    the mask can flip addr/valid/targets, so mshr-reaching masks suppress.
    """
    if core.mshr is None:
        return None
    line = core.cfg.l1d.line_size
    bound = 1 << core.cfg.lq_entries
    for idx, e in enumerate(core.mshr.entries):
        if e.valid:
            if e.addr % line:
                return f"mshr[{idx}]: miss address {e.addr:#x} not block-aligned"
            if e.addr != e.orig_addr:
                return (f"mshr[{idx}]: fill destination {e.addr:#x} diverged "
                        f"from dispatch address {e.orig_addr:#x}")
            if not e.targets:
                return f"mshr[{idx}]: outstanding miss with no waiting loads"
            if e.targets >> core.cfg.lq_entries:
                return (f"mshr[{idx}]: target bitmap {e.targets:#x} exceeds "
                        f"the LQ ({bound:#x})")
        elif e.addr or e.targets:
            return f"mshr[{idx}]: freed slot not cleared"
    return None


@_cpu_check("store_buffer_order", "store_buffer", STRUCTURAL)
def _check_store_buffer_order(core) -> str | None:
    """The store buffer drains committed stores in program order.

    Sequence numbers are metadata the mask never flips, so violations
    always escalate: duplicates mean a store was buffered twice, and an
    entry at or below ``last_drained_seq`` means program order broke.
    """
    if core.store_buffer is None:
        return None
    seen: set[int] = set()
    for idx, e in enumerate(core.store_buffer.entries):
        if not e.valid:
            continue
        if e.seq in seen:
            return f"store_buffer[{idx}]: seq {e.seq} buffered twice"
        seen.add(e.seq)
        if e.seq <= core.store_buffer.last_drained_seq:
            return (f"store_buffer[{idx}]: seq {e.seq} still resident after "
                    f"seq {core.store_buffer.last_drained_seq} drained")
    return None


@_cpu_check("prefetcher_untouched_zero", "prefetcher", VALUE,
            reaches=("prefetcher",))
def _check_prefetcher_untouched_zero(core) -> str | None:
    """Never-trained prefetch slots hold all-zero state; trained slots
    stay inside their declared field widths."""
    if core.prefetcher is None:
        return None
    for idx, e in enumerate(core.prefetcher.entries):
        if not e.trained:
            if e.last_addr or e.stride or e.conf:
                return f"prefetcher[{idx}]: untouched slot is nonzero"
        elif e.stride >> 16 or e.conf >> 4 or e.last_addr >> 64:
            return f"prefetcher[{idx}]: field value exceeds declared width"
    return None


# --------------------------------------------------------------------------
# Auditors
# --------------------------------------------------------------------------

class CoreAuditor:
    """Audits one ``OoOCore`` at the policy's stride via ``on_cycle``."""

    def __init__(self, policy: SanitizerPolicy, controller=None, mask=None):
        self.policy = policy
        self.controller = controller
        self.mask_id = mask.mask_id if mask is not None else -1
        self.audits = 0
        self.suppressed = 0
        self._next = 0

    def on_cycle(self, core) -> None:
        if core.cycle < self._next:
            return
        self._next = core.cycle + self.policy.stride
        self.audit(core)

    def _audit_protection(self, core) -> None:
        """Protection-bookkeeping invariants on the injection controller.

        Purely structural: lifecycle states and virtual-bit bookkeeping are
        simulator metadata no fault mask can corrupt, so a violation always
        escalates (never suppressed by mask reach).
        """
        ctl = self.controller
        for fs in ctl.flips:
            scheme = getattr(fs, "scheme", None)
            if fs.status == CORRECTED and (scheme is None
                                           or not scheme.corrects):
                raise IntegrityViolation(IntegrityReport(
                    check="protection_corrects", structure=fs.flip.structure,
                    kind=STRUCTURAL, cycle=core.cycle,
                    detail=(f"flip bit {fs.flip.bit} marked corrected by "
                            f"{'no scheme' if scheme is None else scheme.name}"
                            f", which cannot correct"),
                    mask_id=self.mask_id, mode=self.policy.mode,
                ))
            if fs.status == DETECTED and not ctl.detected_by:
                raise IntegrityViolation(IntegrityReport(
                    check="protection_detected_by",
                    structure=fs.flip.structure,
                    kind=STRUCTURAL, cycle=core.cycle,
                    detail=(f"flip bit {fs.flip.bit} marked detected but the "
                            f"controller carries no detected_by provenance"),
                    mask_id=self.mask_id, mode=self.policy.mode,
                ))
            if getattr(fs, "virtual", False) and fs.applied:
                raise IntegrityViolation(IntegrityReport(
                    check="protection_virtual_bits",
                    structure=fs.flip.structure,
                    kind=STRUCTURAL, cycle=core.cycle,
                    detail=(f"virtual check-bit flip {fs.flip.bit} was "
                            f"materialized in simulated storage"),
                    mask_id=self.mask_id, mode=self.policy.mode,
                ))

    def audit(self, core) -> None:
        if self.policy.corruptor is not None:
            self.policy.corruptor(core, self.audits)
        self.audits += 1
        reach = cpu_reach(self.controller)
        if self.controller is not None:
            self._audit_protection(core)
        for check in CPU_CHECKS:
            detail = check.fn(core)
            if detail is None:
                continue
            if should_suppress(check, reach):
                self.suppressed += 1
                continue
            raise IntegrityViolation(IntegrityReport(
                check=check.name, structure=check.structure, kind=check.kind,
                cycle=core.cycle, detail=detail, mask_id=self.mask_id,
                mode=self.policy.mode,
            ))


def hang_detected(core, hang_cycles: int) -> bool:
    """Deterministic CPU hang: no commit for ``hang_cycles`` simulated
    cycles while the ROB is non-empty and nothing is outstanding.

    Stateless — derived entirely from core state that snapshots and
    restores with checkpoints, so checkpointed and from-scratch runs fire
    at the identical simulated cycle.  Events landing at ``cycle + 1``
    (single-cycle replays) do *not* count as outstanding: a load replay
    livelock re-schedules itself every cycle and must still be a hang.
    """
    if not hang_cycles or core.halted or not core.rob:
        return False
    if core.cycle - core.last_commit_cycle < hang_cycles:
        return False
    horizon = core.cycle + 1
    if core.fetch_ready_at > horizon:
        return False
    for when, _entry in core.inflight:
        if when > horizon:
            return False
    for until in core._div_busy:
        if until > horizon:
            return False
    for until in core._fdiv_busy:
        if until > horizon:
            return False
    mshr = getattr(core, "mshr", None)
    if mshr is not None:
        # an outstanding miss whose fill is still in flight is progress:
        # its retire will wake replaying loads
        for e in mshr.entries:
            if e.valid and e.ready_at > horizon:
                return False
    return True


# --------------------------------------------------------------------------
# Accelerator side
# --------------------------------------------------------------------------

#: byte -> 0x00 for untouched (0), 0xFF otherwise: builds a coverage mask
#: so the untouched-implies-zero scan runs at C speed on whole memories
_TOUCH_TABLE = bytes([0]) + bytes([255]) * 255


def accel_reach(injector) -> frozenset:
    """Memories whose bytes the active accel mask can have corrupted."""
    if injector is None:
        return frozenset()
    if injector.state == injector.READ:
        return ALL_STRUCTURES
    if injector.state == injector.ARMED:
        # mask structure is "accel:<design>:<component>"
        return frozenset({injector.flip.structure.rsplit(":", 1)[-1]})
    return frozenset()


class AccelAuditor:
    """Audits a ``DataflowEngine`` and its memory map at the policy stride.

    The SPM counter checks are stateful (monotonicity needs a previous
    observation), so one auditor must watch one engine run start-to-end.
    """

    def __init__(self, policy: SanitizerPolicy, injector=None, mask=None):
        self.policy = policy
        self.injector = injector
        self.mask_id = mask.mask_id if mask is not None else -1
        self.audits = 0
        self.suppressed = 0
        self._next = 0
        self._counters: dict[str, tuple[int, int, int]] = {}

    def on_cycle(self, engine) -> None:
        if engine.cycle < self._next:
            return
        self._next = engine.cycle + self.policy.stride
        self.audit(engine)

    def _raise(self, engine, check: str, structure: str, kind: str,
               detail: str) -> None:
        raise IntegrityViolation(IntegrityReport(
            check=check, structure=structure, kind=kind, cycle=engine.cycle,
            detail=detail, mask_id=self.mask_id, mode=self.policy.mode,
        ))

    def audit(self, engine) -> None:
        if self.policy.corruptor is not None:
            self.policy.corruptor(engine, self.audits)
        self.audits += 1
        reach = accel_reach(self.injector)
        tainted = reach is ALL_STRUCTURES or "*" in reach
        for mem in engine.memmap.memories:
            touched_total = sum(mem.touched)
            cur = (mem.reads, mem.writes, touched_total)
            prev = self._counters.get(mem.name)
            self._counters[mem.name] = cur
            if prev is not None and any(c < p for c, p in zip(cur, prev)):
                self._raise(engine, "spm_counter_monotonic", mem.name,
                            STRUCTURAL,
                            f"access counters ran backwards: {prev} -> {cur}")
            if max(mem.touched, default=0) > 1:
                self._raise(engine, "spm_touch_flags", mem.name, STRUCTURAL,
                            "touch flag outside {0, 1}")
            if not (tainted or mem.name in reach):
                stray = (int.from_bytes(bytes(mem.data), "little")
                         & ~int.from_bytes(
                             bytes(mem.touched).translate(_TOUCH_TABLE),
                             "little"))
                if stray:
                    bit = (stray & -stray).bit_length() - 1
                    self._raise(
                        engine, "spm_untouched_zero", mem.name, VALUE,
                        f"never-written byte {bit // 8} is nonzero")
        for node in getattr(engine, "_window", ()):
            if node.pending < 0 or node.pending_start < 0:
                self._raise(engine, "dataflow_pending", "engine", STRUCTURAL,
                            f"node {node.idx} ({node.instr.op}): negative "
                            f"pending count "
                            f"({node.pending}/{node.pending_start})")
        for when in getattr(engine, "_completing", ()):
            if when < engine.cycle:
                self._raise(engine, "dataflow_completion_order", "engine",
                            STRUCTURAL,
                            f"completion scheduled in the past "
                            f"(cycle {when} < {engine.cycle})")
