"""Checkpointing: snapshot/restore of the full simulated system state.

The paper extends gem5's checkpointing to preserve **both** architectural
and microarchitectural state (including cache contents) so fault campaigns
can start from any point without warm-up (Section IV-B, "Flexibility and
Ease of Expansion").  This module does the same for :class:`OoOCore`, at
two granularities:

* the legacy quiesced checkpoint (:func:`take_checkpoint`), taken with a
  drained pipeline — an architectural save point;
* :class:`CoreCheckpoint`, a *mid-flight* snapshot of everything down to
  in-flight ROB entries and PLRU bits, cheap enough for a
  :class:`CheckpointStore` to collect one per stride bucket during the
  golden run.  Fault runs then restore the nearest checkpoint at-or-before
  the injection cycle instead of re-simulating the warm-up, and compare
  :func:`state_digest` values against the golden stream to detect
  re-convergence (the fault is gone and every future cycle is identical —
  classify Masked immediately).

Simulation is deterministic, so "identical state at cycle C" implies
"identical run from cycle C" — the property the differential equivalence
suite (``tests/core/test_checkpoint_equivalence.py``) pins down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.cpu.core import OoOCore, _RE


class CheckpointError(Exception):
    """Checkpoint taken or restored in an invalid pipeline state."""


# --------------------------------------------------------------------------
# campaign-facing policy
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointPolicy:
    """How a campaign uses checkpoints (kept out of :class:`CampaignSpec`
    on purpose: the policy is an execution strategy, not part of the
    experiment identity, so journal fingerprints — and therefore resume —
    are unaffected by toggling it).

    * ``stride`` — golden-run cycles between checkpoints; ``None`` picks an
      adaptive stride (start fine, thin by doubling once
      ``max_checkpoints`` is exceeded), ``0`` disables checkpointing;
    * ``early_exit`` — classify Masked as soon as the fault run's state
      digest re-converges with the golden checkpoint stream;
    * ``max_checkpoints`` — memory bound for the adaptive mode.
    """

    stride: int | None = None
    early_exit: bool = True
    max_checkpoints: int = 64

    @property
    def enabled(self) -> bool:
        return self.stride != 0


DEFAULT_POLICY = CheckpointPolicy()
NO_CHECKPOINTS = CheckpointPolicy(stride=0, early_exit=False)

#: first stride tried by the adaptive mode (doubles on thinning)
AUTO_INITIAL_STRIDE = 64


# --------------------------------------------------------------------------
# canonical state serialization + digest
# --------------------------------------------------------------------------


def _uop_key(uop) -> tuple:
    """Every behavior-relevant MicroOp field (the debug ``repr`` is not
    exhaustive enough to serve as an identity)."""
    return (
        uop.kind, getattr(uop.fn, "value", uop.fn), uop.dst, uop.dst_fp,
        uop.srcs, uop.srcs_fp, uop.imm, uop.width, uop.signed, uop.cond,
        uop.target, uop.uses_flags, uop.rm_shift, uop.pc, uop.size, uop.raw,
        uop.first_of_instr,
    )


def _entry_key(entry: _RE) -> tuple:
    # STATE, not __slots__: the issue-wakeup counts are derived state that
    # restore rebuilds, and would only make equal futures digest apart
    return tuple(
        _uop_key(getattr(entry, slot)) if slot == "uop" else getattr(entry, slot)
        for slot in _RE.STATE
    )


def payload_digest(payload: dict) -> bytes:
    """Digest of every future-relevant field of a core snapshot.

    Deliberately *excludes* statistics (cache hit counters, predictor
    lookup counts) and the HVF flags: neither influences any future
    architectural or timing behavior, and a restored core starts its stats
    at zero.  Everything else — down to PLRU bits, free-list order and
    in-flight completion times — is included, so equal digests mean equal
    futures on this deterministic simulator.
    """
    h = hashlib.sha256()
    h.update(payload["memory"])
    h.update(payload["output"])
    for name in ("l1i", "l1d", "l2"):
        cache = payload[name]
        for line in cache["data"]:
            h.update(line)
        h.update(repr((cache["tags"], cache["valid"], cache["dirty"],
                       cache["plru"])).encode())
    h.update(repr((payload["prf_int"], payload["prf_fp"],
                   payload["rat_int"], payload["rat_fp"])).encode())
    h.update(repr((payload["lq"], payload["sq"], payload["predictor"])).encode())
    h.update(repr((
        payload["fetch_pc"],
        [( _uop_key(u), taken) for u, taken in payload["fetch_queue"]],
        payload["fetch_ready_at"], payload["fetch_stalled"],
        [_entry_key(e) for e in payload["rob"]],
        [_entry_key(e) for e in payload["iq"]],
        [(when, _entry_key(e)) for when, e in payload["inflight"]],
        payload["seq"], payload["cycle"], payload["instructions"],
        payload["halted"], payload["wfi_sleep"], payload["irq_pending"],
        payload["checkpoint_cycle"], payload["switch_cycle"],
        payload["div_busy"], payload["fdiv_busy"], payload["trace_len"],
    )).encode())
    # optional structures: their keys only exist when the core has them,
    # so digests of legacy configurations are unchanged byte for byte
    for name in ("mshr", "store_buffer", "prefetcher"):
        if name in payload:
            h.update(repr((name, payload[name])).encode())
    return h.digest()


def state_digest(core: OoOCore) -> bytes:
    """Digest of a live core's complete future-relevant state."""
    return payload_digest(core.snapshot())


# --------------------------------------------------------------------------
# memory image deltas
# --------------------------------------------------------------------------

_DELTA_CHUNK = 256


def delta_encode(base: bytes, image: bytes,
                 chunk: int = _DELTA_CHUNK) -> list[tuple[int, bytes]]:
    """Chunked byte-diff of a memory image against the initial executable
    image — checkpoints store only the pages the program wrote."""
    patches = []
    for off in range(0, len(image), chunk):
        piece = image[off:off + chunk]
        if piece != base[off:off + chunk]:
            patches.append((off, bytes(piece)))
    return patches


def delta_apply(base: bytes, patches: list[tuple[int, bytes]]) -> bytearray:
    buf = bytearray(base)
    for off, piece in patches:
        buf[off:off + len(piece)] = piece
    return buf


# --------------------------------------------------------------------------
# mid-flight checkpoints
# --------------------------------------------------------------------------


class CoreCheckpoint:
    """One mid-flight full-state snapshot plus its digest.

    Memory is held as a delta against the executable's initial image when
    a ``base_image`` is supplied (the common case — one shared base per
    store), or as a full copy otherwise.
    """

    __slots__ = ("cycle", "digest", "payload", "base_image", "mem_delta",
                 "mem_image")

    def __init__(self, cycle, digest, payload, base_image, mem_delta, mem_image):
        self.cycle = cycle
        self.digest = digest
        self.payload = payload
        self.base_image = base_image
        self.mem_delta = mem_delta
        self.mem_image = mem_image

    @classmethod
    def capture(cls, core: OoOCore, base_image: bytes | None = None
                ) -> "CoreCheckpoint":
        payload = core.snapshot()
        digest = payload_digest(payload)
        memory = payload.pop("memory")
        if base_image is not None and len(base_image) == len(memory):
            return cls(payload["cycle"], digest, payload, base_image,
                       delta_encode(base_image, memory), None)
        return cls(payload["cycle"], digest, payload, None, None, memory)

    def memory_image(self) -> bytes | bytearray:
        if self.mem_image is not None:
            return self.mem_image
        return delta_apply(self.base_image, self.mem_delta)

    def restore_into(self, core: OoOCore) -> None:
        """Restore into any core built from the same executable + config."""
        payload = dict(self.payload)
        payload["memory"] = self.memory_image()
        core.restore(payload)


class CheckpointStore:
    """Checkpoints collected along one golden run, ordered by cycle.

    With a fixed stride the store grows as run_cycles/stride; in adaptive
    mode (``stride=None``) it starts at :data:`AUTO_INITIAL_STRIDE` and,
    whenever ``max_checkpoints`` is exceeded, drops every other checkpoint
    and doubles the stride — bounded memory for arbitrarily long runs,
    still deterministic for a given run length.
    """

    def __init__(self, policy: CheckpointPolicy,
                 base_image: bytes | None = None):
        if not policy.enabled:
            raise CheckpointError("CheckpointStore built with a disabled policy")
        self.policy = policy
        self.base_image = base_image
        self.stride = policy.stride or AUTO_INITIAL_STRIDE
        self.checkpoints: list[CoreCheckpoint] = []
        self._next_mark = 0

    def consider(self, core: OoOCore) -> None:
        """Capture if the core reached the next stride mark (call at the
        top of every golden cycle, e.g. via ``OoOCore.run(on_cycle=...)``)."""
        if core.cycle < self._next_mark:
            return
        self.checkpoints.append(CoreCheckpoint.capture(core, self.base_image))
        if (self.policy.stride is None
                and len(self.checkpoints) > self.policy.max_checkpoints):
            self.checkpoints = self.checkpoints[::2]
            self.stride *= 2
        self._next_mark = self.checkpoints[-1].cycle + self.stride

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self.checkpoints)

    def best_for(self, cycle: int) -> CoreCheckpoint | None:
        """Latest checkpoint at-or-before ``cycle`` (None if there is none)."""
        best = None
        for ckpt in self.checkpoints:
            if ckpt.cycle > cycle:
                break
            best = ckpt
        return best

    def restore_cycle_for(self, cycle: int) -> int:
        ckpt = self.best_for(cycle)
        return ckpt.cycle if ckpt is not None else 0

    def probes_after(self, cycle: int) -> list[CoreCheckpoint]:
        """Checkpoints strictly after ``cycle`` — the points a fault run
        compares its own digest for re-convergence."""
        return [c for c in self.checkpoints if c.cycle > cycle]


def matches(ckpt: CoreCheckpoint, core: OoOCore) -> bool:
    """Does the live core's state digest equal this golden checkpoint's?

    Cheap pre-filters first (commit-trace position, program output): a
    diverged run almost always differs there, and the full digest requires
    a complete state snapshot — worth paying only when convergence is
    actually plausible.
    """
    if ckpt.payload["trace_len"] != len(core.trace):
        return False
    if ckpt.payload["output"] != core.output:
        return False
    return state_digest(core) == ckpt.digest


# --------------------------------------------------------------------------
# legacy quiesced checkpoints (architectural save points)
# --------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """An opaque full-system snapshot."""

    cycle: int
    payload: dict


def quiesce(core: OoOCore, max_cycles: int = 100_000) -> None:
    """Drain the pipeline: run until the ROB and store queue are empty.

    Fetch keeps running, so this is "drain in-flight work", not "stop" —
    call right after the instruction of interest commits.
    """
    start = core.cycle
    while (core.rob or any(e.valid for e in core.sq.entries)
           or (core.store_buffer is not None
               and any(e.valid for e in core.store_buffer.entries))
           or (core.mshr is not None and core.mshr.occupancy())):
        if core.halted:
            return
        if core.cycle - start > max_cycles:
            raise CheckpointError("pipeline failed to drain")
        core.step()


def take_checkpoint(core: OoOCore) -> Checkpoint:
    """Snapshot the complete system state (call on a quiesced core)."""
    if core.rob:
        raise CheckpointError("checkpoint requires a drained pipeline")
    payload = {
        "memory": core.memory.snapshot(),
        "l1i": core.l1i.snapshot(),
        "l1d": core.l1d.snapshot(),
        "l2": core.l2.snapshot(),
        "prf_int": core.prf_int.snapshot(),
        "prf_fp": core.prf_fp.snapshot(),
        "rat_int": list(core.rat_int),
        "rat_fp": list(core.rat_fp),
        "lq": core.lq.snapshot(),
        "sq": core.sq.snapshot(),
        "predictor": core.predictor.snapshot(),
        "fetch_pc": core.fetch_pc,
        "cycle": core.cycle,
        "seq": core.seq,
        "instructions": core.instructions,
        "output": bytes(core.output),
        "halted": core.halted,
    }
    # quiesce drained the MSHR and store buffer, but the prefetcher's
    # trained strides are persistent timing state, like the predictor's
    if core.mshr is not None:
        payload["mshr"] = core.mshr.snapshot()
    if core.store_buffer is not None:
        payload["store_buffer"] = core.store_buffer.snapshot()
    if core.prefetcher is not None:
        payload["prefetcher"] = core.prefetcher.snapshot()
    return Checkpoint(cycle=core.cycle, payload=payload)


def restore_checkpoint(core: OoOCore, ckpt: Checkpoint) -> None:
    """Restore a snapshot into a core built with the same configuration."""
    p = ckpt.payload
    core.memory.restore(p["memory"])
    core.l1i.restore(p["l1i"])
    core.l1d.restore(p["l1d"])
    core.l2.restore(p["l2"])
    core.prf_int.restore(p["prf_int"])
    core.prf_fp.restore(p["prf_fp"])
    core.rat_int[:] = p["rat_int"]
    core.rat_fp[:] = p["rat_fp"]
    core.lq.restore(p["lq"])
    core.sq.restore(p["sq"])
    core.predictor.restore(p["predictor"])
    core.fetch_pc = p["fetch_pc"]
    core.cycle = p["cycle"]
    core.seq = p["seq"]
    core.instructions = p["instructions"]
    core.output = bytearray(p["output"])
    core.halted = p["halted"]
    if core.mshr is not None and "mshr" in p:
        core.mshr.restore(p["mshr"])
    if core.store_buffer is not None and "store_buffer" in p:
        core.store_buffer.restore(p["store_buffer"])
    if core.prefetcher is not None and "prefetcher" in p:
        core.prefetcher.restore(p["prefetcher"])
    core.rob.clear()
    core.iq.clear()
    core.inflight.clear()
    core.fetch_queue.clear()
    core.fetch_stalled = False
    core.fetch_ready_at = core.cycle
    core.last_commit_cycle = core.cycle
    core._decode_cache.clear()
