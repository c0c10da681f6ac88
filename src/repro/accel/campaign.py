"""SFI campaigns against accelerator memories (the paper's Section V-E).

The DSA side of the campaign kernel in :mod:`repro.core.campaign`:
:class:`AccelSubstrate` supplies the golden standalone run, the sample over
one component's bits and the kernel's cycle span, and one unguarded
injected run; the guarded per-fault path, the run loop and the result type
are the CPU campaign's.  For SPM/RegBank targets the paper notes HVF and
AVF coincide (any consumed corruption is architecturally visible), so
records carry ``hvf = CORRUPTION`` exactly for non-masked runs and the
summary reports no separate HVF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.accel.cluster import Accelerator
from repro.accel.dataflow import DataflowEngine, FUConfig
from repro.accel.spm import ScratchpadMemory
from repro.accel_designs import get_design
from repro.core.campaign import (
    CampaignResult,
    FaultRecord,
    SimulatorFault,
    guarded_fault,
    require_known,
    run_campaign,
)
from repro.core.faultmodels import FaultModelSpec, accel_sample, validate_for
from repro.core.faults import FaultMask, FaultModel
from repro.core.liveness import LivenessMap, attach_accel_recorder
from repro.core.outcome import HVFClass, Outcome
from repro.core.protection import (
    CORRECT,
    DETECT,
    MachineCheckError,
    ProtectionConfig,
    ProtectionScheme,
)
from repro.core.sampling import AdaptiveSampling
from repro.core.sanitizer import (
    DEFAULT_HANG_CYCLES,
    DEFAULT_SANITIZER,
    AccelAuditor,
    IntegrityViolation,
    SanitizerPolicy,
)


@dataclass(frozen=True)
class AccelCampaignSpec:
    """A DSA fault campaign (picklable)."""

    design: str
    component: str
    scale: str = "tiny"
    model: FaultModel = FaultModel.TRANSIENT
    faults: int = 100
    seed: int = 1
    fu: FUConfig | None = None
    watchdog_factor: int = 8
    #: per-structure protection assignment; None = unprotected.  Kept None
    #: (never an all-``none`` config) so the spec fingerprint — and every
    #: journal byte — of an unprotected campaign is identical to pre-
    #: protection output (see ``repro.core.journal.spec_to_dict``).
    protection: ProtectionConfig | None = None
    #: bit-liveness pre-analysis mode (None = off, "on", "audit") — same
    #: semantics and byte-identity contract as the CPU
    #: :class:`repro.core.campaign.CampaignSpec`.
    liveness: str | None = None
    #: fault-generator selection (None = uniform default) — same
    #: byte-identity and fingerprint-provenance contract as the CPU spec;
    #: accelerator campaigns accept single-flip generators only
    #: (``uniform``, ``error-map``).
    fault_model: FaultModelSpec | None = None

    def substrate(self, checkpoints=None,
                  sanitizer: SanitizerPolicy | None = None,
                  hang_cycles: int = DEFAULT_HANG_CYCLES) -> "AccelSubstrate":
        """The substrate that runs this spec's faults, replaying one
        :class:`AccelReplayContext` (``checkpoints`` is the CPU's fast
        path and does not apply)."""
        return AccelSubstrate(self, sanitizer=sanitizer,
                              hang_cycles=hang_cycles, replay=True)


#: protected accelerator memories decode in 8-byte (64-bit) code words —
#: the natural SPM access grain, and the same word width the CPU regfile
#: schemes default to
ACCEL_WORD_BITS = 64


def accel_structure_name(spec: AccelCampaignSpec) -> str:
    """The mask structure name accel flips carry."""
    return f"accel:{spec.design}:{spec.component}"


def component_size(spec: AccelCampaignSpec) -> int:
    """Bytes of the spec's component (``KeyError`` lists the known ones)."""
    sizes = {d.name: d.size for d in get_design(spec.design).memories}
    try:
        return sizes[spec.component]
    except KeyError:
        raise KeyError(
            f"unknown component {spec.component!r} of design "
            f"{spec.design!r}; available: {', '.join(sizes)}"
        ) from None


def accel_scheme(spec: AccelCampaignSpec) -> ProtectionScheme | None:
    """The active protection scheme for the spec's component, if any."""
    if spec.protection is None:
        return None
    return spec.protection.scheme_for(accel_structure_name(spec))


def accel_population_bits(spec: AccelCampaignSpec, size: int) -> int:
    """Injectable bits of one component: raw bytes, protection-extended.

    A protected memory's fault population includes the (virtual) check
    bits of every :data:`ACCEL_WORD_BITS`-bit code word; an unprotected
    one is exactly ``size * 8``, byte-identical to pre-protection output.
    """
    scheme = accel_scheme(spec)
    if scheme is None:
        return size * 8
    word_bytes = ACCEL_WORD_BITS // 8
    if size % word_bytes:
        raise ValueError(
            f"{spec.component}: size {size} is not a multiple of the "
            f"{word_bytes}-byte protection code word"
        )
    return (size // word_bytes) * scheme.extended_bits(ACCEL_WORD_BITS)


class AccelInjector:
    """Applies one fault mask to a live accelerator memory.

    With a protection ``scheme``, the memory decodes in
    :data:`ACCEL_WORD_BITS`-bit code words: flips at or beyond the data
    bits (``mem.size * 8``) are *virtual check bits* — word-major, never
    materialized in storage — and any access overlapping the flip's word
    runs the scheme decoder.  Correctable patterns repair in place
    (``CORRECTED``); detectable ones raise
    :class:`~repro.core.protection.MachineCheckError` (``DETECTED`` →
    ``Outcome.DUE``).
    """

    (UNINJECTED, ARMED, READ, MASKED_UNUSED, MASKED_OVERWRITTEN,
     CORRECTED, DETECTED) = range(7)

    def __init__(self, mask: FaultMask, mem: ScratchpadMemory,
                 scheme: ProtectionScheme | None = None,
                 structure: str = ""):
        if len(mask.flips) != 1:
            raise ValueError("accelerator campaigns use single-flip masks")
        if scheme is not None and mask.model is not FaultModel.TRANSIENT:
            raise ValueError(
                "protection modeling supports transient faults only "
                f"(got {mask.model.value})"
            )
        self.mask = mask
        self.flip = mask.flips[0]
        self.mem = mem
        self.scheme = scheme
        self.structure = structure or self.flip.structure
        self.state = self.UNINJECTED
        self.data_total = mem.size * 8
        if scheme is not None:
            check = scheme.check_bits(ACCEL_WORD_BITS)
            if self.flip.bit < self.data_total:
                self.word = self.flip.bit // ACCEL_WORD_BITS
                self.local_bit = self.flip.bit % ACCEL_WORD_BITS
            else:
                off = self.flip.bit - self.data_total
                self.word = off // check
                self.local_bit = ACCEL_WORD_BITS + off % check
        mem.probe = self

    @property
    def byte(self) -> int:
        return self.flip.bit // 8

    @property
    def virtual(self) -> bool:
        """A check-bit flip: bookkeeping-only, never stored."""
        return self.scheme is not None and self.flip.bit >= self.data_total

    def _word_range(self) -> tuple[int, int]:
        """Byte range of the protected code word the flip belongs to."""
        lo = self.word * (ACCEL_WORD_BITS // 8)
        return lo, lo + ACCEL_WORD_BITS // 8

    def tick(self, engine: DataflowEngine) -> None:
        if self.state is not self.UNINJECTED or engine.cycle < self.flip.cycle:
            return
        if self.mask.model is FaultModel.TRANSIENT:
            if self.scheme is not None:
                # protection decodes whole words: the unused fast path only
                # applies when the entire code word is untouched
                lo, hi = self._word_range()
                if not any(self.mem.byte_used(b) for b in range(lo, hi)):
                    self.state = self.MASKED_UNUSED
                    return
                if not self.virtual:
                    self.mem.flip_bit(self.flip.bit)
            else:
                if not self.mem.byte_used(self.byte):
                    self.state = self.MASKED_UNUSED
                    return
                self.mem.flip_bit(self.flip.bit)
        else:
            self.mem.force_bit(self.flip.bit, self.mask.model.stuck_value)
        self.state = self.ARMED

    # ------------------------------------------------------------ protection

    def _overlaps_word(self, lo: int, hi: int) -> bool:
        wlo, whi = self._word_range()
        return lo < whi and wlo < hi

    def _decode(self, escape_state: int, written=None) -> None:
        """Run the word's error pattern through the scheme decoder.

        ``written(local_bit)`` marks bits a concurrent write already
        replaced (the probe fires after the mutation): corrections skip
        them, and an escaped pattern they cover is simply overwritten.
        """
        decode = self.scheme.decode({self.local_bit}, ACCEL_WORD_BITS)
        base = self.word * ACCEL_WORD_BITS
        for b in decode.fix_bits:
            if written is None or not written(b):
                self.mem.flip_bit(base + b)
        if decode.verdict == CORRECT:
            self.state = self.CORRECTED
        elif decode.verdict == DETECT:
            self.state = self.DETECTED
            raise MachineCheckError(f"{self.scheme.name}:{self.structure}")
        elif written is not None and (self.virtual or written(self.local_bit)):
            self.state = self.MASKED_OVERWRITTEN
        else:
            self.state = escape_state

    def finish(self) -> None:
        """End-of-run patrol scrub: decode a still-armed protected word.

        :meth:`ScratchpadMemory.dump` fires no probe, so without this a
        resident detectable error in an output word would be read out
        silently instead of raising its machine check (DUE)."""
        if self.scheme is not None and self.state == self.ARMED:
            self._decode(self.ARMED)

    # ------------------------------------------------------------ probe

    def on_read(self, mem, lo: int, hi: int) -> None:
        if self.state != self.ARMED:
            return
        if self.scheme is not None:
            if self._overlaps_word(lo, hi):
                self._decode(self.READ)
            return
        if lo <= self.byte < hi:
            self.state = self.READ

    def on_write(self, mem, lo: int, hi: int) -> None:
        if self.scheme is not None and self.state == self.ARMED:
            if self._overlaps_word(lo, hi):
                # read-modify-write: the decoder sees the old word before
                # the merge, then the re-encode erases covered flips
                self._decode(
                    self.READ,
                    written=lambda b: (b < ACCEL_WORD_BITS
                                       and lo <= self.word * 8 + b // 8 < hi),
                )
            return
        if not (lo <= self.byte < hi):
            return
        if self.mask.model.permanent:
            if self.state != self.UNINJECTED:
                mem.force_bit(self.flip.bit, self.mask.model.stuck_value)
        elif self.state == self.ARMED:
            self.state = self.MASKED_OVERWRITTEN

    # ------------------------------------------------------------ verdicts

    @property
    def early_masked(self) -> bool:
        return self.mask.model is FaultModel.TRANSIENT and self.state in (
            self.MASKED_UNUSED,
            self.MASKED_OVERWRITTEN,
            self.CORRECTED,
        )

    def masked_reason(self) -> str | None:
        return {
            self.MASKED_UNUSED: "masked_unused",
            self.MASKED_OVERWRITTEN: "masked_overwritten",
            self.CORRECTED: "corrected",
        }.get(self.state)


@dataclass
class AccelGolden:
    cycles: int            # kernel execution cycles (injection window)
    total_cycles: int      # incl. DMA
    output: bytes
    operations: int
    #: bit-liveness dead-window map over every local memory (None when the
    #: golden run was simulated without liveness recording)
    liveness: LivenessMap | None = field(default=None, repr=False)


class AccelReplayContext:
    """Reusable post-DMA accelerator state for back-to-back fault runs.

    Instantiating a design and re-DMAing its inputs dominates the cost of
    short accelerator fault runs.  The context does both exactly once,
    snapshots every local memory (data + touched map + access counters,
    :meth:`ScratchpadMemory.snapshot`), and :meth:`reset` restores the
    snapshot — so each fault run starts from the identical armed state a
    fresh instantiation would reach, without paying for it.
    """

    def __init__(self, spec: AccelCampaignSpec):
        self.spec = spec
        self.accel = get_design(spec.design).instantiate(spec.fu)
        self.dma_in = self.accel.load_inputs(spec.scale)
        self._snaps = {
            name: mem.snapshot() for name, mem in self.accel.memories.items()
        }

    def reset(self) -> Accelerator:
        """Restore every memory to its freshly-loaded state, drop probes."""
        for name, mem in self.accel.memories.items():
            mem.restore(self._snaps[name])
            mem.probe = None
        return self.accel


_ACCEL_GOLDEN_CACHE: dict[tuple, AccelGolden] = {}


def accel_golden(spec: AccelCampaignSpec, *, liveness: bool = False) -> AccelGolden:
    """Fault-free reference run, cached per (design, scale, fu).

    With ``liveness=True`` every local memory gets a bit-liveness recorder
    (see :mod:`repro.core.liveness`) and ``AccelGolden.liveness`` carries
    the dead-window map, keyed by ``accel:<design>:<memory>`` structure
    names so it serves any component of the design.  A cached golden
    without the map is re-simulated once to collect it.
    """
    key = (spec.design, spec.scale, spec.fu)
    cached = _ACCEL_GOLDEN_CACHE.get(key)
    if cached is not None and (not liveness or cached.liveness is not None):
        return cached
    accel = get_design(spec.design).instantiate(spec.fu)
    dma_in = accel.load_inputs(spec.scale)
    engine = DataflowEngine(accel.kernel(spec.scale), accel.memmap, accel.fu)
    # arm the recorders only now: the DMA precedes cycle 0, and taping its
    # writes would falsely claim cycle-0 flips as dead
    recorders = (
        [
            attach_accel_recorder(mem, engine, f"accel:{spec.design}:{name}")
            for name, mem in accel.memories.items()
        ]
        if liveness else None
    )
    result = engine.run()
    if not result.ok:
        raise RuntimeError(f"golden accel run failed: {result.crashed}")
    output = b""
    for name in accel.design.output_memories:
        mem = accel.memories[name]
        output += mem.dump(0, mem.used_extent())
    golden = AccelGolden(
        cycles=result.cycles,
        total_cycles=result.cycles + dma_in,
        output=output,
        operations=result.operations,
        liveness=(
            LivenessMap.from_recorders(recorders)
            if recorders is not None
            else (cached.liveness if cached is not None else None)
        ),
    )
    _ACCEL_GOLDEN_CACHE[key] = golden
    return golden


def accel_masks(spec: AccelCampaignSpec, golden: AccelGolden) -> list[FaultMask]:
    """Single-flip sample over one component's bits × kernel cycles.

    Dispatches through the fault-model registry
    (:mod:`repro.core.faultmodels`); an unset ``fault_model`` draws the
    historical uniform stream byte-for-byte.  Like
    :func:`repro.core.sampling.generate_masks`, draws are without
    replacement over ``(bit, cycle)`` sites so the sample size honestly
    reflects ``error_margin_for``'s distinct-sample assumption.
    """
    total_bits = accel_population_bits(spec, component_size(spec))
    return accel_sample(
        spec.fault_model,
        structure=accel_structure_name(spec),
        total_bits=total_bits,
        cycles=golden.cycles,
        count=spec.faults,
        model=spec.model,
        seed=spec.seed,
    )


class AccelSubstrate:
    """The :class:`~repro.core.campaign.Substrate` for one DSA memory.

    The fast path resets a reusable :class:`AccelReplayContext` instead of
    instantiating the design and re-running its DMA; the retry after a
    simulator exception builds a pristine instantiation, so a corrupted
    context either turns out flaky or reproduces deterministically.  With
    ``replay`` set and no ``ctx`` given, the context is built on first use.
    """

    checkpoints = None
    reports_hvf = False
    retry_fast = False

    def __init__(self, spec: AccelCampaignSpec,
                 ctx: AccelReplayContext | None = None, *,
                 sanitizer: SanitizerPolicy | None = None,
                 hang_cycles: int = DEFAULT_HANG_CYCLES,
                 replay: bool = False):
        self.spec = spec
        self.structure = accel_structure_name(spec)
        self._ctx = ctx
        self._replay = replay
        self.sanitizer = sanitizer if sanitizer is not None else DEFAULT_SANITIZER
        self.hang_cycles = hang_cycles

    @property
    def ctx(self) -> AccelReplayContext | None:
        if self._ctx is None and self._replay:
            self._ctx = AccelReplayContext(self.spec)
        return self._ctx

    def identity(self) -> dict:
        spec = self.spec
        return {"design": spec.design, "component": spec.component,
                "model": spec.model.value}

    def check(self) -> None:
        require_known(get_design, self.spec.design)
        require_known(lambda _name: component_size(self.spec),
                      self.spec.component)
        validate_for(self.spec.fault_model, accel=True, model=self.spec.model)

    def golden(self) -> AccelGolden:
        return accel_golden(self.spec, liveness=self.spec.liveness is not None)

    def masks(self, golden: AccelGolden) -> list[FaultMask]:
        return accel_masks(self.spec, golden)

    def population_bits(self, golden: AccelGolden) -> int:
        return accel_population_bits(self.spec, component_size(self.spec))

    def watchdog(self, golden: AccelGolden) -> int:
        return golden.cycles * self.spec.watchdog_factor + 1000

    def fast_used(self, mask: FaultMask, golden: AccelGolden,
                  fast: bool) -> bool:
        return fast and self.ctx is not None

    def run_fault(self, mask: FaultMask, golden=None) -> FaultRecord:
        return run_one_accel_fault(self.spec, mask, self.ctx,
                                   sanitizer=self.sanitizer,
                                   hang_cycles=self.hang_cycles)

    def simulate(self, mask: FaultMask, golden: AccelGolden,
                 fast: bool) -> FaultRecord:
        """One injected accelerator run, unguarded."""
        spec = self.spec
        ctx = self.ctx if fast else None
        max_cycles = self.watchdog(golden)
        try:
            if ctx is not None:
                accel = ctx.reset()
            else:
                accel = get_design(spec.design).instantiate(spec.fu)
                accel.load_inputs(spec.scale)
            injector = AccelInjector(mask, accel.mem(spec.component),
                                     scheme=accel_scheme(spec),
                                     structure=self.structure)
            engine = DataflowEngine(
                accel.kernel(spec.scale),
                accel.memmap,
                accel.fu,
                watchdog_cycles=max_cycles,
                hang_cycles=self.hang_cycles,
            )
            engine.injector = injector
            sanitizer = self.sanitizer
            auditor = (
                AccelAuditor(sanitizer, injector, mask)
                if sanitizer is not None and sanitizer.enabled else None
            )
            engine.sanitizer = auditor
            result = engine.run()
            if result.ok:
                # patrol scrub before the output dump (dump() fires no
                # probe): a resident detectable error must machine-check,
                # not read out
                injector.finish()
            if auditor is not None:
                auditor.audit(engine)   # final audit of the terminal state
        except MachineCheckError as exc:
            # protection flagged an uncorrectable error: a first-class DUE —
            # the machine *knows* it failed, unlike an SDC
            return FaultRecord(
                mask=mask,
                outcome=Outcome.DUE,
                hvf=HVFClass.CORRUPTION,
                cycles=engine.cycle,
                activated=False,
                max_cycles=max_cycles,
                detected_by=exc.detected_by,
            )
        except IntegrityViolation:
            # impossible state caught mid-run — escalate upstream untouched
            raise
        except Exception as exc:
            raise SimulatorFault(exc, snapshot={
                "design": spec.design,
                "component": spec.component,
                "mask_id": mask.mask_id,
            }) from exc

        if injector.early_masked and result.ok:
            outcome, reason = Outcome.MASKED, injector.masked_reason()
            hvf = HVFClass.BENIGN
        elif not result.ok:
            outcome, reason, hvf = Outcome.CRASH, None, HVFClass.CORRUPTION
        else:
            output = b""
            for name in accel.design.output_memories:
                mem = accel.memories[name]
                output += mem.dump(0, mem.used_extent())
            if output == golden.output:
                outcome = Outcome.MASKED
                reason = injector.masked_reason() or "masked_silent"
                hvf = HVFClass.BENIGN
            else:
                outcome, reason, hvf = Outcome.SDC, None, HVFClass.CORRUPTION
        return FaultRecord(
            mask=mask,
            outcome=outcome,
            hvf=hvf,
            cycles=result.cycles,
            masked_reason=reason,
            crash_reason=result.crashed,
            activated=injector.state == AccelInjector.READ,
            max_cycles=max_cycles,
        )


def run_one_accel_fault(spec: AccelCampaignSpec, mask: FaultMask,
                        ctx: AccelReplayContext | None = None, *,
                        sanitizer: SanitizerPolicy | None = None,
                        hang_cycles: int = DEFAULT_HANG_CYCLES) -> FaultRecord:
    """Simulate one accelerator fault through
    :func:`repro.core.campaign.guarded_fault` — the CPU driver's liveness
    claim, quarantine-and-retry boundary, integrity escalation and audit
    reconciliation.  ``ctx`` is the replay context to reset for the first
    attempt (``None`` instantiates the design afresh)."""
    sub = AccelSubstrate(spec, ctx, sanitizer=sanitizer,
                         hang_cycles=hang_cycles)
    return guarded_fault(sub, mask, sub.golden())


def run_accel_campaign(
    spec: AccelCampaignSpec,
    masks: list[FaultMask] | None = None,
    *,
    journal: str | Path | None = None,
    resume: str | Path | None = None,
    sanitizer: SanitizerPolicy | None = None,
    hang_cycles: int = DEFAULT_HANG_CYCLES,
    telemetry=None,
    adaptive: AdaptiveSampling | None = None,
) -> CampaignResult:
    """Run a DSA fault-injection campaign on the campaign kernel
    (:func:`repro.core.campaign.run_campaign`), serially: journaled,
    resumable, observable and adaptive exactly like a CPU campaign.

    ``sanitizer``/``hang_cycles`` are invariant audits at the policy stride
    (default sampled) and a deterministic dataflow-progress hang detector
    (0 disables)."""
    return run_campaign(spec, masks, journal=journal, resume=resume,
                        sanitizer=sanitizer, hang_cycles=hang_cycles,
                        telemetry=telemetry, adaptive=adaptive)
