"""Fault-injection campaign controller (the paper's Figure 2 flow).

1. build the hardware configuration + workload (compile once, cache),
2. run the golden (fault-free) simulation, recording output, cycle count,
   the injection window (checkpoint→switch_cpu) and the commit trace,
3. generate a statistical fault-mask sample over the target structure,
4. run one simulation per mask (optionally across worker processes),
   with the early-termination optimizations armed,
5. classify every run (Masked / SDC / Crash and HVF Benign / Corruption),
6. aggregate into AVF / HVF / error-margin reports.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from pathlib import Path
from typing import Protocol

from repro.core.checkpoint import (
    DEFAULT_POLICY as DEFAULT_CHECKPOINT_POLICY,
    NO_CHECKPOINTS,
    CheckpointPolicy,
    CheckpointStore,
    matches as checkpoint_matches,
)
from repro.core.faultmodels import FaultModelSpec, cpu_sample, validate_for
from repro.core import metrics
from repro.core.faults import FaultMask, FaultModel
from repro.core.injector import InjectionController
from repro.core.journal import (
    CampaignJournal,
    OrderedJournalWriter,
    contiguous_prefix,
    raw_journal_lines,
)
from repro.core.liveness import (
    LivenessMap,
    attach_cpu_recorders,
    mask_provably_dead,
)
from repro.core.outcome import Classification, HVFClass, Outcome, classify
from repro.core.protection import ProtectionConfig
from repro.core.sampling import AdaptiveSampling, error_margin_for, stop_decision
from repro.core.sanitizer import (
    DEFAULT_HANG_CYCLES,
    DEFAULT_SANITIZER,
    CoreAuditor,
    IntegrityReport,
    IntegrityViolation,
    SanitizerPolicy,
    hang_detected,
)
from repro.core.supervisor import SupervisorPolicy, TaskOutcome, run_supervised
from repro.core.targets import get_target
from repro.cpu.config import CPUConfig
from repro.cpu.core import CrashError, OoOCore, RunResult
from repro.isa.base import get_isa
from repro.kernel.compiler import Executable, compile_program
from repro.workloads import build_workload
from repro.workloads.suite import workload_builder


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to reproduce a campaign (picklable)."""

    isa: str
    workload: str
    target: str
    cfg: CPUConfig
    scale: str = "tiny"
    model: FaultModel = FaultModel.TRANSIENT
    faults: int = 100
    seed: int = 1
    flips_per_mask: int = 1
    stop_early: bool = True
    stop_on_hvf: bool = False       # HVF-only campaigns may stop at first mismatch
    #: per-structure protection assignment; None = unprotected.  Kept None
    #: (never an all-``none`` config) so the spec fingerprint — and every
    #: journal byte — of an unprotected campaign is identical to pre-
    #: protection output (see ``repro.core.journal.spec_to_dict``).
    protection: ProtectionConfig | None = None
    #: bit-liveness pre-analysis mode: ``None`` = off (the default; the key
    #: is dropped from the serialized spec so unset campaigns stay
    #: byte-identical to pre-liveness output), ``"on"`` = provably-dead
    #: sites classify analytically without simulation, ``"audit"`` =
    #: analytically classified sites are simulated anyway and any
    #: disagreement quarantines the mask (``sim_error_kind="liveness"``).
    liveness: str | None = None
    #: fault-generator selection; ``None`` = the uniform default (the key
    #: is dropped from the serialized spec so unset campaigns journal
    #: byte-identically to pre-registry output).  Generator name + params
    #: are part of the spec fingerprint: ``--resume`` refuses a journal
    #: drawn by a different generator and ``repro doctor`` validates the
    #: provenance (see ``repro.core.faultmodels``).
    fault_model: "FaultModelSpec | None" = None

    #: default sizes used when a campaign targets an optional structure
    #: the configuration left disabled
    _AUTO_SIZES = {
        "mshr": ("mshr_entries", 8),
        "store_buffer": ("store_buffer_entries", 8),
        "prefetcher": ("prefetcher_entries", 16),
    }

    def __post_init__(self) -> None:
        # Targeting an optional structure implies enabling it: an MSHR
        # campaign needs the non-blocking L1D to exist.  Idempotent (a
        # round-tripped spec already carries the size), and a nonzero
        # explicit size always wins.
        info = self._AUTO_SIZES.get(self.target)
        if info is not None:
            fname, default = info
            if getattr(self.cfg, fname) == 0:
                object.__setattr__(
                    self, "cfg", self.cfg.with_(**{fname: default})
                )

    def substrate(self, checkpoints: CheckpointPolicy | None = None,
                  sanitizer: SanitizerPolicy | None = None,
                  hang_cycles: int = DEFAULT_HANG_CYCLES) -> "CpuSubstrate":
        """The :class:`Substrate` that runs this spec's faults."""
        return CpuSubstrate(self, checkpoints, sanitizer, hang_cycles)


@dataclass
class GoldenRun:
    """Cached fault-free reference execution."""

    exe: Executable
    result: RunResult
    window: tuple[int, int]
    #: mid-flight checkpoints collected along this run (None when the run
    #: was simulated without a checkpoint policy)
    checkpoints: CheckpointStore | None = field(default=None, repr=False)
    #: bit-liveness dead-window map recorded along this run (None when the
    #: run was simulated without liveness recording)
    liveness: LivenessMap | None = field(default=None, repr=False)

    @property
    def output(self) -> bytes:
        return self.result.output

    @property
    def cycles(self) -> int:
        return self.result.cycles


@dataclass(frozen=True)
class FaultRecord:
    """Per-fault outcome row."""

    mask: FaultMask
    outcome: Outcome
    hvf: HVFClass
    cycles: int
    masked_reason: str | None = None
    crash_reason: str | None = None
    activated: bool = False
    #: watchdog budget the run was given (crash-timeout runs hit this)
    max_cycles: int = 0
    #: the run halted via the stop_on_hvf early exit, not program completion
    stopped_on_hvf: bool = False
    #: simulator-level retries this mask consumed (0 = clean first attempt)
    retries: int = 0
    #: simulator failure description (traceback + core snapshot) when the
    #: run was quarantined or succeeded only after a retry
    error: str | None = None
    #: 'deterministic' (both attempts failed), 'flaky' (retry succeeded),
    #: 'harness_timeout' / 'harness_error' (supervised executor gave up),
    #: 'integrity' (a sanitizer invariant check caught an impossible state)
    sim_error_kind: str | None = None
    #: structured sanitizer evidence for an 'integrity' quarantine
    integrity: IntegrityReport | None = None
    #: ``scheme:structure`` provenance of a DUE verdict (None otherwise;
    #: omitted from the journal line when None so unprotected journals
    #: stay byte-identical to pre-protection output)
    detected_by: str | None = None
    #: ``"liveness"`` when the verdict came from the dead-window
    #: pre-analysis instead of a simulation (None otherwise; omitted from
    #: the journal line when None so liveness-off journals stay
    #: byte-identical to pre-liveness output)
    classified_by: str | None = None
    #: golden-checkpoint cycle the run fast-forwarded from (0 = from
    #: scratch).  Excluded from equality: a checkpointed record is the
    #: *same verdict* as its from-scratch twin, just cheaper to reach.
    restored_from: int = field(default=0, compare=False)
    #: the run ended at a golden-trace re-convergence probe instead of
    #: simulating to completion.  Like ``restored_from``, an execution
    #: detail: excluded from equality and never serialized, so journals
    #: stay byte-identical; telemetry reads it to count early exits.
    early_exited: bool = field(default=False, compare=False)

    @property
    def quarantined(self) -> bool:
        return self.outcome is Outcome.SIM_FAULT


class SimulatorFault(Exception):
    """A non-CrashError exception escaped the simulated core.

    Carries the original traceback plus a snapshot of where the simulation
    stood, so the quarantined :class:`FaultRecord` can explain itself.
    """

    def __init__(self, cause: BaseException, snapshot: dict):
        self.cause = cause
        self.snapshot = snapshot
        self.traceback_text = "".join(
            traceback.format_exception(type(cause), cause, cause.__traceback__)
        )
        super().__init__(f"{type(cause).__name__}: {cause}")

    def describe(self, limit: int = 4000) -> str:
        state = ", ".join(f"{k}={v}" for k, v in self.snapshot.items())
        text = f"{self} [{state}]\n{self.traceback_text}"
        return text[-limit:] if len(text) > limit else text


@dataclass
class CampaignResult:
    """Aggregated results of one campaign, on either substrate.

    ``spec`` is a :class:`CampaignSpec` or an
    :class:`~repro.accel.campaign.AccelCampaignSpec`; ``golden`` the
    matching :class:`GoldenRun` or :class:`~repro.accel.campaign.AccelGolden`.
    The rates are the :mod:`repro.core.metrics` functions over the records:
    quarantined runs (``Outcome.SIM_FAULT``) are simulator failures, not
    verdicts about the hardware, so they count apart instead of polluting
    the vulnerability factors.  A campaign with no record at all (a zero
    budget) reports every rate as ``None``.
    """

    spec: object
    records: list[FaultRecord]
    golden: object
    population_bits: int
    #: masks satisfied from a resume journal instead of fresh simulation
    resumed: int = 0
    #: adaptive sequential sampling stopped the campaign before the fixed
    #: fault budget (``spec.faults``); ``error_margin`` is the achieved one
    stopped_early: bool = False

    @property
    def valid_records(self) -> list[FaultRecord]:
        return [r for r in self.records if r.outcome is not Outcome.SIM_FAULT]

    def _rate(self, metric) -> float | None:
        return metric(self.records) if self.records else None

    @property
    def quarantined(self) -> int:
        return metrics.quarantined(self.records)

    @property
    def retried(self) -> int:
        return sum(1 for r in self.records if r.retries)

    @property
    def timeouts(self) -> int:
        return sum(1 for r in self.records if r.crash_reason == "timeout")

    @property
    def hangs(self) -> int:
        return metrics.hangs(self.records)

    @property
    def integrity_quarantined(self) -> int:
        return metrics.integrity_quarantined(self.records)

    @property
    def liveness_skips(self) -> int:
        """Records classified analytically by the liveness pre-analysis."""
        return sum(1 for r in self.records if r.classified_by == "liveness")

    @property
    def liveness_disagreements(self) -> int:
        """Audit-mode quarantines where simulation contradicted the claim."""
        return sum(1 for r in self.records if r.sim_error_kind == "liveness")

    @property
    def avf(self) -> float | None:
        """``None`` for a degenerate campaign (no valid record to judge)."""
        return self._rate(metrics.avf)

    @property
    def sdc_avf(self) -> float | None:
        return self._rate(metrics.sdc_avf)

    @property
    def crash_avf(self) -> float | None:
        return self._rate(metrics.crash_avf)

    @property
    def due_avf(self) -> float | None:
        """Detected-uncorrectable share of the AVF (machine checks)."""
        return self._rate(metrics.due_avf)

    @property
    def corrected(self) -> int:
        """Runs whose every flip the protection scheme repaired in place."""
        return metrics.corrected(self.records)

    @property
    def coverage(self) -> float | None:
        """Share of protection-relevant faults the scheme caught
        (:func:`repro.core.metrics.coverage`)."""
        return self._rate(metrics.coverage)

    @property
    def residual_sdc_avf(self) -> float | None:
        """SDC remaining *despite* protection (multi-bit escapes)."""
        return self._rate(metrics.residual_sdc_avf)

    @property
    def hvf(self) -> float | None:
        return self._rate(metrics.hvf)

    @property
    def attack_success(self) -> float | None:
        """Share of directed injections that silently corrupted output.

        The InjectV success criterion: an attack *succeeds* when the
        workload completes with wrong output (SDC) — a crash or machine
        check is a detected, hence failed, attack.  Reported next to AVF
        for ``adversarial`` campaigns; numerically it equals ``sdc_avf``
        over the directed (non-uniform) sample, which is the point of
        the comparison.
        """
        return self.sdc_avf

    @property
    def error_margin(self) -> float | None:
        """Achieved margin of the valid sample (``None`` when it is empty)."""
        if not self.records:
            return None
        return metrics.error_margin(self.records, self.population_bits)

    def summary(self) -> dict:
        substrate = self.spec.substrate()
        out = {
            **substrate.identity(),
            "faults": len(self.records),
            "budget": self.spec.faults,
            "n_valid": len(self.valid_records),
            "avf": self.avf,
            "sdc_avf": self.sdc_avf,
            "crash_avf": self.crash_avf,
        }
        if substrate.reports_hvf:
            out["hvf"] = self.hvf
        out.update({
            "error_margin": self.error_margin,
            "stopped_early": self.stopped_early,
            "golden_cycles": self.golden.cycles,
            "quarantined": self.quarantined,
            "retried": self.retried,
            "timeouts": self.timeouts,
            "resumed": self.resumed,
        })
        if self.spec.protection is not None and self.spec.protection.enabled:
            # protection-only keys: an unprotected summary renders exactly
            # as it always has
            scheme = self.spec.protection.scheme_for(substrate.structure)
            out["protection"] = scheme.name if scheme is not None else "none"
            out["due_avf"] = self.due_avf
            out["corrected"] = self.corrected
            out["coverage"] = self.coverage
            out["residual_sdc_avf"] = self.residual_sdc_avf
        if self.spec.liveness is not None:
            # liveness-only keys: an unset summary renders exactly as it
            # always has
            out["liveness"] = self.spec.liveness
            out["liveness_skips"] = self.liveness_skips
            out["liveness_skip_rate"] = (
                self.liveness_skips / len(self.records)
                if self.records else None
            )
            if self.spec.liveness == "audit":
                out["liveness_disagreements"] = self.liveness_disagreements
        if self.spec.fault_model is not None:
            # fault-model-only keys: a default-generator summary renders
            # exactly as it always has
            out["fault_model"] = self.spec.fault_model.describe()
            if self.spec.fault_model.name == "adversarial":
                out["attack_success"] = self.attack_success
        return out


# --------------------------------------------------------------------------
# golden-run cache
# --------------------------------------------------------------------------

#: bound on cached golden runs per process — multi-spec sweeps touch many
#: (isa, workload, cfg) combinations, and each checkpointed golden holds
#: dozens of full-state snapshots, so an unbounded cache grows worker
#: memory without limit
GOLDEN_CACHE_LIMIT = 16


class _LRUCache(OrderedDict):
    """Least-recently-used mapping with a fixed key count."""

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize

    def get(self, key, default=None):
        if key in self:
            self.move_to_end(key)
            return super().__getitem__(key)
        return default

    def put(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.maxsize:
            self.popitem(last=False)


_GOLDEN_CACHE: _LRUCache = _LRUCache(GOLDEN_CACHE_LIMIT)
_EXE_CACHE: dict[tuple, Executable] = {}
#: process-local count of golden-cache misses (full golden simulations);
#: tests use this to assert workers compute the golden run at most once
_GOLDEN_MISSES = 0


def golden_miss_count() -> int:
    """How many golden simulations this process has actually run."""
    return _GOLDEN_MISSES


def compile_workload(isa_name: str, workload: str, scale: str) -> Executable:
    """Compile (and memoize) a workload for an ISA."""
    key = (isa_name, workload, scale)
    if key not in _EXE_CACHE:
        program = build_workload(workload, scale)
        _EXE_CACHE[key] = compile_program(program, get_isa(isa_name))
    return _EXE_CACHE[key]


def golden_run(
    isa_name: str,
    workload: str,
    cfg: CPUConfig,
    scale: str = "tiny",
    *,
    checkpoints: CheckpointPolicy | None = None,
    sanitizer: SanitizerPolicy | None = None,
    liveness: bool = False,
) -> GoldenRun:
    """Fault-free reference run (cached per isa/workload/config/scale).

    With a ``checkpoints`` policy, the run also collects one mid-flight
    :class:`CoreCheckpoint` per stride bucket (``GoldenRun.checkpoints``)
    so fault runs can fast-forward to the injection cycle.  A cached
    golden that already carries checkpoints is reused as-is — correctness
    never depends on the stride, only speed does — while a cached one
    without them is re-simulated once to collect them.

    With an enabled ``sanitizer`` policy the golden run is invariant-audited
    at the policy's stride.  No fault mask is active, so nothing is
    suppressed and a violation propagates as a hard :class:`IntegrityViolation`
    (a corrupt golden reference invalidates every verdict derived from it).
    Auditing only happens on cache misses — a cached golden was already
    simulated — so callers measuring audit overhead must clear the cache.

    With ``liveness=True`` the run is instrumented with bit-liveness
    recorders (see :mod:`repro.core.liveness`) and ``GoldenRun.liveness``
    carries the dead-window map.  Like checkpoints, a cached golden
    without the map is re-simulated once to collect it; the simulation is
    deterministic and the recorders are pure observers, so the reference
    result is identical either way.
    """
    key = (isa_name, workload, scale, cfg)
    want = checkpoints is not None and checkpoints.enabled
    cached = _GOLDEN_CACHE.get(key)
    if (cached is not None
            and (not want or cached.checkpoints is not None)
            and (not liveness or cached.liveness is not None)):
        return cached
    global _GOLDEN_MISSES
    _GOLDEN_MISSES += 1
    exe = compile_workload(isa_name, workload, scale)
    isa = get_isa(isa_name)
    core = OoOCore.from_executable(exe, isa, cfg)
    core.trace_mode = "record"
    # arm the liveness recorders only now: construction-time initialization
    # writes precede the first injectable cycle and must not be taped (a
    # pre-injection kill would falsely claim cycle-0 flips)
    recorders = attach_cpu_recorders(core) if liveness else None
    store = (
        CheckpointStore(checkpoints, base_image=bytes(exe.initial_memory()))
        if want else None
    )
    auditor = (
        CoreAuditor(sanitizer)
        if sanitizer is not None and sanitizer.enabled else None
    )
    if store is not None and auditor is not None:
        def on_cycle(c, _consider=store.consider, _audit=auditor.on_cycle):
            _consider(c)
            _audit(c)
    elif store is not None:
        on_cycle = store.consider
    elif auditor is not None:
        on_cycle = auditor.on_cycle
    else:
        on_cycle = None
    result = core.run(on_cycle=on_cycle)
    if not result.ok:
        raise RuntimeError(
            f"golden run failed for {isa_name}/{workload}: {result.crashed}"
        )
    if auditor is not None:
        auditor.audit(core)   # final audit of the halted end state
    lo = result.checkpoint_cycle if result.checkpoint_cycle is not None else 0
    hi = result.switch_cycle if result.switch_cycle is not None else result.cycles
    if hi <= lo:
        hi = result.cycles
    lmap = (
        LivenessMap.from_recorders(recorders) if recorders is not None else None
    )
    if cached is not None:
        # upgrading a cached golden for one facet keeps the other: the run
        # is deterministic, so the carried-over artifact is still exact
        if lmap is None:
            lmap = cached.liveness
        if store is None:
            store = cached.checkpoints
    golden = GoldenRun(exe=exe, result=result, window=(lo, hi),
                       checkpoints=store, liveness=lmap)
    _GOLDEN_CACHE.put(key, golden)
    return golden


def clear_caches() -> None:
    """Drop memoized executables and golden runs (tests use this)."""
    _GOLDEN_CACHE.clear()
    _EXE_CACHE.clear()


# --------------------------------------------------------------------------
# the substrate protocol
# --------------------------------------------------------------------------


class Substrate(Protocol):
    """One kind of hardware a campaign injects into.

    The campaign kernel — the guarded per-fault path
    (:func:`guarded_fault`), the run loop (:func:`run_cells`), the result
    type, the pool worker — is written once against this protocol.
    :class:`CpuSubstrate` covers the OoO core's structures and
    :class:`~repro.accel.campaign.AccelSubstrate` the DSA scratchpads and
    register banks.  An implementation only supplies what differs between
    the two; records, journals, summaries and telemetry come out
    byte-identical to what the two separate drivers used to produce.
    """

    spec: object
    #: the injected structure's name, as protection configs address it
    structure: str
    #: policies the pool initializer re-arms in worker processes
    checkpoints: CheckpointPolicy | None
    sanitizer: SanitizerPolicy
    hang_cycles: int
    #: the summary carries an ``hvf`` key
    reports_hvf: bool
    #: the retry after a simulator exception takes the fast path again
    retry_fast: bool

    def identity(self) -> dict:
        """Summary leading keys and telemetry labels, in order."""

    def check(self) -> None:
        """Raise ``ValueError`` for unknown names or a bad fault model."""

    def golden(self):
        """The (cached) fault-free reference run."""

    def masks(self, golden) -> list[FaultMask]:
        """The spec's fault sample."""

    def population_bits(self, golden) -> int:
        """Injectable bits the sample is drawn from."""

    def watchdog(self, golden) -> int:
        """Simulated-cycle budget of one fault run."""

    def fast_used(self, mask: FaultMask, golden, fast: bool) -> bool:
        """Whether a run with ``fast`` set took the fast path."""

    def simulate(self, mask: FaultMask, golden, fast: bool) -> FaultRecord:
        """One injected run, unguarded; ``fast`` allows the fast path."""

    def run_fault(self, mask: FaultMask, golden=None) -> FaultRecord:
        """:func:`guarded_fault` through the public per-fault function."""


class UnknownNameError(KeyError, ValueError):
    """An unknown ISA, workload, target, design or component.

    A ``KeyError`` like the registry lookup it comes from, and a
    ``ValueError`` so every campaign entry point reports it as a usage
    error; prints without the quotes ``KeyError`` adds.
    """

    def __str__(self) -> str:
        return str(self.args[0])


def require_known(lookup, name: str):
    """``lookup(name)``, with an unknown name raised as
    :class:`UnknownNameError`.  Every registry lookup raises ``KeyError("unknown
    … 'x'; available: …")``, so the message names the alternatives."""
    try:
        return lookup(name)
    except KeyError as exc:
        raise UnknownNameError(exc.args[0]) from None


def validate_spec(spec) -> None:
    """The one validation step every campaign and grid cell passes.

    Raises ``ValueError`` for a negative fault budget, an unknown name
    (ISA, workload, target, design or component), protection on a
    permanent-fault model, an unknown liveness mode, or a fault model the
    campaign cannot draw.  ``faults = 0`` is legal: it runs nothing.
    """
    if spec.faults < 0:
        raise ValueError(f"fault budget must be >= 0 (got {spec.faults})")
    if (spec.protection is not None and spec.protection.enabled
            and spec.model is not FaultModel.TRANSIENT):
        raise ValueError(
            "protection modeling supports transient faults only; run "
            f"permanent-fault campaigns unprotected (model={spec.model.value})"
        )
    if spec.liveness not in (None, "on", "audit"):
        raise ValueError(
            f"unknown liveness mode {spec.liveness!r}; "
            "use None (off), 'on' or 'audit'"
        )
    spec.substrate().check()


# --------------------------------------------------------------------------
# the CPU substrate
# --------------------------------------------------------------------------


class CpuSubstrate:
    """The :class:`Substrate` for one OoO-core structure.

    The fast path restores the nearest golden checkpoint at-or-before the
    earliest flip cycle; the retry after a simulator exception takes it
    again.
    """

    reports_hvf = True
    retry_fast = True

    def __init__(self, spec: CampaignSpec,
                 checkpoints: CheckpointPolicy | None = None,
                 sanitizer: SanitizerPolicy | None = None,
                 hang_cycles: int = DEFAULT_HANG_CYCLES):
        self.spec = spec
        self.structure = spec.target
        self.checkpoints = (checkpoints if checkpoints is not None
                            else DEFAULT_CHECKPOINT_POLICY)
        self.sanitizer = sanitizer if sanitizer is not None else DEFAULT_SANITIZER
        self.hang_cycles = hang_cycles

    def identity(self) -> dict:
        spec = self.spec
        return {"isa": spec.isa, "workload": spec.workload,
                "target": spec.target, "model": spec.model.value}

    def check(self) -> None:
        spec = self.spec
        require_known(get_isa, spec.isa)
        require_known(workload_builder, spec.workload)
        target = require_known(get_target, spec.target)
        validate_for(spec.fault_model, model=spec.model,
                     flips_per_mask=spec.flips_per_mask,
                     target_kind=target.kind)

    def golden(self) -> GoldenRun:
        spec = self.spec
        return golden_run(spec.isa, spec.workload, spec.cfg, spec.scale,
                          checkpoints=self.checkpoints,
                          liveness=spec.liveness is not None)

    def masks(self, golden: GoldenRun) -> list[FaultMask]:
        return masks_for_spec(self.spec, golden)

    def population_bits(self, golden: GoldenRun) -> int:
        spec = self.spec
        probe_core = OoOCore.from_executable(golden.exe, get_isa(spec.isa),
                                             spec.cfg)
        entries, bits = target_geometry(spec, probe_core)
        return entries * bits

    def watchdog(self, golden: GoldenRun) -> int:
        return golden.cycles * self.spec.cfg.watchdog_factor + 10_000

    def fast_used(self, mask: FaultMask, golden: GoldenRun,
                  fast: bool) -> bool:
        if not (fast and self.checkpoints.enabled) or golden.checkpoints is None:
            return False
        return golden.checkpoints.restore_cycle_for(
            min(f.cycle for f in mask.flips)
        ) > 0

    def run_fault(self, mask: FaultMask,
                  golden: GoldenRun | None = None) -> FaultRecord:
        return run_one_fault(self.spec, mask, golden,
                             checkpoints=self.checkpoints,
                             sanitizer=self.sanitizer,
                             hang_cycles=self.hang_cycles)

    def simulate(self, mask: FaultMask, golden: GoldenRun,
                 fast: bool) -> FaultRecord:
        """One injected simulation, unguarded.

        The deterministic hang detector is *always* armed (``hang_cycles=0``
        disables it): it reads only simulated state, so a hang classifies as
        ``Crash(hang)`` at the identical cycle regardless of sanitize mode,
        host speed, or worker parallelism — records stay byte-identical
        between ``--sanitize=off`` and ``--sanitize=sampled``.

        With ``fast`` and a checkpointed golden run, the core is restored
        from the nearest golden checkpoint at-or-before the earliest flip
        cycle instead of simulating the warm-up (the simulator is
        deterministic and the injector is a no-op before the flip cycle, so
        the restored run is bit-identical to a from-scratch one).  With
        ``policy.early_exit``, the run additionally compares its state
        digest against the golden checkpoint stream once every flip has
        reached a terminal lifecycle state: a digest match proves every
        remaining cycle is identical to the golden run, so the record is
        emitted immediately with the exact fields a full-length run would
        have produced.
        """
        spec = self.spec
        policy = self.checkpoints if fast else NO_CHECKPOINTS
        isa = get_isa(spec.isa)
        controller = InjectionController(mask, stop_early=spec.stop_early,
                                         protection=spec.protection)
        core = OoOCore.from_executable(golden.exe, isa, cfg=spec.cfg,
                                       injector=controller)
        core.trace_mode = "compare"
        core.golden_trace = golden.result.commit_trace
        core.stop_on_hvf = spec.stop_on_hvf

        store = golden.checkpoints if policy.enabled else None
        restored_from = 0
        if store is not None:
            first_cycle = min(f.cycle for f in mask.flips)
            ckpt = store.best_for(first_cycle)
            if ckpt is not None and ckpt.cycle > 0:
                ckpt.restore_into(core)
                restored_from = ckpt.cycle
                # replay marker notifications the restored prefix passed
                if core.checkpoint_cycle is not None:
                    controller.on_checkpoint(core)
                if core.switch_cycle is not None:
                    controller.on_switch_cpu(core)

        probes = []
        if (
            store is not None
            and policy.early_exit
            and mask.model is FaultModel.TRANSIENT
        ):
            probes = store.probes_after(core.cycle)
        probe_idx = 0
        reconverged = False

        sanitizer = self.sanitizer
        auditor = (
            CoreAuditor(sanitizer, controller, mask)
            if sanitizer is not None and sanitizer.enabled else None
        )
        max_cycles = self.watchdog(golden)
        hang_cycles = self.hang_cycles
        crashed: str | None = None
        crash_pc = 0
        try:
            while not core.halted and core.cycle < max_cycles:
                if auditor is not None:
                    auditor.on_cycle(core)
                core.step()
                if controller.early_masked:
                    break
                if (probe_idx < len(probes)
                        and core.cycle == probes[probe_idx].cycle):
                    ckpt = probes[probe_idx]
                    probe_idx += 1
                    if controller.settled and checkpoint_matches(ckpt, core):
                        reconverged = True
                        break
                if hang_detected(core, hang_cycles):
                    crashed = "hang"
                    break
            if (crashed is None and not core.halted
                    and not controller.early_masked and not reconverged):
                crashed = "timeout"
            if crashed is None:
                # end-of-run patrol scrub: decode protected words the
                # program never touched again, so a resident uncorrectable
                # error raises its machine check (DUE) instead of silently
                # vanishing
                controller.finish(core)
            if auditor is not None:
                auditor.audit(core)   # final audit of the terminal state
        except CrashError as exc:
            # an expected outcome: the *simulated program* crashed
            crashed = exc.reason
            crash_pc = exc.pc
        except IntegrityViolation:
            # impossible state caught mid-run — escalate upstream untouched
            raise
        except Exception as exc:
            # the *simulator* crashed — a fault-corrupted core walked the
            # model into a state the code never anticipated; quarantine
            # upstream
            raise SimulatorFault(exc, snapshot={
                "cycle": core.cycle,
                "instructions": core.instructions,
                "halted": core.halted,
                "mask_id": mask.mask_id,
                "restored_from": restored_from,
            }) from exc

        # stop_on_hvf halts the core at the first commit mismatch; without
        # this flag, an incomplete-but-halted run would be indistinguishable
        # from a genuine program completion (and a hang from an early HVF
        # exit)
        stopped_on_hvf = bool(spec.stop_on_hvf and core.hvf_corrupt
                              and core.halted)

        if reconverged:
            # every cycle from here on would replay the golden run exactly,
            # so report the record as the full-length run would have: golden
            # completion cycles/output, the (already settled) injector
            # verdict, and whatever HVF state the divergence window
            # accumulated
            result = RunResult(
                output=golden.output,
                cycles=golden.cycles,
                instructions=golden.result.instructions,
                halted=True,
                crashed=None,
                crash_pc=0,
                hvf_corrupt=core.hvf_corrupt,
                hvf_seq=core.hvf_seq,
            )
        else:
            result = RunResult(
                output=bytes(core.output),
                cycles=core.cycle,
                instructions=core.instructions,
                halted=core.halted,
                crashed=crashed,
                crash_pc=crash_pc,
                hvf_corrupt=core.hvf_corrupt,
                hvf_seq=core.hvf_seq,
            )
        if spec.stop_on_hvf and core.hvf_corrupt:
            # HVF-only campaign: the run stopped at the first commit mismatch
            cls = Classification(Outcome.SDC, HVFClass.CORRUPTION)
        else:
            cls = classify(
                result,
                golden.output,
                controller.early_masked,
                controller.masked_reason(),
                detected_by=controller.detected_by,
            )
        return FaultRecord(
            mask=mask,
            outcome=cls.outcome,
            hvf=cls.hvf,
            cycles=result.cycles,
            masked_reason=cls.masked_reason,
            crash_reason=cls.crash_reason,
            activated=controller.activated,
            max_cycles=max_cycles,
            stopped_on_hvf=stopped_on_hvf,
            detected_by=cls.detected_by,
            restored_from=restored_from,
            early_exited=reconverged,
        )


# --------------------------------------------------------------------------
# the guarded per-fault path
# --------------------------------------------------------------------------


def quarantine_record(mask: FaultMask, kind: str, error: str,
                      retries: int = 0,
                      integrity: IntegrityReport | None = None) -> FaultRecord:
    """A FaultRecord for a run the simulator could not complete."""
    return FaultRecord(
        mask=mask,
        outcome=Outcome.SIM_FAULT,
        hvf=HVFClass.BENIGN,
        cycles=0,
        retries=retries,
        error=error,
        sim_error_kind=kind,
        integrity=integrity,
    )


def _escalate_integrity(sub: Substrate, mask: FaultMask, golden, fast: bool,
                        violation: IntegrityViolation) -> FaultRecord:
    """Differential escalation for a suspected integrity violation.

    If the failing run took the fast path (a golden-checkpoint restore, or
    a reused accelerator replay context), the mask is re-simulated once
    without it: a run that fails again — or any clean verdict that would
    require trusting state the sanitizer already caught corrupt — labels
    the violation ``deterministic``, while a clean slow-path run labels it
    ``checkpoint-divergence`` (the snapshot/restore path is the suspect).
    Either way the mask is quarantined; an observed impossible state is
    never laundered into an AVF verdict.
    """
    retries = 0
    divergence = "deterministic"
    if sub.fast_used(mask, golden, fast):
        retries = 1
        try:
            sub.simulate(mask, golden, fast=False)
        except (IntegrityViolation, SimulatorFault):
            pass
        else:
            divergence = "checkpoint-divergence"
    report = replace(violation.report, divergence=divergence)
    return quarantine_record(mask, "integrity", report.describe(),
                             retries=retries, integrity=report)


def liveness_masked_record(mask: FaultMask) -> FaultRecord:
    """The analytic verdict for a provably-dead injection site.

    ``cycles=0`` / ``max_cycles=0`` record that no simulation ran — the
    doctor enforces exactly this shape for liveness-classified records.
    """
    return FaultRecord(
        mask=mask,
        outcome=Outcome.MASKED,
        hvf=HVFClass.BENIGN,
        cycles=0,
        masked_reason="dead_interval",
        max_cycles=0,
        classified_by="liveness",
    )


def _liveness_claim(spec, mask: FaultMask, golden) -> FaultRecord | None:
    """The analytic record for ``mask``, or None when simulation is needed."""
    if spec.liveness is None or golden.liveness is None:
        return None
    protected = frozenset()
    if spec.protection is not None and spec.protection.enabled:
        protected = frozenset(
            f.structure for f in mask.flips
            if spec.protection.scheme_for(f.structure) is not None
        )
    if mask_provably_dead(mask, golden.liveness, protected=protected):
        return liveness_masked_record(mask)
    return None


def _simulate_with_retry(sub: Substrate, mask: FaultMask,
                         golden) -> FaultRecord:
    """The supervised simulate path: quarantine boundary + one retry."""
    try:
        return sub.simulate(mask, golden, fast=True)
    except IntegrityViolation as viol:
        return _escalate_integrity(sub, mask, golden, True, viol)
    except SimulatorFault as first:
        first_text = first.describe()
    fast = sub.retry_fast
    try:
        record = sub.simulate(mask, golden, fast=fast)
    except IntegrityViolation as viol:
        return _escalate_integrity(sub, mask, golden, fast, viol)
    except SimulatorFault as second:
        return quarantine_record(
            mask, "deterministic", second.describe(), retries=1
        )
    # the retry succeeded: keep the real verdict, flag the flaky attempt
    return replace(record, retries=record.retries + 1,
                   sim_error_kind="flaky", error=first_text)


def guarded_fault(sub: Substrate, mask: FaultMask, golden) -> FaultRecord:
    """Run one injected fault to a classified :class:`FaultRecord`.

    With ``spec.liveness`` set, the golden run's dead-window map is
    consulted first: a mask whose every flip lands inside a dead interval
    is provably Masked and — in ``"on"`` mode — returns its analytic
    record without simulating.  ``"audit"`` mode simulates the claimed
    site anyway: agreement returns the analytic record (so audit journals
    match ``"on"`` journals record-for-record), a simulator failure keeps
    its quarantine record, and a contradicting verdict quarantines the
    mask with ``sim_error_kind="liveness"``.

    Crash-quarantine boundary: a simulated-program crash is a normal
    campaign outcome, but *any other* exception escaping the
    fault-corrupted model is a simulator failure.  Those are retried once
    with the same mask — a second failure means a deterministic simulator
    bug, a success means flaky state — and never abort the campaign.
    Sanitizer hits (:class:`IntegrityViolation`) take the differential
    escalation path instead and quarantine as ``sim_error_kind="integrity"``.
    """
    analytic = _liveness_claim(sub.spec, mask, golden)
    if analytic is not None and sub.spec.liveness == "on":
        return analytic
    record = _simulate_with_retry(sub, mask, golden)
    if analytic is None:
        return record
    # audit mode: the pre-analysis claimed this site dead and the site was
    # simulated anyway — reconcile the two verdicts
    if record.quarantined:
        return record   # a simulator failure is not evidence either way
    if record.outcome is Outcome.MASKED:
        return analytic  # agreement: journal the exact bytes "on" would have
    return quarantine_record(
        mask, "liveness",
        f"liveness pre-analysis claimed mask {mask.mask_id} provably Masked "
        f"but simulation produced {record.outcome.value}"
        + (f" ({record.crash_reason})" if record.crash_reason else ""),
    )


def run_one_fault(
    spec: CampaignSpec,
    mask: FaultMask,
    golden: GoldenRun | None = None,
    *,
    checkpoints: CheckpointPolicy | None = None,
    sanitizer: SanitizerPolicy | None = None,
    hang_cycles: int = DEFAULT_HANG_CYCLES,
) -> FaultRecord:
    """Run one injected CPU fault through :func:`guarded_fault`.

    ``checkpoints`` selects the fast-forward/early-exit strategy (default:
    :data:`repro.core.checkpoint.DEFAULT_POLICY`); the resulting record is
    bit-identical either way.  ``sanitizer`` selects the invariant-audit
    policy (default: :data:`repro.core.sanitizer.DEFAULT_SANITIZER`,
    sampled mode).
    """
    sub = CpuSubstrate(spec, checkpoints, sanitizer, hang_cycles)
    if golden is None or (spec.liveness is not None and golden.liveness is None):
        golden = sub.golden()
    return guarded_fault(sub, mask, golden)


# --------------------------------------------------------------------------
# the pool worker (campaigns, matrix cells and shard workers)
# --------------------------------------------------------------------------

#: policies the pool initializer armed for this worker process
_WORKER_POLICIES: tuple = (None, None, DEFAULT_HANG_CYCLES)
#: this process's substrate per spec (accelerator replay contexts live here)
_WORKER_SUBSTRATES: dict = {}


def _worker_init(checkpoints: CheckpointPolicy | None = None,
                 sanitizer: SanitizerPolicy | None = None,
                 hang_cycles: int = DEFAULT_HANG_CYCLES,
                 prime=None) -> None:
    """Pool initializer: arm the policies, optionally prime one golden run.

    With ``prime`` (a spec), the golden run is computed once per worker
    process.  Without it every subprocess would recompute the golden
    simulation on its first fault (the parent's cache does not follow
    pickled specs under the spawn start method).  Priming resets the miss
    counter so tests can assert at-most-one golden simulation per worker,
    and uses the worker's own checkpoint policy, so the cache entry
    already carries the checkpoint store.
    """
    global _GOLDEN_MISSES, _WORKER_POLICIES
    _WORKER_POLICIES = (checkpoints, sanitizer, hang_cycles)
    _WORKER_SUBSTRATES.clear()
    if prime is not None:
        _GOLDEN_MISSES = 0
        _worker_substrate(prime).golden()


def _worker_substrate(spec) -> Substrate:
    sub = _WORKER_SUBSTRATES.get(spec)
    if sub is None:
        sub = _WORKER_SUBSTRATES[spec] = spec.substrate(*_WORKER_POLICIES)
    return sub


def _worker(task: tuple) -> FaultRecord:
    """Run one ``(spec, mask)`` task: the pool entry of every runner, and
    the serial shard path, which shares its per-process caches."""
    spec, mask = task
    return _worker_substrate(spec).run_fault(mask)


def _probe_golden_misses(_arg=None) -> int:
    """Picklable probe: golden-cache misses inside a worker process."""
    return golden_miss_count()


def outcome_to_record(outcome: TaskOutcome) -> FaultRecord:
    """Map a supervised-executor verdict for a ``(spec, mask)`` task onto
    a FaultRecord."""
    _spec, mask = outcome.item
    if outcome.ok:
        record: FaultRecord = outcome.value
        if outcome.attempts > 1:
            record = replace(record, retries=record.retries + outcome.attempts - 1)
        return record
    kind = "harness_timeout" if outcome.kind == "timeout" else "harness_error"
    return quarantine_record(
        mask, kind, outcome.error or kind, retries=outcome.attempts - 1
    )


def run_tasks(tasks: list[tuple], workers: int, on_record, *, run,
              telemetry=None, policy: SupervisorPolicy | None = None,
              initargs: tuple = (), item_timeout=None) -> None:
    """Run ``(spec, mask)`` tasks; hand each finished record to
    ``on_record(index, record, wall_s)``.

    With ``workers > 1`` the tasks go to a supervised pool of
    :func:`_worker` processes armed by :func:`_worker_init` with
    ``initargs``; otherwise ``run(task)`` runs them in order in this
    process.  ``telemetry`` hears every dispatch and supervisor event.
    """
    if workers <= 1:
        for index, task in enumerate(tasks):
            if telemetry is not None:
                telemetry.fault_dispatched(task[1].mask_id)
            started = time.perf_counter()
            record = run(task)
            on_record(index, record, time.perf_counter() - started)
        return

    def on_event(kind: str, info: dict) -> None:
        if kind == "dispatch":
            telemetry.fault_dispatched(tasks[info["index"]][1].mask_id,
                                       attempt=info.get("attempt", 0))
        else:
            telemetry.supervisor_event(kind, info)

    run_supervised(
        _worker, tasks, workers=workers, policy=policy,
        initializer=_worker_init, initargs=initargs,
        on_result=lambda o: on_record(o.index, outcome_to_record(o),
                                      o.wall_s),
        on_event=on_event if telemetry is not None else None,
        item_timeout=item_timeout,
    )


# --------------------------------------------------------------------------
# the fault sample
# --------------------------------------------------------------------------


def target_geometry(spec: CampaignSpec, core) -> tuple[int, int]:
    """Injectable geometry of the spec's target, protection-extended.

    A protected structure's fault population includes its check bits
    (virtual for TMR copies / ECC syndromes, see
    :mod:`repro.core.protection`), so both the mask sample and the
    Leveugle population are drawn over the extended word.
    """
    entries, bits = get_target(spec.target).geometry(core)
    scheme = (
        spec.protection.scheme_for(spec.target)
        if spec.protection is not None else None
    )
    if scheme is not None:
        bits = scheme.extended_bits(bits)
    return entries, bits


def masks_for_spec(spec: CampaignSpec, golden: GoldenRun) -> list[FaultMask]:
    """Generate the fault sample for a campaign spec (registry dispatch).

    Every sample — matrix cells and distributed shard workers included —
    flows through here, so selecting a generator on the spec covers every
    execution path.  An unset ``fault_model`` dispatches to ``uniform``,
    whose stream is byte-identical to the pre-registry sampler.
    """
    isa = get_isa(spec.isa)
    probe_core = OoOCore.from_executable(golden.exe, isa, spec.cfg)
    entries, bits = target_geometry(spec, probe_core)
    target = get_target(spec.target)
    cache_geometry = None
    if target.kind == "cache":
        cfg = target.structure(probe_core).cfg
        cache_geometry = (cfg.line_size, cfg.num_sets, cfg.assoc)
    return cpu_sample(
        spec.fault_model,
        structure=spec.target,
        entries=entries,
        bits_per_entry=bits,
        count=spec.faults,
        window=golden.window,
        model=spec.model,
        seed=spec.seed,
        flips_per_mask=spec.flips_per_mask,
        target_kind=target.kind,
        cache_geometry=cache_geometry,
        commit_trace=golden.result.commit_trace,
    )


# --------------------------------------------------------------------------
# the run loop (campaigns and matrix cells)
# --------------------------------------------------------------------------


def _check_unique_mask_ids(masks: list[FaultMask]) -> None:
    """Journaling and resume key on mask_id; duplicates would silently
    overwrite each other's records, so reject them up front."""
    seen: set[int] = set()
    for m in masks:
        if m.mask_id in seen:
            raise ValueError(f"duplicate mask_id {m.mask_id} in fault sample")
        seen.add(m.mask_id)


def fault_timeout(budget_cycles: int) -> float:
    """Per-fault wall-clock budget for a run of ``budget_cycles``.

    The in-simulation watchdog already bounds *simulated* time; this bounds
    *host* time for the case where the simulator itself spins.  Sized very
    generously (assumes a pessimistic 2k simulated cycles per host second)
    so it only ever fires on a genuinely wedged worker.
    """
    return max(60.0, budget_cycles / 2_000)


@dataclass
class CampaignCell:
    """One campaign's run state: its sample, the records completed so far
    (by position), the in-order journal writer and the stop status.

    :func:`run_campaign` runs one cell and
    :func:`repro.core.matrix.run_matrix` one per grid cell, both through
    :func:`run_cells`.
    """

    sub: Substrate
    golden: object
    masks: list[FaultMask]
    population_bits: int
    #: per-fault wall-clock budget (:func:`fault_timeout` of the watchdog)
    timeout_s: float
    writer: OrderedJournalWriter | None = None
    records: dict[int, FaultRecord] = field(default_factory=dict)
    #: positions ``[0, done)`` are complete
    done: int = 0
    #: positions taken from the resume journal
    resumed: int = 0
    #: 'converged' (adaptive stop) or 'exhausted' (budget spent) once
    #: settled at position ``stop_at``; '' while running
    status: str = ""
    stop_at: int = 0

    @property
    def spec(self):
        return self.sub.spec

    @property
    def budget(self) -> int:
        return len(self.masks)

    @property
    def stopped_early(self) -> bool:
        return self.status == "converged" and self.stop_at < self.budget

    def n_valid(self, boundary: int) -> int:
        return metrics.n_valid(
            [self.records[i] for i in range(min(boundary, self.done))])

    def achieved_margin(self, confidence: float = 0.95) -> float | None:
        n = self.n_valid(self.stop_at or self.done)
        if n == 0:
            return None
        return error_margin_for(n, self.population_bits, confidence)

    def finish(self, position: int, record: FaultRecord) -> None:
        self.records[position] = record
        if self.writer is not None:
            self.writer.add(position, record)
        while self.done in self.records:
            self.done += 1

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()

    def result(self) -> CampaignResult:
        return CampaignResult(
            spec=self.spec,
            records=[self.records[i] for i in range(self.stop_at)],
            golden=self.golden,
            population_bits=self.population_bits,
            resumed=min(self.resumed, self.stop_at),
            stopped_early=self.stopped_early,
        )


def _resume_prefix(path: Path, spec, masks: list[FaultMask],
                   rewrite: bool) -> list[FaultRecord]:
    """The journal's records for the leading run of ``masks`` it holds.

    A journaled verdict is trusted only for the identical mask, and
    nothing past the first gap is trusted at all.  With ``rewrite`` the
    file is atomically cut back to its header plus that prefix (raw line
    bytes), so appending to it continues an uninterrupted run's journal.
    """
    journaled = CampaignJournal.completed(path, spec)
    matching = {m.mask_id: journaled[m.mask_id] for m in masks
                if m.mask_id in journaled and journaled[m.mask_id].mask == m}
    prefix = masks[:contiguous_prefix(masks, matching)]
    header, lines = raw_journal_lines(path)
    if rewrite and header is not None:
        raw = dict(lines)
        body = header + b"".join(raw[m.mask_id] for m in prefix)
        if path.read_bytes() != body:
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_bytes(body)
            os.replace(tmp, path)
    return [matching[m.mask_id] for m in prefix]


def open_cell(spec, masks: list[FaultMask] | None = None, *,
              journal: str | Path | None = None,
              resume: str | Path | None = None,
              checkpoints: CheckpointPolicy | None = None,
              sanitizer: SanitizerPolicy | None = None,
              hang_cycles: int = DEFAULT_HANG_CYCLES) -> CampaignCell:
    """Golden run, sample (``masks`` overrides it) and resumed prefix of
    one campaign; with ``journal``, its writer is open for appending.

    When ``resume`` is the ``journal`` file itself, records past a gap
    are dropped from it before appending (see :func:`_resume_prefix`).
    """
    sub = spec.substrate(checkpoints, sanitizer, hang_cycles)
    golden = sub.golden()
    if masks is None:
        masks = sub.masks(golden)
    cell = CampaignCell(sub, golden, masks, sub.population_bits(golden),
                        fault_timeout(sub.watchdog(golden)))
    if journal is not None or resume is not None:
        # mask_id is the journal/resume key
        _check_unique_mask_ids(masks)
    if resume is not None and Path(resume).exists():
        rewrite = (journal is not None
                   and Path(journal).resolve() == Path(resume).resolve())
        prefix = _resume_prefix(Path(resume), spec, masks, rewrite)
        cell.records = dict(enumerate(prefix))
        cell.done = cell.resumed = len(prefix)
    if journal is not None:
        cell.writer = OrderedJournalWriter(CampaignJournal.open(journal, spec),
                                           start=cell.done)
    return cell


def run_cells(cells: list[CampaignCell], workers: int, *,
              checkpoints: CheckpointPolicy | None = None,
              sanitizer: SanitizerPolicy | None = None,
              hang_cycles: int = DEFAULT_HANG_CYCLES,
              adaptive: AdaptiveSampling | None = None,
              policy: SupervisorPolicy | None = None,
              telemetry=None, labels: dict | None = None,
              on_round=None) -> None:
    """Run every cell until it settles; closes the cells' journals.

    Each round asks :func:`~repro.core.sampling.stop_decision` where every
    unsettled cell stands, then runs each running cell's next batch as one
    interleaved queue through :func:`run_tasks`, round-robin across cells
    so none starves the pool, and calls ``on_round()``.  A pool of one
    cell primes its golden run in every worker.  Each fault runs under
    ``policy.timeout_s`` when set, else under its cell's ``timeout_s``.
    """
    by_spec = {id(c.spec): c for c in cells}
    policy = policy or SupervisorPolicy()

    def item_timeout(task: tuple) -> float:
        return by_spec[id(task[0])].timeout_s

    def run(task: tuple) -> FaultRecord:
        cell = by_spec[id(task[0])]
        return cell.sub.run_fault(task[1], cell.golden)

    prime = cells[0].spec if len(cells) == 1 else None
    if telemetry is not None:
        telemetry.campaign_started(planned=sum(c.budget for c in cells),
                                   resumed=sum(c.resumed for c in cells),
                                   labels=labels)
    try:
        while True:
            batches = []
            for cell in cells:
                if cell.status:
                    continue
                status, at = stop_decision(adaptive, cell.budget, cell.done,
                                           cell.n_valid, cell.population_bits)
                if status == "running":
                    batches.append([(cell, i) for i in range(cell.done, at)])
                    continue
                cell.status, cell.stop_at = status, at
                if cell.stopped_early and telemetry is not None:
                    telemetry.adaptive_stop(
                        done=at, budget=cell.budget,
                        margin=cell.achieved_margin(adaptive.confidence))
            if not batches:
                break
            slots = [slot for depth in zip_longest(*batches)
                     for slot in depth if slot is not None]

            def finish(index: int, record: FaultRecord, wall_s: float) -> None:
                cell, position = slots[index]
                cell.finish(position, record)
                if telemetry is not None:
                    fm = cell.spec.fault_model
                    telemetry.fault_finished(
                        record, wall_s=wall_s,
                        generator=fm.name if fm is not None else None)

            run_tasks([(c.spec, c.masks[i]) for c, i in slots], workers,
                      finish, run=run, telemetry=telemetry, policy=policy,
                      initargs=(checkpoints, sanitizer, hang_cycles, prime),
                      item_timeout=(item_timeout if policy.timeout_s is None
                                    else None))
            if on_round is not None:
                on_round()
    finally:
        for cell in cells:
            cell.close()
        if telemetry is not None:
            telemetry.campaign_finished()


def run_campaign(
    spec: "CampaignSpec | AccelCampaignSpec",
    masks: list[FaultMask] | None = None,
    workers: int = 1,
    *,
    journal: str | Path | None = None,
    resume: str | Path | None = None,
    timeout_s: float | None = None,
    policy: SupervisorPolicy | None = None,
    checkpoints: CheckpointPolicy | None = None,
    sanitizer: SanitizerPolicy | None = None,
    hang_cycles: int = DEFAULT_HANG_CYCLES,
    telemetry=None,
    adaptive: AdaptiveSampling | None = None,
) -> CampaignResult:
    """Run a full SFI campaign; returns per-fault records + aggregates.

    The campaign kernel: ``spec`` is a CPU :class:`CampaignSpec` or a DSA
    :class:`~repro.accel.campaign.AccelCampaignSpec`, and its
    :class:`Substrate` supplies everything that differs between the two
    (``checkpoints`` is the CPU's fast path and does not apply to a DSA).
    The campaign is one :class:`CampaignCell` run by :func:`run_cells`,
    the loop the matrix runner uses for a whole grid.

    * ``journal`` — append every completed :class:`FaultRecord` to this
      JSONL file, in mask order whatever ``workers`` is, so the file is
      byte-identical to a serial run's (crash-safe progress log);
    * ``resume`` — take the journal's contiguous prefix of the sample
      (typically the same path as ``journal``) as done, so an interrupted
      campaign restarts where it left off.  Records journaled past a gap
      are not trusted: when ``resume`` is ``journal`` they are cut from
      the file, and the finished file equals an uninterrupted run's;
    * ``timeout_s`` / ``policy`` — supervised-executor knobs for the
      ``workers > 1`` path; the default timeout derives from the golden
      run's watchdog budget via :func:`fault_timeout`;
    * ``checkpoints`` — checkpoint fast-forward / early-exit policy
      (default: :data:`repro.core.checkpoint.DEFAULT_POLICY`; pass
      :data:`repro.core.checkpoint.NO_CHECKPOINTS` to simulate every fault
      from cycle 0).  Records — and journal fingerprints — are identical
      either way; only wall-clock time changes.
    * ``sanitizer`` / ``hang_cycles`` — invariant-audit policy (default:
      sampled) and the deterministic hang-detector window in simulated
      cycles (0 disables).  Neither is part of the campaign spec: auditing
      never changes a valid record, so journal fingerprints stay stable
      across sanitize modes.
    * ``telemetry`` — optional :class:`repro.core.telemetry.Telemetry` hub;
      receives the typed event stream (started / dispatched / finished /
      retry / quarantine / checkpoint-restore / early-exit / pool-respawn)
      and per-fault wall clocks.  Strictly observational: records and
      journals are byte-identical with telemetry on or off.
    * ``adaptive`` — sequential stopping rule
      (:class:`~repro.core.sampling.AdaptiveSampling`): masks are
      dispatched in batches, in mask order, and the campaign stops at the
      first batch boundary where the achieved error margin over the valid
      records reaches the target.  ``spec.faults`` becomes the *budget*
      (upper bound); ``CampaignResult.stopped_early`` reports whether the
      budget was cut short.  Like checkpointing, an execution detail: the
      journaled records are a prefix of (and byte-identical to) the
      fixed-budget campaign's.
    """
    validate_spec(spec)
    cell = open_cell(spec, masks, journal=journal, resume=resume,
                     checkpoints=checkpoints, sanitizer=sanitizer,
                     hang_cycles=hang_cycles)
    run_cells([cell], workers, checkpoints=checkpoints, sanitizer=sanitizer,
              hang_cycles=hang_cycles, adaptive=adaptive,
              policy=policy or SupervisorPolicy(timeout_s=timeout_s),
              telemetry=telemetry, labels=cell.sub.identity())
    return cell.result()
