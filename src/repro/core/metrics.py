"""Vulnerability metrics: AVF, weighted AVF, SDC/Crash splits, HVF, OPF.

* **AVF** — probability that a fault in a structure corrupts the program's
  visible behaviour: ``(SDC + Crash) / runs``.
* **weighted AVF** (Section V-A) — per-benchmark AVFs combined with each
  benchmark's execution time as the weight.
* **HVF** — probability that a fault becomes architecturally visible at the
  commit stage (``Corruption / runs``); always ≥ AVF.
* **OPF** (Section V-G) — *operations per failure*: ``OPS / AVF`` where OPS
  is how many times per second the platform completes the workload.  Larger
  OPF = more correct executions between failures = a better
  performance/reliability trade-off.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.outcome import HVFClass, Outcome
from repro.core.sampling import error_margin_for


def _count(records: Iterable, outcome: Outcome) -> tuple[int, int]:
    """Count ``outcome`` hits over the *valid* records.

    Quarantined runs (``Outcome.SIM_FAULT``) are simulator failures, not
    verdicts about the hardware, and are excluded from every vulnerability
    factor's numerator and denominator.
    """
    n = hits = 0
    for r in records:
        if r.outcome is Outcome.SIM_FAULT:
            continue
        n += 1
        if r.outcome is outcome:
            hits += 1
    return hits, n


def n_valid(records: Sequence) -> int:
    """How many records carry a hardware verdict (non-quarantined)."""
    return sum(1 for r in records if r.outcome is not Outcome.SIM_FAULT)


def _degenerate(records: Sequence) -> None:
    """Zero valid records: decide between a caller bug and a degenerate
    campaign.

    An *empty* record set is a programming error and raises, as it always
    has.  A non-empty set where every record was quarantined as
    ``SIM_FAULT`` is a real (if fully degraded) campaign outcome — one
    such structure must not abort report rendering for a whole sweep — so
    the metric degrades to ``None`` (undefined) instead of a traceback.
    """
    if not len(records):
        raise ValueError("no fault records")
    return None


def avf(records: Sequence) -> float | None:
    """Architectural Vulnerability Factor: share of non-masked runs.

    ``None`` when every record was quarantined (no valid sample to judge).
    """
    masked, n = _count(records, Outcome.MASKED)
    if n == 0:
        return _degenerate(records)
    # ``1 - masked / n`` rather than ``(n - masked) / n``: the two can differ
    # in the last bit, and campaign summaries have always printed this one
    return 1 - masked / n


def sdc_avf(records: Sequence) -> float | None:
    """The SDC share of the AVF (``None`` when no record is valid)."""
    sdc, n = _count(records, Outcome.SDC)
    if n == 0:
        return _degenerate(records)
    return sdc / n


def crash_avf(records: Sequence) -> float | None:
    """The Crash share of the AVF (``None`` when no record is valid)."""
    crash, n = _count(records, Outcome.CRASH)
    if n == 0:
        return _degenerate(records)
    return crash / n


def due_avf(records: Sequence) -> float | None:
    """The detected-uncorrectable (machine-check) share of the AVF.

    Only protected campaigns can produce DUE records; an unprotected
    sample simply reports 0.0.  ``None`` when no record is valid.
    """
    due, n = _count(records, Outcome.DUE)
    if n == 0:
        return _degenerate(records)
    return due / n


def corrected(records: Sequence) -> int:
    """Runs whose every flip a protection scheme repaired in place."""
    return sum(
        1 for r in records if getattr(r, "masked_reason", None) == "corrected"
    )


def coverage(records: Sequence) -> float | None:
    """Protection coverage: ``(corrected + DUE) / (corrected + DUE + SDC +
    CRASH)``.

    Of the faults that either mattered (SDC/Crash) or were intercepted
    (corrected/DUE), the share the scheme caught.  ``None`` when the
    sample never exercised the question — every record masked for
    protection-unrelated reasons (or was quarantined).
    """
    if not len(records):
        raise ValueError("no fault records")
    due, _ = _count(records, Outcome.DUE)
    sdc, _ = _count(records, Outcome.SDC)
    crash, _ = _count(records, Outcome.CRASH)
    caught = corrected(records) + due
    exercised = caught + sdc + crash
    if exercised == 0:
        return None
    return caught / exercised


def residual_sdc_avf(records: Sequence) -> float | None:
    """SDC remaining despite protection (multi-bit escapes): the SDC AVF
    of a protected campaign, named for what it measures there."""
    return sdc_avf(records)


def hvf(records: Sequence) -> float | None:
    """Hardware Vulnerability Factor: share of commit-visible corruptions.

    ``None`` when every record was quarantined (no valid sample to judge).
    """
    n = corrupt = 0
    for r in records:
        if r.outcome is Outcome.SIM_FAULT:
            continue
        n += 1
        if r.hvf is HVFClass.CORRUPTION:
            corrupt += 1
    if n == 0:
        return _degenerate(records)
    return corrupt / n


def quarantined(records: Sequence) -> int:
    """How many runs were quarantined as simulator failures."""
    return sum(1 for r in records if r.outcome is Outcome.SIM_FAULT)


def integrity_quarantined(records: Sequence) -> int:
    """How many runs the sanitizer quarantined for impossible state.

    A subset of :func:`quarantined`: these runs tripped an invariant check
    the active fault mask cannot explain (``sim_error_kind="integrity"``).
    """
    return sum(
        1 for r in records
        if getattr(r, "sim_error_kind", None) == "integrity"
    )


def hangs(records: Sequence) -> int:
    """How many runs the deterministic hang detector crashed.

    These count toward :func:`crash_avf` (a hang is a catastrophic program
    outcome, like the paper's excessively-long BFS runs) — this counter just
    splits them from wall-clock watchdog ``timeout`` crashes, which are
    host-speed-dependent where hangs reproduce at an exact simulated cycle.
    """
    return sum(1 for r in records if r.crash_reason == "hang")


@dataclass(frozen=True)
class WeightedAVF:
    """Result of a weighted-AVF combination over possibly-degenerate cells."""

    value: float | None      # None when every cell was skipped
    n_used: int              # cells that contributed
    n_skipped: int           # cells dropped for an undefined (None) AVF


def weighted_avf_detailed(
    avfs: Sequence[float | None], times: Sequence[float]
) -> WeightedAVF:
    """:func:`weighted_avf` with explicit skip accounting.

    A cell whose AVF is ``None`` (a fully-quarantined degenerate campaign)
    carries no information, so it is skipped and the weights renormalized
    over the remaining cells — one dead cell must not crash (or bias) a
    whole sweep's weighted AVF.  ``n_skipped`` reports how many were
    dropped; ``value`` is ``None`` only when *every* cell was skipped.
    """
    if len(avfs) != len(times) or not avfs:
        raise ValueError("avfs and times must be equal-length and non-empty")
    pairs = [(a, t) for a, t in zip(avfs, times) if a is not None]
    n_skipped = len(avfs) - len(pairs)
    if not pairs:
        return WeightedAVF(value=None, n_used=0, n_skipped=n_skipped)
    total = sum(t for _, t in pairs)
    if total <= 0:
        raise ValueError("total execution time must be positive")
    value = sum(a * t for a, t in pairs) / total
    return WeightedAVF(value=value, n_used=len(pairs), n_skipped=n_skipped)


def weighted_avf(
    avfs: Sequence[float | None], times: Sequence[float]
) -> float | None:
    """Execution-time-weighted AVF across benchmarks (Section V-A)::

        wAVF(c) = sum_k AVF_k(c) * t_k / sum_k t_k

    Cells with an undefined AVF (``None``, from an all-quarantined
    campaign) are skipped with a :class:`RuntimeWarning` and the weights
    renormalized over the valid cells; ``None`` comes back only when no
    cell is valid.  Use :func:`weighted_avf_detailed` for the skip count.
    """
    detail = weighted_avf_detailed(avfs, times)
    if detail.n_skipped:
        warnings.warn(
            f"weighted_avf: skipped {detail.n_skipped}/{len(avfs)} cells "
            f"with undefined (None) AVF; weights renormalized over "
            f"{detail.n_used} valid cells",
            RuntimeWarning,
            stacklevel=2,
        )
    return detail.value


def opf(
    avf_value: float | None,
    cycles_per_run: float,
    clock_hz: float = 2e9,
    operations_per_run: float = 1.0,
) -> float | None:
    """Operations-per-Failure: ``OPF = OPS / AVF`` (Section V-G).

    ``OPS = operations_per_run / (cycles_per_run / clock_hz)``.  An AVF of 0
    gives ``inf`` (never fails); an *undefined* AVF (``None``, from a
    degenerate all-quarantined campaign) gives an undefined OPF (``None``)
    instead of a ``TypeError``.
    """
    if cycles_per_run <= 0 or clock_hz <= 0:
        raise ValueError("cycles and clock must be positive")
    if avf_value is None:
        return None
    ops = operations_per_run / (cycles_per_run / clock_hz)
    if avf_value <= 0:
        return float("inf")
    return ops / avf_value


def error_margin(records: Sequence, population: int,
                 confidence: float = 0.95) -> float | None:
    """Achieved statistical error margin of a campaign's sample size.

    Only valid (non-quarantined) records contribute statistical power; a
    set with zero of them has an *undefined* margin — reported as ``None``
    instead of letting :func:`~repro.core.sampling.error_margin_for` raise
    on ``n=0`` (same degenerate-campaign family as :func:`avf`).
    """
    n = n_valid(records)
    if n == 0:
        return _degenerate(records)
    return error_margin_for(n, population, confidence)
