"""Statistical fault sampling (Leveugle et al., DATE 2009).

The paper's campaigns draw 1,000 uniformly distributed single-bit faults per
structure, which the Leveugle formulation puts at a 3% error margin with 95%
confidence; these are the same formulas.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.core.faults import FaultFlip, FaultMask, FaultModel

#: two-sided normal quantiles for common confidence levels
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def _z(confidence: float) -> float:
    try:
        return _Z[round(confidence, 2)]
    except KeyError:
        raise ValueError(f"unsupported confidence {confidence}; use 0.90/0.95/0.99") from None


def sample_size(
    population: int,
    error_margin: float = 0.03,
    confidence: float = 0.95,
    p: float = 0.5,
) -> int:
    """Faults needed for the given error margin (finite population corrected).

    ``n = N / (1 + e^2 (N-1) / (z^2 p (1-p)))`` — Leveugle's equation with
    ``p = 0.5`` as the conservative prior the paper adopts.
    """
    if population <= 0:
        raise ValueError("population must be positive")
    if not 0 < p < 1:
        raise ValueError(f"p must be in the open interval (0, 1): {p}")
    z = _z(confidence)
    e2 = error_margin * error_margin
    n = population / (1 + e2 * (population - 1) / (z * z * p * (1 - p)))
    return max(1, math.ceil(n))


def error_margin_for(
    n: int, population: int, confidence: float = 0.95, p: float = 0.5
) -> float:
    """Error margin achieved by ``n`` samples out of ``population`` bits."""
    if n <= 0 or population <= 0:
        raise ValueError("n and population must be positive")
    if not 0 < p < 1:
        # p=0/p=1 would silently report margin 0 and stop an adaptive
        # campaign after its first batch — reject it loudly instead
        raise ValueError(f"p must be in the open interval (0, 1): {p}")
    if n >= population:
        return 0.0
    z = _z(confidence)
    return z * math.sqrt(p * (1 - p) / n * (population - n) / (population - 1))


@dataclass(frozen=True)
class AdaptiveSampling:
    """Sequential stopping rule for a fault campaign (Leveugle, sequel).

    Instead of always burning the fixed fault budget, the campaign
    dispatches masks in batches and stops as soon as the *achieved* error
    margin — ``error_margin_for(n_valid, population)`` at ``confidence`` —
    drops to ``target_margin``.  The fixed budget becomes an upper bound;
    structures whose estimate converges early stop early.

    The stopping decision is a pure function of the (deterministic) record
    stream and the *absolute* batch boundaries, so an interrupted campaign
    resumed from its journal makes the identical stop decision and the
    journal stays byte-identical to an uninterrupted run's.
    """

    #: stop once the achieved error margin is at or below this
    target_margin: float = 0.03
    #: confidence level for the margin (0.90 / 0.95 / 0.99)
    confidence: float = 0.95
    #: masks dispatched between margin checks
    batch: int = 50
    #: never stop before this many masks have run (early estimates are noisy)
    min_faults: int = 20

    def __post_init__(self):
        if not 0 < self.target_margin < 1:
            raise ValueError(f"target_margin must be in (0, 1): {self.target_margin}")
        if self.batch < 1 or self.min_faults < 1:
            raise ValueError("batch and min_faults must be >= 1")
        _z(self.confidence)   # validates the confidence level

    def boundaries(self, budget: int):
        """Absolute mask counts at which the margin is checked.

        ``min_faults, min_faults + batch, min_faults + 2*batch, ...``
        capped at ``budget`` (which is always the final boundary).
        """
        if budget <= 0:
            raise ValueError(f"budget must be positive: {budget}")
        b = min(self.min_faults, budget)
        while b < budget:
            yield b
            b = min(b + self.batch, budget)
        yield budget

    def next_boundary(self, done: int, budget: int) -> int | None:
        """The first boundary strictly beyond ``done`` masks (None = spent)."""
        for b in self.boundaries(budget):
            if b > done:
                return b
        return None

    def satisfied(self, n_valid: int, population: int) -> bool:
        """Has ``n_valid`` distinct samples already hit the target margin?"""
        if n_valid <= 0:
            return False
        return (
            error_margin_for(n_valid, population, self.confidence)
            <= self.target_margin
        )


def stop_decision(adaptive: AdaptiveSampling | None, budget: int, done: int,
                  n_valid, population: int) -> tuple[str, int]:
    """Where a campaign of ``budget`` masks stands once ``done`` have run.

    ``("running", b)``: dispatch up to boundary ``b`` next;
    ``("converged", b)``: the margin target was met at boundary ``b``;
    ``("exhausted", budget)``: the budget is spent.  ``n_valid(b)`` counts
    the valid records among the first ``b``.  Every runner — a campaign,
    a matrix cell, a shard merge — walks the same absolute boundaries, so
    a resumed or merged campaign stops at the fault an uninterrupted one
    does.  Without ``adaptive`` the only boundary is the budget.
    """
    if adaptive is None or budget == 0:
        return ("exhausted", budget) if done >= budget else ("running", budget)
    for b in adaptive.boundaries(budget):
        if b > done:
            return "running", b
        if adaptive.satisfied(n_valid(b), population):
            return "converged", b
    return "exhausted", budget


def generate_masks(
    structure: str,
    entries: int,
    bits_per_entry: int,
    count: int,
    window: tuple[int, int],
    model: FaultModel = FaultModel.TRANSIENT,
    seed: int = 1,
    flips_per_mask: int = 1,
) -> list[FaultMask]:
    """``count`` uniformly distributed fault masks over a structure.

    ``window`` is the (start, end) cycle interval of the golden run during
    which transient faults may strike (the checkpoint→switch_cpu region of
    the paper's workload protocol).  Stuck-at faults are timed at cycle 0:
    a manufacturing defect is present from power-on.

    Draws are *without replacement* over ``(entry, bit, cycle)`` fault
    sites: Leveugle's ``error_margin_for(n, N)`` assumes ``n`` distinct
    samples of the population, so a duplicate site would overstate the
    achieved statistical power — and inside a multi-bit transient mask a
    repeated flip would XOR itself away, silently turning an ``n``-bit
    fault model into an ``n-2``-bit one.

    Below 50% saturation the draws come from the historical rejection
    stream and are byte-identical to every earlier release.  At or above
    50% saturation rejection sampling degenerates toward coupon-collector
    time, so the sampler switches to a seeded full-population shuffle —
    same distribution, same determinism per seed, linear time.  The
    smaller-count-is-a-prefix property therefore holds *within* a
    sampling regime, not across the 50% boundary.
    """
    if entries <= 0 or bits_per_entry <= 0:
        raise ValueError("structure geometry must be positive")
    lo, hi = window
    if hi <= lo:
        raise ValueError(f"empty injection window {window}")
    # stuck-at sites collapse the cycle dimension (always struck at 0)
    site_population = entries * bits_per_entry * (1 if model.permanent else hi - lo)
    needed = count * flips_per_mask
    if needed > site_population:
        raise ValueError(
            f"cannot draw {needed} distinct fault sites "
            f"from a population of {site_population}"
        )
    rng = random.Random(seed)

    if needed * 2 > site_population:
        # coupon-collector regime: enumerate every site in canonical
        # (entry, bit, cycle) order and shuffle once
        cycles = (0,) if model.permanent else range(lo, hi)
        sites = [
            (e, b, c)
            for e in range(entries)
            for b in range(bits_per_entry)
            for c in cycles
        ]
        rng.shuffle(sites)
        picked = iter(sites[:needed])

        def draw() -> FaultFlip:
            site = next(picked)
            return FaultFlip(
                structure=structure, entry=site[0], bit=site[1],
                cycle=site[2],
            )
    else:
        seen: set[tuple[int, int, int]] = set()

        def draw() -> FaultFlip:
            while True:
                site = (
                    rng.randrange(entries),
                    rng.randrange(bits_per_entry),
                    0 if model.permanent else rng.randrange(lo, hi),
                )
                if site not in seen:
                    seen.add(site)
                    return FaultFlip(
                        structure=structure, entry=site[0], bit=site[1],
                        cycle=site[2],
                    )

    masks = []
    for mask_id in range(count):
        flips = tuple(draw() for _ in range(flips_per_mask))
        masks.append(FaultMask(model=model, flips=flips, mask_id=mask_id))
    return masks


def uniform_accel_sites(
    total_bits: int,
    cycles: int,
    count: int,
    permanent: bool,
    seed: int = 1,
) -> list[tuple[int, int]]:
    """``count`` distinct uniform ``(bit, cycle)`` accelerator fault sites.

    This is the historical accelerator draw loop, extracted so the fault
    -model registry's ``uniform`` generator and the accelerator campaign
    driver share one stream.  Below 50% saturation the rejection stream is
    byte-identical to earlier releases; at or above it, a seeded
    full-population shuffle avoids coupon-collector degeneration (same
    regime split as :func:`generate_masks`).
    """
    if total_bits <= 0 or cycles <= 0:
        raise ValueError("accelerator geometry must be positive")
    population = total_bits * (1 if permanent else cycles)
    if count > population:
        raise ValueError(
            f"cannot draw {count} distinct fault sites from a population "
            f"of {population}"
        )
    rng = random.Random(seed)
    if count * 2 > population:
        if permanent:
            sites = [(b, 0) for b in range(total_bits)]
        else:
            sites = [(b, c) for b in range(total_bits) for c in range(cycles)]
        rng.shuffle(sites)
        return sites[:count]
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < count:
        site = (
            rng.randrange(total_bits),
            0 if permanent else rng.randrange(cycles),
        )
        if site not in seen:
            seen.add(site)
            out.append(site)
    return out
