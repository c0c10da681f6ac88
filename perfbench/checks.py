"""Output checks: a speed-only change must not move any simulated result.

* every pass of a run yields identical ``sim.*`` statistics (passes
  repeat identical work, traced or not);
* those statistics equal the ones pinned in ``expected.json`` (they do
  not depend on ``--seed``, which only reorders the same cells);
* journals written by ``serve`` equal those of ``run_matrix`` byte for
  byte;
* a seeded subset of the run's masks is simulated again from cycle 0,
  without checkpoints and with liveness off, and every record field must
  agree (a liveness-classified record must re-simulate as Masked).

All of it runs outside the timed passes.
"""

from __future__ import annotations

import json
import random
from dataclasses import fields, replace
from pathlib import Path

from repro.accel.campaign import AccelCampaignSpec, run_one_accel_fault
from repro.core.campaign import run_one_fault
from repro.core.checkpoint import NO_CHECKPOINTS
from repro.core.outcome import Outcome

EXPECTED = Path(__file__).resolve().parent / "expected.json"
#: masks re-simulated from scratch per run
RESIMULATED = 5


def _resimulate(spec, mask):
    if isinstance(spec, AccelCampaignSpec):
        return run_one_accel_fault(replace(spec, liveness=None), mask)
    return run_one_fault(replace(spec, liveness=None), mask,
                         checkpoints=NO_CHECKPOINTS)


def _differences(record, fresh) -> list[str]:
    if record.classified_by == "liveness":
        return ([] if fresh.outcome is Outcome.MASKED
                else [f"outcome masked != {fresh.outcome.value}"])
    return [f"{f.name} {getattr(record, f.name)!r} != "
            f"{getattr(fresh, f.name)!r}"
            for f in fields(record)
            if f.compare and getattr(record, f.name) != getattr(fresh, f.name)]


def check(name: str, seed: int, passes: list) -> list[str]:
    """Every output mismatch of a run, as readable lines (empty = correct)."""
    problems = []
    sims = [p.sim() for p in passes]
    for i, sim in enumerate(sims[1:], start=1):
        if sim != sims[0]:
            problems.append(f"pass {i} sim {sim} != pass 0 sim {sims[0]}")
    pinned = json.loads(EXPECTED.read_text())[name]
    if sims[0] != pinned:
        problems.append(f"sim {sims[0]} != pinned {pinned}")
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {m}" for m in p.mismatches]
    records = passes[-1].records
    sample = random.Random(seed).sample(records,
                                        min(RESIMULATED, len(records)))
    for spec, record in sample:
        for diff in _differences(record, _resimulate(spec, record.mask)):
            problems.append(f"mask {record.mask.mask_id} re-simulated: "
                            f"{diff}")
    return problems
