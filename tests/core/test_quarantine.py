"""Crash-quarantine and resume tests.

The fixture registers a test-only injection target whose ``flip()``
detonates — the stand-in for a fault-corrupted core raising an arbitrary
exception (IndexError from a clobbered queue index, KeyError from a
poisoned rename map).  The campaign engine must convert those into
quarantined records, never abort, label deterministic vs. flaky simulator
faults differently, and resume an interrupted campaign from its journal.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core import campaign as campaign_mod
from repro.core.campaign import (
    CampaignSpec,
    golden_run,
    masks_for_spec,
    run_campaign,
    run_one_fault,
)
from repro.core.faults import FaultMask
from repro.core.journal import CampaignJournal
from repro.core.outcome import HVFClass, Outcome
from repro.core.report import render_robustness, robustness_summary
from repro.core.sanitizer import DEFAULT_HANG_CYCLES
from repro.core.targets import TARGETS, Target


class _Detonator:
    """A regfile-shaped structure whose bit accessors raise.

    ``fuse=None`` explodes on every flip attempt; ``fuse=N`` explodes N
    times and then behaves (the flip becomes a no-op against this dummy
    structure, so the run completes like a golden run — exactly what a
    "flaky" retry looks like).
    """

    size = 8
    width = 64
    free = frozenset()          # every entry occupied: flip always attempted

    def __init__(self, fuse: int | None = None):
        self.fuse = fuse
        self.flips_attempted = 0

    def flip_bit(self, entry: int, bit: int) -> None:
        self.flips_attempted += 1
        if self.fuse is None:
            raise IndexError(f"detonated on flip({entry}, {bit})")
        if self.fuse > 0:
            self.fuse -= 1
            raise IndexError(f"detonated on flip({entry}, {bit})")

    def force_bit(self, entry: int, bit: int, value: int) -> bool:
        self.flip_bit(entry, bit)
        return True


@pytest.fixture
def detonator():
    """Register the 'exploding' target; yields the structure for tuning."""
    struct = _Detonator(fuse=None)
    TARGETS["exploding"] = Target(
        "exploding", "regfile", lambda core: struct, "test-only detonator"
    )
    yield struct
    del TARGETS["exploding"]


def _spec(cfg, **kw):
    defaults = dict(
        isa="rv", workload="crc32", target="regfile_int", cfg=cfg,
        scale="tiny", faults=6, seed=21,
    )
    defaults.update(kw)
    return CampaignSpec(**defaults)


def _exploding_masks(n, start=0):
    return [FaultMask.single("exploding", i % 8, 3, cycle=50,
                             mask_id=start + i)
            for i in range(n)]


# --------------------------------------------------------------- quarantine


def test_deterministic_sim_fault_is_quarantined(cfg, detonator):
    spec = _spec(cfg, target="exploding", faults=1)
    record = run_one_fault(spec, _exploding_masks(1)[0])
    assert record.outcome is Outcome.SIM_FAULT and record.quarantined
    assert record.sim_error_kind == "deterministic"
    assert record.retries == 1                      # one retry was attempted
    assert "IndexError" in record.error
    assert "detonated" in record.error
    assert detonator.flips_attempted == 2           # first try + retry


def test_flaky_sim_fault_keeps_real_verdict(cfg, detonator):
    detonator.fuse = 1                              # explode once, then behave
    spec = _spec(cfg, target="exploding", faults=1)
    record = run_one_fault(spec, _exploding_masks(1)[0])
    assert record.outcome is not Outcome.SIM_FAULT  # retry produced a verdict
    assert record.sim_error_kind == "flaky"
    assert record.retries == 1
    assert "IndexError" in record.error             # first failure is kept


def test_campaign_completes_despite_sim_faults(cfg, detonator):
    spec = _spec(cfg, target="exploding", faults=4)
    res = run_campaign(spec, masks=_exploding_masks(4))
    assert len(res.records) == 4
    assert res.quarantined == 4
    assert res.valid_records == []
    assert res.avf is None                          # degenerate: undefined
    summary = res.summary()
    assert summary["quarantined"] == 4 and summary["retried"] == 4


def test_all_quarantined_campaign_renders_degenerate_report(cfg, detonator):
    """An all-quarantined campaign must make it all the way to a rendered
    report (the crash family this PR fixes: metrics raising ValueError on
    n_valid=0 aborted the whole sweep)."""
    from repro.core.metrics import avf, error_margin, hvf

    spec = _spec(cfg, target="exploding", faults=3)
    res = run_campaign(spec, masks=_exploding_masks(3))
    assert res.quarantined == 3
    assert avf(res.records) is None
    assert hvf(res.records) is None
    assert error_margin(res.records, population=10**6) is None
    summary = res.summary()
    assert summary["n_valid"] == 0
    health = robustness_summary(res.records)
    assert health["n_records"] == 3 and health["n_valid"] == 0
    note = render_robustness(res.records)
    assert "degenerate campaign" in note
    assert "n_valid=0" in note and "avf=None" in note


def test_quarantined_records_excluded_from_aggregates(cfg, detonator):
    """Quarantined runs must not move AVF/HVF, only the health counters."""
    spec = _spec(cfg)
    clean = run_campaign(spec)
    poisoned_masks = masks_for_spec(
        spec, golden_run(spec.isa, spec.workload, spec.cfg, spec.scale)
    ) + _exploding_masks(3, start=spec.faults)   # mask_ids stay unique
    mixed = run_campaign(spec, masks=poisoned_masks)
    assert mixed.quarantined == 3
    assert mixed.avf == pytest.approx(clean.avf)
    assert mixed.hvf == pytest.approx(clean.hvf)
    health = robustness_summary(mixed.records)
    assert health["quarantined"] == 3
    assert health["deterministic_sim_faults"] == 3
    assert "quarantined" in render_robustness(mixed.records)
    assert render_robustness(clean.records) == ""


def test_sim_fault_keeps_hvf_benign(cfg, detonator):
    record = run_one_fault(_spec(cfg, target="exploding"),
                           _exploding_masks(1)[0])
    assert record.hvf is HVFClass.BENIGN


# ------------------------------------------------------------------ resume


def test_resume_skips_completed_masks(cfg, tmp_path):
    spec = _spec(cfg, faults=8)
    golden = golden_run(spec.isa, spec.workload, spec.cfg, spec.scale)
    masks = masks_for_spec(spec, golden)
    journal = tmp_path / "run.jsonl"

    # simulate an interrupt: only the first 5 masks made it to the journal
    partial = run_campaign(spec, masks=masks[:5], journal=journal)
    assert partial.resumed == 0 and len(partial.records) == 5

    full = run_campaign(spec, masks=masks, journal=journal, resume=journal)
    assert full.resumed == 5
    assert len(full.records) == 8
    # journal now holds every mask exactly once
    assert CampaignJournal.completed(journal, spec).keys() == set(range(8))

    # a third run resumes everything and re-runs nothing
    again = run_campaign(spec, masks=masks, resume=journal)
    assert again.resumed == 8
    assert [r.outcome for r in again.records] == [r.outcome for r in full.records]


def test_resume_matches_fresh_run(cfg, tmp_path):
    """A resumed campaign must agree with an uninterrupted one."""
    spec = _spec(cfg, faults=8)
    journal = tmp_path / "run.jsonl"
    fresh = run_campaign(spec)
    golden = golden_run(spec.isa, spec.workload, spec.cfg, spec.scale)
    masks = masks_for_spec(spec, golden)
    run_campaign(spec, masks=masks[:4], journal=journal)
    resumed = run_campaign(spec, masks=masks, journal=journal, resume=journal)
    assert [r.outcome for r in resumed.records] == [r.outcome for r in fresh.records]
    assert [r.cycles for r in resumed.records] == [r.cycles for r in fresh.records]


def test_resume_ignores_mismatched_mask(cfg, tmp_path):
    """A journal row whose mask differs from the regenerated sample is
    not trusted — that mask re-runs."""
    spec = _spec(cfg, faults=4)
    golden = golden_run(spec.isa, spec.workload, spec.cfg, spec.scale)
    masks = masks_for_spec(spec, golden)
    journal = tmp_path / "run.jsonl"
    alien = FaultMask.single("regfile_int", 0, 63, cycle=1,
                             mask_id=masks[0].mask_id)
    with CampaignJournal.open(journal, spec) as writer:
        writer.append(run_one_fault(spec, alien, golden))
    res = run_campaign(spec, masks=masks, resume=journal)
    assert res.resumed == 0                 # mismatched row was ignored


def test_duplicate_mask_ids_rejected_only_when_journaling(cfg, tmp_path):
    """Concatenated samples (duplicate mask_ids) stay legal for plain runs
    — the analysis figures rely on it — but journaling needs unique keys."""
    spec = _spec(cfg, faults=2)
    golden = golden_run(spec.isa, spec.workload, spec.cfg, spec.scale)
    masks = masks_for_spec(spec, golden)
    doubled = masks + masks                 # ids 0,1,0,1
    res = run_campaign(spec, masks=doubled)
    assert len(res.records) == 4
    assert [r.mask for r in res.records] == doubled
    with pytest.raises(ValueError, match="duplicate mask_id"):
        run_campaign(spec, masks=doubled, journal=tmp_path / "dup.jsonl")


def test_resume_nonexistent_journal_runs_everything(cfg, tmp_path):
    spec = _spec(cfg, faults=4)
    res = run_campaign(spec, resume=tmp_path / "never-written.jsonl")
    assert res.resumed == 0 and len(res.records) == 4


# ------------------------------------------------- watchdog budget (fix #1)


def test_records_carry_watchdog_budget(cfg):
    spec = _spec(cfg, faults=4)
    res = run_campaign(spec)
    golden = res.golden
    budget = golden.cycles * cfg.watchdog_factor + 10_000
    for r in res.records:
        assert r.max_cycles == budget
        assert r.cycles <= r.max_cycles


def test_stop_on_hvf_exit_is_flagged_not_timeout(cfg):
    spec = _spec(cfg, faults=30, stop_on_hvf=True)
    res = run_campaign(spec)
    hvf_stopped = [r for r in res.records if r.stopped_on_hvf]
    for r in hvf_stopped:
        # an early HVF exit is not a watchdog hang
        assert r.crash_reason != "timeout"
        assert r.hvf is HVFClass.CORRUPTION
    # non-stop_on_hvf campaigns never set the flag
    plain = run_campaign(_spec(cfg, faults=4))
    assert all(not r.stopped_on_hvf for r in plain.records)


# --------------------------------------- golden priming in workers (fix #2)


def test_golden_runs_at_most_once_per_worker(cfg):
    spec = _spec(cfg, faults=3)
    golden = golden_run(spec.isa, spec.workload, spec.cfg, spec.scale)
    masks = masks_for_spec(spec, golden)
    with ProcessPoolExecutor(
        max_workers=1,
        initializer=campaign_mod._worker_init,
        initargs=(None, None, DEFAULT_HANG_CYCLES, spec),
    ) as pool:
        records = list(pool.map(campaign_mod._worker,
                                [(spec, m) for m in masks]))
        misses = pool.submit(campaign_mod._probe_golden_misses).result()
    assert len(records) == 3
    # the initializer primed the cache (or fork inherited it): the fault
    # runs themselves must never recompute the golden simulation
    assert misses <= 1


def test_parallel_campaign_still_deterministic_with_journal(cfg, tmp_path):
    spec = _spec(cfg, faults=4)
    seq = run_campaign(spec)
    journal = tmp_path / "par.jsonl"
    par = run_campaign(spec, workers=2, journal=journal)
    assert [r.outcome for r in seq.records] == [r.outcome for r in par.records]
    assert CampaignJournal.completed(journal, spec).keys() == set(range(4))
