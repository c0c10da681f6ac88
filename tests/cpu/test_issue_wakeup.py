"""Event-driven issue wakeup: outstanding-source counts and consumer lists.

Issue takes an issue-queue entry when its count of not-ready sources is
zero.  These tests hold that count to the operand test it replaces (every
source ready), through the paths that change readiness: writeback, squash,
a register made not-ready again by ``allocate``, and snapshot restore.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.sanitizer import CPU_CHECKS, STRUCTURAL
from repro.cpu.core import OoOCore
from repro.isa.base import get_isa
from repro.kernel.compiler import compile_program
from repro.workloads import build_workload

CHECK = next(c for c in CPU_CHECKS if c.name == "iq_wakeup_consistency")


def _core(isa_name: str, cfg, workload: str = "crc32") -> OoOCore:
    isa = get_isa(isa_name)
    exe = compile_program(build_workload(workload, "tiny"), isa)
    return OoOCore.from_executable(exe, isa, cfg)


def _all_ready(core: OoOCore, entry) -> bool:
    return all(prf.ready[p] for prf, p in core._sources(entry))


def _step_until(core: OoOCore, pred, limit: int = 5000):
    while core.cycle < limit and not core.halted:
        core.step()
        found = pred(core)
        if found is not None:
            return found
    pytest.fail("no cycle met the condition")


@pytest.mark.parametrize("workload", ["crc32", "qsort", "fft"])
def test_count_equals_operand_test_every_cycle(isa_name, cfg, workload):
    """The count is zero exactly when every source is ready, at every
    cycle of a whole run, and the consistency check never fires."""
    core = _core(isa_name, cfg, workload)
    visited = 0
    while not core.halted and core.cycle < 100_000:
        core.step()
        for e in core.iq:
            assert (e.pending == 0) == _all_ready(core, e), (core.cycle, e.seq)
        visited += len(core.iq)
        assert CHECK.fn(core) is None, core.cycle
    assert core.halted and visited


def test_check_fires_on_a_corrupted_count(cfg):
    assert CHECK.kind == STRUCTURAL  # no fault mask can explain it away
    core = _core("rv", cfg)
    entry = _step_until(core, lambda c: next(iter(c.iq), None))
    entry.pending += 1
    detail = CHECK.fn(core)
    assert detail is not None and "outstanding-source count" in detail


def test_check_fires_on_a_missing_consumer(cfg):
    core = _core("rv", cfg)

    def waiting_entry(c):
        for e in c.iq:
            for prf, p in c._sources(e):
                if not prf.ready[p]:
                    return e, prf, p
        return None

    entry, prf, reg = _step_until(core, waiting_entry)
    prf.consumers[reg] = [c for c in prf.consumers[reg] if c is not entry]
    detail = CHECK.fn(core)
    assert detail is not None and "consumers" in detail


def test_allocate_makes_a_read_register_wait_again(isa_name, cfg):
    """A register freed while a queued uop still reads it (a double
    release) and then allocated is not-ready again: the uop must not
    issue until it is written, exactly as the operand test would hold it."""
    core = _core(isa_name, cfg)

    def ready_entry(c):
        for e in c.iq:
            if e.pending == 0 and c._sources(e):
                return e
        return None

    entry = _step_until(core, ready_entry)
    prf, reg = core._sources(entry)[0]
    prf.free.append(reg)
    assert core._allocate(prf) == reg
    assert not prf.ready[reg]
    assert entry.pending == 1
    assert CHECK.fn(core) is None
    for _ in range(3):
        core.step()
        assert entry in core.iq, "issued with a source not ready"
        assert entry.pending >= 1
    prf.write(reg, prf.values[reg])
    assert entry.pending == 0
    core.step()
    assert entry not in core.iq or entry.squashed


@pytest.mark.parametrize("cut", [300, 900])
def test_restored_snapshot_replays_the_unbroken_run(isa_name, cfg, cut):
    """A mid-flight snapshot with a non-empty issue queue, restored into a
    fresh core, finishes with the unbroken run's result and commit trace."""
    whole = _core(isa_name, cfg)
    whole.trace_mode = "record"
    source = _core(isa_name, cfg)
    source.trace_mode = "record"
    while source.cycle < cut:
        source.step()
    assert source.iq
    snap = source.snapshot()
    restored = _core(isa_name, cfg)
    restored.trace_mode = "record"
    restored.restore(snap)
    assert CHECK.fn(restored) is None

    expect = whole.run()
    got = restored.run()
    assert expect.ok
    assert got.commit_trace[len(source.trace):] \
        == expect.commit_trace[len(source.trace):]

    def comparable(res):
        return dataclasses.replace(res, commit_trace=None, stats={})

    assert comparable(got) == comparable(expect)
