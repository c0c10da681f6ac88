"""The benchmark's workloads, driven only through the program's entry points.

Each workload is a fixed list of campaign cells, and each cell draws its
fault sample with a fixed sampling seed (:data:`SAMPLE_SEED`).  ``--seed``
sets the order the serial workloads run their campaigns in and, in
``checks.py``, which masks are re-simulated; the matrix grid keeps one
order, because the dispatch order changes the pool's schedule.  Fault
samples do not follow ``--seed``: about 3% of l1i faults run to the
10x-golden watchdog and cost 100x a median fault, so the host cost of a
seed-drawn sample of a few hundred faults varies by 40-90% from seed to
seed, far beyond any usable regression bound.

One *pass* runs every cell once, starting from empty memo tables
(:func:`fresh_caches`), so each campaign pays the program build,
compile, golden run and mask generation a ``repro campaign`` user pays;
the simulated caches start empty as well.  Passes repeat identical work,
which makes their simulated statistics comparable exactly and their
timings comparable directly.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.accel import campaign as accel_campaign
from repro.accel.campaign import AccelCampaignSpec, run_accel_campaign
from repro.accel_designs import PAPER_TARGETS
from repro.core import campaign
from repro.core.campaign import CampaignSpec, clear_caches, golden_run
from repro.core.checkpoint import DEFAULT_POLICY, NO_CHECKPOINTS
from repro.core.journal import CampaignJournal
from repro.core.matrix import load_grid, run_matrix
from repro.core.outcome import Outcome
from repro.core.presets import sim_config
from repro.core.shard import serve
from repro.core.telemetry import Telemetry
from repro.workloads import suite

import spans

_clock = time.perf_counter

CPU_ISAS = ("rv", "arm", "x86")
CPU_KERNELS = ("crc32", "qsort", "sha", "dijkstra")
CPU_TARGETS = ("regfile_int", "l1d", "l1i", "lq")
#: faults per cpu-campaign cell
CPU_FAULTS = 9

MATRIX_ISAS = ("rv", "arm", "x86")
MATRIX_KERNELS = ("crc32", "qsort")
MATRIX_TARGETS = ("regfile_int", "lq")
MATRIX_FAULTS = 16
MATRIX_WORKERS = 2
#: faults of the liveness on/off comparison (rv/crc32/regfile_int)
LIVENESS_FAULTS = 16
#: interleaved repeats of the golden-recording comparison
GOLDEN_REPEATS = 3

#: faults per dsa-campaign design
DSA_FAULTS = 14


#: seed every cell's fault sample derives from
SAMPLE_SEED = 1


def fresh_caches() -> None:
    """Empty every memo table a fresh ``repro`` process starts without.

    ``clear_caches()`` covers the executables and golden runs; the
    program builds (``compile_workload`` calls ``build_workload``) and the
    DSA golden runs are memoized apart from them.
    """
    clear_caches()
    suite._CACHE.clear()
    accel_campaign._ACCEL_GOLDEN_CACHE.clear()


def sub_seed(*parts: str) -> int:
    """Stable per-cell sampling seed."""
    text = "/".join([str(SAMPLE_SEED), *parts]).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def shuffled(items, seed: int) -> list:
    """``items`` in the run order ``seed`` picks."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


@dataclass
class Campaign:
    """Host timing of one call into the program, from entry to summary."""

    setup_s: float           # entry to the first fault dispatch
    total_s: float           # entry to the final summary
    fault_s: list[float]     # per-fault host latency


@dataclass
class Pass:
    """Everything one pass over a workload's cells produced."""

    wall_s: float
    campaigns: list[Campaign]
    #: (spec, record) per classified fault, in run order
    records: list[tuple]
    golden_cycles: int
    golden_instructions: int
    #: the journals the pass wrote
    journals: list[Path] = field(default_factory=list)
    journal_bytes: int = 0
    journal_records: int = 0
    tracer: spans.Tracer | None = None
    #: per-layer values only this workload can measure
    extra: dict[str, float] = field(default_factory=dict)
    #: output mismatches found while the pass ran
    mismatches: list[str] = field(default_factory=list)

    @property
    def faults_per_s(self) -> float:
        """Classified faults per host second after each campaign's setup."""
        return (sum(len(c.fault_s) for c in self.campaigns)
                / sum(c.total_s - c.setup_s for c in self.campaigns))

    @property
    def setup_s(self) -> float:
        """Mean campaign setup: entry to first fault dispatch."""
        return statistics.mean(c.setup_s for c in self.campaigns)

    @property
    def time_to_result_s(self) -> float:
        """Mean campaign duration: entry to final summary."""
        return statistics.mean(c.total_s for c in self.campaigns)

    def latencies(self) -> list[float]:
        """Every fault's host latency."""
        return [s for c in self.campaigns for s in c.fault_s]

    def sim(self) -> dict[str, int]:
        """Simulated statistics: identical for identical work."""
        out = {"sim.golden_cycles": self.golden_cycles,
               "sim.golden_instructions": self.golden_instructions}
        for outcome in (Outcome.MASKED, Outcome.SDC, Outcome.CRASH,
                        Outcome.DUE):
            out[f"sim.outcomes.{outcome.value}"] = sum(
                1 for _spec, r in self.records if r.outcome is outcome)
        return out


class FaultProbe:
    """Times every call of one module-level per-fault function.

    The only instrumentation of untraced passes: two clock reads per
    fault, which gives per-fault latency and the first-dispatch instant.
    """

    def __init__(self, module, attr: str):
        #: (start, end) per call
        self.times: list[tuple] = []
        original = getattr(module, attr)
        times = self.times

        def probe(spec, mask, *args, **kwargs):
            start = _clock()
            try:
                return original(spec, mask, *args, **kwargs)
            finally:
                times.append((start, _clock()))

        setattr(module, attr, probe)

    def since(self, index: int, entered: float, left: float) -> Campaign:
        faults = self.times[index:]
        return Campaign(setup_s=faults[0][0] - entered, total_s=left - entered,
                        fault_s=[end - start for start, end in faults])


class Workload:
    name = ""
    #: worker processes the workload's pool uses (1 = serial)
    workers = 1

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def run_pass(self, traced: bool) -> Pass:
        tracer = spans.install(spans.Tracer()) if traced else None
        try:
            result = self._timed_pass(traced)
        finally:
            if tracer is not None:
                tracer.remove()
        result.tracer = tracer
        self._after_pass(result)
        for journal in result.journals:
            lines = journal.read_bytes().splitlines(keepends=True)
            result.journal_bytes += sum(len(line) for line in lines[1:])
            result.journal_records += len(lines) - 1
        return result

    def _timed_pass(self, traced: bool) -> Pass:
        raise NotImplementedError

    def _after_pass(self, result: Pass) -> None:
        """Untimed, untraced bookkeeping on a finished pass."""

    def side_metrics(self, passes: list[Pass]) -> dict[str, float]:
        """Trace-only measurements made once per run, after the passes."""
        return {}


class CpuCampaign(Workload):
    """Serial journaled CPU campaigns with the default fast paths on."""

    name = "cpu-campaign"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(scratch)
        cfg = sim_config()
        self.specs = shuffled((
            CampaignSpec(isa=isa, workload=kernel, target=target, cfg=cfg,
                         faults=CPU_FAULTS,
                         seed=sub_seed(isa, kernel, target))
            for i, isa in enumerate(CPU_ISAS)
            for j, kernel in enumerate(CPU_KERNELS)
            for target in [CPU_TARGETS[(i + j) % len(CPU_TARGETS)]]
        ), seed)
        self.probe = FaultProbe(campaign, "run_one_fault")
        self.journals = [scratch / f"cpu-{i}.jsonl"
                         for i in range(len(self.specs))]

    def _timed_pass(self, traced: bool) -> Pass:
        started = _clock()
        timings, records = [], []
        cycles = instructions = 0
        for spec, journal in zip(self.specs, self.journals):
            fresh_caches()
            journal.unlink(missing_ok=True)
            index = len(self.probe.times)
            entered = _clock()
            result = campaign.run_campaign(spec, journal=journal)
            result.summary()
            timings.append(self.probe.since(index, entered, _clock()))
            records += [(spec, r) for r in result.records]
            cycles += result.golden.cycles
            instructions += result.golden.result.instructions
        return Pass(wall_s=_clock() - started, campaigns=timings,
                    records=records, golden_cycles=cycles,
                    golden_instructions=instructions,
                    journals=self.journals)


class DsaCampaign(Workload):
    """Serial DSA campaigns, one paper component per design."""

    name = "dsa-campaign"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(scratch)
        self.specs = shuffled((
            AccelCampaignSpec(design=design, component=components[0],
                              faults=DSA_FAULTS,
                              seed=sub_seed(design, components[0]))
            for design, components in PAPER_TARGETS.items()
        ), seed)
        self.probe = FaultProbe(accel_campaign, "run_one_accel_fault")

    def _timed_pass(self, traced: bool) -> Pass:
        started = _clock()
        timings, records = [], []
        cycles = operations = 0
        for spec in self.specs:
            fresh_caches()
            index = len(self.probe.times)
            entered = _clock()
            result = run_accel_campaign(spec)
            result.summary()
            timings.append(self.probe.since(index, entered, _clock()))
            records += [(spec, r) for r in result.records]
            cycles += result.golden.cycles
            operations += result.golden.operations
        return Pass(wall_s=_clock() - started, campaigns=timings,
                    records=records, golden_cycles=cycles,
                    golden_instructions=operations)


def matrix_grid_toml() -> str:
    def quoted(items):
        return ", ".join(f'"{x}"' for x in items)

    return (
        '[matrix]\nname = "perfbench-dse"\n\n'
        f"[cpu]\nisas = [{quoted(MATRIX_ISAS)}]\n"
        f"workloads = [{quoted(MATRIX_KERNELS)}]\n"
        f"targets = [{quoted(MATRIX_TARGETS)}]\n"
        f"faults = {MATRIX_FAULTS}\nseed = {SAMPLE_SEED}\n"
        'liveness = "on"\n'
    )


class DseMatrix(Workload):
    """A grid of small cells through ``run_matrix`` with a worker pool.

    Traced passes also run the same grid through ``serve(workers=1)``
    (the sharded service) and, untraced, through ``run_matrix(workers=1)``:
    both simulate the whole grid in one process, so their ratio is the
    shard layer's cost.
    """

    name = "dse-matrix"
    workers = MATRIX_WORKERS

    def __init__(self, seed: int, scratch: Path):
        super().__init__(scratch)
        self.grid_path = scratch / "grid.toml"
        self.grid_path.write_text(matrix_grid_toml())
        self.grid = load_grid(self.grid_path)
        self.count = 0
        #: the last traced pass's ``serve`` time
        self.serve_s = 0.0

    def _out_dir(self, kind: str) -> Path:
        self.count += 1
        out = self.scratch / f"{kind}-{self.count}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def _timed_pass(self, traced: bool) -> Pass:
        fresh_caches()
        out = self._out_dir("matrix")
        first: list[float] = []
        walls: list[float] = []

        def sink(event) -> None:
            if event.kind == "fault_dispatched" and not first:
                first.append(_clock())
            elif event.kind == "fault_finished":
                walls.append(event.wall_s)

        entered = _clock()
        result = run_matrix(self.grid, out, workers=self.workers,
                            telemetry=Telemetry(sinks=[sink]))
        result.render()
        left = _clock()
        timing = Campaign(setup_s=first[0] - entered, total_s=left - entered,
                          fault_s=walls)
        result = Pass(wall_s=left - entered, campaigns=[timing], records=[],
                      golden_cycles=0, golden_instructions=0,
                      journals=[out / "cells" / f"{c.key}.jsonl"
                                for c in self.grid.cells],
                      extra={"matrix.cell_setup_s":
                             timing.setup_s / len(self.grid.cells)})
        if traced:
            self._sharded(result)
        return result

    def _after_pass(self, result: Pass) -> None:
        for cell, journal in zip(self.grid.cells, result.journals):
            spec = cell.spec
            result.records += [(spec, r)
                               for r in CampaignJournal.load(journal, spec)]
            # the parent's golden cache still holds the cell's golden run
            golden = golden_run(spec.isa, spec.workload, spec.cfg,
                                spec.scale, checkpoints=DEFAULT_POLICY,
                                liveness=True)
            result.golden_cycles += golden.cycles
            result.golden_instructions += golden.result.instructions
        if result.tracer is not None:
            self._serial_reference(result)

    def _compare(self, result: Pass, out: Path, runner: str) -> None:
        """``out``'s cell journals must equal the pass's byte for byte."""
        for journal in result.journals:
            if (out / "cells" / journal.name).read_bytes() \
                    != journal.read_bytes():
                result.mismatches.append(
                    f"{runner} journal {journal.name} differs from "
                    f"run_matrix(workers={self.workers})'s")

    def _sharded(self, result: Pass) -> None:
        """The grid through ``serve`` with one ``repro work`` process."""
        out = self._out_dir("serve")
        entered = _clock()
        merged = serve(self.grid_path, out, workers=1)
        self.serve_s = _clock() - entered
        if not merged.complete:
            result.mismatches.append("serve left the merge incomplete")
        self._compare(result, out, "serve")
        claims = len(list((out / "shards").glob("*.g*.jsonl")))
        releases = len(list((out / "shards").glob("*.done.json")))
        result.extra["shard.lease_ops"] = claims + releases

    def _serial_reference(self, result: Pass) -> None:
        """The shard layer's reference: the grid in ``run_matrix`` with one
        worker, untraced, from empty memo tables like the ``repro work``
        process ``serve`` started."""
        fresh_caches()
        out = self._out_dir("serial")
        entered = _clock()
        run_matrix(self.grid, out, workers=1)
        serial_s = _clock() - entered
        self._compare(result, out, "run_matrix(workers=1)")
        result.extra["shard.overhead_ratio"] = self.serve_s / serial_s - 1.0

    def side_metrics(self, passes: list[Pass]) -> dict[str, float]:
        """Golden recording cost, and liveness speedup on one cell."""
        variants = ((NO_CHECKPOINTS, False), (DEFAULT_POLICY, False),
                    (DEFAULT_POLICY, True))
        cfg = self.grid.cells[0].spec.cfg
        totals = [[], [], []]       # per variant: one grid total per repeat
        for _ in range(GOLDEN_REPEATS):
            took = [0.0, 0.0, 0.0]
            for isa in MATRIX_ISAS:
                for kernel in MATRIX_KERNELS:
                    for i, (policy, liveness) in enumerate(variants):
                        fresh_caches()
                        campaign.compile_workload(isa, kernel, "tiny")
                        start = _clock()
                        golden_run(isa, kernel, cfg, checkpoints=policy,
                                   liveness=liveness)
                        took[i] += _clock() - start
            for i, seconds in enumerate(took):
                totals[i].append(seconds)
        plain, ckpt, live = (statistics.median(t) for t in totals)
        spec = next(c.spec for c in self.grid.cells
                    if (c.spec.isa, c.spec.workload, c.spec.target)
                    == ("rv", "crc32", "regfile_int"))
        spec = replace(spec, faults=LIVENESS_FAULTS)
        golden_run(spec.isa, spec.workload, spec.cfg, spec.scale,
                   checkpoints=DEFAULT_POLICY, liveness=True)
        timed = {None: [], "on": []}
        for mode in (None, "on") * 3:
            start = _clock()
            result = campaign.run_campaign(replace(spec, liveness=mode))
            timed[mode].append(_clock() - start)
        matrix_s = statistics.median(p.wall_s for p in passes)
        return {
            "golden.record_overhead_ratio": live / plain,
            "liveness.record_s": live - ckpt,
            "liveness.campaign_speedup": (statistics.median(timed[None])
                                         / statistics.median(timed["on"])),
            "liveness.cell_skip_ratio": (result.liveness_skips
                                         / len(result.records)),
            "gate.liveness_golden": (live - ckpt) / matrix_s,
        }


WORKLOADS = {w.name: w for w in (CpuCampaign, DseMatrix, DsaCampaign)}
