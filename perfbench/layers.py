"""Per-layer metrics, computed from one traced pass.

Layer names follow the program's modules.  Times are host seconds per
pass.  A metric whose layer the workload does not run reads 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: name -> (unit, better); the ``per_layer`` list of BENCHMARK.json
PER_LAYER = {
    "kernel.compile_s": ("s", "lower"),
    "cpu.cycles_per_s.rv": ("cycles/s", "higher"),
    "cpu.cycles_per_s.arm": ("cycles/s", "higher"),
    "cpu.cycles_per_s.x86": ("cycles/s", "higher"),
    "cpu.step_calls": ("count", "lower"),
    "cpu.step_s": ("s", "lower"),
    "cpu.step_share": ("ratio", "lower"),
    "golden.s": ("s", "lower"),
    "golden.calls": ("count", "lower"),
    "golden.record_overhead_ratio": ("ratio", "lower"),
    "checkpoint.restores": ("count", "higher"),
    "checkpoint.restore_s": ("s", "lower"),
    "checkpoint.probe_s": ("s", "lower"),
    "checkpoint.skipped_cycle_ratio": ("ratio", "higher"),
    "checkpoint.early_exit_ratio": ("ratio", "higher"),
    "sanitizer.audit_s": ("s", "lower"),
    "liveness.skip_ratio": ("ratio", "higher"),
    "liveness.record_s": ("s", "lower"),
    "liveness.campaign_speedup": ("ratio", "higher"),
    "liveness.cell_skip_ratio": ("ratio", "higher"),
    "masks.s": ("s", "lower"),
    "journal.append_s": ("s", "lower"),
    "journal.bytes_per_fault": ("B/fault", "lower"),
    "telemetry.s": ("s", "lower"),
    "supervisor.pool_start_s": ("s", "lower"),
    "supervisor.busy_ratio": ("ratio", "higher"),
    "supervisor.retries": ("count", "lower"),
    "matrix.cell_setup_s": ("s", "lower"),
    "shard.merge_s": ("s", "lower"),
    "shard.lease_ops": ("count", "lower"),
    "shard.overhead_ratio": ("ratio", "lower"),
    "accel.golden_s": ("s", "lower"),
    "accel.engine_run_s": ("s", "lower"),
    "accel.fault_ms": ("ms", "lower"),
    "sim.golden_cycles": ("cycles", "lower"),
    "sim.golden_instructions": ("count", "lower"),
    "sim.outcomes.masked": ("count", "higher"),
    "sim.outcomes.sdc": ("count", "lower"),
    "sim.outcomes.crash": ("count", "lower"),
    "sim.outcomes.due": ("count", "lower"),
    "fault_ms.samples": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "gate.sanitizer": ("ratio", "lower"),
    "gate.telemetry": ("ratio", "lower"),
    "gate.liveness_golden": ("ratio", "lower"),
    "gate.shard": ("ratio", "lower"),
}

#: the old per-script gates: the workload that measures each, the old
#: file, the key path of the old number, and the bound -- a key path where
#: the file records it, else the constant the old script checks.  Each
#: gate keeps its bound; the definitions differ as README.md states.
GATES = {
    "gate.sanitizer": ("cpu-campaign", "BENCH_sanitizer.json",
                       "workloads.smoke.golden_overhead.sampled", 0.10),
    "gate.telemetry": ("dse-matrix", "BENCH_telemetry.json",
                       "workloads.smoke.overhead", 0.05),
    "gate.liveness_golden": (
        "dse-matrix", "BENCH_liveness.json",
        "workloads.smoke.golden_overhead_vs_campaign_pct",
        "golden_overhead_gate_pct"),
    "gate.shard": ("dse-matrix", "BENCH_shard.json",
                   "workloads.smoke.overhead", 0.25),
}


def _lookup(doc: dict, path: str) -> float:
    for key in path.split("."):
        doc = doc[key]
    return doc / 100 if path.endswith("_pct") else doc


def old_gates(root: Path,
              workload: str) -> dict[str, tuple[str, float, float]]:
    """Gate name -> (old file, old number, bound) of the gates ``workload``
    measures, for old files still present."""
    out = {}
    for name, (measured_on, source, old, bound) in GATES.items():
        path = root / source
        if measured_on == workload and path.exists():
            doc = json.loads(path.read_text())
            out[name] = (source, _lookup(doc, old),
                         _lookup(doc, bound) if isinstance(bound, str)
                         else bound)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_layers(p, workers: int) -> dict[str, float]:
    """Every per-layer metric one traced pass yields."""
    t = p.tracer
    spans = t.spans
    step_calls, step_s = t.counters.get("OoOCore.step", (0, 0.0))
    _audits, audit_s = t.counters.get("CoreAuditor.on_cycle", (0, 0.0))
    out: dict[str, float] = {
        "kernel.compile_s": t.total("compile_workload"),
        "cpu.step_calls": step_calls,
        "cpu.step_s": step_s,
        "cpu.step_share": _ratio(step_s, p.wall_s),
        "sanitizer.audit_s": audit_s,
        "masks.s": t.total("masks_for_spec") + t.total("accel_masks"),
        "journal.append_s": t.total("journal.append"),
        "journal.bytes_per_fault": _ratio(p.journal_bytes, p.journal_records),
        "telemetry.s": t.total("telemetry.fault_finished"),
        "checkpoint.restores": len(t.select("restore_into")),
        "checkpoint.restore_s": t.total("restore_into"),
        "checkpoint.probe_s": t.total("checkpoint.matches"),
        "shard.merge_s": t.total("merge_shards"),
        "accel.golden_s": t.total("accel_golden"),
        "accel.engine_run_s": t.total("DataflowEngine.run"),
    }

    # golden runs: simulated cycles per host second of the core's run loop
    golden_s = calls = 0
    per_isa: dict[str, list[float]] = {}
    for index, span in enumerate(spans):
        if span[0] != "golden_run":
            continue
        calls += 1
        golden_s += span[2] - span[1]
        isa, cycles, _instructions = span[4]
        for run in t.children(index, "OoOCore.run"):
            acc = per_isa.setdefault(isa, [0, 0.0])
            acc[0] += cycles
            acc[1] += run[2] - run[1]
    out["golden.s"] = golden_s
    out["golden.calls"] = calls
    for isa in ("rv", "arm", "x86"):
        cycles, seconds = per_isa.get(isa, (0, 0.0))
        out[f"cpu.cycles_per_s.{isa}"] = _ratio(cycles, seconds)

    # per-fault path, parent side
    faults = t.select("run_one_fault")
    simulated = [s[4] for s in faults
                 if s[4] is not None and s[4][0].classified_by is None]
    out["checkpoint.skipped_cycle_ratio"] = _ratio(
        sum(r.restored_from for r, _golden in simulated),
        sum(golden for _r, golden in simulated))
    out["checkpoint.early_exit_ratio"] = _ratio(
        sum(1 for r, _golden in simulated if r.early_exited), len(simulated))
    accel = t.select("run_one_accel_fault")
    out["accel.fault_ms"] = (
        1e3 * statistics.median(s[2] - s[1] for s in accel) if accel else 0.0)

    records = [r for _spec, r in p.records]
    out["liveness.skip_ratio"] = _ratio(
        sum(1 for r in records if r.classified_by == "liveness"),
        len(records))

    # supervisor: parent-side view of each pool run
    pool_start, busy, retries = [], [], 0
    for index, span in enumerate(spans):
        if span[0] != "run_supervised":
            continue
        done = t.children(index, "telemetry.fault_finished")
        if not done:
            continue
        pool_start.append(done[0][1] - span[1])
        busy.append(sum(s[4][1] or 0.0 for s in done)
                    / (workers * (span[2] - span[1])))
        retries += sum(s[4][0].retries for s in done)
    out["supervisor.pool_start_s"] = (
        statistics.median(pool_start) if pool_start else 0.0)
    out["supervisor.busy_ratio"] = statistics.median(busy) if busy else 0.0
    out["supervisor.retries"] = retries

    fault_time = sum(s[2] - s[1] for s in faults)
    out["gate.sanitizer"] = _ratio(audit_s, fault_time - audit_s)
    out["gate.telemetry"] = _ratio(out["telemetry.s"],
                                   p.wall_s - out["telemetry.s"])
    out.update(p.extra)
    if "shard.overhead_ratio" in out:
        out["gate.shard"] = out["shard.overhead_ratio"]
    return out
