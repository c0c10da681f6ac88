#!/usr/bin/env python3
"""Campaign-throughput benchmark: end-to-end metrics, or per-layer ones.

Run from the repository root::

    python3 perfbench/run.py --workload cpu-campaign --seed 1 --seconds 25 --trace 0

A run repeats *passes* over the workload's cells (see ``cells.py``) until
``--seconds`` of passes have elapsed, then checks the outputs
(``checks.py``) outside the timed region.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics, the tracing overhead and
the old per-script gates, and writes the spans to ``.perfbench/``.  The
last line of standard output is one JSON object; the exit code is 1 when
an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("cpu-campaign", "dse-matrix", "dsa-campaign")
#: interpreter hash seed of every run (and of the processes it starts)
HASH_SEED = "1"

#: end-to-end metric -> unit
END_TO_END = {
    "faults_per_s": "faults/s",
    "setup_s": "s",
    "time_to_result_s": "s",
    "fault_ms.p50": "ms",
    "fault_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(passes: list) -> tuple[dict[str, float], int]:
    """End-to-end metrics over untraced passes, and the latency count.

    The latency percentiles pool every fault of every pass: a pool
    worker's latency includes queueing behind whichever fault it drew,
    and pooling passes averages over those draws.
    """
    latencies = [s for p in passes for s in p.latencies()]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "faults_per_s": statistics.median(p.faults_per_s for p in passes),
        "setup_s": statistics.median(p.setup_s for p in passes),
        "time_to_result_s": statistics.median(p.time_to_result_s
                                              for p in passes),
        "fault_ms.p50": 1e3 * deciles[4],
        "fault_ms.p90": 1e3 * deciles[8],
        "peak_rss_mb": _peak_rss_mb(),
    }, len(latencies)


def per_layer(workload, plain: list, traced: list,
              layers) -> dict[str, float]:
    """Median per-layer metrics over traced passes, plus run-level ones."""
    rows = [layers.pass_layers(p, workload.workers) for p in traced]
    out = {name: 0.0 for name in layers.PER_LAYER}
    for name in out:
        values = [row[name] for row in rows if name in row]
        if values:
            out[name] = statistics.median(values)
    out.update(workload.side_metrics(plain))
    out.update(traced[0].sim())
    out["fault_ms.samples"] = sum(len(p.latencies()) for p in plain)
    out["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in plain) - 1.0)
    return {name: out[name] for name in layers.PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    # The program's x86 code layout follows the interpreter's string-hash
    # order (kernel/compiler.py orders equal live intervals by set
    # iteration), so x86 fault outcomes differ between processes.  Every
    # run uses one hash seed, so every seed does the same work and one
    # pin checks it; README.md says what this hides.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(src))
    import cells
    import checks
    import layers

    scratch = OUT / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        workload = cells.WORKLOADS[args.workload](args.seed, scratch)
        plain, traced = [], []
        started = time.perf_counter()
        while True:
            trace_this = bool(args.trace) and len(plain) > len(traced)
            result = workload.run_pass(traced=trace_this)
            (traced if trace_this else plain).append(result)
            if time.perf_counter() - started >= args.seconds \
                    and (not args.trace or traced):
                break
        metrics, samples = end_to_end(plain)
        layer_metrics = (per_layer(workload, plain, traced, layers)
                         if args.trace else {})
        problems = checks.check(args.workload, args.seed, plain + traced)
        for i, p in enumerate(traced):
            p.tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}"
                                f"-pass{i}.json")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    records = [r for p in plain + traced for _spec, r in p.records]
    failed = sum(1 for r in records if r.quarantined)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {len(records)} faults, "
          f"{failed} quarantined")
    for i, p in enumerate(plain + traced):
        kind = "traced" if p.tracer is not None else "untraced"
        print(f"  pass {i} ({kind}): {p.wall_s:.3f} s, "
              f"{p.faults_per_s:.3f} faults/s, setup {p.setup_s:.4f} s")
    for problem in problems:
        print(f"MISMATCH {problem}")
    if args.trace:
        for name, (source, old, bound) in layers.old_gates(
                ROOT, args.workload).items():
            value = layer_metrics[name]
            verdict = "within" if value <= bound else "EXCEEDS"
            print(f"gate {name[5:]}: {value:+.1%} {verdict} +{bound:.0%} "
                  f"(old: {source} {old:+.1%})")
        result = {name: {"value": v, "unit": layers.PER_LAYER[name][0]}
                  for name, v in layer_metrics.items()}
    else:
        result = {name: {"value": v, "unit": END_TO_END[name]}
                  for name, v in metrics.items()}
    for name, entry in result.items():
        note = (f" (n={samples})" if name.startswith("fault_ms.p") else "")
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}{note}")
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": failed, "metrics": result}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
