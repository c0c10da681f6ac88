"""Command-line interface: ``python -m repro <command>``.

The paper's campaign controller is script-driven (Figure 2's "running
scripts"); this CLI is that entry point:

* ``campaign``       — CPU-structure fault-injection campaign,
* ``accel-campaign`` — DSA-memory fault-injection campaign,
* ``matrix``         — declarative experiment grid (TOML) as one queue,
* ``serve``          — coordinate a distributed (sharded) grid campaign,
* ``work``           — claim and run shards of a distributed campaign,
* ``merge``          — rebuild canonical cell journals from shard journals,
* ``figure``         — regenerate one paper figure,
* ``soc``            — run the heterogeneous SoC flow,
* ``list``           — available ISAs / workloads / targets / designs,
* ``validate``       — the Listing-1 injector sanity check,
* ``doctor``         — offline-validate a campaign journal or a distributed
  output directory,
* ``tail``           — follow / summarize a campaign journal or a whole
  matrix output directory (live or done).
"""

from __future__ import annotations

import argparse
import sys


def _add_sanitizer_args(p) -> None:
    p.add_argument("--sanitize", default="sampled",
                   choices=["off", "sampled", "full"],
                   help="microarchitectural invariant auditing: 'sampled' "
                        "audits every --audit-stride cycles, 'full' every "
                        "cycle; impossible states quarantine the run as "
                        "SIM_FAULT/integrity (default: sampled)")
    p.add_argument("--audit-stride", type=int, default=None, metavar="N",
                   help="cycles between sanitizer audits in sampled mode "
                        "(default: 64)")
    p.add_argument("--hang-cycles", type=int, default=None, metavar="K",
                   help="deterministic hang detector: classify Crash(hang) "
                        "after K simulated cycles without commit/dataflow "
                        "progress (default: 2048; 0 disables)")


def _add_telemetry_args(p) -> None:
    p.add_argument("--progress", action="store_true",
                   help="print live progress (done/total, faults/sec, ETA) "
                        "to stderr while the campaign runs")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write a Prometheus-textfile metrics snapshot here "
                        "when the campaign finishes")


def _telemetry_from_args(args, metrics_out=None):
    """Build a Telemetry hub when any observability flag is set."""
    if metrics_out is None:
        metrics_out = args.metrics_out
    if not (args.progress or metrics_out):
        return None
    from repro.core.telemetry import ProgressPrinter, Telemetry

    return Telemetry(
        progress=ProgressPrinter() if args.progress else None,
        metrics_out=metrics_out,
    )


def _add_protect_arg(p) -> None:
    p.add_argument("--protect", metavar="STRUCT=SCHEME[,...]",
                   help="attach protection schemes to structures, e.g. "
                        "'l1d=secded,regfile_int=tmr'; schemes: none, "
                        "parity, secded, tmr.  Detected-uncorrectable "
                        "errors classify as DUE; corrected flips count "
                        "toward coverage (transient model only)")


def _add_liveness_arg(p) -> None:
    p.add_argument("--liveness", default="off",
                   choices=["off", "on", "audit"],
                   help="bit-liveness pre-analysis: 'on' classifies faults "
                        "landing entirely inside a golden dead interval as "
                        "Masked analytically (no simulation); 'audit' "
                        "simulates them anyway and quarantines any "
                        "disagreement (default: off)")


def _liveness_from_args(args) -> str | None:
    return None if args.liveness == "off" else args.liveness


def _protection_from_args(args):
    if not getattr(args, "protect", None):
        return None
    from repro.core.protection import ProtectionConfig, normalized

    return normalized(ProtectionConfig.parse(args.protect))


def _add_fault_model_arg(p) -> None:
    p.add_argument("--fault-model", metavar="NAME[:K=V,...]",
                   help="fault-generator strategy: 'uniform' (default), "
                        "'burst:arity=2,span=4' (correlated multi-bit), "
                        "'error-map:rows=4/2/1' or 'error-map:map=FILE.toml' "
                        "(per-row weighted), 'adversarial:attack=branch' "
                        "(directed instruction attacks, cache targets). "
                        "Recorded in the journal/spec fingerprint")


def _fault_model_from_args(args):
    if not getattr(args, "fault_model", None):
        return None
    from repro.core.faultmodels import parse_fault_model

    return parse_fault_model(args.fault_model)


def _per_target_path(path, tag, multi):
    """Derive a per-sub-campaign output path; untouched for single runs."""
    if not path or not multi:
        return path
    import os

    root, ext = os.path.splitext(path)
    return f"{root}-{tag}{ext}"


def _add_adaptive_args(p) -> None:
    p.add_argument("--adaptive", action="store_true",
                   help="adaptive sequential sampling: dispatch faults in "
                        "batches and stop once the achieved error margin "
                        "reaches --target-margin; --faults becomes the "
                        "budget (upper bound)")
    p.add_argument("--target-margin", type=float, default=0.03, metavar="E",
                   help="error-margin target for --adaptive (default: 0.03)")
    p.add_argument("--batch", type=int, default=50, metavar="N",
                   help="faults dispatched between --adaptive margin checks "
                        "(default: 50)")


def _adaptive_from_args(args):
    if not args.adaptive:
        return None
    from repro.core.sampling import AdaptiveSampling

    return AdaptiveSampling(target_margin=args.target_margin,
                            batch=args.batch)


def _sanitizer_from_args(args):
    from repro.core.sanitizer import (
        DEFAULT_AUDIT_STRIDE,
        DEFAULT_HANG_CYCLES,
        SanitizerPolicy,
    )

    stride = (args.audit_stride if args.audit_stride is not None
              else DEFAULT_AUDIT_STRIDE)
    hang = (args.hang_cycles if args.hang_cycles is not None
            else DEFAULT_HANG_CYCLES)
    return SanitizerPolicy(mode=args.sanitize, audit_stride=stride), hang


def _add_campaign(sub) -> None:
    p = sub.add_parser("campaign", help="run a CPU SFI campaign")
    p.add_argument("--isa", default="rv", choices=["rv", "arm", "x86"])
    p.add_argument("--workload", default="qsort")
    p.add_argument("--target", default="regfile_int",
                   help="injection target, or a comma-separated list to run "
                        "one journaled sub-campaign per target")
    p.add_argument("--faults", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", default="tiny")
    p.add_argument("--preset", default="sim", choices=["sim", "paper"])
    p.add_argument("--model", default="transient",
                   choices=["transient", "stuck0", "stuck1"])
    p.add_argument("--flips-per-mask", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", help="write per-campaign summary CSV here")
    p.add_argument("--journal", metavar="PATH",
                   help="append per-fault records to this JSONL run journal")
    p.add_argument("--resume", metavar="PATH",
                   help="skip the masks this journal completed, up to its "
                        "first gap (typically the same path as --journal)")
    p.add_argument("--timeout", type=float, metavar="SECONDS",
                   help="per-fault wall-clock budget for parallel workers "
                        "(default: derived from the golden cycle count)")
    p.add_argument("--checkpoint-stride", type=int, default=None,
                   metavar="CYCLES",
                   help="cycles between golden-run checkpoints; fault runs "
                        "fast-forward from the nearest one at-or-before the "
                        "injection cycle (default: adaptive; 0 disables "
                        "checkpointing entirely)")
    p.add_argument("--no-early-exit", action="store_true",
                   help="disable the golden-trace re-convergence early exit "
                        "(fault runs always simulate to completion)")
    p.add_argument("--mshr-entries", type=int, default=None, metavar="N",
                   help="L1D MSHR file size; >0 makes the L1D non-blocking "
                        "(default: 0, blocking L1D; auto-sized when the "
                        "mshr is itself the injection target)")
    p.add_argument("--store-buffer-entries", type=int, default=None,
                   metavar="N",
                   help="post-commit store buffer size (default: 0, stores "
                        "drain straight from the SQ; auto-sized when the "
                        "store_buffer is itself the injection target)")
    p.add_argument("--prefetcher-entries", type=int, default=None,
                   metavar="N",
                   help="stride-prefetcher table size (default: 0, no "
                        "prefetching; auto-sized when the prefetcher is "
                        "itself the injection target)")
    _add_fault_model_arg(p)
    _add_protect_arg(p)
    _add_liveness_arg(p)
    _add_adaptive_args(p)
    _add_sanitizer_args(p)
    _add_telemetry_args(p)


def _add_accel(sub) -> None:
    p = sub.add_parser("accel-campaign", help="run a DSA SFI campaign")
    p.add_argument("--design", default="gemm")
    p.add_argument("--component", default="MATRIX1")
    p.add_argument("--faults", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", default="default")
    p.add_argument("--model", default="transient",
                   choices=["transient", "stuck0", "stuck1"])
    p.add_argument("--fu", type=int, help="uniform functional-unit count")
    p.add_argument("--journal", metavar="PATH",
                   help="append per-fault records to this JSONL run journal")
    p.add_argument("--resume", metavar="PATH",
                   help="skip the masks this journal completed, up to its "
                        "first gap")
    _add_fault_model_arg(p)
    _add_protect_arg(p)
    _add_liveness_arg(p)
    _add_adaptive_args(p)
    _add_sanitizer_args(p)
    _add_telemetry_args(p)


def _add_matrix(sub) -> None:
    p = sub.add_parser(
        "matrix",
        help="run a declarative experiment grid (TOML) as one campaign queue",
    )
    p.add_argument("grid", metavar="GRID.toml",
                   help="experiment grid: [cpu] isas × workloads × targets "
                        "and/or [accel] designs × components, plus optional "
                        "[adaptive] and [report] sections")
    p.add_argument("--out", default="matrix-out", metavar="DIR",
                   help="output directory for per-cell journals and "
                        "manifest.json (default: matrix-out)")
    p.add_argument("--resume", action="store_true",
                   help="continue a previous run of the identical grid from "
                        "its cell journals (torn tails and anything past "
                        "a gap cut)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", help="write the per-cell summary CSV here")
    _add_sanitizer_args(p)
    _add_telemetry_args(p)


def _add_serve(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="coordinate a distributed grid campaign over a shared "
             "filesystem (shards + leases + auto-merge)",
    )
    p.add_argument("grid", metavar="GRID.toml",
                   help="experiment grid file (same format as `repro "
                        "matrix`)")
    p.add_argument("--out", default="matrix-out", metavar="DIR",
                   help="shared output directory workers coordinate through "
                        "(default: matrix-out)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="local `repro work` processes to spawn; 0 "
                        "coordinates workers launched elsewhere (other "
                        "hosts sharing the filesystem)")
    p.add_argument("--shard-size", type=int, default=25, metavar="N",
                   help="mask-index range per shard (default: 25)")
    p.add_argument("--ttl", type=float, default=60.0, metavar="SECONDS",
                   help="lease time-to-live; a worker silent this long is "
                        "presumed dead and its shard reclaimed (default: 60)")
    p.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                   help="coordinator poll / incremental-merge interval "
                        "(default: 0.5)")
    p.add_argument("--stall-timeout", type=float, default=900.0,
                   metavar="SECONDS",
                   help="abort when no shard makes progress for this long "
                        "(default: 900)")
    _add_sanitizer_args(p)
    _add_telemetry_args(p)


def _add_work(sub) -> None:
    p = sub.add_parser(
        "work",
        help="claim and run shards of a distributed campaign until none "
             "remain (exit 3 = degraded: filesystem lost, lease left to "
             "expire)",
    )
    p.add_argument("out", metavar="DIR",
                   help="the `repro serve` output directory (shared "
                        "filesystem)")
    p.add_argument("--worker-id", default=None, metavar="ID",
                   help="stable worker identity (default: host-pid)")
    p.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                   help="idle poll interval (default: 0.5)")
    p.add_argument("--plan-wait", type=float, default=60.0,
                   metavar="SECONDS",
                   help="how long to wait for plan.json to appear "
                        "(default: 60)")
    p.add_argument("--max-shards", type=int, default=None, metavar="N",
                   help="exit after completing N shards (default: run "
                        "until the campaign is done)")
    _add_sanitizer_args(p)


def _add_merge(sub) -> None:
    p = sub.add_parser(
        "merge",
        help="rebuild canonical cells/*.jsonl byte-identically from the "
             "shard journals (exit 1 while cells are still incomplete)",
    )
    p.add_argument("out", metavar="DIR",
                   help="the distributed campaign output directory")
    p.add_argument("--json", action="store_true",
                   help="emit the merge result as JSON instead of text")


def _add_doctor(sub) -> None:
    p = sub.add_parser("doctor",
                       help="offline-validate a campaign run journal or a "
                            "distributed output directory")
    p.add_argument("journal", metavar="PATH",
                   help="JSONL journal written by --journal, or a "
                        "`repro serve` output directory (validates shard/"
                        "lease consistency and every merged cell journal)")
    p.add_argument("--json", action="store_true",
                   help="emit the diagnosis as JSON instead of text")


def _add_tail(sub) -> None:
    p = sub.add_parser("tail",
                       help="follow / summarize a campaign run journal or "
                            "a matrix output directory")
    p.add_argument("journal", metavar="PATH",
                   help="JSONL journal written by --journal (in-flight or "
                        "finished), or a matrix/distributed output "
                        "directory (aggregates shards/*.jsonl and "
                        "cells/*.jsonl with records deduplicated)")
    p.add_argument("--follow", "-f", action="store_true",
                   help="keep polling the journal and print live progress "
                        "until the campaign completes")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                   help="poll interval with --follow (default: 1.0)")
    p.add_argument("--json", action="store_true",
                   help="emit the final aggregate as JSON instead of a table")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="also write a Prometheus-textfile snapshot of the "
                        "folded aggregate")


def _add_figure(sub) -> None:
    p = sub.add_parser("figure", help="regenerate one paper figure")
    p.add_argument("number", type=int, help="paper figure number (4-18)")
    p.add_argument("--faults", type=int, default=None)


def _add_soc(sub) -> None:
    p = sub.add_parser("soc", help="run the heterogeneous SoC flow")
    p.add_argument("--isa", default="rv", choices=["rv", "arm", "x86"])
    p.add_argument("--design", default="gemm")
    p.add_argument("--scale", default="tiny")


def _add_validate(sub) -> None:
    p = sub.add_parser("validate", help="Listing-1 injector sanity check")
    p.add_argument("--isa", default="rv", choices=["rv", "arm", "x86"])
    p.add_argument("--faults", type=int, default=30)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="gem5-MARVEL reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_campaign(sub)
    _add_accel(sub)
    _add_matrix(sub)
    _add_serve(sub)
    _add_work(sub)
    _add_merge(sub)
    _add_doctor(sub)
    _add_tail(sub)
    _add_figure(sub)
    _add_soc(sub)
    _add_validate(sub)
    sub.add_parser("list", help="available ISAs/workloads/targets/designs")
    return parser


def _usage_error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _print_result(result, resume, metrics_out) -> dict:
    """Print one campaign's summary table and notes; return the summary."""
    from repro.core.report import render_robustness, render_table

    summary = result.summary()
    print(render_table(["metric", "value"], sorted(summary.items())))
    if result.stopped_early:
        print(f"adaptive stop: {len(result.records)}/{result.spec.faults} "
              f"faults, achieved margin {result.error_margin:.4f}")
    if result.resumed:
        print(f"resumed {result.resumed}/{len(result.records)} masks "
              f"from {resume}")
    health = render_robustness(result.records)
    if health:
        print(f"WARNING: {health}", file=sys.stderr)
    if metrics_out:
        print(f"wrote {metrics_out}")
    return summary


def _print_tables(summaries, args) -> None:
    """The protection and liveness tables over every summary printed."""
    from repro.core.report import render_liveness, render_protection

    if _protection_from_args(args) is not None:
        print(render_protection(summaries))
    if _liveness_from_args(args) is not None:
        print(render_liveness(summaries))


def cmd_campaign(args) -> int:
    from repro.core.campaign import CampaignSpec, run_campaign
    from repro.core.checkpoint import CheckpointPolicy
    from repro.core.faults import FaultModel
    from repro.core.presets import get_preset
    from repro.core.report import save_report

    targets = [t.strip() for t in args.target.split(",") if t.strip()]
    if not targets:
        print("error: empty --target", file=sys.stderr)
        return 2
    try:
        protection = _protection_from_args(args)
        fault_model = _fault_model_from_args(args)
    except ValueError as exc:
        return _usage_error(exc)
    multi = len(targets) > 1
    checkpoints = CheckpointPolicy(
        stride=args.checkpoint_stride,
        early_exit=not args.no_early_exit,
    )
    sanitizer, hang_cycles = _sanitizer_from_args(args)
    cfg = get_preset(args.preset)
    uarch_sizes = {
        name: value
        for name, value in (
            ("mshr_entries", args.mshr_entries),
            ("store_buffer_entries", args.store_buffer_entries),
            ("prefetcher_entries", args.prefetcher_entries),
        )
        if value is not None
    }
    if uarch_sizes:
        cfg = cfg.with_(**uarch_sizes)
    summaries = []
    for target in targets:
        spec = CampaignSpec(
            isa=args.isa, workload=args.workload, target=target,
            cfg=cfg, scale=args.scale, faults=args.faults,
            seed=args.seed, model=FaultModel(args.model),
            flips_per_mask=args.flips_per_mask,
            protection=protection,
            liveness=_liveness_from_args(args),
            fault_model=fault_model,
        )
        metrics_out = _per_target_path(args.metrics_out, target, multi)
        telemetry = _telemetry_from_args(args, metrics_out=metrics_out)
        journal = _per_target_path(args.journal, target, multi)
        resume = _per_target_path(args.resume, target, multi)
        try:
            result = run_campaign(
                spec, workers=args.workers,
                journal=journal, resume=resume, timeout_s=args.timeout,
                checkpoints=checkpoints, sanitizer=sanitizer,
                hang_cycles=hang_cycles,
                telemetry=telemetry, adaptive=_adaptive_from_args(args),
            )
        except ValueError as exc:
            return _usage_error(exc)
        if multi:
            print(f"== target {target} ==")
        summaries.append(_print_result(result, resume, metrics_out))
    _print_tables(summaries, args)
    if args.csv:
        save_report(args.csv, summaries)
        print(f"wrote {args.csv}")
    return 0


def cmd_accel(args) -> int:
    from repro.accel.campaign import AccelCampaignSpec, run_accel_campaign
    from repro.accel.dataflow import FUConfig
    from repro.core.faults import FaultModel

    try:
        protection = _protection_from_args(args)
        fault_model = _fault_model_from_args(args)
    except ValueError as exc:
        return _usage_error(exc)
    spec = AccelCampaignSpec(
        design=args.design, component=args.component, scale=args.scale,
        faults=args.faults, seed=args.seed, model=FaultModel(args.model),
        fu=FUConfig.uniform(args.fu) if args.fu else None,
        protection=protection,
        liveness=_liveness_from_args(args),
        fault_model=fault_model,
    )
    sanitizer, hang_cycles = _sanitizer_from_args(args)
    telemetry = _telemetry_from_args(args)
    try:
        result = run_accel_campaign(
            spec, journal=args.journal, resume=args.resume,
            sanitizer=sanitizer, hang_cycles=hang_cycles,
            telemetry=telemetry, adaptive=_adaptive_from_args(args))
    except ValueError as exc:
        return _usage_error(exc)
    _print_tables([_print_result(result, args.resume, args.metrics_out)],
                  args)
    return 0


def cmd_matrix(args) -> int:
    from repro.core.matrix import MatrixError, load_grid, run_matrix
    from repro.core.report import save_report

    try:
        grid = load_grid(args.grid)
    except (MatrixError, OSError) as exc:
        return _usage_error(exc)
    sanitizer, hang_cycles = _sanitizer_from_args(args)
    telemetry = _telemetry_from_args(args)
    try:
        result = run_matrix(
            grid, args.out, workers=args.workers, resume=args.resume,
            sanitizer=sanitizer, hang_cycles=hang_cycles, telemetry=telemetry,
        )
    except MatrixError as exc:
        return _usage_error(exc)
    print(result.render())
    print(f"manifest: {result.manifest_path}")
    if result.stopped_early:
        print(f"adaptive sampling stopped {result.stopped_early}/"
              f"{len(result.cells)} cells before budget")
    if args.csv:
        save_report(args.csv, result.cells)
        print(f"wrote {args.csv}")
    if args.metrics_out:
        print(f"wrote {args.metrics_out}")
    return 0


def _sanitizer_worker_args(args) -> list[str]:
    """Re-encode parsed sanitizer flags for spawned `repro work` processes."""
    out = ["--sanitize", args.sanitize]
    if args.audit_stride is not None:
        out += ["--audit-stride", str(args.audit_stride)]
    if args.hang_cycles is not None:
        out += ["--hang-cycles", str(args.hang_cycles)]
    return out


def _fold_distributed(out_dir):
    """Fold every merged/shard record (deduplicated) plus file-derived
    shard counters into one :class:`CampaignAggregate`."""
    from repro.core.shard import DirectoryFollower, fold_shard_counters
    from repro.core.telemetry import CampaignAggregate

    follower = DirectoryFollower(out_dir)
    agg = CampaignAggregate()
    for record in follower.poll():
        agg.fold(record)
    agg.planned = follower.planned()
    agg.shard = fold_shard_counters(out_dir)
    return agg, follower


def cmd_serve(args) -> int:
    from repro.core.matrix import MatrixError, load_grid
    from repro.core.report import render_table
    from repro.core.shard import ShardError, serve
    from repro.core.telemetry import write_prometheus

    try:
        load_grid(args.grid)
    except (MatrixError, OSError) as exc:
        return _usage_error(exc)

    on_progress = None
    if args.progress:
        def on_progress(merged, done, total) -> None:
            converged = sum(1 for c in merged.cells.values()
                            if c["status"] != "running")
            print(f"shards {done}/{total} | cells settled "
                  f"{converged}/{len(merged.cells)}", file=sys.stderr)

    try:
        result = serve(
            args.grid, args.out, workers=args.workers,
            shard_size=args.shard_size, ttl_s=args.ttl, poll_s=args.poll,
            stall_timeout_s=args.stall_timeout,
            worker_args=tuple(_sanitizer_worker_args(args)),
            on_progress=on_progress,
        )
    except ShardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rows = [
        (key, c["status"], f"{c['faults_done']}/{c['budget']}")
        for key, c in sorted(result.cells.items())
    ]
    print(render_table(["cell", "status", "faults"], rows))
    agg, _follower = _fold_distributed(args.out)
    shard = agg.shard or {}
    print(f"lease expirations {shard.get('lease_expirations', 0)} | "
          f"shards stolen {shard.get('shards_stolen', 0)} | "
          f"merge conflicts {shard.get('merge_conflicts', 0)}")
    print(f"manifest: {result.manifest_path}")
    if args.metrics_out:
        write_prometheus(args.metrics_out, agg)
        print(f"wrote {args.metrics_out}")
    return 0


def cmd_work(args) -> int:
    from repro.core.shard import ShardError, run_worker

    sanitizer, hang_cycles = _sanitizer_from_args(args)
    try:
        result = run_worker(
            args.out, worker_id=args.worker_id, sanitizer=sanitizer,
            hang_cycles=hang_cycles, poll_s=args.poll,
            plan_wait_s=args.plan_wait, max_shards=args.max_shards,
        )
    except ShardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    extras = []
    if result.resumed:
        extras.append(f"resumed {result.resumed}")
    if result.reclaims:
        extras.append(f"reclaimed {result.reclaims}")
    if result.splits_published:
        extras.append(f"split {result.splits_published}")
    if result.steals_requested:
        extras.append(f"steal-requests {result.steals_requested}")
    if result.degraded:
        extras.append("DEGRADED (lease left to expire)")
    print(f"worker {result.worker}: {result.shards_completed} shards, "
          f"{result.faults_run} faults"
          + (f" | {' '.join(extras)}" if extras else ""))
    return 3 if result.degraded else 0


def cmd_merge(args) -> int:
    import json

    from repro.core.report import render_table
    from repro.core.shard import (
        ShardError,
        fold_shard_counters,
        merge_shards,
    )

    try:
        result = merge_shards(args.out)
        counters = fold_shard_counters(args.out)
    except ShardError as exc:
        return _usage_error(exc)
    if args.json:
        print(json.dumps({
            "complete": result.complete,
            "conflicts": result.conflicts,
            "cells": result.cells,
            "counters": counters,
            "manifest": str(result.manifest_path),
        }, indent=2))
    else:
        rows = [
            (key, c["status"], f"{c['faults_done']}/{c['budget']}",
             c["conflicts"])
            for key, c in sorted(result.cells.items())
        ]
        print(render_table(["cell", "status", "faults", "conflicts"], rows))
        print(f"lease expirations {counters['lease_expirations']} | "
              f"shards stolen {counters['shards_stolen']} | "
              f"merge conflicts {counters['merge_conflicts']}")
        print(f"manifest: {result.manifest_path}")
    return 0 if result.complete else 1


_FIGURES = {
    4: "fig4_regfile_avf", 5: "fig5_l1i_avf", 6: "fig6_l1d_avf",
    7: "fig7_lq_avf", 8: "fig8_sq_avf", 9: "fig9_sdc_regfile",
    10: "fig10_sdc_l1i", 11: "fig11_sdc_l1d", 12: "fig12_permanent_l1i",
    13: "fig13_permanent_l1d", 14: "fig14_dsa_avf",
    15: "fig15_prf_sensitivity", 16: "fig16_opf", 17: "fig17_gemm_dse",
    18: "fig18_hvf",
}


def cmd_figure(args) -> int:
    from repro.analysis import figures

    name = _FIGURES.get(args.number)
    if name is None:
        print(f"no driver for figure {args.number}; available: "
              f"{sorted(_FIGURES)}", file=sys.stderr)
        return 2
    kwargs = {"faults": args.faults} if args.faults else {}
    fig = getattr(figures, name)(**kwargs)
    print(fig.figure)
    print(fig.text)
    return 0


def cmd_soc(args) -> int:
    from repro.soc.system import build_soc

    soc = build_soc(args.design, isa_name=args.isa, scale=args.scale)
    result = soc.run()
    status = "ok" if result.ok else f"FAILED ({result.crashed})"
    print(f"{status}: cpu={result.cpu_cycles} cycles, "
          f"dsa={result.accel_cycles} cycles, result={result.output.hex()}")
    return 0 if result.ok else 1


def cmd_validate(args) -> int:
    from repro.core.presets import sim_config
    from repro.core.validation import run_l1d_validation

    result = run_l1d_validation(args.isa, sim_config(), faults=args.faults)
    print(f"L1D validation ({args.isa}): {result.visible}/{result.injected} "
          f"visible — coverage {result.coverage:.1%} (paper: 100%)")
    return 0 if result.coverage >= 0.9 else 1


def cmd_doctor(args) -> int:
    import json
    import os

    from repro.core.doctor import diagnose_distributed, diagnose_journal

    if os.path.isdir(args.journal):
        report = diagnose_distributed(args.journal)
    else:
        report = diagnose_journal(args.journal)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    return 0 if report.ok else 1


def cmd_tail(args) -> int:
    import json
    import os
    import time

    from repro.core.journal import JournalFollower
    from repro.core.report import render_table
    from repro.core.telemetry import (
        CampaignAggregate,
        labels_from_spec,
        render_progress,
        write_prometheus,
    )

    if not os.path.exists(args.journal):
        print(f"{args.journal}: no such journal", file=sys.stderr)
        return 1
    if os.path.isdir(args.journal):
        return _tail_directory(args)

    follower = JournalFollower(args.journal)
    agg = CampaignAggregate()

    def poll() -> None:
        # the header line precedes every record in the file, so the
        # generator attribution is available before the first fold
        records = list(follower.poll())
        spec = (follower.header or {}).get("spec") or {}
        fm = spec.get("fault_model")
        generator = fm.get("name") if isinstance(fm, dict) else None
        for record in records:
            agg.fold(record, generator=generator)
        if isinstance(spec.get("faults"), int):
            agg.planned = spec["faults"]

    started = time.monotonic()
    poll()
    while args.follow and not (agg.planned and agg.finished >= agg.planned):
        print(render_progress(agg, time.monotonic() - started),
              file=sys.stderr)
        time.sleep(args.interval)
        poll()

    if follower.header is None:
        print(f"{args.journal}: no journal header (not a campaign journal?)",
              file=sys.stderr)
        return 1
    if args.json:
        doc = agg.to_dict()
        doc["skipped_lines"] = follower.skipped
        print(json.dumps(doc, indent=2))
    else:
        doc = agg.to_dict()
        rows = sorted(
            (k, v) for k, v in doc.items() if isinstance(v, (int, float))
        )
        rows += [(f"outcome[{out}]", n)
                 for out, n in sorted(doc["outcomes"].items())]
        print(render_table(["metric", "value"], rows))
        print(render_progress(agg))
    if args.metrics_out:
        spec = follower.header.get("spec") or {}
        write_prometheus(args.metrics_out, agg, labels_from_spec(spec))
        print(f"wrote {args.metrics_out}")
    return 0


def _tail_directory(args) -> int:
    """``repro tail`` over a matrix / distributed output directory.

    Aggregates ``shards/*.jsonl`` and ``cells/*.jsonl`` together, counting
    each logical record once (reclaimed generations and merged copies
    deduplicate), with the file-derived shard counters reconciled in.
    """
    import json
    import time

    from repro.core.report import render_table
    from repro.core.shard import (
        DirectoryFollower,
        ShardError,
        ShardStore,
        StoreDegraded,
        fold_shard_counters,
    )
    from repro.core.telemetry import (
        CampaignAggregate,
        render_progress,
        write_prometheus,
    )

    follower = DirectoryFollower(args.journal)
    agg = CampaignAggregate()

    def poll() -> None:
        for record in follower.poll():
            agg.fold(record)
        agg.planned = follower.planned()

    def campaign_done() -> bool:
        store = ShardStore(args.journal)
        try:
            plan = store.load_plan()
        except (ShardError, StoreDegraded):
            return False
        shards = store.all_shards(plan)
        done = store.done_ids()
        return bool(shards) and all(s.id in done for s in shards)

    started = time.monotonic()
    poll()
    while args.follow and not campaign_done():
        print(render_progress(agg, time.monotonic() - started),
              file=sys.stderr)
        time.sleep(args.interval)
        poll()
    poll()
    try:
        agg.shard = fold_shard_counters(args.journal)
    except (ShardError, StoreDegraded):
        pass                    # plain matrix dir: no shard substrate

    if args.json:
        doc = agg.to_dict()
        doc["skipped_lines"] = follower.skipped
        doc["deduplicated"] = follower.duplicates
        print(json.dumps(doc, indent=2))
    else:
        doc = agg.to_dict()
        rows = sorted(
            (k, v) for k, v in doc.items() if isinstance(v, (int, float))
        )
        rows += [(f"outcome[{out}]", n)
                 for out, n in sorted(doc["outcomes"].items())]
        if agg.shard is not None:
            rows += sorted(
                (f"shard[{k}]", v) for k, v in agg.shard.items()
            )
        print(render_table(["metric", "value"], rows))
        print(render_progress(agg))
    if args.metrics_out:
        write_prometheus(args.metrics_out, agg)
        print(f"wrote {args.metrics_out}")
    return 0


def cmd_list(args) -> int:
    from repro.accel_designs import DESIGNS, PAPER_TARGETS
    from repro.core.targets import TARGETS
    from repro.isa.base import isa_names
    from repro.workloads import WORKLOAD_NAMES

    print("ISAs:      ", ", ".join(isa_names()))
    print("workloads: ", ", ".join(WORKLOAD_NAMES))
    print("targets:   ", ", ".join(TARGETS))
    print("designs:   ", ", ".join(
        f"{d}({'/'.join(PAPER_TARGETS[d])})" for d in DESIGNS))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "campaign": cmd_campaign,
        "accel-campaign": cmd_accel,
        "matrix": cmd_matrix,
        "serve": cmd_serve,
        "work": cmd_work,
        "merge": cmd_merge,
        "doctor": cmd_doctor,
        "tail": cmd_tail,
        "figure": cmd_figure,
        "soc": cmd_soc,
        "validate": cmd_validate,
        "list": cmd_list,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
