"""Experiment-matrix scheduler: declarative campaign grids, run as one queue.

The paper's headline results are *grids* — per-structure AVF across
workloads × ISAs (Figures 4-11), DSA designs × components (Figure 14) —
but ``repro campaign`` runs one cell at a time, re-paying compilation and
golden simulation per invocation.  This module runs a whole grid:

* **declarative grid** — a TOML file expands into campaign *cells*
  (:func:`load_grid`): every ``[cpu]`` ``isas × workloads × targets``
  combination and every ``[accel]`` ``designs × components`` combination
  becomes one cell with its own spec, seed, and fault budget;
* **one interleaved work queue** — each scheduling round drains every
  active cell's next batch through a single
  :func:`~repro.core.supervisor.run_supervised` pool (or a serial loop),
  round-robin across cells, with per-item wall-clock budgets
  (``item_timeout``) because CPU and DSA cells have wildly different
  golden run lengths.  Compiled executables, golden runs and checkpoint
  stores are shared across cells by the existing process-level caches —
  cells differing only in target re-use the same golden simulation;
* **resumable matrix manifest** — every cell journals into
  ``<out>/cells/<key>.jsonl`` through an
  :class:`~repro.core.journal.OrderedJournalWriter`, so each cell journal
  is byte-identical to the one a standalone serial campaign would write,
  at every instant.  ``manifest.json`` (atomically rewritten each round)
  records grid fingerprint and per-cell progress; ``resume=True`` repairs
  torn tails, replays the journal prefix, and continues — producing
  byte-identical cell journals to an uninterrupted run;
* **adaptive sequential sampling** — with an ``[adaptive]`` section the
  grid applies :class:`~repro.core.sampling.AdaptiveSampling` per cell:
  a cell whose achieved error margin reaches the target at a batch
  boundary stops early, freeing the queue for unconverged cells.  Stop
  decisions depend only on absolute boundaries and the deterministic
  record stream, so resumed matrices stop at the identical fault.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.campaign import (
    CampaignResult,
    CampaignSpec,
    FaultRecord,
    _worker_init,
    fault_timeout,
    journaled_records,
    run_one_fault,  # noqa: F401  (re-exported: callers wrap it here)
    run_tasks,
    validate_spec,
)
from repro.core.protection import ProtectionConfig, normalized
from repro.core.checkpoint import DEFAULT_POLICY as DEFAULT_CHECKPOINT_POLICY
from repro.core.checkpoint import CheckpointPolicy
from repro.core.faults import FaultMask, FaultModel
from repro.core.journal import (
    CampaignJournal,
    OrderedJournalWriter,
    contiguous_prefix,
    repair_torn_tail,
)
from repro.core.outcome import Outcome
from repro.core.report import render_matrix
from repro.core.sampling import AdaptiveSampling, error_margin_for, stop_decision
from repro.core.sanitizer import DEFAULT_HANG_CYCLES, SanitizerPolicy
from repro.core.supervisor import SupervisorPolicy
from repro.core.targets import get_target

MANIFEST_VERSION = 1

_MODELS = {m.value: m for m in FaultModel}


class MatrixError(RuntimeError):
    """A grid file or matrix output directory cannot be used."""


# --------------------------------------------------------------------------
# grid definition
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixCell:
    """One campaign in the grid (key is filesystem- and report-stable)."""

    key: str
    kind: str               # 'cpu' | 'accel'
    row: str                # report row label (isa/workload or design)
    col: str                # report column label (target or component)
    spec: object            # CampaignSpec | AccelCampaignSpec


@dataclass(frozen=True)
class MatrixGrid:
    """A parsed experiment grid."""

    name: str
    cells: tuple[MatrixCell, ...]
    adaptive: AdaptiveSampling | None = None
    clock_hz: float = 2e9
    fingerprint: str = ""


def _fingerprint(data: dict) -> str:
    canon = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


def _check_keys(section: str, data: dict, allowed: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise MatrixError(
            f"unknown key(s) {sorted(unknown)} in [{section}] "
            f"(allowed: {sorted(allowed)})"
        )


def _protection_variants(
    section: str, table: dict | None, structure: str, model: FaultModel,
) -> list[tuple[str, ProtectionConfig | None]]:
    """Expand a grid protection table into per-cell (suffix, config) pairs.

    ``table`` maps structure names to a scheme name *or a list of scheme
    names* — the list form is the coverage-DSE axis, fanning one grid cell
    out into one cell per scheme.  A ``none`` entry keeps the unsuffixed
    cell key (and a ``None`` config), so its journal stays byte-identical
    to an unprotected grid's; every other scheme suffixes the key with
    ``+<scheme>``.
    """
    if not table:
        return [("", None)]
    value = table.get(structure, "none")
    names = list(value) if isinstance(value, list) else [value]
    if not names:
        raise MatrixError(
            f"[{section}.protection] {structure}: empty scheme list"
        )
    variants: list[tuple[str, ProtectionConfig | None]] = []
    for name in names:
        try:
            config = normalized(
                ProtectionConfig(schemes=((structure, str(name)),))
            )
        except ValueError as exc:
            raise MatrixError(
                f"[{section}.protection] {structure}: {exc}"
            ) from exc
        if config is not None and model is not FaultModel.TRANSIENT:
            raise MatrixError(
                f"[{section}.protection] {structure}: protection modeling "
                f"supports transient faults only (model is "
                f"{model.value!r})"
            )
        variants.append(("" if config is None else f"+{name}", config))
    return variants


def _cell_seed(base: int, *parts: str) -> int:
    """Stable per-cell sub-seed derived from the grid seed and cell identity.

    Feeding the raw grid ``seed`` into every cell's ``random.Random`` made
    cells with coinciding geometry and window draw *identical* fault-site
    sequences (e.g. two same-width regfile targets, or the same target
    across workloads sharing a window), silently correlating their AVF
    estimates.  Hashing the cell identity into the seed keeps each cell's
    stream deterministic and resumable while decorrelating cells; the
    derived seed lands in the cell's spec (and so its journal header), so
    a standalone ``repro campaign`` replay of that spec still produces the
    byte-identical journal.
    """
    digest = hashlib.sha256("\x1f".join([*parts, str(base)]).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _fault_model_variants(section: str, value, *, accel: bool,
                          model: FaultModel, flips_per_mask: int = 1,
                          target_kind: str | None = None,
                          base_dir: str | Path | None = None):
    """Expand a grid ``fault_model`` entry into (suffix, spec) pairs.

    ``value`` is a generator string (``"burst:arity=3"``), a table
    (``{name = "error-map", rows = "4/2/1"}``), or a list of either — the
    list form fans one grid cell out into one cell per generator, like
    protection scheme lists.  A ``uniform`` (or absent) entry keeps the
    unsuffixed cell key and an unset spec field, so its journal stays
    byte-identical to a grid that never mentions fault models; every other
    generator suffixes the key with ``@<name>[-k=v...]``.
    """
    from repro.core import faultmodels

    if value is None:
        return [("", None)]
    items = list(value) if isinstance(value, list) else [value]
    if not items:
        raise MatrixError(f"[{section}] fault_model: empty list")
    variants = []
    for item in items:
        try:
            if isinstance(item, str):
                parsed = faultmodels.FaultModelSpec.parse(item)
            elif isinstance(item, dict):
                name = item.get("name")
                if not isinstance(name, str):
                    raise ValueError(
                        "fault_model table needs a string 'name' key")
                params = tuple(
                    (str(k), str(v)) for k, v in item.items() if k != "name"
                )
                parsed = faultmodels.FaultModelSpec(name=name, params=params)
            else:
                raise ValueError(
                    f"fault_model entries are strings or tables, "
                    f"got {type(item).__name__}")
            resolved = faultmodels.resolve(parsed, base_dir)
            faultmodels.validate_for(
                resolved, accel=accel, model=model,
                flips_per_mask=flips_per_mask, target_kind=target_kind,
            )
        except ValueError as exc:
            raise MatrixError(f"[{section}] fault_model: {exc}") from exc
        if resolved is None:
            variants.append(("", None))
        else:
            # cell keys become journal filenames: strip path separators
            safe = (resolved.describe()
                    .replace(":", "-").replace(",", "-").replace("/", "_"))
            variants.append((f"@{safe}", resolved))
    return variants


def _validate_cell(section: str, spec) -> None:
    """Reject a cell the campaign kernel would refuse, before any runs."""
    try:
        validate_spec(spec)
    except ValueError as exc:
        raise MatrixError(f"[{section}] {exc}") from exc


def _liveness_mode(section: str, value) -> str | None:
    """Normalize a grid ``liveness`` entry (``"off"`` → ``None``).

    ``None`` keeps the spec's default so the cell journal stays
    byte-identical to a grid that never mentions liveness.
    """
    if value is None or value == "off":
        return None
    if value in ("on", "audit"):
        return value
    raise MatrixError(
        f"[{section}] unknown liveness mode {value!r} "
        f"(allowed: off, on, audit)"
    )


def grid_from_dict(data: dict,
                   base_dir: str | Path | None = None) -> MatrixGrid:
    """Expand a parsed grid document into a :class:`MatrixGrid`.

    ``base_dir`` anchors relative paths inside the grid (error-map files);
    :func:`load_grid` passes the grid file's own directory.
    """
    _check_keys("<top>", data, {"matrix", "cpu", "accel", "adaptive", "report"})
    meta = data.get("matrix", {})
    _check_keys("matrix", meta, {"name"})
    cells: list[MatrixCell] = []

    cpu = data.get("cpu")
    if cpu:
        from repro.core.presets import get_preset

        _check_keys("cpu", cpu, {
            "isas", "workloads", "targets", "faults", "seed", "scale",
            "model", "preset", "flips_per_mask", "protection", "liveness",
            "fault_model", "mshr_entries", "store_buffer_entries",
            "prefetcher_entries",
        })
        for need in ("workloads", "targets"):
            if not cpu.get(need):
                raise MatrixError(f"[cpu] needs a non-empty '{need}' list")
        cfg = get_preset(cpu.get("preset", "sim"))
        uarch_sizes = {
            key: int(cpu[key])
            for key in ("mshr_entries", "store_buffer_entries",
                        "prefetcher_entries")
            if key in cpu
        }
        if uarch_sizes:
            cfg = cfg.with_(**uarch_sizes)
        model = _MODELS.get(cpu.get("model", "transient"))
        if model is None:
            raise MatrixError(f"unknown fault model {cpu.get('model')!r}")
        liveness = _liveness_mode("cpu", cpu.get("liveness"))
        flips_per_mask = int(cpu.get("flips_per_mask", 1))
        for isa in cpu.get("isas", ["rv"]):
            for workload in cpu["workloads"]:
                for target in cpu["targets"]:
                    base = CampaignSpec(
                        isa=isa, workload=workload, target=target, cfg=cfg,
                        scale=cpu.get("scale", "tiny"), model=model,
                        faults=int(cpu.get("faults", 100)),
                        seed=_cell_seed(int(cpu.get("seed", 1)),
                                        "cpu", isa, workload, target),
                        flips_per_mask=flips_per_mask,
                        liveness=liveness,
                    )
                    _validate_cell("cpu", base)
                    variants = _protection_variants(
                        "cpu", cpu.get("protection"), target, model
                    )
                    fm_variants = _fault_model_variants(
                        "cpu", cpu.get("fault_model"), accel=False,
                        model=model, flips_per_mask=flips_per_mask,
                        target_kind=get_target(target).kind,
                        base_dir=base_dir,
                    )
                    for suffix, protection in variants:
                        for fm_suffix, fault_model in fm_variants:
                            cells.append(MatrixCell(
                                key=(f"cpu-{isa}-{workload}-{target}"
                                     f"{suffix}{fm_suffix}"),
                                kind="cpu", row=f"{isa}/{workload}",
                                col=f"{target}{suffix}{fm_suffix}",
                                spec=replace(base, protection=protection,
                                             fault_model=fault_model),
                            ))

    accel = data.get("accel")
    if accel:
        from repro.accel.campaign import AccelCampaignSpec
        from repro.accel_designs import PAPER_TARGETS

        _check_keys("accel", accel, {
            "designs", "components", "faults", "seed", "scale", "model",
            "protection", "liveness", "fault_model",
        })
        if not accel.get("designs"):
            raise MatrixError("[accel] needs a non-empty 'designs' list")
        model = _MODELS.get(accel.get("model", "transient"))
        if model is None:
            raise MatrixError(f"unknown fault model {accel.get('model')!r}")
        liveness = _liveness_mode("accel", accel.get("liveness"))
        fm_variants = _fault_model_variants(
            "accel", accel.get("fault_model"), accel=True,
            model=model, base_dir=base_dir,
        )
        for design in accel["designs"]:
            components = accel.get("components") or PAPER_TARGETS.get(design)
            if not components:
                raise MatrixError(f"no components known for design {design!r}")
            for component in components:
                base = AccelCampaignSpec(
                    design=design, component=component,
                    scale=accel.get("scale", "tiny"), model=model,
                    faults=int(accel.get("faults", 100)),
                    seed=_cell_seed(int(accel.get("seed", 1)),
                                    "accel", design, component),
                    liveness=liveness,
                )
                _validate_cell("accel", base)
                variants = _protection_variants(
                    "accel", accel.get("protection"), component, model
                )
                for suffix, protection in variants:
                    for fm_suffix, fault_model in fm_variants:
                        cells.append(MatrixCell(
                            key=(f"accel-{design}-{component}"
                                 f"{suffix}{fm_suffix}"),
                            kind="accel", row=f"accel/{design}",
                            col=f"{component}{suffix}{fm_suffix}",
                            spec=replace(base, protection=protection,
                                         fault_model=fault_model),
                        ))

    if not cells:
        raise MatrixError("grid expands to zero cells (no [cpu] or [accel])")
    keys = [c.key for c in cells]
    if len(set(keys)) != len(keys):
        raise MatrixError("grid expands to duplicate cell keys")

    adaptive = None
    if "adaptive" in data:
        adp = data["adaptive"]
        _check_keys("adaptive", adp, {
            "target_margin", "confidence", "batch", "min_faults",
        })
        adaptive = AdaptiveSampling(
            target_margin=float(adp.get("target_margin", 0.03)),
            confidence=float(adp.get("confidence", 0.95)),
            batch=int(adp.get("batch", 50)),
            min_faults=int(adp.get("min_faults", 20)),
        )

    report = data.get("report", {})
    _check_keys("report", report, {"clock_hz"})

    return MatrixGrid(
        name=str(meta.get("name", "matrix")),
        cells=tuple(cells),
        adaptive=adaptive,
        clock_hz=float(report.get("clock_hz", 2e9)),
        fingerprint=_fingerprint(data),
    )


def load_grid(path: str | Path) -> MatrixGrid:
    """Parse a grid TOML file into a :class:`MatrixGrid`."""
    import tomllib

    try:
        data = tomllib.loads(Path(path).read_text())
    except tomllib.TOMLDecodeError as exc:
        raise MatrixError(f"{path}: {exc}") from exc
    return grid_from_dict(data, base_dir=Path(path).parent)


# --------------------------------------------------------------------------
# per-cell scheduling state
# --------------------------------------------------------------------------


@dataclass
class _CellState:
    cell: MatrixCell
    runtime: CellRuntime
    journal_path: Path
    writer: OrderedJournalWriter | None = None
    records: dict[int, FaultRecord] = field(default_factory=dict)
    resumed: int = 0
    #: terminal state: 'converged' (adaptive stop), 'exhausted' (budget
    #: spent), or '' while still active; set with the stop position
    status: str = ""
    stop_at: int = 0
    stopped_early: bool = False
    stop_reported: bool = False

    @property
    def budget(self) -> int:
        return len(self.runtime.masks)

    def done_prefix(self) -> int:
        """Contiguous completed positions from 0 (the journalable prefix)."""
        n = 0
        while n in self.records:
            n += 1
        return n

    def n_valid(self, boundary: int) -> int:
        return sum(
            1 for i in range(min(boundary, self.done_prefix()))
            if self.records[i].outcome is not Outcome.SIM_FAULT
        )

    def achieved_margin(self, confidence: float = 0.95) -> float | None:
        n = self.n_valid(self.stop_at or self.done_prefix())
        if n == 0:
            return None
        return error_margin_for(n, self.runtime.population_bits, confidence)

    def evaluate(self, adaptive: AdaptiveSampling | None) -> int | None:
        """Settle terminal status, or return the next dispatch boundary.

        :func:`~repro.core.sampling.stop_decision` against the completed
        prefix — the identical walk an uninterrupted run makes — so a
        resumed matrix reaches the same stop decision at the same fault.
        """
        if self.status:
            return None
        status, at = stop_decision(adaptive, self.budget, self.done_prefix(),
                                   self.n_valid, self.runtime.population_bits)
        if status == "running":
            return at
        self.status, self.stop_at = status, at
        self.stopped_early = status == "converged" and at < self.budget
        return None


# --------------------------------------------------------------------------
# the matrix runner
# --------------------------------------------------------------------------


@dataclass
class MatrixResult:
    """Terminal state of a matrix run."""

    name: str
    cells: list[dict]                   # per-cell summaries (+ row/col keys)
    manifest_path: Path
    clock_hz: float = 2e9

    def render(self) -> str:
        return render_matrix(self.cells, clock_hz=self.clock_hz)

    @property
    def stopped_early(self) -> int:
        return sum(1 for c in self.cells if c.get("stopped_early"))


def _cell_result(state: _CellState) -> CampaignResult:
    """Materialize the campaign result for a finished cell."""
    return CampaignResult(
        spec=state.cell.spec,
        records=[state.records[i] for i in range(state.stop_at)],
        golden=state.runtime.golden,
        population_bits=state.runtime.population_bits,
        resumed=state.resumed, stopped_early=state.stopped_early,
    )


@dataclass(frozen=True)
class CellRuntime:
    """Everything derived (not declared) about one grid cell: the sample,
    its population, the golden run and the per-fault wall budget.  Shared
    by the single-host matrix runner and distributed shard workers so both
    execute the *identical* mask sequence."""

    masks: tuple[FaultMask, ...]
    population_bits: int
    golden: object                      # GoldenRun | AccelGolden
    timeout_s: float


def cell_runtime(cell: MatrixCell,
                 ckpt_policy: CheckpointPolicy) -> CellRuntime:
    """Generate the cell's sample and derive budgets (deterministic)."""
    sub = cell.spec.substrate(ckpt_policy)
    golden = sub.golden()
    return CellRuntime(masks=tuple(sub.masks(golden)),
                       population_bits=sub.population_bits(golden),
                       golden=golden,
                       timeout_s=fault_timeout(sub.watchdog(golden)))


def _prepare_cell(cell: MatrixCell, out_dir: Path, resume: bool,
                  ckpt_policy: CheckpointPolicy) -> _CellState:
    """Generate the cell's sample, derive budgets, replay its journal."""
    runtime = cell_runtime(cell, ckpt_policy)
    spec = cell.spec
    masks = runtime.masks
    journal_path = out_dir / "cells" / f"{cell.key}.jsonl"
    state = _CellState(cell=cell, runtime=runtime, journal_path=journal_path)
    if resume and journal_path.exists():
        repair_torn_tail(journal_path)
        done = journaled_records(journal_path, spec, masks)
        prefix = contiguous_prefix(masks, done)
        state.records = {i: done[masks[i].mask_id] for i in range(prefix)}
        state.resumed = prefix
    state.writer = OrderedJournalWriter(
        CampaignJournal.open(journal_path, spec), start=state.done_prefix()
    )
    return state


def _write_manifest(path: Path, grid: MatrixGrid,
                    states: list[_CellState]) -> None:
    """Atomic manifest rewrite: progress + per-cell status each round."""
    doc = {
        "kind": "matrix-manifest",
        "version": MANIFEST_VERSION,
        "name": grid.name,
        "fingerprint": grid.fingerprint,
        "adaptive": (
            {
                "target_margin": grid.adaptive.target_margin,
                "confidence": grid.adaptive.confidence,
                "batch": grid.adaptive.batch,
                "min_faults": grid.adaptive.min_faults,
            }
            if grid.adaptive is not None else None
        ),
        "cells": {
            s.cell.key: {
                "kind": s.cell.kind,
                "row": s.cell.row,
                "col": s.cell.col,
                "journal": str(s.journal_path.relative_to(path.parent)),
                "status": s.status or "running",
                "faults_done": s.done_prefix(),
                "budget": s.budget,
                "stopped_early": s.stopped_early,
                "achieved_margin": s.achieved_margin(
                    grid.adaptive.confidence if grid.adaptive else 0.95
                ),
            }
            for s in states
        },
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n")
    os.replace(tmp, path)


def read_manifest(out_dir: str | Path) -> dict:
    """Load ``manifest.json`` from a matrix output directory."""
    path = Path(out_dir) / "manifest.json"
    if not path.exists():
        raise MatrixError(f"{path}: no matrix manifest")
    doc = json.loads(path.read_text())
    if doc.get("kind") != "matrix-manifest":
        raise MatrixError(f"{path}: not a matrix manifest")
    return doc


def run_matrix(
    grid: MatrixGrid,
    out_dir: str | Path,
    *,
    workers: int = 1,
    resume: bool = False,
    checkpoints: CheckpointPolicy | None = None,
    sanitizer: SanitizerPolicy | None = None,
    hang_cycles: int = DEFAULT_HANG_CYCLES,
    telemetry=None,
) -> MatrixResult:
    """Run every cell of ``grid``, journaling into ``out_dir``.

    ``resume=True`` continues a previous run of the *identical* grid from
    its cell journals (torn tails repaired, stop decisions re-derived);
    without it a populated output directory is refused rather than mixed.
    Per-cell journals are byte-identical to standalone serial campaigns —
    and to an uninterrupted matrix run — whatever ``workers`` is.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists():
        manifest = read_manifest(out_dir)
        if manifest.get("fingerprint") != grid.fingerprint:
            raise MatrixError(
                f"{out_dir} holds a different grid "
                f"({manifest.get('name')!r}); refusing to mix"
            )
        if not resume:
            raise MatrixError(
                f"{out_dir} already holds matrix {grid.name!r}; "
                "pass resume=True to continue it"
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_policy = checkpoints if checkpoints is not None else DEFAULT_CHECKPOINT_POLICY

    states = [
        _prepare_cell(cell, out_dir, resume, ckpt_policy)
        for cell in grid.cells
    ]
    if telemetry is not None:
        telemetry.campaign_started(
            planned=sum(s.budget for s in states),
            resumed=sum(s.resumed for s in states),
            labels={"matrix": grid.name},
        )
    _write_manifest(manifest_path, grid, states)

    timeouts = {id(s.cell.spec): s.runtime.timeout_s for s in states}

    def item_timeout(item: tuple) -> float:
        return timeouts[id(item[0])]

    policy = SupervisorPolicy()
    if workers <= 1:
        # one arming for the whole matrix, so the serial path keeps its
        # accel replay contexts and golden caches warm across rounds
        _worker_init(ckpt_policy, sanitizer, hang_cycles)
    try:
        while True:
            # one scheduling round: every active cell contributes its next
            # batch, interleaved round-robin so no cell starves the queue
            batches = []
            for s in states:
                boundary = s.evaluate(grid.adaptive)
                if boundary is None:
                    if s.status == "converged" and s.stopped_early \
                            and telemetry is not None \
                            and not s.stop_reported:
                        s.stop_reported = True
                        telemetry.adaptive_stop(
                            done=s.stop_at, budget=s.budget,
                            margin=s.achieved_margin(grid.adaptive.confidence),
                        )
                    continue
                start = s.done_prefix()
                batches.append([
                    (s, i, s.runtime.masks[i]) for i in range(start, boundary)
                ])
            if not batches:
                break
            tasks: list[tuple[_CellState, int, FaultMask]] = []
            width = max(len(b) for b in batches)
            for depth in range(width):
                for b in batches:
                    if depth < len(b):
                        tasks.append(b[depth])
            items = [(t[0].cell.spec, t[2]) for t in tasks]

            def finish(task_index: int, record: FaultRecord,
                       wall_s: float | None = None) -> None:
                s, pos, _mask = tasks[task_index]
                s.records[pos] = record
                s.writer.add(pos, record)
                if telemetry is not None:
                    fm = s.cell.spec.fault_model
                    telemetry.fault_finished(
                        record, wall_s=wall_s,
                        generator=fm.name if fm is not None else None)

            run_tasks(items, workers, finish, telemetry=telemetry,
                      policy=policy,
                      initargs=(ckpt_policy, sanitizer, hang_cycles),
                      item_timeout=item_timeout)
            _write_manifest(manifest_path, grid, states)
    finally:
        for s in states:
            if s.writer is not None:
                s.writer.close()
        _write_manifest(manifest_path, grid, states)
        if telemetry is not None:
            telemetry.campaign_finished()

    cells = []
    for s in states:
        result = _cell_result(s)
        summary = result.summary()
        summary["row"] = s.cell.row
        summary["col"] = s.cell.col
        summary["key"] = s.cell.key
        summary["achieved_margin"] = s.achieved_margin(
            grid.adaptive.confidence if grid.adaptive else 0.95
        )
        cells.append(summary)
    return MatrixResult(
        name=grid.name, cells=cells, manifest_path=manifest_path,
        clock_hz=grid.clock_hz,
    )
