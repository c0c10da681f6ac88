"""Experiment-matrix scheduler: declarative campaign grids, run as one queue.

The paper's headline results are *grids* — per-structure AVF across
workloads × ISAs (Figures 4-11), DSA designs × components (Figure 14) —
but ``repro campaign`` runs one cell at a time, re-paying compilation and
golden simulation per invocation.  This module runs a whole grid:

* **declarative grid** — a TOML file expands into campaign *cells*
  (:func:`load_grid`): every ``[cpu]`` ``isas × workloads × targets``
  combination and every ``[accel]`` ``designs × components`` combination
  becomes one cell with its own spec, seed, and fault budget;
* **one interleaved work queue** — every cell is a
  :class:`~repro.core.campaign.CampaignCell`, and
  :func:`~repro.core.campaign.run_cells` (the loop ``run_campaign`` runs
  its single cell through) drains every active cell's next batch per
  round through one supervised pool (or a serial loop), round-robin
  across cells, with each cell's own per-fault wall-clock budget because
  CPU and DSA cells have wildly different golden run lengths.  Compiled
  executables, golden runs and checkpoint stores are shared across cells
  by the existing process-level caches — cells differing only in target
  re-use the same golden simulation;
* **resumable matrix manifest** — every cell journals into
  ``<out>/cells/<key>.jsonl`` in mask order, exactly as a standalone
  campaign does, so each cell journal is byte-identical to the one a
  standalone serial campaign would write, at every instant.
  ``manifest.json`` (atomically rewritten each round; :func:`manifest_text`
  is its one schema, shared with the shard merge) records grid
  fingerprint and per-cell progress; ``resume=True`` resumes each cell
  from its journal's contiguous prefix (cutting a torn tail or anything
  past a gap) and continues — producing byte-identical cell journals to
  an uninterrupted run;
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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.core.campaign import (
    CampaignCell,
    CampaignSpec,
    open_cell,
    run_cells,
    run_one_fault,  # noqa: F401  (re-exported: callers wrap it here)
    validate_spec,
)
from repro.core.protection import ProtectionConfig, normalized
from repro.core.checkpoint import DEFAULT_POLICY as DEFAULT_CHECKPOINT_POLICY
from repro.core.checkpoint import CheckpointPolicy
from repro.core.faults import FaultModel
from repro.core.report import render_matrix
from repro.core.sampling import AdaptiveSampling
from repro.core.sanitizer import DEFAULT_HANG_CYCLES, SanitizerPolicy
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


def adaptive_to_dict(adaptive: AdaptiveSampling | None) -> dict | None:
    """A grid's stopping rule as plans and manifests record it."""
    return asdict(adaptive) if adaptive is not None else None


def manifest_text(name: str, fingerprint: str, adaptive: dict | None,
                  cells: dict) -> str:
    """The ``manifest.json`` document: matrix runs and shard merges both
    write it through here."""
    return json.dumps({
        "kind": "matrix-manifest",
        "version": MANIFEST_VERSION,
        "name": name,
        "fingerprint": fingerprint,
        "adaptive": adaptive,
        "cells": cells,
    }, indent=2) + "\n"


def _cell_journal(key: str) -> str:
    """A cell's journal, relative to the matrix output directory."""
    return f"cells/{key}.jsonl"


def _write_manifest(path: Path, grid: MatrixGrid,
                    cells: list[CampaignCell]) -> None:
    """Atomic manifest rewrite: progress + per-cell status each round."""
    confidence = grid.adaptive.confidence if grid.adaptive else 0.95
    entries = {
        declared.key: {
            "kind": declared.kind,
            "row": declared.row,
            "col": declared.col,
            "journal": _cell_journal(declared.key),
            "status": cell.status or "running",
            "faults_done": cell.done,
            "budget": cell.budget,
            "stopped_early": cell.stopped_early,
            "achieved_margin": cell.achieved_margin(confidence),
        }
        for declared, cell in zip(grid.cells, cells)
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(manifest_text(grid.name, grid.fingerprint,
                                 adaptive_to_dict(grid.adaptive), entries))
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
    each cell journal's contiguous prefix (anything past a gap or a torn
    tail is cut from the file, stop decisions are re-derived); without it
    a populated output directory is refused rather than mixed.  Per-cell
    journals are byte-identical to standalone serial campaigns — and to an
    uninterrupted matrix run — whatever ``workers`` is.
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

    cells = []
    for declared in grid.cells:
        journal = out_dir / _cell_journal(declared.key)
        cells.append(open_cell(
            declared.spec, journal=journal,
            resume=journal if resume else None, checkpoints=ckpt_policy,
            sanitizer=sanitizer, hang_cycles=hang_cycles,
        ))

    def write_manifest() -> None:
        _write_manifest(manifest_path, grid, cells)

    write_manifest()
    try:
        run_cells(cells, workers, checkpoints=ckpt_policy,
                  sanitizer=sanitizer, hang_cycles=hang_cycles,
                  adaptive=grid.adaptive, telemetry=telemetry,
                  labels={"matrix": grid.name}, on_round=write_manifest)
    finally:
        write_manifest()

    confidence = grid.adaptive.confidence if grid.adaptive else 0.95
    summaries = []
    for declared, cell in zip(grid.cells, cells):
        summary = cell.result().summary()
        summary["row"] = declared.row
        summary["col"] = declared.col
        summary["key"] = declared.key
        summary["achieved_margin"] = cell.achieved_margin(confidence)
        summaries.append(summary)
    return MatrixResult(
        name=grid.name, cells=summaries, manifest_path=manifest_path,
        clock_hz=grid.clock_hz,
    )
