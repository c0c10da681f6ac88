"""Experiment-matrix runner: grid parsing, scheduling, resume identity."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.journal import CampaignJournal
from repro.core.matrix import (
    MatrixError,
    grid_from_dict,
    load_grid,
    read_manifest,
    run_matrix,
)
from repro.core.telemetry import Telemetry

GRID = {
    "matrix": {"name": "t"},
    "cpu": {
        "workloads": ["crc32"], "targets": ["regfile_int", "lq"],
        "faults": 4, "seed": 3,
    },
}


# ------------------------------------------------------------ grid parsing


def test_grid_expands_cpu_cross_product():
    grid = grid_from_dict({
        "matrix": {"name": "g"},
        "cpu": {"isas": ["rv", "arm"], "workloads": ["crc32", "sha"],
                "targets": ["regfile_int"], "faults": 7},
    })
    assert {c.key for c in grid.cells} == {
        "cpu-rv-crc32-regfile_int", "cpu-rv-sha-regfile_int",
        "cpu-arm-crc32-regfile_int", "cpu-arm-sha-regfile_int",
    }
    assert all(c.spec.faults == 7 for c in grid.cells)
    assert grid.adaptive is None


def test_grid_accel_components_default_to_paper_targets():
    grid = grid_from_dict({
        "accel": {"designs": ["gemm"], "faults": 3},
    })
    assert {c.key for c in grid.cells} == {
        "accel-gemm-MATRIX1", "accel-gemm-MATRIX3",
    }
    assert all(c.kind == "accel" for c in grid.cells)


def test_grid_rejects_unknown_sections_and_keys():
    with pytest.raises(MatrixError, match="unknown key"):
        grid_from_dict({"cpus": {"workloads": ["crc32"]}})
    with pytest.raises(MatrixError, match="unknown key"):
        grid_from_dict({"cpu": {"workloads": ["crc32"],
                                "targets": ["lq"], "turbo": True}})
    with pytest.raises(MatrixError, match="non-empty"):
        grid_from_dict({"cpu": {"workloads": [], "targets": ["lq"]}})
    with pytest.raises(MatrixError, match="zero cells"):
        grid_from_dict({"matrix": {"name": "empty"}})
    with pytest.raises(MatrixError, match="fault model"):
        grid_from_dict({"cpu": {"workloads": ["crc32"], "targets": ["lq"],
                                "model": "cosmic"}})


def test_grid_fingerprint_distinguishes_documents():
    a = grid_from_dict(dict(GRID))
    b = grid_from_dict({**GRID, "cpu": {**GRID["cpu"], "seed": 4}})
    assert a.fingerprint != b.fingerprint
    assert a.fingerprint == grid_from_dict(dict(GRID)).fingerprint


def test_load_grid_parses_toml(tmp_path):
    path = tmp_path / "grid.toml"
    path.write_text(
        '[matrix]\nname = "toml-grid"\n'
        '[cpu]\nworkloads = ["crc32"]\ntargets = ["lq"]\nfaults = 2\n'
        '[adaptive]\ntarget_margin = 0.3\nbatch = 5\nmin_faults = 5\n'
    )
    grid = load_grid(path)
    assert grid.name == "toml-grid"
    assert [c.key for c in grid.cells] == ["cpu-rv-crc32-lq"]
    assert grid.adaptive.target_margin == 0.3
    with pytest.raises(FileNotFoundError):
        load_grid(tmp_path / "nope.toml")
    bad = tmp_path / "bad.toml"
    bad.write_text("[cpu\n")
    with pytest.raises(MatrixError):
        load_grid(bad)


def test_grid_rejects_unknown_names_and_negative_budgets():
    """Grid cells pass the campaign kernel's own validation at load time."""
    cpu = {"workloads": ["crc32"], "targets": ["lq"], "faults": 2}
    with pytest.raises(MatrixError, match=r"\[cpu\] unknown workload 'x'.*"
                                          r"available: .*crc32"):
        grid_from_dict({"cpu": {**cpu, "workloads": ["x"]}})
    with pytest.raises(MatrixError, match=r"\[cpu\] unknown injection target"):
        grid_from_dict({"cpu": {**cpu, "targets": ["rob"]}})
    with pytest.raises(MatrixError, match=r"\[cpu\] unknown ISA"):
        grid_from_dict({"cpu": {**cpu, "isas": ["mips"]}})
    with pytest.raises(MatrixError, match=r"\[accel\] unknown component "
                                          r"'BOGUS'.*available: MATRIX1"):
        grid_from_dict({"accel": {"designs": ["gemm"],
                                  "components": ["BOGUS"]}})
    with pytest.raises(MatrixError, match=r"\[accel\] unknown accelerator "
                                          r"design"):
        grid_from_dict({"accel": {"designs": ["nope"],
                                  "components": ["MATRIX1"]}})
    with pytest.raises(MatrixError, match="fault budget must be >= 0"):
        grid_from_dict({"cpu": {**cpu, "faults": -2}})
    with pytest.raises(MatrixError, match="fault budget must be >= 0"):
        grid_from_dict({"accel": {"designs": ["gemm"], "faults": -1}})
    zero = grid_from_dict({"cpu": {**cpu, "faults": 0}})
    assert [c.spec.faults for c in zero.cells] == [0]


# ------------------------------------------------------- fault-model cells


def test_grid_fault_model_list_fans_out_cells():
    """A fault_model list multiplies cells like protection lists do; the
    uniform entry keeps the unsuffixed key (and an unset spec field) so
    its journal stays byte-identical to a fault-model-free grid."""
    grid = grid_from_dict({
        "matrix": {"name": "fm"},
        "cpu": {"workloads": ["crc32"], "targets": ["l1i"], "faults": 3,
                "fault_model": ["uniform", "burst:arity=2",
                                {"name": "error-map", "rows": "4/2/1"}]},
    })
    by_key = {c.key: c for c in grid.cells}
    assert set(by_key) == {
        "cpu-rv-crc32-l1i",
        "cpu-rv-crc32-l1i@burst-arity=2",
        "cpu-rv-crc32-l1i@error-map-rows=4_2_1",
    }
    assert by_key["cpu-rv-crc32-l1i"].spec.fault_model is None
    assert by_key["cpu-rv-crc32-l1i@burst-arity=2"].spec.fault_model \
        .describe() == "burst:arity=2"
    em = by_key["cpu-rv-crc32-l1i@error-map-rows=4_2_1"].spec.fault_model
    assert em.param_dict() == {"rows": "4/2/1"}


def test_grid_fault_model_accel_section():
    grid = grid_from_dict({
        "accel": {"designs": ["gemm"], "components": ["MATRIX1"],
                  "faults": 2, "fault_model": "error-map:rows=2/1"},
    })
    (cell,) = grid.cells
    assert cell.key == "accel-gemm-MATRIX1@error-map-rows=2_1"
    assert cell.spec.fault_model.name == "error-map"


def test_grid_fault_model_rejections():
    base = {"workloads": ["crc32"], "targets": ["regfile_int"], "faults": 2}
    with pytest.raises(MatrixError, match="unknown fault model"):
        grid_from_dict({"cpu": {**base, "fault_model": "gauss"}})
    with pytest.raises(MatrixError, match="empty list"):
        grid_from_dict({"cpu": {**base, "fault_model": []}})
    with pytest.raises(MatrixError, match="strings or tables"):
        grid_from_dict({"cpu": {**base, "fault_model": [3]}})
    # adversarial only targets caches — refused at grid-expansion time
    with pytest.raises(MatrixError, match="cache"):
        grid_from_dict({"cpu": {**base, "fault_model": "adversarial"}})
    with pytest.raises(MatrixError, match="CPU campaigns only"):
        grid_from_dict({"accel": {"designs": ["gemm"], "faults": 2,
                                  "fault_model": "burst"}})


def test_grid_error_map_file_resolves_relative_to_grid(tmp_path):
    (tmp_path / "undervolt.toml").write_text("rows = [9, 1]\n")
    grid_path = tmp_path / "grid.toml"
    grid_path.write_text(
        '[cpu]\nworkloads = ["crc32"]\ntargets = ["lq"]\nfaults = 2\n'
        'fault_model = "error-map:map=undervolt.toml"\n'
    )
    grid = load_grid(grid_path)
    (cell,) = grid.cells
    # the map file is inlined: the spec (and journal) never needs it again
    assert cell.spec.fault_model.param_dict() == {"rows": "9/1"}
    assert cell.key == "cpu-rv-crc32-lq@error-map-rows=9_1"


def test_grid_cell_seeds_are_decorrelated_sub_seeds():
    """Satellite bugfix: feeding the raw grid seed into every cell made
    cells with coinciding geometry/window draw identical fault sites.
    Each cell now gets a stable sub-seed hashed from its identity; the
    derived seed lives in the cell spec, so standalone replays of a cell
    spec remain byte-identical.  Pinned: these seeds are journal-resume
    anchors, not values to update casually."""
    from repro.core.matrix import _cell_seed

    assert _cell_seed(1, "cpu", "rv", "crc32", "regfile_int") == \
        11788026300808674172
    assert _cell_seed(1, "accel", "gemm", "MATRIX1") == 5724332883000996998

    grid = grid_from_dict(dict(GRID))
    seeds = {c.key: c.spec.seed for c in grid.cells}
    assert seeds["cpu-rv-crc32-regfile_int"] == _cell_seed(
        3, "cpu", "rv", "crc32", "regfile_int")
    assert seeds["cpu-rv-crc32-lq"] == _cell_seed(3, "cpu", "rv", "crc32",
                                                  "lq")
    # the whole point: coinciding cells no longer share a seed
    assert len(set(seeds.values())) == len(seeds)
    # and expansion is deterministic
    assert {c.key: c.spec.seed
            for c in grid_from_dict(dict(GRID)).cells} == seeds


def test_run_matrix_fault_model_cell_matches_standalone(tmp_path, cfg):
    """A burst cell's matrix journal is byte-identical to a standalone
    campaign of the cell's spec (generator + sub-seed included)."""
    from repro.core.campaign import run_campaign

    grid = grid_from_dict({
        "matrix": {"name": "fm-run"},
        "cpu": {"workloads": ["crc32"], "targets": ["regfile_int"],
                "faults": 3, "fault_model": "burst:arity=2"},
    })
    run_matrix(grid, tmp_path / "m")
    (cell,) = grid.cells
    standalone = tmp_path / "standalone.jsonl"
    run_campaign(cell.spec, journal=standalone)
    matrix_journal = tmp_path / "m" / "cells" / f"{cell.key}.jsonl"
    assert matrix_journal.read_bytes() == standalone.read_bytes()
    header = json.loads(matrix_journal.read_text().splitlines()[0])
    assert header["spec"]["fault_model"]["name"] == "burst"


# ------------------------------------------------------------ matrix runs


def test_run_matrix_cells_match_standalone_campaigns(tmp_path, cfg):
    """Every cell journal is byte-identical to the one a standalone serial
    campaign with the same spec would write."""
    from repro.core.campaign import run_campaign

    grid = grid_from_dict(GRID)
    result = run_matrix(grid, tmp_path / "m")
    assert len(result.cells) == 2
    for cell in grid.cells:
        standalone = tmp_path / f"{cell.key}-standalone.jsonl"
        run_campaign(cell.spec, journal=standalone)
        matrix_journal = tmp_path / "m" / "cells" / f"{cell.key}.jsonl"
        assert matrix_journal.read_bytes() == standalone.read_bytes()


def test_run_matrix_manifest_and_summaries(tmp_path):
    grid = grid_from_dict(GRID)
    result = run_matrix(grid, tmp_path / "m")
    manifest = read_manifest(tmp_path / "m")
    assert manifest["name"] == "t"
    assert manifest["fingerprint"] == grid.fingerprint
    for key, cell in manifest["cells"].items():
        assert cell["status"] == "exhausted"
        assert cell["faults_done"] == cell["budget"] == 4
        assert not cell["stopped_early"]
        assert (tmp_path / "m" / cell["journal"]).exists()
    rows = {c["key"]: c for c in result.cells}
    assert rows.keys() == manifest["cells"].keys()
    assert all(c["faults"] == 4 for c in result.cells)
    text = result.render()
    assert "regfile_int" in text and "lq" in text and "wAVF" in text


def test_run_matrix_refuses_mixing_without_resume(tmp_path):
    grid = grid_from_dict(GRID)
    run_matrix(grid, tmp_path / "m")
    with pytest.raises(MatrixError, match="resume=True"):
        run_matrix(grid, tmp_path / "m")
    other = grid_from_dict({**GRID, "cpu": {**GRID["cpu"], "seed": 9}})
    with pytest.raises(MatrixError, match="different grid"):
        run_matrix(other, tmp_path / "m", resume=True)


def test_run_matrix_resume_of_finished_matrix_is_noop(tmp_path):
    grid = grid_from_dict(GRID)
    run_matrix(grid, tmp_path / "m")
    cells = tmp_path / "m" / "cells"
    before = {p.name: p.read_bytes() for p in cells.glob("*.jsonl")}
    result = run_matrix(grid, tmp_path / "m", resume=True)
    after = {p.name: p.read_bytes() for p in cells.glob("*.jsonl")}
    assert before == after
    assert all(c["resumed"] == 4 for c in result.cells)


def test_run_matrix_resume_from_partial_journals_is_byte_identical(tmp_path):
    """Kill-at-any-prefix equivalence without the racy kill: truncate each
    cell journal to a different record count, resume, and require the final
    bytes to match the uninterrupted run exactly."""
    grid = grid_from_dict(GRID)
    run_matrix(grid, tmp_path / "full")
    full = {
        p.name: p.read_bytes()
        for p in (tmp_path / "full" / "cells").glob("*.jsonl")
    }

    run_matrix(grid, tmp_path / "part")
    cells = tmp_path / "part" / "cells"
    for i, name in enumerate(sorted(full)):
        lines = (cells / name).read_bytes().splitlines(keepends=True)
        keep = 1 + i  # header + i records; different prefix per cell
        (cells / name).write_bytes(b"".join(lines[:keep]))
    # the stale manifest still claims completion — resume must re-derive
    # progress from the journals, not trust the manifest
    resumed = run_matrix(grid, tmp_path / "part", resume=True)
    after = {p.name: p.read_bytes() for p in cells.glob("*.jsonl")}
    assert after == full
    assert {c["key"]: c["resumed"] for c in resumed.cells} == {
        "cpu-rv-crc32-lq": 0, "cpu-rv-crc32-regfile_int": 1,
    }


def test_run_matrix_resume_repairs_torn_tail(tmp_path):
    grid = grid_from_dict(GRID)
    run_matrix(grid, tmp_path / "full")
    full = {
        p.name: p.read_bytes()
        for p in (tmp_path / "full" / "cells").glob("*.jsonl")
    }
    run_matrix(grid, tmp_path / "part")
    cells = tmp_path / "part" / "cells"
    victim = sorted(full)[0]
    lines = (cells / victim).read_bytes().splitlines(keepends=True)
    # keep header + 2 records, then a torn fragment of the third
    (cells / victim).write_bytes(b"".join(lines[:3]) + lines[3][:25])
    run_matrix(grid, tmp_path / "part", resume=True)
    after = {p.name: p.read_bytes() for p in cells.glob("*.jsonl")}
    assert after == full


def test_run_matrix_parallel_workers_byte_identical_to_serial(tmp_path):
    grid = grid_from_dict(GRID)
    run_matrix(grid, tmp_path / "serial")
    run_matrix(grid, tmp_path / "par", workers=2)
    serial = {
        p.name: p.read_bytes()
        for p in (tmp_path / "serial" / "cells").glob("*.jsonl")
    }
    par = {
        p.name: p.read_bytes()
        for p in (tmp_path / "par" / "cells").glob("*.jsonl")
    }
    assert serial == par


def test_run_matrix_adaptive_stops_cells_early(tmp_path):
    grid = grid_from_dict({
        **GRID,
        "cpu": {**GRID["cpu"], "faults": 10},
        "adaptive": {"target_margin": 0.44, "batch": 5, "min_faults": 5},
    })
    telemetry = Telemetry()
    result = run_matrix(grid, tmp_path / "m", telemetry=telemetry)
    assert result.stopped_early == 2
    for cell in result.cells:
        assert cell["stopped_early"]
        assert cell["faults"] == 5 and cell["budget"] == 10
        assert cell["achieved_margin"] <= 0.44
    manifest = read_manifest(tmp_path / "m")
    assert all(c["status"] == "converged"
               for c in manifest["cells"].values())
    assert telemetry.aggregate.adaptive_stops == 2
    assert telemetry.aggregate.adaptive_faults_saved == 10


def test_run_matrix_mixed_cpu_and_accel_cells(tmp_path):
    grid = grid_from_dict({
        "cpu": {"workloads": ["crc32"], "targets": ["lq"], "faults": 3},
        "accel": {"designs": ["gemm"], "components": ["MATRIX1"],
                  "faults": 3},
    })
    result = run_matrix(grid, tmp_path / "m", workers=2)
    kinds = {c["key"]: c for c in result.cells}
    assert set(kinds) == {"cpu-rv-crc32-lq", "accel-gemm-MATRIX1"}
    assert all(c["faults"] == 3 for c in result.cells)
    # accel journal matches a standalone accel campaign's
    from repro.accel.campaign import run_accel_campaign

    accel_cell = next(c for c in grid.cells if c.kind == "accel")
    standalone = tmp_path / "standalone.jsonl"
    run_accel_campaign(accel_cell.spec, journal=standalone)
    matrix_journal = tmp_path / "m" / "cells" / "accel-gemm-MATRIX1.jsonl"
    assert matrix_journal.read_bytes() == standalone.read_bytes()


# ------------------------------------------------------- SIGKILL survival

_KILL_SCRIPT = """
import sys
from repro.core.matrix import load_grid, run_matrix
grid = load_grid(sys.argv[1])
run_matrix(grid, sys.argv[2], resume="--resume" in sys.argv)
print("MATRIX-DONE")
"""


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_run_matrix_survives_sigkill_with_byte_identical_journals(tmp_path):
    """Kill the matrix process mid-run with SIGKILL, resume, and require
    the per-cell journals to be byte-identical to an uninterrupted run."""
    grid_path = tmp_path / "grid.toml"
    grid_path.write_text(
        '[matrix]\nname = "kill"\n'
        '[cpu]\nworkloads = ["crc32", "bitcount"]\n'
        'targets = ["regfile_int"]\nfaults = 6\nseed = 5\n'
    )
    grid = load_grid(grid_path)
    run_matrix(grid, tmp_path / "full")
    full = {
        p.name: p.read_bytes()
        for p in (tmp_path / "full" / "cells").glob("*.jsonl")
    }

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    out = tmp_path / "killed"
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILL_SCRIPT, str(grid_path), str(out)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    # let it get partway into the first cell, then kill -9
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        journals = list((out / "cells").glob("*.jsonl")) if out.exists() else []
        if any(len(p.read_bytes().splitlines()) >= 2 for p in journals):
            break
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)

    # resume in-process and compare every journal byte-for-byte
    result = run_matrix(grid, out, resume=True)
    after = {p.name: p.read_bytes() for p in (out / "cells").glob("*.jsonl")}
    assert after == full
    assert sum(c["resumed"] for c in result.cells) >= 0
    manifest = read_manifest(out)
    assert all(c["faults_done"] == 6 for c in manifest["cells"].values())
