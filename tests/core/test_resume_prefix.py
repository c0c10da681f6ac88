"""Resume takes a journal's contiguous prefix, on both runners.

A journal that holds positions 0, 1 and 3 (position 2 lost) resumes from
positions 0 and 1.  Position 3 is dropped from the file, so the finished
journal is byte-identical to an uninterrupted run's and passes
``repro doctor``, instead of carrying mask 3 out of order or twice.
"""

from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.doctor import diagnose_journal
from repro.core.matrix import grid_from_dict, run_matrix

GRID = {
    "matrix": {"name": "gap"},
    "cpu": {"workloads": ["crc32"], "targets": ["regfile_int"],
            "faults": 6, "seed": 3},
}


def _punch_gap(path) -> None:
    """Keep the header and records 0, 1 and 3."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[i] for i in (0, 1, 2, 4)))


def test_campaign_resumes_gapped_journal_from_its_prefix(cfg, tmp_path):
    spec = CampaignSpec(isa="rv", workload="crc32", target="regfile_int",
                        cfg=cfg, faults=6, seed=3)
    full = tmp_path / "full.jsonl"
    run_campaign(spec, journal=full)
    gapped = tmp_path / "gapped.jsonl"
    gapped.write_bytes(full.read_bytes())
    _punch_gap(gapped)

    result = run_campaign(spec, journal=gapped, resume=gapped)
    assert gapped.read_bytes() == full.read_bytes()
    assert diagnose_journal(gapped).ok
    assert result.resumed == 2


def test_matrix_resumes_gapped_cell_journal_from_its_prefix(tmp_path):
    grid = grid_from_dict(GRID)
    run_matrix(grid, tmp_path / "full")
    run_matrix(grid, tmp_path / "part")
    (key,) = [c.key for c in grid.cells]
    full = tmp_path / "full" / "cells" / f"{key}.jsonl"
    gapped = tmp_path / "part" / "cells" / f"{key}.jsonl"
    _punch_gap(gapped)

    result = run_matrix(grid, tmp_path / "part", resume=True)
    assert gapped.read_bytes() == full.read_bytes()
    assert diagnose_journal(gapped).ok
    assert result.cells[0]["resumed"] == 2
