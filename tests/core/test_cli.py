"""CLI tests (in-process, small samples)."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "rv" in out and "qsort" in out and "regfile_int" in out and "gemm" in out


def test_campaign_command(capsys, tmp_path):
    csv = tmp_path / "out.csv"
    rc = main([
        "campaign", "--isa", "rv", "--workload", "crc32",
        "--target", "regfile_int", "--faults", "5", "--csv", str(csv),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "avf" in out
    assert csv.exists() and "avf" in csv.read_text()


def test_campaign_journal_and_resume_flags(capsys, tmp_path):
    journal = tmp_path / "run.jsonl"
    base = [
        "campaign", "--isa", "rv", "--workload", "crc32",
        "--target", "regfile_int", "--faults", "4",
        "--journal", str(journal),
    ]
    assert main(base) == 0
    capsys.readouterr()
    assert journal.exists()
    assert main(base + ["--resume", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "resumed 4/4" in out
    # the journal holds exactly one record per mask (no duplicates appended)
    from repro.core.journal import CampaignJournal

    assert len(CampaignJournal.load(journal)) == 4


def test_campaign_checkpoint_flags_byte_identical_journals(capsys, tmp_path):
    """--checkpoint-stride 0 --no-early-exit (full simulation) and the
    default fast-forward path write byte-identical journals: same records,
    same header (the checkpoint policy is not part of the spec fingerprint)."""
    full = tmp_path / "full.jsonl"
    fast = tmp_path / "fast.jsonl"
    base = [
        "campaign", "--isa", "rv", "--workload", "crc32",
        "--target", "regfile_int", "--faults", "4", "--seed", "6",
    ]
    assert main(base + ["--checkpoint-stride", "0", "--no-early-exit",
                        "--journal", str(full)]) == 0
    assert main(base + ["--checkpoint-stride", "32",
                        "--journal", str(fast)]) == 0
    assert full.read_bytes() == fast.read_bytes()


def test_accel_campaign_journal_and_resume_flags(capsys, tmp_path):
    journal = tmp_path / "accel.jsonl"
    base = [
        "accel-campaign", "--design", "fft", "--component", "REAL",
        "--faults", "4", "--scale", "tiny", "--journal", str(journal),
    ]
    assert main(base) == 0
    capsys.readouterr()
    assert main(base + ["--resume", str(journal)]) == 0
    assert "resumed 4/4" in capsys.readouterr().out


def test_accel_campaign_command(capsys):
    rc = main([
        "accel-campaign", "--design", "fft", "--component", "REAL",
        "--faults", "5", "--scale", "tiny",
    ])
    assert rc == 0
    assert "avf" in capsys.readouterr().out


def test_campaign_telemetry_flags_leave_journal_byte_identical(
        capsys, tmp_path):
    """--progress/--metrics-out are observational: the journal they ride
    along with is byte-identical to a bare run's."""
    bare = tmp_path / "bare.jsonl"
    observed = tmp_path / "observed.jsonl"
    metrics = tmp_path / "metrics.prom"
    base = [
        "campaign", "--isa", "rv", "--workload", "crc32",
        "--target", "regfile_int", "--faults", "4", "--seed", "3",
    ]
    assert main(base + ["--journal", str(bare)]) == 0
    assert main(base + ["--journal", str(observed), "--progress",
                        "--metrics-out", str(metrics)]) == 0
    captured = capsys.readouterr()
    assert bare.read_bytes() == observed.read_bytes()
    assert "faults" in captured.err            # progress lines went to stderr
    assert metrics.exists()
    from repro.core.telemetry import parse_prometheus

    values = parse_prometheus(metrics.read_text())
    finished = [v for k, v in values.items()
                if k.startswith("repro_faults_finished_total")]
    assert finished == [4.0]


def test_tail_command_summarizes_journal(capsys, tmp_path):
    journal = tmp_path / "run.jsonl"
    assert main([
        "campaign", "--isa", "rv", "--workload", "crc32",
        "--target", "regfile_int", "--faults", "4",
        "--journal", str(journal),
    ]) == 0
    capsys.readouterr()
    assert main(["tail", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "finished" in out and "4/4 faults" in out


def test_tail_command_json_and_metrics_reconcile(capsys, tmp_path):
    journal = tmp_path / "run.jsonl"
    metrics = tmp_path / "metrics.prom"
    assert main([
        "campaign", "--isa", "rv", "--workload", "crc32",
        "--target", "regfile_int", "--faults", "4",
        "--journal", str(journal),
    ]) == 0
    capsys.readouterr()
    assert main(["tail", str(journal), "--json",
                 "--metrics-out", str(metrics)]) == 0
    import json

    out = capsys.readouterr().out
    doc = json.loads(out[: out.rindex("}") + 1])
    assert doc["finished"] == 4 and doc["planned"] == 4
    assert sum(doc["outcomes"].values()) == 4
    from repro.core.telemetry import parse_prometheus

    values = parse_prometheus(metrics.read_text())
    finished = [v for k, v in values.items()
                if k.startswith("repro_faults_finished_total")]
    assert finished == [4.0]


def test_tail_command_missing_journal():
    assert main(["tail", "/nonexistent/journal.jsonl"]) == 1


def test_soc_command(capsys):
    rc = main(["soc", "--isa", "rv", "--design", "gemm"])
    assert rc == 0
    assert "cpu=" in capsys.readouterr().out


def test_figure_command(capsys):
    rc = main(["figure", "17", "--faults", "3"])
    assert rc == 0
    assert "Figure 17" in capsys.readouterr().out


def test_figure_unknown_number():
    assert main(["figure", "99"]) == 2


def test_parser_rejects_bad_isa():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["campaign", "--isa", "mips"])


def test_matrix_command_runs_grid_and_resumes(capsys, tmp_path):
    grid = tmp_path / "grid.toml"
    grid.write_text(
        '[matrix]\nname = "cli-smoke"\n'
        '[cpu]\nworkloads = ["crc32"]\ntargets = ["regfile_int", "lq"]\n'
        'faults = 3\nseed = 2\n'
    )
    out = tmp_path / "mx"
    csv = tmp_path / "cells.csv"
    rc = main(["matrix", str(grid), "--out", str(out), "--csv", str(csv)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "regfile_int" in text and "manifest" in text
    assert (out / "manifest.json").exists()
    assert csv.exists() and "avf" in csv.read_text()

    # running again without --resume must refuse; with it, succeed
    assert main(["matrix", str(grid), "--out", str(out)]) == 2
    capsys.readouterr()
    assert main(["matrix", str(grid), "--out", str(out), "--resume"]) == 0


def test_matrix_command_rejects_bad_grid(capsys, tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_text('[cpu]\nworkloads = ["crc32"]\n')   # no targets
    assert main(["matrix", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err


def test_campaign_adaptive_flag_stops_early(capsys, tmp_path):
    journal = tmp_path / "run.jsonl"
    rc = main([
        "campaign", "--workload", "crc32", "--target", "regfile_int",
        "--faults", "10", "--adaptive", "--target-margin", "0.44",
        "--batch", "5", "--journal", str(journal),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    # min_faults=20 clamps to budget 10; margin(10) ~ 0.31 <= 0.44, so the
    # budget is exactly spent — stopped_early stays False but the adaptive
    # machinery ran (budget row shows in the summary)
    assert "budget" in out
    from repro.core.journal import CampaignJournal

    assert len(CampaignJournal.load(journal)) == 10


@pytest.mark.parametrize("argv, alternative", [
    (["campaign", "--workload", "bogus"], "crc32"),
    (["campaign", "--target", "bogus"], "regfile_int"),
    (["accel-campaign", "--design", "bogus"], "gemm"),
    (["accel-campaign", "--component", "BOGUS"], "MATRIX1"),
])
def test_unknown_names_are_usage_errors(capsys, argv, alternative):
    assert main([*argv, "--faults", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown ")
    assert "available:" in err and alternative in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["campaign", "accel-campaign"])
def test_negative_fault_budget_is_rejected(capsys, command):
    assert main([command, "--faults", "-3"]) == 2
    assert "fault budget must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["campaign", "--workload", "crc32", "--target", "regfile_int"],
    ["accel-campaign", "--scale", "tiny"],
])
def test_zero_fault_budget_reports_undefined_avf(capsys, argv):
    assert main([*argv, "--faults", "0"]) == 0
    rows = dict(line.split(None, 1) for line in
                capsys.readouterr().out.splitlines()[2:] if line.strip())
    assert rows["avf"].strip() == "n/a" and rows["budget"].strip() == "0"


@pytest.mark.parametrize("section", [
    '[cpu]\nworkloads = ["bogus"]\ntargets = ["lq"]\nfaults = 2\n',
    '[accel]\ndesigns = ["gemm"]\ncomponents = ["BOGUS"]\nfaults = 2\n',
    '[cpu]\nworkloads = ["crc32"]\ntargets = ["lq"]\nfaults = -2\n',
])
def test_matrix_command_rejects_unknown_names_and_budgets(capsys, tmp_path,
                                                         section):
    grid = tmp_path / "grid.toml"
    grid.write_text(section)
    assert main(["matrix", str(grid), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [")
    assert "available:" in err or "fault budget" in err
