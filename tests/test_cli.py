import csv
from pathlib import Path

import numpy as np
import pytest

from predictsched import fractional_gaussian_noise, workload_to_csv
from predictsched.cli import main

from conftest import make_job, make_workload

DATA = Path(__file__).parent / "data"


def swf_text(submits, runtime=100, cpus=1, user=1):
    lines = ["; generated fixture"]
    for i, t in enumerate(submits, start=1):
        lines.append(
            f"{i} {t:.6f} 0 {runtime} {cpus} -1 -1 {cpus} {runtime} -1 1 {user} 1 "
            "-1 -1 -1 -1 -1"
        )
    return "\n".join(lines) + "\n"


@pytest.fixture
def fgn_workload(tmp_path):
    gaps = fractional_gaussian_noise(4096, 0.72, rng=5)
    gaps = gaps - gaps.min() + 1.0  # positive gaps; R/S is shift-invariant
    submits = np.cumsum(gaps)
    path = tmp_path / "fgn.swf"
    path.write_text(swf_text(submits))
    return path


@pytest.fixture
def two_job_csv(tmp_path):
    wl = make_workload(make_job(1, 0, 10, 1), make_job(2, 0, 5, 1))
    path = tmp_path / "two.csv"
    path.write_text(workload_to_csv(wl))
    return path


@pytest.fixture
def dominance_csv(tmp_path):
    # a blocker keeps the cpu busy while a long and a tiny job queue up:
    # picking the tiny one first crushes the FCFS slowdown
    wl = make_workload(
        make_job(1, 0, 5, 1),
        make_job(2, 1, 10, 1, estimate=10),
        make_job(3, 2, 1, 1, estimate=1),
    )
    path = tmp_path / "dom.csv"
    path.write_text(workload_to_csv(wl))
    return path


@pytest.fixture
def periodic_csv(tmp_path):
    jobs = [make_job(i + 1, 1000 + i * 86400, 3600, 4) for i in range(8)]
    path = tmp_path / "periodic.csv"
    path.write_text(workload_to_csv(make_workload(*jobs)))
    return path


class TestAnalyze:
    def test_fgn_fixture_recovers_h(self, fgn_workload, capsys):
        rc = main(["analyze", "--workload", str(fgn_workload), "--channel", "interarrival"])
        out = capsys.readouterr().out
        assert rc == 0
        h = float(next(l for l in out.splitlines() if l.startswith("H = ")).split()[2])
        assert abs(h - 0.72) <= 0.10

    def test_missing_file_exit_2(self, capsys):
        rc = main(["analyze", "--workload", "/no/such/file.swf"])
        assert rc == 2
        assert "/no/such/file.swf" in capsys.readouterr().err

    def test_directory_exit_2(self, tmp_path, capsys):
        rc = main(["analyze", "--workload", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_constant_series_exit_1(self, tmp_path, capsys):
        path = tmp_path / "flat.swf"
        path.write_text(swf_text([100.0 * i for i in range(64)]))
        rc = main(["analyze", "--workload", str(path), "--channel", "interarrival"])
        assert rc == 1
        assert "zero variance" in capsys.readouterr().err


class TestSimulate:
    def test_two_job_report(self, two_job_csv, tmp_path, capsys):
        out_file = tmp_path / "trace.csv"
        rc = main(
            [
                "simulate", "--workload", str(two_job_csv), "--cpus", "1",
                "--policy", "fcfs", "--out", str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "makespan:    15" in out
        assert "slowdown:    4.0000" in out
        assert "utilization: 100.000" in out
        rows = list(csv.DictReader(out_file.open()))
        assert [r["start"] for r in rows] == ["0", "10"]

    def test_edf_trace_file_identical_to_fcfs(self, periodic_csv, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for policy, out in (("edf", f1), ("fcfs", f2)):
            rc = main(
                [
                    "simulate", "--workload", str(periodic_csv), "--cpus", "8",
                    "--policy", policy, "--out", str(out),
                ]
            )
            assert rc == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_feedback_log_written_for_dl(self, periodic_csv, tmp_path):
        fb = tmp_path / "feedback.csv"
        rc = main(
            [
                "simulate", "--workload", str(periodic_csv), "--cpus", "8",
                "--policy", "dl", "--feedback-out", str(fb),
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(fb.open()))
        assert rows, "daily pattern should produce tracked predictions"
        assert set(rows[0]) == {
            "pattern_id", "predicted_submit", "confidence", "decision", "came_true",
        }
        assert any(r["came_true"] == "1" for r in rows)

    def test_dl_without_patterns_matches_cons_bf(self, two_job_csv, tmp_path):
        f1, f2 = tmp_path / "dl.csv", tmp_path / "cons.csv"
        rc = main(
            [
                "simulate", "--workload", str(two_job_csv), "--cpus", "1",
                "--policy", "dl", "--min-occurrences", "99", "--out", str(f1),
            ]
        )
        assert rc == 0
        rc = main(
            [
                "simulate", "--workload", str(two_job_csv), "--cpus", "1",
                "--policy", "cons-bf", "--out", str(f2),
            ]
        )
        assert rc == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestCompare:
    def test_matrix_replay_table3(self, capsys):
        rc = main(["compare", "--matrix", str(DATA / "table3.tsv")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "winner\tDL" in out
        dl_row = next(l for l in out.splitlines() if l.startswith("DL\t"))
        assert float(dl_row.split("\t")[-1]) == pytest.approx(0.9474, abs=0.01)

    def test_matrix_replay_table5(self, capsys):
        rc = main(["compare", "--matrix", str(DATA / "table5.tsv")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "winner\tTabuSearch" in out

    def test_dominating_policy_wins(self, dominance_csv, capsys):
        rc = main(
            [
                "compare", "--workload", str(dominance_csv), "--cpus", "1",
                "--policies", "fcfs,sjf",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.strip().endswith("winner\tsjf")

    def test_policy_order_does_not_change_winner(self, dominance_csv, capsys):
        rc = main(
            [
                "compare", "--workload", str(dominance_csv), "--cpus", "1",
                "--policies", "sjf,fcfs",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.strip().endswith("winner\tsjf")

    def test_too_few_policies_exit_2(self, dominance_csv, capsys):
        rc = main(
            ["compare", "--workload", str(dominance_csv), "--cpus", "1",
             "--policies", "fcfs"]
        )
        assert rc == 2


SPEC_TEXT = """
[workload]
horizon = 864000
background_rate = 0.00005

[template.daily]
user_id = 1
cpus = 4
runtime = 3600
period = 86400
count = 10
"""


class TestSynth:
    def test_generates_workload_and_truth(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text(SPEC_TEXT)
        out = tmp_path / "wl.csv"
        truth = tmp_path / "truth.csv"
        rc = main(
            ["synth", "--spec", str(spec), "--out", str(out), "--truth", str(truth),
             "--seed", "7"]
        )
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) >= 10
        truth_rows = list(csv.DictReader(truth.open()))
        assert len(truth_rows) == 10
        assert truth_rows[0]["template_id"] == "0"

    def test_env_seed_overrides(self, tmp_path, monkeypatch):
        spec = tmp_path / "spec.ini"
        spec.write_text(SPEC_TEXT)
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        monkeypatch.setenv("PREDICTSCHED_SEED", "123")
        main(["synth", "--spec", str(spec), "--out", str(a), "--seed", "1"])
        main(["synth", "--spec", str(spec), "--out", str(b), "--seed", "2"])
        monkeypatch.delenv("PREDICTSCHED_SEED")
        main(["synth", "--spec", str(spec), "--out", str(c), "--seed", "123"])
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()


class TestForecast:
    def test_predictions_csv(self, periodic_csv, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        rc = main(
            ["forecast", "--workload", str(periodic_csv), "--horizon", "172800",
             "--out", str(out)]
        )
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2  # two daily prolongations in a 2-day horizon
        # parsing normalizes the clock, so the last observed submit is
        # 7 * 86400 and the first prolongation lands one period later
        assert float(rows[0]["predicted_submit"]) == 8 * 86400
