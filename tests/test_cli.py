import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from predictsched import (
    POLICY_TOKENS,
    ForecasterConfig,
    fractional_gaussian_noise,
    workload_to_csv,
)
from predictsched.cli import _forecaster_config, build_parser, main

from conftest import lifecycle_workload, make_job, make_workload, weekly_workload

DATA = Path(__file__).parent / "data"


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


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
        rows = read_rows(out_file)
        assert [r["start"] for r in rows] == ["0", "10"]

    @pytest.mark.parametrize("extra", [
        ["--tick", "5"], ["--any-user"], ["--horizon", "7"], ["--t-low", "0.1"],
        ["--mode", "pdf_normalized"],
    ])
    def test_dl_options_without_dl_exit_2(self, two_job_csv, extra, capsys):
        rc = main(["simulate", "--workload", str(two_job_csv), "--cpus", "1",
                   "--policy", "fcfs", *extra])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: dl options need the dl policy, got {extra[0]}\n"
        )

    def test_dl_options_without_dl_listed_together(self, two_job_csv, capsys):
        rc = main(["simulate", "--workload", str(two_job_csv), "--cpus", "1",
                   "--policy", "SJF", "--tick", "5", "--any-user", "--horizon", "7"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: dl options need the dl policy, got --any-user, --horizon, --tick\n"
        )

    def test_dl_option_defaults_build_the_default_config(self):
        argv = ["simulate", "--workload", "w.csv", "--cpus", "1", "--policy", "dl"]
        args = build_parser().parse_args(argv)
        assert _forecaster_config(args, ["dl"]) == ForecasterConfig()

    def test_dl_options_at_their_defaults_accepted_without_dl(self, two_job_csv, capsys):
        rc = main(["simulate", "--workload", str(two_job_csv), "--cpus", "1",
                   "--policy", "fcfs", "--tick", "86400", "--t-low", "0.33"])
        assert rc == 0
        assert "makespan:    15" in capsys.readouterr().out

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
        rows = read_rows(fb)
        assert rows, "daily pattern should produce tracked predictions"
        assert set(rows[0]) == {
            "pattern_id", "predicted_submit", "confidence", "decision", "came_true",
        }
        assert any(r["came_true"] == "1" for r in rows)

    def test_policy_token_case_insensitive(self, periodic_csv, tmp_path):
        # an upper-case DL token must still run the forecaster
        outs = {}
        for token in ("dl", "DL"):
            trace, fb = tmp_path / f"{token}.csv", tmp_path / f"{token}-fb.csv"
            rc = main(
                [
                    "simulate", "--workload", str(periodic_csv), "--cpus", "8",
                    "--policy", token, "--out", str(trace), "--feedback-out", str(fb),
                ]
            )
            assert rc == 0
            outs[token] = (trace.read_bytes(), fb.read_bytes())
        assert outs["DL"] == outs["dl"]
        assert len(outs["dl"][1].splitlines()) > 1  # feedback rows past the header

    def test_unknown_policy_exit_2(self, two_job_csv, capsys):
        rc = main(
            ["simulate", "--workload", str(two_job_csv), "--cpus", "1", "--policy", "bogus"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown policy 'bogus'" in err and "cons-bf" in err

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

    @pytest.mark.parametrize("extra", [
        ["--workload", "w.csv"], ["--format", "swf"], ["--cpus", "4"],
        ["--policies", "fcfs,sjf"], ["--tick", "3600"], ["--any-user"],
    ])
    def test_matrix_rejects_replay_options(self, extra, capsys):
        rc = main(["compare", "--matrix", str(DATA / "table3.tsv"), *extra])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --matrix takes no replay options, got {extra[0]}\n"

    def test_matrix_accepts_dl_options_at_their_defaults(self, capsys):
        rc = main(["compare", "--matrix", str(DATA / "table3.tsv"), "--tick", "86400"])
        assert rc == 0
        assert "winner\tDL" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [["--any-user"], ["--tick", "3600"], ["--max-layer", "2"]])
    def test_dl_options_without_dl_exit_2(self, dominance_csv, extra, capsys):
        rc = main(["compare", "--workload", str(dominance_csv), "--cpus", "1",
                   "--policies", "fcfs,sjf", *extra])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: dl options need the dl policy, got {extra[0]}\n"
        )

    def test_dl_options_accepted_with_dl(self, periodic_csv, capsys):
        rc = main(["compare", "--workload", str(periodic_csv), "--cpus", "8",
                   "--policies", "fcfs,DL", "--tick", "3600", "--any-user"])
        assert rc == 0
        assert "winner" in capsys.readouterr().out

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

    def test_policy_tokens_case_insensitive(self, periodic_csv, capsys):
        reports = []
        for tokens in ("fcfs,dl", "FCFS,Dl"):
            rc = main(
                ["compare", "--workload", str(periodic_csv), "--cpus", "8",
                 "--policies", tokens]
            )
            assert rc == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_unknown_policy_exit_2(self, dominance_csv, capsys):
        rc = main(
            ["compare", "--workload", str(dominance_csv), "--cpus", "1",
             "--policies", "fcfs,bogus"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown policy 'bogus'" in err and "pbs-pro" in err

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
        rows = read_rows(out)
        assert len(rows) >= 10
        truth_rows = read_rows(truth)
        assert len(truth_rows) == 10
        assert truth_rows[0]["template_id"] == "0"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["horizon", "background_rate", "estimate_factor"])
    def test_non_finite_spec_number_exit_1(self, key, value, tmp_path, capsys):
        # a NaN horizon used to switch clipping off and write the workload
        rule = {"horizon": "> 0", "background_rate": ">= 0", "estimate_factor": ">= 1"}[key]
        settings = {"horizon": "864000", key: value}
        spec = tmp_path / "spec.ini"
        spec.write_text("[workload]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
        out = tmp_path / "wl.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {key} must be a finite number {rule}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["period", "runtime", "offset"])
    def test_non_finite_template_number_exit_1(self, key, value, tmp_path, capsys):
        rule = {"period": " > 0", "runtime": " > 0", "offset": ""}[key]
        spec = tmp_path / "spec.ini"
        lines = [line for line in SPEC_TEXT.splitlines() if not line.startswith(f"{key} =")]
        spec.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        out = tmp_path / "wl.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: template {key} must be a finite number{rule}\n"
        assert not out.exists()

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
        rows = read_rows(out)
        assert len(rows) == 2  # two daily prolongations in a 2-day horizon
        # parsing normalizes the clock, so the last observed submit is
        # 7 * 86400 and the first prolongation lands one period later
        assert float(rows[0]["predicted_submit"]) == 8 * 86400

    @pytest.mark.parametrize("option", ["--tick", "--t-low", "--t-high"])
    def test_dl_only_options_exit_2(self, periodic_csv, option, capsys):
        # the offline forecast has no ticks and makes no reservations
        with pytest.raises(SystemExit) as exc:
            main(["forecast", "--workload", str(periodic_csv), option, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


@pytest.mark.parametrize("max_layer", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ["forecast"],
    ["simulate", "--cpus", "8", "--policy", "dl"],
    ["simulate", "--cpus", "8", "--policy", "fcfs"],
    ["compare", "--cpus", "8", "--policies", "fcfs,dl"],
], ids=["forecast", "simulate-dl", "simulate-fcfs", "compare"])
def test_max_layer_below_one_exit_1(periodic_csv, command, max_layer, capsys):
    rc = main([*command, "--workload", str(periodic_csv), "--max-layer", max_layer])
    assert rc == 1
    assert capsys.readouterr().err == "error: max_layer must be >= 1\n"


@pytest.mark.parametrize("command, error", [
    (["simulate", "--cpus", "8", "--policy", "dl", "--tick", "nan"], "tick and horizon"),
    (["simulate", "--cpus", "8", "--policy", "dl", "--horizon", "nan"], "tick and horizon"),
    (["simulate", "--cpus", "8", "--policy", "dl", "--horizon", "inf"], "tick and horizon"),
    (["forecast", "--horizon", "nan"], "now and horizon"),
    (["forecast", "--horizon", "inf"], "now and horizon"),
    (["forecast", "--now", "nan"], "now and horizon"),
], ids=["simulate-tick-nan", "simulate-horizon-nan", "simulate-horizon-inf",
        "forecast-horizon-nan", "forecast-horizon-inf", "forecast-now-nan"])
def test_non_finite_forecaster_times_exit_1(periodic_csv, command, error, capsys):
    # before the check these never returned: prolong's emit loop never
    # passed a NaN or infinite end
    rc = main([*command, "--workload", str(periodic_csv)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {error} must be finite")


@pytest.mark.parametrize("command, error", [
    (["simulate", "--cpus", "8", "--policy", "dl", "--tick", "1e-6"],
     "a forecast tick of 1e-06 s makes more than 1,000,000 ticks over this workload"),
    (["simulate", "--cpus", "8", "--policy", "dl", "--horizon", "1e12"],
     "would make more than 1,000,000 predictions over the horizon"),
    (["forecast", "--horizon", "1e12"],
     "would make more than 1,000,000 predictions over the horizon"),
], ids=["simulate-tick-1e-6", "simulate-horizon-1e12", "forecast-horizon-1e12"])
def test_forecasts_that_would_not_finish_exit_1(periodic_csv, command, error, capsys):
    # before the bounds these did not finish: about 6e11 forecast ticks, or
    # 11.6M predictions of the daily pattern at every tick
    rc = main([*command, "--workload", str(periodic_csv)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and error in err


def _write_csv(tmp_path, name, workload):
    path = tmp_path / f"{name}.csv"
    path.write_text(workload_to_csv(workload))
    return str(path)


# sha256 of the stdout of each command: a change to any byte of these
# reports fails here
PINNED_STDOUT = {
    "forecast-periodic": "482d1dcc514d69e4b037dc5628b9e123173e2f59352544a66ba94e376b113ce9",
    "forecast-lifecycle-pdf": "9e23c9fb2eb3642d5e80ae4d3243c09eade70eb5c95b6c0b563f2148f5604416",
    "forecast-weekly-any-user": "1d1b4c774843a68c5b1759fe4f5554a640bddf55ea389a899cb62bb4d63dadb3",
    "matrix-table3": "942e366662b6ebf73f97a576b9f667ccb0b99d7a6dd17f8d19cfcfa52d72fe5b",
    "matrix-table5": "3a9ab800f088a4c7e4c0ff62bb83c1cf7e168c707fc451620cb9e3ade358c65b",
    "compare-degenerate": "f9e733e7ae4af0e8ed4edf98dd86850445cb0fa7c716214f3817627294422eed",
    "compare-lifecycle-all": "d15925909a09318a34dbb1aee9858827ddfc7462fd1b786728d3ccc5488801d7",
}


def _pinned_argv(case, tmp_path):
    if case == "forecast-periodic":
        daily = [make_job(i + 1, 1000 + i * 86400, 3600, 4) for i in range(8)]
        wl = _write_csv(tmp_path, "p", make_workload(*daily))
        return ["forecast", "--workload", wl, "--horizon", "172800"]
    if case == "forecast-lifecycle-pdf":
        wl = _write_csv(tmp_path, "l", lifecycle_workload())
        return ["forecast", "--workload", wl, "--horizon", "259200", "--mode", "pdf_normalized"]
    if case == "forecast-weekly-any-user":
        wl = _write_csv(tmp_path, "w", weekly_workload())
        return ["forecast", "--workload", wl, "--horizon", "604800", "--any-user"]
    if case.startswith("matrix-"):
        return ["compare", "--matrix", str(DATA / f"{case[7:]}.tsv")]
    if case == "compare-degenerate":
        # fcfs and sjf share makespan and utilization on these two jobs
        wl = _write_csv(tmp_path, "d", make_workload(make_job(1, 0, 10, 1), make_job(2, 0, 5, 1)))
        return ["compare", "--workload", wl, "--cpus", "1", "--policies", "fcfs,sjf"]
    wl = _write_csv(tmp_path, "l", lifecycle_workload())
    # at 8 cpus the forecaster's reservations make `dl` differ from `cons-bf`
    return ["compare", "--workload", wl, "--cpus", "8", "--t-low", "0.2", "--t-high", "0.6",
            "--policies", ",".join(POLICY_TOKENS)]


@pytest.mark.parametrize("case", sorted(PINNED_STDOUT))
def test_report_bytes_pinned(case, tmp_path, capsys):
    rc = main(_pinned_argv(case, tmp_path))
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[case]
