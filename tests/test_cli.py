import codecs
import csv
import gzip
import hashlib
import os
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

    def test_oversized_csv_field_exit_1(self, tmp_path, capsys):
        # csv's field limit used to escape as a _csv.Error traceback
        big = tmp_path / "big.csv"
        big.write_text(workload_to_csv(make_workload(make_job(1, 0, 10, 1)))
                       + "2,1,1,0,10,10," + "9" * 200_000 + "\n")
        assert main(["simulate", "--workload", str(big), "--cpus", "4",
                     "--policy", "fcfs"]) == 1
        assert capsys.readouterr().err == "error: line 3: field larger than field limit (131072)\n"

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

    @pytest.mark.parametrize("text, error", [
        ("1\t2\n3\n", "line 2: ragged row, 1 of 2 numbers"),
        ("\ta\tb\n\na\t1\t2\nb\t1\n", "line 4: ragged row, 1 of 2 numbers"),
        ("a\tb\n1\t2\n", "line 1: neither numbers nor a header (leading cell empty)"),
        ("1\t2\n2\tx\n", "line 2: could not convert string to float: 'x'"),
    ], ids=["ragged", "ragged-named", "header-with-leading-cell", "non-numeric"])
    def test_bad_matrix_exit_1(self, text, error, tmp_path, capsys):
        matrix = tmp_path / "m.tsv"
        matrix.write_text(text)
        assert main(["compare", "--matrix", str(matrix)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize("settings, error", [
        ({"background_users": "0"}, "background_users must be >= 1"),
        ({"background_cpus_min": "0"},
         "background_cpus must satisfy 1 <= min <= max, got (0, 8)"),
        ({"background_runtime_min": "nan", "background_runtime_max": "10"},
         "background_runtime must be finite numbers with 0 < min <= max, got (nan, 10.0)"),
    ])
    def test_bad_background_exit_1(self, settings, error, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        lines = ["[workload]", "horizon = 864000", "background_rate = 0.0001"]
        spec.write_text("\n".join(lines + [f"{k} = {v}" for k, v in settings.items()]) + "\n")
        out = tmp_path / "wl.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
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

    @pytest.mark.parametrize("key, section", [
        ("user_id", "template.daily"), ("cpus", "template.daily"),
        ("runtime", "template.daily"), ("period", "template.daily"),
        ("horizon", "workload"),
    ])
    def test_missing_required_key_exit_1(self, key, section, tmp_path, capsys):
        # a missing user_id used to write rows with a blank user field
        spec = tmp_path / "spec.ini"
        lines = [line for line in SPEC_TEXT.splitlines() if not line.startswith(f"{key} =")]
        spec.write_text("\n".join(lines) + "\n")
        out = tmp_path / "wl.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: synthetic spec: [{section}] has no {key}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, kind", [
        ("template.daily", "user_id", "1.5", "an integer"),
        ("template.daily", "count", "1.5", "an integer"),
        ("template.daily", "runtime", "ten", "a number"),
        ("workload", "background_users", "1.5", "an integer"),
        ("workload", "horizon", "ten", "a number"),
    ])
    def test_value_that_does_not_convert_exit_1(self, section, key, value, kind,
                                                 tmp_path, capsys):
        lines = [line for line in SPEC_TEXT.splitlines() if not line.startswith(f"{key} =")]
        at = lines.index(f"[{section}]") + 1
        spec = tmp_path / "spec.ini"
        spec.write_text("\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n")
        out = tmp_path / "wl.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: synthetic spec: [{section}] {key} = '{value}' is not {kind}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        SPEC_TEXT + "\n[template_notes]\nowner = ops\n",
        SPEC_TEXT.replace("[template.daily]", "[templates]"),
    ], ids=["template_notes", "templates"])
    def test_unknown_section_exit_1(self, text, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text(text)
        out = tmp_path / "wl.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: synthetic spec: unknown section [template")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_no_section_header_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text("horizon = 864000\n")
        out = tmp_path / "wl.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: synthetic spec: File contains no section headers.")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text, source", [
        (SPEC_TEXT + "[template.big]\nuser_id = 2\ncpus = 1\nruntime = 10\nperiod = 1\n"
         "count = 100000000000\n", "template 1"),
        ("[workload]\nhorizon = 1e11\nbackground_rate = 1\n",
         "[workload] background_rate * horizon"),
    ], ids=["template-count", "background"])
    def test_spec_over_the_job_bound_exit_1(self, text, source, tmp_path, capsys):
        # both used to draw every row first: a MemoryError, or numpy asking
        # for 745 GiB, with a traceback
        spec = tmp_path / "spec.ini"
        spec.write_text(text)
        out = tmp_path / "wl.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: synthetic spec: {source} would bring the workload past 1,000,000 jobs\n")
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



# every option that names a file, with BAD where the bad path goes
FILE_OPTIONS = {
    "analyze-workload": ["analyze", "--workload", "BAD"],
    "forecast-workload": ["forecast", "--workload", "BAD"],
    "simulate-workload": ["simulate", "--workload", "BAD", "--cpus", "1", "--policy", "fcfs"],
    "compare-workload": ["compare", "--workload", "BAD", "--cpus", "1", "--policies", "fcfs,sjf"],
    "compare-matrix": ["compare", "--matrix", "BAD"],
    "synth-spec": ["synth", "--spec", "BAD", "--out", "OUT"],
    "synth-out": ["synth", "--spec", "SPEC", "--out", "BAD"],
    "synth-truth": ["synth", "--spec", "SPEC", "--out", "OUT", "--truth", "BAD"],
    "forecast-out": ["forecast", "--workload", "WL", "--out", "BAD"],
    "simulate-out": ["simulate", "--workload", "WL", "--cpus", "1", "--policy", "fcfs",
                     "--out", "BAD"],
    "simulate-feedback-out": ["simulate", "--workload", "WL", "--cpus", "1", "--policy", "fcfs",
                              "--feedback-out", "BAD"],
}


def _bad_path(case, tmp_path):
    if case == "missing":
        return tmp_path / "no" / "such.csv"
    if case == "directory":
        (tmp_path / "dir").mkdir()
        return tmp_path / "dir"
    if case == "under-a-file":
        (tmp_path / "regular.txt").write_text("x\n")
        return tmp_path / "regular.txt" / "x.csv"
    return tmp_path / ("n" * 5000)  # longer than any file name may be


@pytest.mark.parametrize("case", ["missing", "directory", "under-a-file", "long-name"])
@pytest.mark.parametrize("option", sorted(FILE_OPTIONS))
def test_path_that_cannot_be_read_or_written_exit_2(option, case, two_job_csv, tmp_path,
                                                     capsys):
    # under a file and over-long names used to end in a traceback
    spec = tmp_path / "spec.ini"
    spec.write_text(SPEC_TEXT)
    bad = _bad_path(case, tmp_path)
    paths = {"BAD": str(bad), "WL": str(two_job_csv), "SPEC": str(spec),
             "OUT": str(tmp_path / "out.csv")}
    rc = main([paths.get(arg, arg) for arg in FILE_OPTIONS[option]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err and "Traceback" not in err


# a command with two output files, with GOOD where the writable one goes
TWO_OUTPUTS = {
    "synth": ["synth", "--spec", "SPEC", "--out", "GOOD", "--truth", "BAD"],
    "synth-out-bad": ["synth", "--spec", "SPEC", "--out", "BAD", "--truth", "GOOD"],
    "simulate": ["simulate", "--workload", "WL", "--cpus", "1", "--policy", "fcfs",
                 "--out", "GOOD", "--feedback-out", "BAD"],
}


@pytest.mark.parametrize("case", ["missing", "directory", "under-a-file", "long-name"])
@pytest.mark.parametrize("command", sorted(TWO_OUTPUTS))
@pytest.mark.parametrize("existing", [False, True])
def test_outputs_written_all_or_none(command, case, existing, two_job_csv, tmp_path, capsys):
    spec = tmp_path / "spec.ini"
    spec.write_text(SPEC_TEXT)
    good = tmp_path / "good.csv"
    if existing:
        good.write_text("old\n")
    paths = {"BAD": str(_bad_path(case, tmp_path)), "GOOD": str(good),
             "WL": str(two_job_csv), "SPEC": str(spec)}
    before = sorted(tmp_path.iterdir())
    assert main([paths.get(arg, arg) for arg in TWO_OUTPUTS[command]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    # nothing written, nothing left behind
    assert sorted(tmp_path.iterdir()) == before
    assert good.read_text() == "old\n" if existing else not good.exists()


def test_output_name_near_the_longest_allowed_is_written(tmp_path, capsys):
    spec = tmp_path / "spec.ini"
    spec.write_text(SPEC_TEXT)
    out, truth = tmp_path / ("o" * 251 + ".csv"), tmp_path / ("t" * 251 + ".csv")
    assert main(["synth", "--spec", str(spec), "--out", str(out), "--truth", str(truth)]) == 0
    assert out.read_text().startswith("job_id,") and truth.exists()
    assert sorted(tmp_path.iterdir()) == sorted([spec, out, truth])


def test_outputs_write_through_links_and_keep_file_identity(tmp_path, capsys):
    spec = tmp_path / "spec.ini"
    spec.write_text(SPEC_TEXT)
    real, link, truth = tmp_path / "real.csv", tmp_path / "link.csv", tmp_path / "t.csv"
    real.write_text("old\n")
    link.symlink_to(real)
    truth.write_text("old\n")
    truth.chmod(0o640)
    before = os.stat(truth)
    assert main(["synth", "--spec", str(spec), "--out", str(link), "--truth", str(truth)]) == 0
    assert link.is_symlink() and real.read_text().startswith("job_id,")
    after = os.stat(truth)
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert truth.read_text().startswith("template_id,")


def test_outputs_to_devices(two_job_csv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["simulate", "--workload", str(two_job_csv), "--cpus", "1", "--policy", "fcfs",
                 "--out", str(out), "--feedback-out", "/dev/null"]) == 0
    assert out.read_text().startswith("job_id,")
    assert "feedback log written to /dev/null" in capsys.readouterr().out
    # a device that fails its write leaves no output file created
    out.unlink()
    assert main(["simulate", "--workload", str(two_job_csv), "--cpus", "1", "--policy", "fcfs",
                 "--out", str(out), "--feedback-out", "/dev/full"]) == 2
    assert "/dev/full" in capsys.readouterr().err and not out.exists()


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_read_only_output_exit_2_and_unchanged(tmp_path, capsys):
    spec = tmp_path / "spec.ini"
    spec.write_text(SPEC_TEXT)
    out, truth = tmp_path / "o.csv", tmp_path / "t.csv"
    truth.write_text("old\n")
    truth.chmod(0o444)
    assert main(["synth", "--spec", str(spec), "--out", str(out), "--truth", str(truth)]) == 2
    assert truth.read_text() == "old\n" and not out.exists()


def test_undecodable_workload_exit_1_naming_the_line(two_job_csv, tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_bytes(two_job_csv.read_bytes() + b"# caf\xe9\n")  # header, two jobs, then this
    assert main(["simulate", "--workload", str(path), "--cpus", "1", "--policy", "fcfs"]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 4: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"
    )


def _encoded(tmp_path, name, text, variant):
    if variant == "bom":
        path = tmp_path / name
        path.write_bytes(codecs.BOM_UTF8 + text.encode())
    else:
        path = tmp_path / f"{name}.gz"
        path.write_bytes(gzip.compress(text.encode()))
    return str(path)


@pytest.mark.parametrize("variant", ["bom", "gzip"])
class TestInputFilesReadAsWorkloads:
    """--spec and --matrix are read as --workload is: through gzip when the
    name ends in .gz, with a byte order mark skipped."""

    def test_spec(self, variant, tmp_path, capsys):
        plain, out = tmp_path / "spec.ini", tmp_path / "plain.csv"
        plain.write_text(SPEC_TEXT)
        assert main(["synth", "--spec", str(plain), "--out", str(out), "--seed", "7"]) == 0
        spec = _encoded(tmp_path, "spec.ini", SPEC_TEXT, variant)
        assert main(["synth", "--spec", spec, "--out", str(tmp_path / "o.csv"), "--seed", "7"]) == 0
        assert (tmp_path / "o.csv").read_bytes() == out.read_bytes()

    def test_matrix(self, variant, tmp_path, capsys):
        table = DATA / "table3.tsv"
        assert main(["compare", "--matrix", str(table)]) == 0
        expected = capsys.readouterr().out
        matrix = _encoded(tmp_path, "table3.tsv", table.read_text(), variant)
        assert main(["compare", "--matrix", matrix]) == 0
        assert capsys.readouterr().out == expected


def test_spec_that_is_not_gzip_exit_1(tmp_path, capsys):
    spec = tmp_path / "spec.ini.gz"
    spec.write_text(SPEC_TEXT)
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: not a readable gzip file") and err.count("\n") == 1
