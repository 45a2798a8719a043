import dataclasses

import numpy as np
import pytest

from predictsched import synth
from predictsched import (
    SynthSpec,
    SynthTemplate,
    parse_synth_spec,
    synth_workload,
    truth_to_csv,
)


def daily_template(user=1, count=5, jitter=0.0):
    return SynthTemplate(
        user_id=user,
        cpus=4,
        runtime=3600,
        period=86400,
        offset=0.0,
        count=count,
        submit_jitter=jitter,
    )


class TestSynthWorkload:
    def test_zero_jitter_exact_times(self):
        spec = SynthSpec(horizon=5 * 86400, templates=(daily_template(count=5),))
        wl, truth = synth_workload(spec, seed=0)
        assert [j.submit_time for j in wl] == [k * 86400 for k in range(5)]
        assert len(truth) == 5
        assert [occ.occurrence_index for occ in truth] == list(range(5))

    def test_deterministic_per_seed(self):
        spec = SynthSpec(
            horizon=10 * 86400,
            templates=(daily_template(jitter=0.05), daily_template(user=2)),
            background_rate=1 / 3600,
        )
        a, ta = synth_workload(spec, seed=42)
        b, tb = synth_workload(spec, seed=42)
        assert a.jobs == b.jobs
        assert ta == tb
        c, _ = synth_workload(spec, seed=43)
        assert c.jobs != a.jobs

    def test_job_count_matches_independent_regeneration(self):
        # oracle: replay the documented draw order with the same generator
        spec = SynthSpec(
            horizon=10 * 86400,
            templates=(daily_template(count=10), daily_template(user=2, count=10)),
            background_rate=1 / 3600,
        )
        wl, truth = synth_workload(spec, seed=42)
        rng = np.random.default_rng(42)  # zero-jitter templates draw nothing
        expected_bg = rng.poisson(spec.background_rate * spec.horizon)
        assert len(wl) == 20 + expected_bg
        assert len(truth) == 20

    def test_occurrences_beyond_horizon_clipped(self):
        spec = SynthSpec(horizon=2.5 * 86400, templates=(daily_template(count=10),))
        wl, truth = synth_workload(spec, seed=0)
        assert len(wl) == len(truth) == 3  # t = 0, 1d, 2d

    def test_background_users_disjoint_from_templates(self):
        spec = SynthSpec(
            horizon=5 * 86400,
            templates=(daily_template(),),
            background_rate=1 / 7200,
        )
        wl, truth = synth_workload(spec, seed=7)
        template_jobs = [j for j in wl if j.user_id == 1]
        background = [j for j in wl if j.user_id >= 1000]
        assert len(template_jobs) == len(truth)
        assert len(template_jobs) + len(background) == len(wl)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(horizon=0, templates=())
        with pytest.raises(ValueError):
            SynthTemplate(user_id=1, cpus=4, runtime=3600, period=0)

    @pytest.mark.parametrize("field, value", [
        ("background_users", 0),
        ("background_users", -3),
        ("background_cpus", (0, 8)),
        ("background_cpus", (8, 2)),
        ("background_runtime", (float("nan"), 10.0)),
        ("background_runtime", (600.0, float("inf"))),
        ("background_runtime", (0.0, 10.0)),
        ("background_runtime", (20.0, 10.0)),
    ])
    def test_bad_background_rejected(self, field, value):
        # each failed only inside synth_workload, in numpy or in Job, or
        # raised OverflowError, without naming the field
        with pytest.raises(ValueError, match=f"^{field} must"):
            SynthSpec(horizon=86400.0, background_rate=1 / 3600, **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["period", "runtime", "offset"])
    def test_non_finite_template_number_rejected(self, field, value):
        # a NaN used to fail later as "job 1: times must be finite numbers",
        # and an infinite offset gave a workload with no template jobs
        with pytest.raises(ValueError, match=f"template {field} must be a finite number"):
            dataclasses.replace(daily_template(), **{field: value})


class TestJobBound:
    def test_template_counts_at_the_bound_pass(self, monkeypatch):
        monkeypatch.setattr(synth, "_MAX_JOBS", 10)
        templates = (daily_template(count=4), daily_template(user=2, count=6))
        spec = SynthSpec(horizon=20 * 86400, templates=templates)
        assert len(synth_workload(spec)[0]) == 10
        over = dataclasses.replace(spec, templates=templates + (daily_template(user=3, count=1),))
        with pytest.raises(ValueError, match="^synthetic spec: template 2 would bring the "
                                             "workload past 10 jobs$"):
            synth_workload(over)

    def test_background_counts_with_the_templates(self, monkeypatch):
        spec = SynthSpec(horizon=10 * 86400, templates=(daily_template(count=5),),
                         background_rate=1 / 3600)
        # zero-jitter templates draw nothing, so the Poisson draw comes first
        n_bg = int(np.random.default_rng(0).poisson(spec.background_rate * spec.horizon))
        monkeypatch.setattr(synth, "_MAX_JOBS", 5 + n_bg)
        wl, _ = synth_workload(spec)
        assert len(wl) == 5 + n_bg
        monkeypatch.setattr(synth, "_MAX_JOBS", 4 + n_bg)
        with pytest.raises(ValueError, match=r"\[workload\] background_rate \* horizon"):
            synth_workload(spec)


class TestSpecFile:
    TEXT = """
[workload]
horizon = 864000
background_rate = 0.0001
estimate_factor = 1.5

[template.daily]
user_id = 1
cpus = 4
runtime = 3600
period = 86400
count = 10
submit_jitter = 0.01

[template.halfday]
user_id = 2
cpus = 8
runtime = 1800
period = 43200
count = 20
"""

    def test_parse(self):
        spec = parse_synth_spec(self.TEXT)
        assert spec.horizon == 864000
        assert spec.background_rate == 0.0001
        assert spec.estimate_factor == 1.5
        assert len(spec.templates) == 2
        assert spec.templates[0].submit_jitter == 0.01
        assert spec.templates[1].period == 43200

    def test_required_keys_alone_take_the_dataclass_defaults(self):
        spec = parse_synth_spec(
            "[workload]\nhorizon = 100\n"
            "[template.a]\nuser_id = 1\ncpus = 2\nruntime = 10\nperiod = 50\n"
        )
        assert spec == SynthSpec(
            horizon=100.0, templates=(SynthTemplate(user_id=1, cpus=2, runtime=10.0, period=50.0),)
        )

    def test_missing_section(self):
        with pytest.raises(ValueError, match="workload"):
            parse_synth_spec("[template.x]\nuser_id = 1\n")

    REQUIRED = (
        "[workload]\nhorizon = 100\n"
        "[template.a]\nuser_id = 1\ncpus = 2\nruntime = 10\nperiod = 50\n"
    )

    @pytest.mark.parametrize("key, section", [
        ("user_id", "template.a"), ("cpus", "template.a"), ("runtime", "template.a"),
        ("period", "template.a"), ("horizon", "workload"),
    ])
    def test_missing_required_key_named(self, key, section):
        text = "".join(line + "\n" for line in self.REQUIRED.splitlines()
                       if not line.startswith(f"{key} ="))
        with pytest.raises(ValueError) as info:
            parse_synth_spec(text)
        assert str(info.value) == f"synthetic spec: [{section}] has no {key}"

    # every int and float key of both sections, by section
    KEYS = {
        "template.a": {"user_id": int, "cpus": int, "count": int, "runtime": float,
                       "period": float, "offset": float, "submit_jitter": float,
                       "runtime_jitter": float},
        "workload": {"horizon": float, "background_rate": float, "background_users": int,
                     "background_cpus_min": int, "background_cpus_max": int,
                     "background_runtime_min": float, "background_runtime_max": float,
                     "estimate_factor": float},
    }

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, keys in KEYS.items() for key in keys
    ])
    def test_value_that_does_not_convert_named(self, section, key):
        value, kind = ("1.5", "an integer") if self.KEYS[section][key] is int else ("ten", "a number")
        lines = [line for line in self.REQUIRED.splitlines() if not line.startswith(f"{key} =")]
        at = lines.index(f"[{section}]") + 1
        text = "\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n"
        with pytest.raises(ValueError) as info:
            parse_synth_spec(text)
        assert str(info.value) == f"synthetic spec: [{section}] {key} = '{value}' is not {kind}"

    def test_template_underscore_section_is_unknown(self):
        with pytest.raises(ValueError) as info:
            parse_synth_spec(self.REQUIRED + "[template_notes]\nowner = ops\n")
        assert str(info.value) == ("synthetic spec: unknown section [template_notes]; "
                                   "expected [workload] or [template.<name>]")

    def test_misspelt_templates_section_is_unknown(self):
        text = self.REQUIRED.replace("[template.a]", "[templates]")
        with pytest.raises(ValueError, match=r"unknown section \[templates\]"):
            parse_synth_spec(text)

    @pytest.mark.parametrize("text, start", [
        ("horizon = 100\n", "synthetic spec: File contains no section headers."),
        ("[workload]\nhorizon = 1\n[workload]\n", "synthetic spec: While reading"),
        ("[workload]\nhorizon = 1%\n", "synthetic spec: '%' must be followed"),
    ])
    def test_config_errors_are_value_errors(self, text, start):
        with pytest.raises(ValueError) as info:
            parse_synth_spec(text)
        assert str(info.value).startswith(start)
        assert "\n" not in str(info.value)

    def test_estimate_factor_applied(self):
        spec = parse_synth_spec(self.TEXT)
        wl, _ = synth_workload(spec, seed=0)
        job = next(j for j in wl if j.user_id == 1)
        assert job.runtime_estimate == pytest.approx(job.runtime * 1.5)


def test_truth_csv_schema():
    spec = SynthSpec(horizon=3 * 86400, templates=(daily_template(count=3),))
    _, truth = synth_workload(spec, seed=0)
    lines = truth_to_csv(truth).strip().splitlines()
    assert lines[0] == "template_id,occurrence_index,submit_time,cpus,runtime"
    assert len(lines) == 4
