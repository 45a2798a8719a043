import dataclasses

import numpy as np
import pytest

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["period", "runtime", "offset"])
    def test_non_finite_template_number_rejected(self, field, value):
        # a NaN used to fail later as "job 1: times must be finite numbers",
        # and an infinite offset gave a workload with no template jobs
        with pytest.raises(ValueError, match=f"template {field} must be a finite number"):
            dataclasses.replace(daily_template(), **{field: value})


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
