import math
import statistics
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from predictsched import (
    Decision,
    FeedbackEvent,
    Pattern,
    PredictedJob,
    SimilarityParams,
    ThresholdState,
    confidence_factor,
    decide,
    feedback_to_csv,
    group_patterns,
    update_thresholds,
)
from predictsched.confidence import _PERIOD_RATIO_TOL, _Cohort, _make_group, groups_by_pattern
from predictsched.patterns import reqs_match

DAY = 86400.0


def pattern(pid, period, length, cpus=4, runtime=3600, user=1, layer=1):
    occurrences = tuple((pid * 1000 + k, k * period) for k in range(length))
    return Pattern(
        pattern_id=pid,
        layer=layer,
        user_id=user,
        rep_cpus=cpus,
        rep_runtime=runtime,
        period=period,
        occurrences=occurrences,
    )


class TestGroupPatterns:
    def test_similar_periods_share_group(self):
        groups = group_patterns([pattern(0, 86400, 5), pattern(1, 90000, 7)])
        assert len(groups) == 1
        assert groups[0].lengths == (5, 7)
        assert groups[0].mean_len == 6.0

    def test_dissimilar_periods_split(self):
        groups = group_patterns([pattern(0, 3600, 5), pattern(1, 86400, 5)])
        assert len(groups) == 2

    def test_singleton_group_has_zero_std(self):
        (group,) = group_patterns([pattern(0, 86400, 5)])
        assert group.std_len == 0.0
        assert group.mean_len == 5.0

    def test_requirements_split_groups(self):
        a = pattern(0, 86400, 5, cpus=4)
        b = pattern(1, 86400, 5, cpus=32)
        assert len(group_patterns([a, b])) == 2

    def test_layers_never_mix(self):
        a = pattern(0, 86400, 5, layer=1)
        b = pattern(1, 86400, 5, layer=2)
        assert len(group_patterns([a, b])) == 2


def reference_groups(patterns, req_params, tests=None):
    """group_patterns as it was with statistics.median over every candidate
    group's members at every step.  A list given as tests gets one entry
    per group tested."""
    groups = []
    for p in sorted(patterns, key=lambda q: q.pattern_id):
        for members in groups:
            if tests is not None:
                tests.append(p.pattern_id)
            if members[0].layer != p.layer:
                continue
            med_period = statistics.median(m.period for m in members)
            lo, hi = min(p.period, med_period), max(p.period, med_period)
            if hi / lo > 1.0 + _PERIOD_RATIO_TOL:
                continue
            med_cpus = statistics.median(m.rep_cpus for m in members)
            med_rt = statistics.median(m.rep_runtime for m in members)
            if reqs_match(p.rep_cpus, med_cpus, p.rep_runtime, med_rt, req_params):
                members.append(p)
                break
        else:
            groups.append([p])
    return [
        _make_group([m.pattern_id for m in members], [m.length for m in members])
        for members in groups
    ]


# periods exactly 1.25x apart, and one float step on either side of each
_EDGE_PERIODS = [
    x for p in (2560.0, 3200.0, 4000.0, 5000.0, 6250.0)
    for x in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))
]


@st.composite
def pattern_sets(draw):
    # one requirement varies at a time (or all do) over a dense range, so
    # that groups grow past two members and their medians decide who joins;
    # periods come from a dense range or lie on the ratio edges
    vary = draw(st.sampled_from(["period", "cpus", "runtime", "all"]))

    def values(name, spread):
        return spread if vary in (name, "all") else st.just(draw(spread))

    periods = values("period", draw(st.sampled_from([
        st.integers(3000, 6000).map(float), st.sampled_from(_EDGE_PERIODS),
    ])))
    cpus = values("cpus", st.integers(1, 12))
    runtimes = values("runtime", st.one_of(st.integers(500, 1100), st.floats(500, 1100)))
    return [
        pattern(
            pid,
            draw(periods),
            draw(st.integers(3, 12)),
            cpus=draw(cpus),
            runtime=draw(runtimes),
            layer=draw(st.sampled_from([1, 1, 1, 2])),
        )
        for pid in draw(st.permutations(range(draw(st.integers(0, 25)))))
    ]


class TestGroupPatternsMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        pattern_sets(),
        st.sampled_from([0.0, 0.25, 0.4, 0.5]),
        st.sampled_from([0.0, 0.1, 0.25, 0.4]),
    )
    def test_equals_statistics_median_reference(self, patterns, cpu_tol, runtime_tol):
        params = SimilarityParams(cpu_tol=cpu_tol, runtime_tol=runtime_tol)
        groups = group_patterns(patterns, params)
        assert groups == reference_groups(patterns, params)
        group_of = groups_by_pattern(groups)
        assert sorted(group_of) == sorted(p.pattern_id for p in patterns)
        assert all(pid in group_of[pid].member_pattern_ids for pid in group_of)

    def test_index_tests_few_cohorts(self):
        # 160 patterns over two layers, with periods spread across a factor
        # of 50 and five requirement classes, make many cohorts; the period
        # index tests a pattern only against the cohorts of its layer whose
        # median period lies within the period ratio
        patterns = [
            pattern(pid, 3600.0 * 1.07 ** (pid * 37 % 60), 3 + pid % 5,
                    cpus=1 + pid % 5, runtime=600 + 450 * (pid % 5), layer=1 + (pid % 4 == 3))
            for pid in range(160)
        ]
        calls = []
        original = _Cohort.admits

        def counted(cohort, p, req_params):
            calls.append(p.pattern_id)
            return original(cohort, p, req_params)

        with mock.patch.object(_Cohort, "admits", counted):
            groups = group_patterns(patterns)
        scan = []
        assert groups == reference_groups(patterns, SimilarityParams(), tests=scan)
        # a scan of every cohort makes 4,420 tests; the index makes 305
        assert (len(groups), len(scan), len(calls)) == (60, 4420, 305)


class TestCachedCohortMedians:
    @settings(max_examples=200, deadline=None)
    @given(pattern_sets(), st.sampled_from([0.0, 0.25, 0.5]))
    def test_medians_after_every_add(self, patterns, runtime_tol):
        original = _Cohort.add
        adds = []

        def add(cohort, p):
            original(cohort, p)
            adds.append(p.pattern_id)
            members = cohort.members
            assert cohort.med_period == statistics.median(m.period for m in members)
            assert cohort.med_cpus == statistics.median(m.rep_cpus for m in members)
            assert cohort.med_runtime == statistics.median(m.rep_runtime for m in members)

        with mock.patch.object(_Cohort, "add", add):
            groups = group_patterns(patterns, SimilarityParams(runtime_tol=runtime_tol))
        assert len(adds) == len(patterns) - len(groups)


class TestConfidenceFactor:
    def test_survival_at_mean_is_half(self):
        (group,) = group_patterns([pattern(0, 86400, 4), pattern(1, 86400, 8)])
        assert group.mean_len == 6.0
        assert confidence_factor(6, group) == pytest.approx(0.5)

    def test_pdf_peak_at_mean(self):
        (group,) = group_patterns([pattern(0, 86400, 4), pattern(1, 86400, 8)])
        assert confidence_factor(6, group, "pdf_normalized") == pytest.approx(1.0)

    def test_survival_against_normal_cdf_oracle(self):
        groups = group_patterns(
            [pattern(0, 86400, 4), pattern(1, 86400, 6), pattern(2, 86400, 8)]
        )
        (group,) = groups
        assert group.mean_len == pytest.approx(6.0)
        assert group.std_len == pytest.approx(1.63299, abs=1e-5)
        assert confidence_factor(8, group) == pytest.approx(0.11033, abs=1e-4)

    def test_survival_monotone_in_length(self):
        (group,) = group_patterns(
            [pattern(0, 86400, 4), pattern(1, 86400, 6), pattern(2, 86400, 8)]
        )
        values = [confidence_factor(n, group) for n in range(1, 15)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_degenerate_std(self):
        (group,) = group_patterns([pattern(0, 86400, 5)])
        assert confidence_factor(4, group) == 1.0
        assert confidence_factor(5, group) == 1.0
        assert confidence_factor(6, group) == 0.0
        assert confidence_factor(5, group, "pdf_normalized") == 1.0
        assert confidence_factor(4, group, "pdf_normalized") == 0.0

    def test_unknown_mode(self):
        (group,) = group_patterns([pattern(0, 86400, 5)])
        with pytest.raises(ValueError, match="unknown mode"):
            confidence_factor(5, group, "bogus")


class TestDecide:
    STATE = ThresholdState(t_low=0.33, t_high=0.66)

    def test_small_ignored(self):
        assert decide(0.2, self.STATE) is Decision.IGNORE

    def test_medium_soft(self):
        assert decide(0.5, self.STATE) is Decision.SOFT_RESERVE

    def test_boundary_belongs_to_higher_range(self):
        assert decide(0.66, self.STATE) is Decision.HARD_RESERVE
        assert decide(0.33, self.STATE) is Decision.SOFT_RESERVE

    def test_monotone_in_confidence(self):
        rank = {Decision.IGNORE: 0, Decision.SOFT_RESERVE: 1, Decision.HARD_RESERVE: 2}
        tiers = [rank[decide(c / 100, self.STATE)] for c in range(101)]
        assert tiers == sorted(tiers)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decide(1.5, self.STATE)


class TestUpdateThresholds:
    def test_low_confidence_come_true_lowers_t_low(self):
        state = ThresholdState(0.33, 0.66)
        new = update_thresholds(state, came_true=True, confidence_at_decision=0.2)
        assert (new.t_low, new.t_high) == (pytest.approx(0.31), 0.66)

    def test_high_confidence_failure_raises_t_high(self):
        state = ThresholdState(0.33, 0.66)
        new = update_thresholds(state, came_true=False, confidence_at_decision=0.9)
        assert (new.t_low, new.t_high) == (0.33, pytest.approx(0.68))

    def test_symmetric_counter_moves(self):
        state = ThresholdState(0.33, 0.66)
        up = update_thresholds(state, came_true=False, confidence_at_decision=0.1)
        assert (up.t_low, up.t_high) == (pytest.approx(0.35), 0.66)
        down = update_thresholds(state, came_true=True, confidence_at_decision=0.9)
        assert (down.t_low, down.t_high) == (0.33, pytest.approx(0.64))

    def test_medium_outcomes_leave_borders(self):
        state = ThresholdState(0.33, 0.66)
        for came_true in (True, False):
            assert update_thresholds(state, came_true, 0.5) == state

    def test_clamp_keeps_min_gap(self):
        state = ThresholdState(0.33, 0.38, min_gap=0.05)
        new = update_thresholds(state, came_true=True, confidence_at_decision=0.2)
        assert (new.t_low, new.t_high) == (pytest.approx(0.31), 0.38)
        # pushing t_low up against the gap stops at t_high - min_gap
        stuck = update_thresholds(state, came_true=False, confidence_at_decision=0.1)
        assert stuck.t_low == pytest.approx(0.33)

    def test_t_low_clamped_at_zero(self):
        state = ThresholdState(0.01, 0.66)
        new = update_thresholds(state, True, 0.0)
        assert new.t_low == 0.0

    def test_t_high_clamped_at_one(self):
        state = ThresholdState(0.33, 0.99)
        new = update_thresholds(state, False, 1.0)
        assert new.t_high == 1.0

    @given(
        st.lists(
            st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=1.0)),
            max_size=200,
        )
    )
    def test_invariant_under_any_feedback_stream(self, stream):
        state = ThresholdState(0.33, 0.66, step=0.07, min_gap=0.05)
        for came_true, conf in stream:
            state = update_thresholds(state, came_true, conf)
            assert 0.0 <= state.t_low <= state.t_high - state.min_gap
            assert state.t_high <= 1.0

    @given(
        st.lists(
            st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=1.0)),
            max_size=50,
        )
    )
    def test_zero_step_is_fixed_point(self, stream):
        state = ThresholdState(0.4, 0.7, step=0.0)
        for came_true, conf in stream:
            assert update_thresholds(state, came_true, conf) == state

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            ThresholdState(t_low=0.5, t_high=0.52, min_gap=0.05)
        with pytest.raises(ValueError):
            ThresholdState(t_low=-0.1, t_high=0.5)

    @pytest.mark.parametrize("step", [-0.01, math.nan, math.inf])
    def test_step_must_be_finite_and_non_negative(self, step):
        # a NaN step used to drop t_low to 0 at the first low-confidence hit
        with pytest.raises(ValueError, match="step must be a finite number >= 0"):
            ThresholdState(step=step)

    @pytest.mark.parametrize("min_gap", [-0.2, -1e-9, math.nan, math.inf])
    def test_min_gap_must_be_finite_and_non_negative(self, min_gap):
        # t_high 0.6 below t_low 0.7 was accepted with a gap of -0.2, and a
        # confidence of 0.65, above t_high, was then ignored
        with pytest.raises(ValueError, match="min_gap must be a finite number >= 0"):
            ThresholdState(t_low=0.7, t_high=0.6, min_gap=min_gap)


def test_feedback_csv_layout():
    pred = PredictedJob(
        pattern_id=3, predicted_submit=259200.0, cpus=4, runtime=3600,
        confidence=0.42, user_id=1,
    )
    ev = FeedbackEvent(
        prediction=pred, came_true=True, observed_time=259000.0,
        decision=Decision.SOFT_RESERVE,
    )
    text = feedback_to_csv([ev])
    lines = text.strip().splitlines()
    assert lines[0] == "pattern_id,predicted_submit,confidence,decision,came_true"
    assert lines[1] == "3,259200.0,0.420000,soft_reserve,1"
