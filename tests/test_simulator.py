import csv
import dataclasses
import heapq
import io

import pytest
from hypothesis import given, settings, strategies as st

from predictsched import (
    POLICY_TOKENS,
    ClusterConfig,
    Decision,
    ForecasterConfig,
    PredictedJob,
    SimilarityParams,
    SimulationError,
    SynthSpec,
    SynthTemplate,
    ThresholdState,
    feedback_to_csv,
    make_policy,
    objectives,
    run,
    run_with_telemetry,
    synth_workload,
    trace_to_csv,
)
from predictsched import simulator
from predictsched.policies import Policy
from predictsched.simtrace import SimTrace, TraceRecord
from predictsched.simulator import Reservation, ResState, _Engine, match_arrival

from conftest import (
    backlog_workload,
    capacity_breaches,
    enumerate_instances,
    fmt_seconds,
    lifecycle_workload,
    make_job,
    make_workload,
    random_workloads,
    reference_objectives,
    saturated_workload,
    weekly_workload,
)

P = 14400.0  # pattern period used by the reservation scenarios


def periodic_jobs(user, offset, count, cpus=4, runtime=3600.0, id0=1):
    return [
        make_job(id0 + k, offset + k * P, runtime, cpus, user=user)
        for k in range(count)
    ]


def reservation_workload(user2_count=20, extra=()):
    """Two same-requirement patterns: user 1 completes 14 occurrences and
    goes quiet; user 2 keeps going.  At t=230400 the cohort is {14, 16}, so
    the one prediction (user 2, t=232400) lands at confidence 1-Phi(2)."""
    jobs = periodic_jobs(1, 1000.0, 14, id0=1)
    jobs += periodic_jobs(2, 2000.0, user2_count, id0=100)
    jobs += list(extra)
    return make_workload(*jobs)


def surgical_config(t_low, t_high, min_gap=0.005):
    return ForecasterConfig(
        thresholds=ThresholdState(t_low=t_low, t_high=t_high, min_gap=min_gap),
        tick=230400.0,
        horizon=14400.0,
    )


class TestBasicRuns:
    def test_single_job(self):
        wl = make_workload(make_job(1, 0, 10, 4))
        trace = run(wl, ClusterConfig(8), "fcfs")
        r = trace.records[0]
        assert (r.submit, r.start, r.finish) == (0, 0, 10)

    def test_two_jobs_one_cpu(self, two_job_one_cpu):
        wl, cluster = two_job_one_cpu
        trace = run(wl, cluster, "fcfs")
        assert [(r.job_id, r.start, r.finish) for r in trace.records] == [
            (1, 0, 10),
            (2, 10, 15),
        ]

    def test_byte_identical_reruns(self):
        wl, _ = synth_workload(
            SynthSpec(
                horizon=5 * 86400,
                templates=(
                    SynthTemplate(user_id=1, cpus=4, runtime=3600, period=86400, count=5),
                ),
                background_rate=1 / 5000,
            ),
            seed=2,
        )
        cluster = ClusterConfig(8)
        for token in ("fcfs", "cons-bf", "best-gap"):
            assert trace_to_csv(run(wl, cluster, token)) == trace_to_csv(
                run(wl, cluster, token)
            )

    def test_freed_capacity_visible_to_same_instant_arrival(self):
        wl = make_workload(make_job(1, 0, 10, 1), make_job(2, 10, 5, 1))
        trace = run(wl, ClusterConfig(1), "fcfs")
        assert {r.job_id: r.start for r in trace.records} == {1: 0, 2: 10}

    def test_oversized_job_rejected_at_load(self):
        wl = make_workload(make_job(1, 0, 10, 9))
        with pytest.raises(SimulationError, match="requests 9 cpus"):
            run(wl, ClusterConfig(8), "fcfs")

    def test_work_conservation_fcfs_single_cpu(self):
        for wl in enumerate_instances(max_jobs=3):
            if any(j.cpus > 1 for j in wl):
                continue
            trace = run(wl, ClusterConfig(1), "fcfs")
            points = sorted(
                {r.submit for r in trace.records}
                | {r.start for r in trace.records}
                | {r.finish for r in trace.records}
            )
            for a, b in zip(points, points[1:]):
                waiting = any(r.submit <= a and r.start >= b for r in trace.records)
                busy = any(r.start <= a and r.finish >= b for r in trace.records)
                assert not (waiting and not busy)


class RoguePolicy(Policy):
    name = "rogue"

    def __init__(self, mode):
        self.mode = mode

    def select(self, view):
        if self.mode == "overcommit" and view.queue:
            return list(view.queue)  # start everything regardless of capacity
        if self.mode == "phantom":
            return [make_job(999, 0, 5, 1)]
        return []


class TestEngineGuards:
    def test_overcommitting_policy_is_fatal(self):
        wl = make_workload(make_job(1, 0, 10, 2), make_job(2, 0, 10, 2))
        with pytest.raises(SimulationError, match="exceeds capacity"):
            run(wl, ClusterConfig(2), RoguePolicy("overcommit"))

    def test_phantom_start_is_fatal(self):
        wl = make_workload(make_job(1, 0, 10, 2))
        with pytest.raises(SimulationError, match="not queued"):
            run(wl, ClusterConfig(2), RoguePolicy("phantom"))

    def test_unknown_forecaster_mode_rejected_at_construction(self):
        # checked when the config is built, not at the first scored prediction
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            ForecasterConfig(mode="bogus")

    @pytest.mark.parametrize("max_layer", [0, -1])
    def test_max_layer_below_one_rejected_at_construction(self, max_layer):
        with pytest.raises(ValueError, match="max_layer must be >= 1"):
            ForecasterConfig(max_layer=max_layer)

    @pytest.mark.parametrize("field, value", [
        ("tick", 0.0), ("tick", float("nan")), ("tick", float("inf")),
        ("horizon", -1.0), ("horizon", float("nan")), ("horizon", float("inf")),
    ])
    def test_non_finite_or_non_positive_times_rejected_at_construction(self, field, value):
        # a NaN or infinite horizon would make prolong's emit loop run forever
        with pytest.raises(ValueError, match="tick and horizon must be finite and > 0"):
            ForecasterConfig(**{field: value})

    def test_forecaster_config_without_dl_rejected(self):
        wl = make_workload(make_job(1, 0, 10, 1))
        with pytest.raises(ValueError, match="forecaster config needs the dl policy"):
            run(wl, ClusterConfig(1), "fcfs", ForecasterConfig())

    def test_forecast_ticks_bounded_while_running(self, monkeypatch):
        # the last finish could be at 1,000 s, which passes the check made
        # up front, but the queue pushes it to 20,000 s
        monkeypatch.setattr(simulator, "_MAX_FORECAST_TICKS", 1_000)
        wl = make_workload(*(make_job(i + 1, 0, 1000, 1) for i in range(20)))
        with pytest.raises(ValueError, match="made more than 1,000 ticks"):
            run(wl, ClusterConfig(1), "dl", ForecasterConfig(tick=1.0))

    def test_runtime_vanishing_at_start_is_fatal(self):
        # job 2 waits until t = 2**53, where adding 1 s rounds back to t
        wl = make_workload(make_job(1, 0, 2.0**53, 1), make_job(2, 0, 1, 1))
        with pytest.raises(SimulationError, match="job 2: runtime vanishes at start"):
            run(wl, ClusterConfig(1), "fcfs")


class TestMatchArrival:
    def make_res(self, res_id, predicted, width=21600.0, cpus=4, runtime=3600.0, user=1):
        pred = PredictedJob(
            pattern_id=res_id,
            predicted_submit=predicted,
            cpus=cpus,
            runtime=runtime,
            confidence=0.5,
            user_id=user,
        )
        return Reservation(
            res_id=res_id,
            prediction=pred,
            cpus=cpus,
            window_start=predicted - width,
            window_end=predicted + width,
            decision=Decision.SOFT_RESERVE,
            match_width=width,
        )

    def test_inside_window_matches(self):
        res = self.make_res(0, 259200.0)
        job = make_job(1, 259000.0, 3600, 4, user=1)
        assert match_arrival(job, [res], SimilarityParams()) is res

    def test_outside_window_no_match(self):
        res = self.make_res(0, 259200.0)
        job = make_job(1, 300000.0, 3600, 4, user=1)
        assert match_arrival(job, [res], SimilarityParams()) is None

    def test_nearest_center_wins(self):
        a = self.make_res(0, 259200.0)
        b = self.make_res(1, 270000.0)
        job = make_job(1, 268000.0, 3600, 4, user=1)
        assert match_arrival(job, [a, b], SimilarityParams()) is b

    @pytest.mark.parametrize("offsets", [(0.0, 0.0), (-100.0, 100.0), (100.0, -100.0)])
    def test_tie_goes_to_earlier_reservation(self, offsets):
        a, b = (self.make_res(i, 259200.0 + d) for i, d in enumerate(offsets))
        job = make_job(1, 259200.0, 3600, 4, user=1)
        assert match_arrival(job, [a, b], SimilarityParams()) is a

    def test_requirements_must_match(self):
        res = self.make_res(0, 259200.0)
        wrong_cpus = make_job(1, 259200.0, 3600, 8, user=1)
        assert match_arrival(wrong_cpus, [res], SimilarityParams()) is None

    def test_user_must_match_when_per_user(self):
        res = self.make_res(0, 259200.0)
        job = make_job(1, 259200.0, 3600, 4, user=2)
        assert match_arrival(job, [res], SimilarityParams()) is None
        assert (
            match_arrival(job, [res], SimilarityParams(same_user=False)) is res
        )

    def test_negative_predicted_user_matches_any_user(self):
        res = self.make_res(0, 259200.0, user=-1)
        for user in (-1, 1, 2):
            job = make_job(1, 259200.0, 3600, 4, user=user)
            assert match_arrival(job, [res], SimilarityParams()) is res

    def test_consumed_reservation_ignored(self):
        res = self.make_res(0, 259200.0)
        res.state = ResState.CONSUMED
        job = make_job(1, 259200.0, 3600, 4, user=1)
        assert match_arrival(job, [res], SimilarityParams()) is None


class TestReservationScenarios:
    def test_dl_without_config_forecasts_with_the_defaults(self):
        wl, cluster = weekly_workload(), ClusterConfig(8)
        trace, tel = run_with_telemetry(wl, cluster, "dl")
        want_trace, want_tel = run_with_telemetry(wl, cluster, "dl", ForecasterConfig())
        assert len(tel.reservations) == len(want_tel.reservations) > 0
        assert trace_to_csv(trace) == trace_to_csv(want_trace)
        assert feedback_to_csv(tel.feedback) == feedback_to_csv(want_tel.feedback)

    def test_hard_reservation_matched_arrival_starts_inside(self):
        wl = reservation_workload()
        fc = surgical_config(t_low=0.01, t_high=0.02)
        trace, tel = run_with_telemetry(wl, ClusterConfig(8), "dl", fc)
        scored = [r for r in tel.reservations]
        assert len(scored) == 1
        res = scored[0]
        assert res.decision is Decision.HARD_RESERVE
        assert res.state is ResState.CONSUMED
        assert [ev.came_true for ev in tel.feedback] == [True]
        # the predicted arrival starts the moment it lands in its window
        matched = next(r for r in trace.records if r.submit == 232400.0)
        assert matched.start == matched.submit
        assert not capacity_breaches(trace)

    def test_soft_reservation_released_for_real_work(self):
        competing = make_job(900, 230500.0, 1000, 8, user=3)
        wl = reservation_workload(extra=[competing])
        fc = surgical_config(t_low=0.01, t_high=0.5, min_gap=0.05)
        trace, tel = run_with_telemetry(wl, ClusterConfig(8), "dl", fc)
        (res,) = tel.reservations
        assert res.decision is Decision.SOFT_RESERVE
        assert res.state is ResState.CANCELLED
        assert tel.feedback == []  # cancelled is not falsified
        blocked = next(r for r in trace.records if r.job_id == 900)
        assert blocked.start == blocked.submit  # soft hold yielded immediately

    def test_hard_reservation_blocks_conflicting_job(self):
        competing = make_job(900, 230500.0, 1000, 8, user=3)
        wl = reservation_workload(extra=[competing])
        fc = surgical_config(t_low=0.01, t_high=0.02)
        trace, tel = run_with_telemetry(wl, ClusterConfig(8), "dl", fc)
        (res,) = tel.reservations
        assert res.decision is Decision.HARD_RESERVE
        blocked = next(r for r in trace.records if r.job_id == 900)
        # the 8-cpu job cannot run during the hold; it starts only after the
        # matched arrival (which consumed the hold) finishes
        assert blocked.start == 236000.0
        assert not capacity_breaches(trace)

    def test_ignored_prediction_tracked_without_capacity(self):
        wl = reservation_workload()
        fc = surgical_config(t_low=0.5, t_high=0.9, min_gap=0.05)
        trace, tel = run_with_telemetry(wl, ClusterConfig(8), "dl", fc)
        (res,) = tel.reservations
        assert res.decision is Decision.IGNORE
        assert res.state is ResState.CONSUMED  # never HELD on the way
        assert [ev.came_true for ev in tel.feedback] == [True]

    def test_unfulfilled_prediction_expires_and_adapts(self):
        wl = reservation_workload(user2_count=16)  # pattern stops; no arrival
        fc = surgical_config(t_low=0.01, t_high=0.02)
        _trace, tel = run_with_telemetry(wl, ClusterConfig(8), "dl", fc)
        (res,) = tel.reservations
        assert res.state is ResState.EXPIRED
        assert [ev.came_true for ev in tel.feedback] == [False]
        # high-confidence miss pushes the upper border up by one step
        assert tel.final_thresholds.t_high == pytest.approx(0.04)

    def test_infeasible_window_hold_cancelled_safely(self):
        # an underestimated long job occupies the whole cluster across the
        # window, so the hold cannot be established
        long_job = make_job(900, 228000.0, 40000.0, 4, user=9, estimate=100.0)
        wl = reservation_workload(extra=[long_job])
        fc = surgical_config(t_low=0.01, t_high=0.02)
        trace, tel = run_with_telemetry(wl, ClusterConfig(4), "dl", fc)
        (res,) = tel.reservations
        assert res.state is ResState.CANCELLED
        assert tel.feedback == []
        assert not capacity_breaches(trace)

    def test_arrival_at_window_start_consumes_pending_hold(self, monkeypatch):
        # the tick at 228000 predicts user 2 at 232400 with a hard hold over
        # [228800, 236000); a matching job submitted at 228800 sorts before
        # the hold's start event, so it consumes the reservation while it is
        # still PENDING and the start event finds nothing left to hold
        seen = []
        on_res_start = _Engine._on_res_start

        def recording(engine, res):
            seen.append((engine.now, res.state))
            on_res_start(engine, res)

        monkeypatch.setattr(_Engine, "_on_res_start", recording)
        early = make_job(500, 228800.0, 3600.0, 4, user=2)
        fc = ForecasterConfig(
            thresholds=ThresholdState(0.01, 0.02, min_gap=0.005),
            tick=228000.0,
            horizon=14400.0,
        )
        trace, tel = run_with_telemetry(
            reservation_workload(extra=[early]), ClusterConfig(8), "dl", fc
        )
        (res,) = tel.reservations
        assert res.decision is Decision.HARD_RESERVE
        assert res.window_start == early.submit_time
        assert res.state is ResState.CONSUMED
        assert [ev.came_true for ev in tel.feedback] == [True]
        assert seen == [(early.submit_time, ResState.CONSUMED)]
        matched = next(r for r in trace.records if r.job_id == 500)
        assert matched.start == matched.submit
        assert not capacity_breaches(trace)

    def test_reservations_deduplicated_across_ticks(self):
        wl = reservation_workload()
        fc = ForecasterConfig(
            thresholds=ThresholdState(0.01, 0.02, min_gap=0.005),
            tick=7200.0,  # many overlapping ticks
            horizon=28800.0,
        )
        _trace, tel = run_with_telemetry(wl, ClusterConfig(8), "dl", fc)
        live_windows = [
            (r.prediction.pattern_id, r.prediction.predicted_submit)
            for r in tel.reservations
            if r.state is not ResState.CANCELLED
        ]
        # no two live reservations ever target the same predicted arrival
        assert len(live_windows) == len(set(live_windows))


class TestLifecycleProperty:
    def test_every_reservation_ends_once_with_one_feedback(self):
        wl = lifecycle_workload()
        fc = ForecasterConfig(thresholds=ThresholdState(0.2, 0.6, min_gap=0.05))
        trace, tel = run_with_telemetry(wl, ClusterConfig(16), "dl", fc)
        assert not capacity_breaches(trace)
        assert tel.reservations, "scenario should produce reservations"
        fed_by_res = {id(ev.prediction) for ev in tel.feedback}
        assert len(fed_by_res) == len(tel.feedback), "one feedback per prediction"
        closed = (ResState.CONSUMED, ResState.EXPIRED)
        for res in tel.reservations:
            assert not res.live, "every reservation ends by the end of the run"
            if res.state in closed:
                assert id(res.prediction) in fed_by_res
            else:
                assert res.state is ResState.CANCELLED
                assert id(res.prediction) not in fed_by_res
        n_closed = sum(1 for r in tel.reservations if r.state in closed)
        assert len(tel.feedback) == n_closed


class BookCheckingEngine(_Engine):
    """Checks after every event that the book holds exactly the live
    reservations, in res_id order, and that its indexes agree with it: the
    user buckets partition it, each in res_id order, and the hard index
    holds exactly its hard reservations.  At every submit it checks that
    the candidates the engine hands match_arrival pick the reservation a
    scan of the whole book picks."""

    checks = 0
    matched = 0  # submits that a whole-book scan matches to a reservation
    matched_across_users = 0  # ... to a prediction of another user id

    def _check_accounting(self):
        super()._check_accounting()
        live = [r for r in self.telemetry.reservations if r.live]
        book = self.active_reservations
        assert list(book) == [r.res_id for r in live]
        assert all(book[r.res_id] is r for r in live)
        for user_id, bucket in self.by_user.items():
            assert bucket and list(bucket) == sorted(bucket)
            assert all(
                book[res_id] is r and r.prediction.user_id == user_id
                for res_id, r in bucket.items()
            )
        assert sum(map(len, self.by_user.values())) == len(book)
        assert list(self.hard_live.items()) == [(k, r) for k, r in book.items() if r.hard]
        assert self.any_user_live == sum(r.prediction.user_id < 0 for r in live)
        self.checks += 1

    def _candidates(self, job):
        candidates = super()._candidates(job)
        ids = [r.res_id for r in candidates]
        assert ids == sorted(ids)
        similarity = self.fc.similarity
        expected = match_arrival(job, self.active_reservations.values(), similarity)
        assert match_arrival(job, candidates, similarity) is expected
        if expected is not None:
            self.matched += 1
            self.matched_across_users += expected.prediction.user_id != job.user_id
        return candidates


def run_book_checked(workload, same_user=True):
    fc = ForecasterConfig(
        similarity=SimilarityParams(same_user=same_user),
        thresholds=ThresholdState(0.05, 0.1, min_gap=0.05),
    )
    engine = BookCheckingEngine(workload, ClusterConfig(16), make_policy("dl"), fc)
    engine.run()
    assert engine.checks > 0 and engine.matched > 0
    assert engine.active_reservations == {}
    assert engine.by_user == {} and engine.hard_live == {}
    history = engine.telemetry.reservations
    assert [r.res_id for r in history] == list(range(engine.next_res_id))
    # every way out of the book is exercised
    assert {r.state for r in history} == {
        ResState.CONSUMED, ResState.EXPIRED, ResState.CANCELLED
    }
    assert any(r.hard for r in history)
    return engine


class TestLiveBook:
    def test_book_holds_exactly_the_live_reservations(self):
        engine = run_book_checked(weekly_workload())
        assert engine.matched_across_users == 0

    @pytest.mark.parametrize("user_2, same_user", [(-1, True), (2, False)])
    def test_arrivals_match_other_users_as_a_whole_book_scan_does(self, user_2, same_user):
        # a prediction of user id -1 matches any user's arrival, as does
        # every prediction when patterns span users
        workload = make_workload(*(
            dataclasses.replace(j, user_id=user_2) if j.user_id == 2 else j
            for j in weekly_workload()
        ))
        engine = run_book_checked(workload, same_user)
        assert engine.matched_across_users > 0


class RecordingPolicy(Policy):
    """Passes every view through to a real policy and keeps it, with the
    jobs that call started."""

    def __init__(self, inner: Policy):
        self.inner = inner
        self.name = inner.name
        self.calls: list[tuple] = []

    def select(self, view):
        starts = self.inner.select(view)
        self.calls.append((view, starts))
        return starts


class TestSchedulerViewContract:
    @pytest.mark.parametrize(
        "build", [lifecycle_workload, weekly_workload, backlog_workload]
    )
    def test_views_match_the_trace(self, build):
        wl = build()
        jobs = {j.job_id: j for j in wl}
        fc = ForecasterConfig(thresholds=ThresholdState(0.05, 0.1, min_gap=0.05))
        for token in POLICY_TOKENS:
            policy = RecordingPolicy(make_policy(token))
            forecaster = fc if token == "dl" else None
            trace = run(wl, ClusterConfig(16), policy, forecaster)
            # start sequence: at one instant, jobs matched to a reservation
            # on submit (in submit order) start before those a policy starts
            rank = {}
            for _view, starts in policy.calls:
                rank.update((job.job_id, len(rank)) for job in starts)
            for view, starts in policy.calls:
                now = view.now
                assert view.queue, token
                assert view.free_cpus >= 1, token
                keys = [(j.submit_time, j.job_id) for j in view.queue]
                assert keys == sorted(keys), token
                started_now = {j.job_id for j in starts}
                assert {j.job_id for j in view.queue} == {
                    r.job_id for r in trace.records
                    if r.submit <= now < r.start or r.job_id in started_now
                }, token
                running = sorted(
                    (r for r in trace.records
                     if r.start <= now < r.finish and r.job_id not in started_now),
                    key=lambda r: (r.start, rank.get(r.job_id, -1), r.job_id),
                )
                assert view.running == tuple(
                    (jobs[r.job_id], r.start, r.start + jobs[r.job_id].runtime_estimate)
                    for r in running
                ), token
            assert policy.calls, token


class TestNoLookahead:
    def test_prefix_decisions_independent_of_future(self):
        templates = (
            SynthTemplate(user_id=1, cpus=4, runtime=3600, period=86400, count=10),
            SynthTemplate(user_id=2, cpus=2, runtime=1800, period=43200, count=20),
        )
        wl, _ = synth_workload(
            SynthSpec(horizon=10 * 86400, templates=templates, background_rate=2e-4),
            seed=4,
        )
        cutoff = 5 * 86400 + 1.0  # strictly between submits
        prefix = make_workload(*(j for j in wl if j.submit_time <= cutoff))
        cluster = ClusterConfig(8)
        fc = ForecasterConfig()
        for token in ("fcfs", "cons-bf", "easy-bf", "esg", "best-gap", "dl"):
            forecaster = fc if token == "dl" else None
            full = run(wl, cluster, token, forecaster)
            part = run(prefix, cluster, token, forecaster)
            full_starts = {
                (r.job_id, r.start) for r in full.records if r.start <= cutoff
            }
            part_starts = {
                (r.job_id, r.start) for r in part.records if r.start <= cutoff
            }
            assert full_starts == part_starts, token


def sweep_window_feasible(engine, ws, we, cpus):
    """The admission check as a sweep over the start points of the loads,
    kept as the reference for CapacityProfile.hold_if_free on the engine's
    admission profile."""
    points = {ws}
    loads = []
    for job, _start, est_finish in engine.running.values():
        fin = max(est_finish, engine.now)
        if fin > ws:
            loads.append((ws, fin, job.cpus))
    for res in engine.active_reservations.values():
        if res.holds_capacity:
            if res.window_end > ws and res.window_start < we:
                loads.append((max(res.window_start, ws), res.window_end, res.cpus))
                points.add(max(res.window_start, ws))
    for t0, _t1, _c in loads:
        points.add(t0)
    for t in sorted(points):
        if t >= we:
            continue
        busy = sum(c for t0, t1, c in loads if t0 <= t < t1)
        if busy + cpus > engine.total_cpus:
            return False
    return True


# times on a coarse grid, so that windows, estimates and holds often touch
_t = st.integers(0, 24).map(float)


@st.composite
def admission_cases(draw):
    total = draw(st.integers(1, 12))
    now = 24.0 + draw(_t)  # room for jobs and holds that began before now
    engine = _Engine(make_workload(), ClusterConfig(total), make_policy("dl"), ForecasterConfig())
    engine.now = now
    for i in range(draw(st.integers(0, 5))):
        cpus = draw(st.integers(1, total))
        start = now - draw(_t)
        est_finish = now + draw(st.integers(-24, 24))  # overdue when below now
        engine.running[i] = (make_job(i + 1, start, 1.0, cpus), start, est_finish)
    for res_id in range(draw(st.integers(0, 6))):
        state = draw(st.sampled_from([ResState.PENDING, ResState.HELD]))
        # a HELD window has opened; a PENDING one opens now or later
        ws_r = now - draw(_t) if state is ResState.HELD else now + draw(_t)
        we_r = ws_r + draw(_t)
        pred = PredictedJob(pattern_id=res_id, predicted_submit=ws_r, cpus=1, runtime=1.0)
        engine.active_reservations[res_id] = Reservation(
            res_id=res_id,
            prediction=pred,
            cpus=draw(st.integers(1, total)),
            window_start=ws_r,
            window_end=we_r,
            decision=draw(st.sampled_from(list(Decision))),
            match_width=0.0,
            state=state,
        )
    ws = now + draw(_t)
    we = ws + draw(_t)
    return engine, ws, we, draw(st.integers(1, total))


class TestWindowFeasibleMatchesSweep:
    @settings(max_examples=400, deadline=None)
    @given(admission_cases())
    def test_profile_check_equals_sweep(self, case):
        engine, ws, we, cpus = case
        expected = sweep_window_feasible(engine, ws, we, cpus)
        # a profile from the window's start, and the tick's one from now
        for t0 in (ws, engine.now):
            profile = engine._admission_profile(t0)
            before = (profile.times[:], profile.free[:])
            assert profile.hold_if_free(ws, we, cpus) == expected
            if not expected or we <= ws:
                assert (profile.times, profile.free) == before

    @settings(max_examples=400, deadline=None)
    @given(admission_cases(), _t, _t, st.integers(1, 12))
    def test_held_window_equals_one_in_the_book(self, case, lead, length, cpus):
        # a tick carves each reservation it admits into its one profile, and
        # nothing for one it skips; the next check must answer as if exactly
        # the admitted ones were in the book
        engine, ws, we, held = case
        profile = engine._admission_profile(engine.now)
        if profile.hold_if_free(ws, we, held):
            pred = PredictedJob(pattern_id=99, predicted_submit=ws, cpus=held, runtime=1.0)
            engine.active_reservations[99] = Reservation(
                99, pred, held, ws, we, Decision.HARD_RESERVE, 0.0
            )
        ws2 = engine.now + lead
        we2 = ws2 + length
        assert profile.hold_if_free(ws2, we2, cpus) == sweep_window_feasible(
            engine, ws2, we2, cpus
        )


class ParentLoopEngine(_Engine):
    """The engine as it was before submits streamed: every submit goes onto
    the heap up front, the loop pops them like any other event, every
    admission check builds its own profile, the policy is called whenever
    jobs are queued, even with no cpu free, and the trace is built from one
    `TraceRecord` per job, kept in `records`."""

    def __init__(self, *args):
        super().__init__(*args)
        for job in self.workload:
            self._push(job.submit_time, simulator._SUBMIT, job)

    def run(self):
        while self.events:
            time, kind, _seq, payload = heapq.heappop(self.events)
            self.now = time
            if kind == simulator._FINISH:
                self._on_finish(payload)
            elif kind == simulator._RES_EXPIRE:
                self._on_res_expire(payload)
            elif kind == simulator._SUBMIT:
                self._on_submit(payload)
            elif kind == simulator._RES_START:
                self._on_res_start(payload)
            else:
                self._on_forecast()
            if self._policy_pending and (not self.events or self.events[0][0] > time):
                self._policy_pending = False
                if self.queue:
                    self._invoke_policy()
            self._check_accounting()
        assert not self.unfinished
        self.telemetry.final_thresholds = self.thresholds
        # one record object per job, as the trace once was
        self.records = tuple(
            TraceRecord(j.job_id, j.submit_time, self.starts[j.job_id],
                        self.finishes[j.job_id], j.cpus)
            for j in self.workload
        )
        return SimTrace(self.records, self.cluster, self.policy.name)

    def _consider_prediction(self, pred, pattern, profile):
        super()._consider_prediction(pred, pattern, self._admission_profile(self.now))


def records_to_csv(records):
    """The trace CSV written record by record, each number by fmt_seconds."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["job_id", "submit", "start", "finish", "cpus"])
    for r in records:
        writer.writerow([r.job_id, *map(fmt_seconds, (r.submit, r.start, r.finish, r.cpus))])
    return out.getvalue()


class TestColumnarTrace:
    """The engine's columns against the reference loop's per-job records."""

    @settings(max_examples=60, deadline=None)
    @given(random_workloads())
    def test_every_token_matches_per_job_records(self, case):
        wl, cluster = case
        for token in POLICY_TOKENS:
            fc = ForecasterConfig() if token == "dl" else None
            trace = _Engine(wl, cluster, make_policy(token), fc).run()
            ref = ParentLoopEngine(wl, cluster, make_policy(token), fc)
            ref_trace = ref.run()
            assert trace == ref_trace, token
            assert list(trace.records) == list(ref.records), token
            assert trace.records == ref.records, token
            assert (objectives(trace, cluster).as_tuple()
                    == reference_objectives(ref_trace, cluster)), token
            assert trace_to_csv(trace) == records_to_csv(ref.records), token


class HeapBoundEngine(_Engine):
    """Checks after every event that a run without a forecaster keeps one
    heap entry per running job, its finish, and nothing for future submits."""

    checks = 0

    def _check_accounting(self):
        super()._check_accounting()
        assert len(self.events) == len(self.running)
        self.checks += 1


def _replay(engine_class, wl, cluster, token, fc=None):
    engine = engine_class(wl, cluster, make_policy(token), fc)
    trace = engine.run()
    return trace_to_csv(trace), engine.telemetry


class TestStreamedSubmits:
    @settings(max_examples=60, deadline=None)
    @given(random_workloads())
    def test_every_token_matches_the_heap_loop(self, case):
        wl, cluster = case
        for token in POLICY_TOKENS:
            fc = ForecasterConfig() if token == "dl" else None
            streamed, _ = _replay(_Engine, wl, cluster, token, fc)
            assert streamed == _replay(ParentLoopEngine, wl, cluster, token, fc)[0], token

    @pytest.mark.parametrize(
        "build", [lifecycle_workload, weekly_workload, backlog_workload]
    )
    def test_dl_matches_the_heap_loop(self, build):
        wl, cluster = build(), ClusterConfig(16)
        fc = ForecasterConfig(thresholds=ThresholdState(0.05, 0.1, min_gap=0.05))
        streamed, tel = _replay(_Engine, wl, cluster, "dl", fc)
        heap, ref = _replay(ParentLoopEngine, wl, cluster, "dl", fc)
        assert tel.reservations, "scenario should produce reservations"
        assert streamed == heap
        assert feedback_to_csv(tel.feedback) == feedback_to_csv(ref.feedback)
        assert tel.reservations_skipped == ref.reservations_skipped

    def test_submit_at_a_finish_sees_the_freed_capacity(self):
        # job 900 holds the whole cluster until 228800, where a matching
        # arrival consumes the pending hold of the tick at 228000; the finish
        # settles first, so the arrival starts on submit, ahead of job 901,
        # which was queued before it and needs all eight cpus
        block = make_job(900, 222000.0, 6800.0, 8, user=9)
        wide = make_job(901, 225000.0, 1000.0, 8, user=9)
        early = make_job(500, 228800.0, 3600.0, 4, user=2)
        wl = reservation_workload(extra=[block, wide, early])
        fc = ForecasterConfig(
            thresholds=ThresholdState(0.01, 0.02, min_gap=0.005),
            tick=228000.0,
            horizon=14400.0,
        )
        streamed, tel = _replay(_Engine, wl, ClusterConfig(8), "dl", fc)
        assert streamed == _replay(ParentLoopEngine, wl, ClusterConfig(8), "dl", fc)[0]
        (res,) = tel.reservations
        assert res.state is ResState.CONSUMED
        starts = {r.job_id: r.start for r in run(wl, ClusterConfig(8), "dl", fc).records}
        assert starts[500] == 228800.0
        assert starts[901] == 232400.0

    @pytest.mark.parametrize(
        "build, cpus", [(saturated_workload, 24), (backlog_workload, 16)]
    )
    def test_calls_skipped_on_a_full_cluster(self, build, cpus):
        # the heap loop calls the policy whenever jobs are queued; the
        # engine skips the instants with no cpu free, which changes no start
        wl, cluster = build(), ClusterConfig(cpus)
        for token in POLICY_TOKENS:
            fc = ForecasterConfig() if token == "dl" else None
            runs = []
            for engine_class in (ParentLoopEngine, _Engine):
                policy = RecordingPolicy(make_policy(token))
                engine = engine_class(wl, cluster, policy, fc)
                runs.append((trace_to_csv(engine.run()), len(policy.calls)))
            (parent_csv, parent_calls), (csv, n_calls) = runs
            assert csv == parent_csv, token
            skipped = engine.telemetry.policy_calls_skipped
            assert skipped > 0, token
            assert parent_calls - n_calls == skipped, token

    @settings(max_examples=60, deadline=None)
    @given(random_workloads())
    def test_heap_holds_only_the_running_finishes(self, case):
        wl, cluster = case
        for token in ("fcfs", "lcfs", "first-fit"):
            engine = HeapBoundEngine(wl, cluster, make_policy(token), None)
            engine.run()
            assert engine.checks == 2 * len(wl.jobs)
