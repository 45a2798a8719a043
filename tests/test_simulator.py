import pytest
from hypothesis import given, settings, strategies as st

from predictsched import (
    ClusterConfig,
    Decision,
    ForecasterConfig,
    PolicyKind,
    PredictedJob,
    SimilarityParams,
    SimulationError,
    SynthSpec,
    SynthTemplate,
    ThresholdState,
    make_policy,
    run,
    run_with_telemetry,
    synth_workload,
    trace_to_csv,
)
from predictsched.policies import Policy
from predictsched.simulator import Reservation, ResState, _Engine, match_arrival

from conftest import (
    backlog_workload,
    capacity_breaches,
    enumerate_instances,
    lifecycle_workload,
    make_job,
    make_workload,
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

    def test_consumed_reservation_ignored(self):
        res = self.make_res(0, 259200.0)
        res.state = ResState.CONSUMED
        job = make_job(1, 259200.0, 3600, 4, user=1)
        assert match_arrival(job, [res], SimilarityParams()) is None


class TestReservationScenarios:
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
    reservations, in res_id order."""

    checks = 0

    def _check_accounting(self):
        super()._check_accounting()
        live = [r for r in self.telemetry.reservations if r.live]
        book = self.state.active_reservations
        assert list(book) == [r.res_id for r in live]
        assert all(book[r.res_id] is r for r in live)
        self.checks += 1


class TestLiveBook:
    def test_book_holds_exactly_the_live_reservations(self):
        fc = ForecasterConfig(thresholds=ThresholdState(0.05, 0.1, min_gap=0.05))
        engine = BookCheckingEngine(
            weekly_workload(), ClusterConfig(16), make_policy("dl"), fc
        )
        engine.run()
        assert engine.checks > 0
        assert engine.state.active_reservations == {}
        history = engine.telemetry.reservations
        assert [r.res_id for r in history] == list(range(engine.next_res_id))
        # every way out of the book is exercised
        assert {r.state for r in history} == {
            ResState.CONSUMED, ResState.EXPIRED, ResState.CANCELLED
        }
        assert any(r.hard for r in history)


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
        for kind in PolicyKind:
            policy = RecordingPolicy(make_policy(kind))
            forecaster = fc if kind is PolicyKind.DL_PREDICTIVE else None
            trace = run(wl, ClusterConfig(16), policy, forecaster)
            # start sequence: at one instant, jobs matched to a reservation
            # on submit (in submit order) start before those a policy starts
            rank = {}
            for _view, starts in policy.calls:
                rank.update((job.job_id, len(rank)) for job in starts)
            for view, starts in policy.calls:
                now = view.now
                assert view.queue, kind
                keys = [(j.submit_time, j.job_id) for j in view.queue]
                assert keys == sorted(keys), kind
                started_now = {j.job_id for j in starts}
                assert {j.job_id for j in view.queue} == {
                    r.job_id for r in trace.records
                    if r.submit <= now < r.start or r.job_id in started_now
                }, kind
                running = sorted(
                    (r for r in trace.records
                     if r.start <= now < r.finish and r.job_id not in started_now),
                    key=lambda r: (r.start, rank.get(r.job_id, -1), r.job_id),
                )
                assert view.running == tuple(
                    (jobs[r.job_id], r.start, r.start + jobs[r.job_id].runtime_estimate)
                    for r in running
                ), kind
            assert policy.calls, kind


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
    kept as the reference for _Engine._window_feasible."""
    points = {ws}
    loads = []
    for job, _start, est_finish in engine.state.running.values():
        fin = max(est_finish, engine.now)
        if fin > ws:
            loads.append((ws, fin, job.cpus))
    for res in engine.state.active_reservations.values():
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
        if busy + cpus > engine.state.total_cpus:
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
        engine.state.running[i] = (make_job(i + 1, start, 1.0, cpus), start, est_finish)
    for res_id in range(draw(st.integers(0, 6))):
        state = draw(st.sampled_from([ResState.PENDING, ResState.HELD]))
        # a HELD window has opened; a PENDING one opens now or later
        ws_r = now - draw(_t) if state is ResState.HELD else now + draw(_t)
        we_r = ws_r + draw(_t)
        pred = PredictedJob(pattern_id=res_id, predicted_submit=ws_r, cpus=1, runtime=1.0)
        engine.state.active_reservations[res_id] = Reservation(
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
        assert engine._window_feasible(ws, we, cpus) == sweep_window_feasible(
            engine, ws, we, cpus
        )
