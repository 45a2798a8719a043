"""Deterministic discrete-event simulation of a homogeneous cluster.

Jobs are non-preemptive and the cluster is a single pool of identical
processors.  The engine owns all mutable state: the event heap, the queue,
running allocations, and (when a forecaster configuration is supplied) the
reservation book and adaptive confidence thresholds.

Equal-time events process as finish < reservation expiry < submit <
reservation start < forecast tick, so capacity frees before same-instant
demands see it.  Every tie inside a class breaks on a monotone sequence
number, which makes repeated runs byte-identical.
"""

from __future__ import annotations

import bisect
import enum
import heapq
from dataclasses import dataclass, field
from typing import Collection, Optional, Sequence

from .confidence import (
    MODES,
    Decision,
    FeedbackEvent,
    ThresholdState,
    confidence_factor,
    decide,
    group_patterns,
    groups_by_pattern,
    update_thresholds,
)
from .patterns import (
    Pattern,
    PatternMiner,
    PredictedJob,
    SimilarityParams,
    mine_patterns,  # noqa: F401  not called here; benchmarks/tracing.py wraps this name
    prolong,
    reqs_match,
    with_confidence,
)
from .policies import CapacityProfile, Policy, SchedulerView, make_policy
from .simtrace import SimTrace, TraceRecord
from .workload import ClusterConfig, Job, Workload


class SimulationError(RuntimeError):
    """Invariant violation inside a run (policy bug or invalid input)."""


# event kinds in equal-time processing order
_FINISH, _RES_EXPIRE, _SUBMIT, _RES_START, _FORECAST = range(5)

# a prediction matches arrivals within this fraction of its pattern's
# period of the predicted submit, and never more than 6 h either side
_MATCH_WINDOW_FRAC = 0.25
_MATCH_WINDOW_CAP = 21600.0


class ResState(enum.Enum):
    """Where a Reservation is in its lifecycle (see its docstring)."""

    PENDING = "pending"
    HELD = "held"
    CONSUMED = "consumed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"


# a member looked up through the class costs ~10x a global name on hot paths
_PENDING, _HELD, _CONSUMED, _CANCELLED, _EXPIRED = ResState


@dataclass
class Reservation:
    """Capacity held (or merely tracked, for ignored predictions) for a forecast.

    decision selects the behaviour: hard reservations hold capacity for
    their whole window and cannot be displaced; soft ones hold capacity but
    yield to real jobs; ignored predictions hold nothing and exist only so
    their outcome can feed threshold adaptation.

    state runs PENDING -> HELD -> one of CONSUMED, CANCELLED or EXPIRED; a
    capacity-holding reservation becomes HELD when its window opens, an
    ignored one stays PENDING.  It ends exactly once, through the engine's
    one exit `_end`: CONSUMED when an arrival matches it, EXPIRED when its
    window closes unmatched (both feed back one outcome), or CANCELLED, with
    no feedback, when its hold cannot be established or yields to a job.
    """

    res_id: int
    prediction: PredictedJob
    cpus: int
    window_start: float
    window_end: float
    decision: Decision
    match_width: float
    state: ResState = _PENDING

    @property
    def hard(self) -> bool:
        return self.decision is Decision.HARD_RESERVE

    @property
    def holds_capacity(self) -> bool:
        return self.decision is not Decision.IGNORE

    @property
    def live(self) -> bool:
        return self.state is _PENDING or self.state is _HELD

    @property
    def consumed(self) -> bool:
        return self.state is _CONSUMED


@dataclass
class ClusterState:
    """Instantaneous processor accounting; free_cpus excludes hard holds.

    active_reservations is the live book: only PENDING and HELD
    reservations, keyed by res_id in creation order.  A reservation leaves
    it the moment it ends; Telemetry.reservations keeps the full history.
    Hard HELD reservations are subtracted from free_cpus; soft ones are
    counted apart (the engine's soft_held) because they yield to real jobs.
    queue holds the waiting jobs keyed by job id, in (submit_time, job_id)
    order; running maps job id to the view's row (job, start, estimated
    finish), in start order.
    """

    total_cpus: int
    free_cpus: int
    running: dict[int, tuple[Job, float, float]] = field(default_factory=dict)
    active_reservations: dict[int, Reservation] = field(default_factory=dict)
    queue: dict[int, Job] = field(default_factory=dict)


@dataclass(frozen=True)
class ForecasterConfig:
    """Settings of the `dl` forecaster.  Every tick it mines the submitted
    jobs, prolongs the patterns over horizon and scores each prediction;
    thresholds turn the scores into reservations that go PENDING -> HELD ->
    CONSUMED, CANCELLED or EXPIRED, ended only by the engine's `_end`."""

    similarity: SimilarityParams = SimilarityParams()
    thresholds: ThresholdState = ThresholdState()
    mode: str = "survival"
    tick: float = 86400.0
    horizon: float = 86400.0
    max_layer: int = 3

    def __post_init__(self):
        if self.tick <= 0 or self.horizon <= 0:
            raise ValueError("tick and horizon must be > 0")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode '{self.mode}'; expected one of {MODES}")


@dataclass
class Telemetry:
    """What a forecasting run did: every reservation ever made, live or
    ended (the engine's live book drops ended ones), and one feedback event
    per consumed or expired reservation."""

    feedback: list[FeedbackEvent] = field(default_factory=list)
    reservations: list[Reservation] = field(default_factory=list)
    final_thresholds: Optional[ThresholdState] = None
    forecast_ticks: int = 0
    reservations_skipped: int = 0  # predictions whose window had no capacity


def score_predictions(
    patterns: Sequence[Pattern],
    now: float,
    horizon: float,
    similarity: SimilarityParams,
    mode: str,
) -> list[tuple[PredictedJob, Pattern]]:
    """Prolong the patterns over (now, now + horizon] and score each
    prediction against its pattern's cohort; (scored prediction, pattern)
    pairs in prolong order.  prolong, group_patterns and confidence_factor
    are looked up here at call time because benchmarks/tracing.py wraps them.
    """
    preds = prolong(patterns, now, horizon)
    if not preds:
        return []
    group_of = groups_by_pattern(group_patterns(patterns, similarity))
    by_id = {p.pattern_id: p for p in patterns}
    scored = []
    for pred in preds:
        pattern = by_id[pred.pattern_id]
        conf = confidence_factor(
            pattern.length + pred.steps_ahead, group_of[pred.pattern_id], mode
        )
        scored.append((with_confidence(pred, conf), pattern))
    return scored


def match_arrival(
    job: Job,
    active_reservations: Collection[Reservation],
    similarity: SimilarityParams,
) -> Optional[Reservation]:
    """Pick the live reservation this arrival most plausibly fulfils.

    Candidates must match the predicted user (when patterns are per-user)
    and requirements within the similarity tolerances, with the submit time
    inside the reservation's match window.  The nearest window center wins.
    active_reservations must come in res_id order, as the engine's live
    book does; a tie goes to the earlier one in that order.
    """
    best: Optional[Reservation] = None
    best_d = 0.0
    for res in active_reservations:
        if not res.live:
            continue
        p = res.prediction
        if similarity.same_user and p.user_id >= 0 and p.user_id != job.user_id:
            continue
        if not reqs_match(job.cpus, p.cpus, job.runtime, p.runtime, similarity):
            continue
        d = abs(job.submit_time - p.predicted_submit)
        if d > res.match_width:
            continue
        if best is None or d < best_d:
            best, best_d = res, d
    return best


class _Engine:
    def __init__(
        self,
        workload: Workload,
        cluster: ClusterConfig,
        policy: Policy,
        forecaster: Optional[ForecasterConfig],
    ):
        for job in workload:
            if job.cpus > cluster.total_cpus:
                raise SimulationError(
                    f"job {job.job_id} requests {job.cpus} cpus, "
                    f"cluster has {cluster.total_cpus}"
                )
        self.workload = workload
        self.cluster = cluster
        self.policy = policy
        self.fc = forecaster
        self.state = ClusterState(
            total_cpus=cluster.total_cpus, free_cpus=cluster.total_cpus
        )
        self.soft_held = 0
        self.now = 0.0
        self.events: list[tuple[float, int, int, object]] = []
        self.seq = 0
        self.submitted: list[Job] = []
        self.starts: dict[int, float] = {}
        self.finishes: dict[int, float] = {}
        self.thresholds = forecaster.thresholds if forecaster else ThresholdState()
        # the forecaster mines the submitted prefix incrementally: each tick
        # adds only the jobs submitted since the previous one
        self.miner = (
            PatternMiner(forecaster.similarity, forecaster.max_layer)
            if forecaster
            else None
        )
        self.mined = 0
        self.telemetry = Telemetry()
        self.next_res_id = 0
        self.unfinished = len(workload.jobs)
        self._policy_pending = False

        for job in workload:
            self._push(job.submit_time, _SUBMIT, job)
        if forecaster is not None and self.unfinished:
            self._push(forecaster.tick, _FORECAST, None)

    # -- event plumbing -------------------------------------------------

    def _push(self, time: float, kind: int, payload) -> None:
        # kind doubles as the equal-time priority; seq breaks remaining ties
        heapq.heappush(self.events, (time, kind, self.seq, payload))
        self.seq += 1

    def run(self) -> SimTrace:
        # equal-time events settle before the policy runs once for the
        # instant; a policy must never plan against a half-freed cluster
        while self.events:
            time, kind, _seq, payload = heapq.heappop(self.events)
            self.now = time
            if kind == _FINISH:
                self._on_finish(payload)
            elif kind == _RES_EXPIRE:
                self._on_res_expire(payload)
            elif kind == _SUBMIT:
                self._on_submit(payload)
            elif kind == _RES_START:
                self._on_res_start(payload)
            else:
                self._on_forecast()
            if self._policy_pending and (
                not self.events or self.events[0][0] > time
            ):
                self._policy_pending = False
                self._invoke_policy()
            self._check_accounting()
        if self.unfinished:
            raise SimulationError(f"{self.unfinished} jobs never finished")
        self.telemetry.final_thresholds = self.thresholds
        records = tuple(
            TraceRecord(
                job_id=j.job_id,
                submit=j.submit_time,
                start=self.starts[j.job_id],
                finish=self.finishes[j.job_id],
                cpus=j.cpus,
            )
            for j in self.workload
        )
        return SimTrace(
            records=records, cluster=self.cluster, policy_name=self.policy.name
        )

    # -- capacity helpers ------------------------------------------------

    def _check_accounting(self) -> None:
        running = sum(job.cpus for job, _s, _e in self.state.running.values())
        hard = soft = 0
        for r in self.state.active_reservations.values():
            if r.state is _HELD:
                if r.hard:
                    hard += r.cpus
                else:
                    soft += r.cpus
            elif r.state is not _PENDING:
                raise SimulationError(
                    f"ended reservation {r.res_id} still in the book at t={self.now}"
                )
        expected_free = self.state.total_cpus - running - hard
        if self.state.free_cpus != expected_free or soft != self.soft_held:
            raise SimulationError(
                f"capacity accounting diverged at t={self.now}: "
                f"free={self.state.free_cpus} expected={expected_free}"
            )
        if not 0 <= self.state.free_cpus <= self.state.total_cpus:
            raise SimulationError(
                f"free cpus out of range at t={self.now}: {self.state.free_cpus}"
            )
        if self.soft_held > self.state.free_cpus:
            raise SimulationError("soft holds exceed free capacity")

    def _cancel_youngest_soft(self) -> None:
        # the book is in res_id order, so the first soft hold from the end
        # is the youngest
        for res in reversed(self.state.active_reservations.values()):
            if res.state is _HELD and res.decision is Decision.SOFT_RESERVE:
                break
        else:
            raise SimulationError("soft release requested with no soft holds")
        self._end(res, _CANCELLED)

    def _end(self, res: Reservation, outcome: ResState) -> None:
        """The one exit of a reservation: release its hold, drop it from the
        live book, and feed the outcome back unless it was cancelled."""
        if res.state is _HELD:
            if res.hard:
                self.state.free_cpus += res.cpus
            else:
                self.soft_held -= res.cpus
        res.state = outcome
        del self.state.active_reservations[res.res_id]
        if outcome is _CANCELLED:
            return
        came_true = outcome is _CONSUMED
        event = FeedbackEvent(
            prediction=res.prediction,
            came_true=came_true,
            observed_time=self.now,
            decision=res.decision,
        )
        self.telemetry.feedback.append(event)
        self.thresholds = update_thresholds(
            self.thresholds, came_true, res.prediction.confidence
        )

    def _start_job(self, job: Job) -> None:
        if job.cpus > self.state.free_cpus:
            raise SimulationError(
                f"start of job {job.job_id} exceeds capacity "
                f"({job.cpus} > {self.state.free_cpus} free)"
            )
        finish = self.now + job.runtime
        if finish == self.now:
            raise SimulationError(f"job {job.job_id}: runtime vanishes at start t={self.now}")
        while job.cpus > self.state.free_cpus - self.soft_held:
            self._cancel_youngest_soft()
        self.state.queue.pop(job.job_id, None)
        self.state.free_cpus -= job.cpus
        self.state.running[job.job_id] = (job, self.now, self.now + job.runtime_estimate)
        self.starts[job.job_id] = self.now
        self._push(finish, _FINISH, job)

    # -- event handlers ---------------------------------------------------

    def _on_submit(self, job: Job) -> None:
        self.submitted.append(job)
        res = None
        if self.fc is not None:
            res = match_arrival(
                job, self.state.active_reservations.values(), self.fc.similarity
            )
            if res is not None:
                self._end(res, _CONSUMED)
        if res is not None and res.holds_capacity and job.cpus <= self.state.free_cpus:
            self._start_job(job)
        else:
            self.state.queue[job.job_id] = job
        self._policy_pending = True

    def _on_finish(self, job: Job) -> None:
        del self.state.running[job.job_id]
        self.state.free_cpus += job.cpus
        self.finishes[job.job_id] = self.now
        self.unfinished -= 1
        self._policy_pending = True

    def _on_res_start(self, res: Reservation) -> None:
        if res.state is not _PENDING:
            return
        if res.cpus > self.state.free_cpus - self.soft_held:
            # capacity promised at creation no longer exists (runtime
            # underestimates); the hold cannot be established
            self._end(res, _CANCELLED)
            return
        res.state = _HELD
        if res.hard:
            self.state.free_cpus -= res.cpus
        else:
            self.soft_held += res.cpus

    def _on_res_expire(self, res: Reservation) -> None:
        if not res.live:
            return
        self._end(res, _EXPIRED)
        self._policy_pending = True

    # -- forecasting -------------------------------------------------------

    def _on_forecast(self) -> None:
        self.telemetry.forecast_ticks += 1
        fc = self.fc
        if len(self.submitted) >= 2:
            self.miner.add(self.submitted[self.mined :])
            self.mined = len(self.submitted)
            patterns = self.miner.patterns()
            if patterns:
                for pred, pattern in score_predictions(
                    patterns, self.now, fc.horizon, fc.similarity, fc.mode
                ):
                    self._consider_prediction(pred, pattern)
        if self.unfinished:
            self._push(self.now + fc.tick, _FORECAST, None)

    def _consider_prediction(self, pred: PredictedJob, pattern: Pattern) -> None:
        width = min(_MATCH_WINDOW_FRAC * pattern.period, _MATCH_WINDOW_CAP)
        if self._duplicate_reservation(pred, width):
            return
        decision = decide(pred.confidence, self.thresholds)
        window_start = max(self.now, pred.predicted_submit - width)
        window_end = pred.predicted_submit + width
        if decision is not Decision.IGNORE and not self._window_feasible(
            window_start, window_end, pred.cpus
        ):
            self.telemetry.reservations_skipped += 1
            return
        res = Reservation(
            res_id=self.next_res_id,
            prediction=pred,
            cpus=pred.cpus,
            window_start=window_start,
            window_end=window_end,
            decision=decision,
            match_width=width,
        )
        self.next_res_id += 1
        self.state.active_reservations[res.res_id] = res
        self.telemetry.reservations.append(res)
        if res.holds_capacity:
            self._push(window_start, _RES_START, res)
        self._push(window_end, _RES_EXPIRE, res)

    def _duplicate_reservation(self, pred: PredictedJob, width: float) -> bool:
        for res in self.state.active_reservations.values():
            p = res.prediction
            if p.user_id != pred.user_id:
                continue
            if not reqs_match(
                pred.cpus, p.cpus, pred.runtime, p.runtime, self.fc.similarity
            ):
                continue
            if abs(p.predicted_submit - pred.predicted_submit) <= max(
                width, res.match_width
            ):
                return True
        return False

    def _window_feasible(self, ws: float, we: float, cpus: int) -> bool:
        """Would holding `cpus` through [ws, we) ever exceed the cluster?

        Projects running jobs at their estimated finishes plus the live
        capacity-holding reservations onto a capacity profile from ws;
        queued jobs are ignored since planner policies route around blocks.
        ws is not before now, so an overdue estimate holds nothing.
        """
        running = self.state.running.values()
        loads = [(ws, fin, job.cpus) for job, _start, fin in running if fin > ws]
        for res in self.state.active_reservations.values():
            if res.holds_capacity and res.window_end > ws and res.window_start < we:
                loads.append((max(res.window_start, ws), res.window_end, res.cpus))
        deltas: dict[float, int] = {}
        for t0, t1, held in loads:
            deltas[t0] = deltas.get(t0, 0) - held
            deltas[t1] = deltas.get(t1, 0) + held
        # the profile starts at ws, where the loads that begin there are taken
        profile = CapacityProfile(ws, self.state.total_cpus + deltas.get(ws, 0), deltas)
        steps = bisect.bisect_left(profile.times, we)  # the steps that start before we
        return min(profile.free[:steps], default=cpus) >= cpus

    # -- policy dispatch ----------------------------------------------------

    def _invoke_policy(self) -> None:
        # the queue and the running rows are kept in the view's order, so
        # the view is two tuple copies; an empty queue has nothing to decide
        state = self.state
        if not state.queue:
            return
        view = SchedulerView(
            now=self.now,
            total_cpus=state.total_cpus,
            free_cpus=state.free_cpus,
            queue=tuple(state.queue.values()),
            running=tuple(state.running.values()),
            hard_windows=self._hard_windows() if self.fc is not None else (),
        )
        for job in self.policy.select(view):
            if job.job_id not in state.queue:
                raise SimulationError(
                    f"policy {self.policy.name} started job {job.job_id} "
                    "which is not queued"
                )
            self._start_job(job)

    def _hard_windows(self):
        rows = []
        for res in self.state.active_reservations.values():
            if res.decision is Decision.HARD_RESERVE:
                start = self.now if res.state is _HELD else res.window_start
                rows.append((start, res.window_end, res.cpus))
        return tuple(sorted(rows))


def run(
    workload: Workload,
    cluster: ClusterConfig,
    policy: Policy | str,
    forecaster: Optional[ForecasterConfig] = None,
) -> SimTrace:
    """Simulate the workload under one policy and return the trace."""
    trace, _telemetry = run_with_telemetry(workload, cluster, policy, forecaster)
    return trace


def run_with_telemetry(
    workload: Workload,
    cluster: ClusterConfig,
    policy: Policy | str,
    forecaster: Optional[ForecasterConfig] = None,
) -> tuple[SimTrace, Telemetry]:
    """Simulate and also return reservation/feedback telemetry."""
    if isinstance(policy, str):
        policy = make_policy(policy)
    engine = _Engine(workload, cluster, policy, forecaster)
    trace = engine.run()
    return trace, engine.telemetry
