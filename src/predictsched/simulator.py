"""Deterministic discrete-event simulation of a homogeneous cluster.

Jobs are non-preemptive and the cluster is a single pool of identical
processors.  The engine owns all mutable state: the event heap, the queue,
running allocations, and (when the `dl` policy runs its forecaster) the
reservation book and adaptive confidence thresholds.

Submits stream from the workload, which is already in (submit_time,
job_id) order; the event heap holds only the events the run creates:
finishes, reservation starts and expiries, and the next forecast tick.
Equal-time events process as finish < reservation expiry < submit <
reservation start < forecast tick, so capacity frees before same-instant
demands see it.  Every tie inside a class breaks on workload order (for
submits) or a monotone sequence number, which makes repeated runs
byte-identical.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Collection, Optional, Sequence

import numpy as np

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
)
from .policies import CapacityProfile, Policy, SchedulerView, make_policy
from .simtrace import SimTrace, TraceRecords
from .workload import ClusterConfig, Job, Workload


class SimulationError(RuntimeError):
    """Invariant violation inside a run (policy bug or invalid input)."""


# event kinds in equal-time processing order
_FINISH, _RES_EXPIRE, _SUBMIT, _RES_START, _FORECAST = range(5)
# the heap top the loop compares the next submit with once the heap is empty
_NO_EVENT = (math.inf,)

# a prediction matches arrivals within this fraction of its pattern's
# period of the predicted submit, and never more than 6 h either side
_MATCH_WINDOW_FRAC = 0.25
_MATCH_WINDOW_CAP = 21600.0

# more forecast ticks than this in one run would not finish in useful time
_MAX_FORECAST_TICKS = 1_000_000


class ResState(enum.Enum):
    """Where a Reservation is in its lifecycle (see its docstring)."""

    PENDING = "pending"
    HELD = "held"
    CONSUMED = "consumed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"


# a member looked up through the class costs ~10x a global name on hot paths
_PENDING, _HELD, _CONSUMED, _CANCELLED, _EXPIRED = ResState
_HARD = Decision.HARD_RESERVE


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
        if not (0 < self.tick < math.inf and 0 < self.horizon < math.inf):
            raise ValueError("tick and horizon must be finite and > 0")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode '{self.mode}'; expected one of {MODES}")
        if self.max_layer < 1:
            raise ValueError("max_layer must be >= 1")


@dataclass
class Telemetry:
    """What a run did.  For a forecasting run: every reservation ever made,
    live or ended (the engine's live book drops ended ones), and one
    feedback event per consumed or expired reservation.  For every run: the
    policy calls the engine skipped because no cpu was free."""

    feedback: list[FeedbackEvent] = field(default_factory=list)
    reservations: list[Reservation] = field(default_factory=list)
    final_thresholds: Optional[ThresholdState] = None
    forecast_ticks: int = 0
    reservations_skipped: int = 0  # predictions whose window had no capacity
    policy_calls_skipped: int = 0  # settled instants with jobs queued and no cpu free


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
        # built positionally: dataclasses.replace is several times slower
        scored.append((
            PredictedJob(pred.pattern_id, pred.predicted_submit, pred.cpus, pred.runtime,
                         conf, pred.user_id, pred.steps_ahead),
            pattern,
        ))
    return scored


def match_arrival(
    job: Job,
    active_reservations: Collection[Reservation],
    similarity: SimilarityParams,
) -> Optional[Reservation]:
    """Pick the live reservation this arrival most plausibly fulfils.

    Candidates must match the predicted user (when patterns are per-user;
    a prediction with a negative user id matches any user) and requirements
    within the similarity tolerances, with the submit time inside the
    reservation's match window.  The nearest window center wins.
    active_reservations must come in res_id order; a tie goes to the
    earlier one in that order.  The engine passes only the part of its
    live book that can match (see _Engine._candidates).
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
    """One run: the event loop, the processor accounting and, for `dl`,
    the forecaster's reservation book.

    free_cpus excludes running jobs and hard HELD reservations; soft HELD
    ones are counted apart in soft_held, because they yield to real jobs.
    active_reservations is the live book: only PENDING and HELD
    reservations, keyed by res_id in creation order.  A reservation leaves
    it the moment it ends; Telemetry.reservations keeps the full history.
    Two indexes of the book change only where it does (_consider_prediction
    and _end): by_user, one bucket per prediction user id in res_id order,
    and hard_live, the live hard reservations.  any_user_live counts the
    live ones whose prediction user id is negative.
    queue holds the waiting jobs keyed by job id, in (submit_time, job_id)
    order; running maps job id to the view's row (job, start, estimated
    finish), in start order.  _check_accounting recounts all of it after
    every event.
    """

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
        if forecaster is not None and workload.jobs:
            # the forecast ticks until every job has finished, and no job
            # finishes before its submit time plus its runtime
            ticks = max(j.submit_time + j.runtime for j in workload) / forecaster.tick
            if ticks > _MAX_FORECAST_TICKS:
                raise ValueError(
                    f"a forecast tick of {forecaster.tick:g} s makes more than "
                    f"{_MAX_FORECAST_TICKS:,} ticks over this workload; raise the tick"
                )
        self.workload = workload
        self.cluster = cluster
        self.policy = policy
        self.fc = forecaster
        self.total_cpus = self.free_cpus = cluster.total_cpus
        self.soft_held = 0
        self.running: dict[int, tuple[Job, float, float]] = {}
        self.queue: dict[int, Job] = {}
        self.active_reservations: dict[int, Reservation] = {}
        self.by_user: dict[int, dict[int, Reservation]] = {}
        self.hard_live: dict[int, Reservation] = {}
        self.any_user_live = 0
        self.now = 0.0
        self.events: list[tuple[float, int, int, object]] = []
        self.seq = 0
        self.submits = 0  # workload.jobs[:submits] have been submitted
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

        if forecaster is not None and self.unfinished:
            self._push(forecaster.tick, _FORECAST, None)

    # -- event plumbing -------------------------------------------------

    def _push(self, time: float, kind: int, payload) -> None:
        # kind doubles as the equal-time priority; seq breaks remaining ties
        heapq.heappush(self.events, (time, kind, self.seq, payload))
        self.seq += 1

    def run(self) -> SimTrace:
        # the next submit goes first when its (time, _SUBMIT) is at most the
        # heap top's (time, kind); no heap event is a submit, so equal times
        # keep the kind order.  Equal-time events settle before the policy
        # runs once for the instant: a policy must never plan against a
        # half-freed cluster.  It runs only with a job queued and a cpu
        # free: every job needs a whole cpu, so with none free no call can
        # start one.
        jobs = self.workload.jobs
        n = len(jobs)
        events = self.events
        queue = self.queue
        k = 0
        next_submit = jobs[0].submit_time if n else math.inf
        while k < n or events:
            top = events[0] if events else _NO_EVENT
            if next_submit < top[0] or (next_submit == top[0] and top[1] > _SUBMIT):
                job = jobs[k]
                k += 1
                next_submit = jobs[k].submit_time if k < n else math.inf
                time = self.now = job.submit_time
                self._on_submit(job)
            else:
                time, kind, _seq, payload = heapq.heappop(events)
                self.now = time
                if kind == _FINISH:
                    self._on_finish(payload)
                elif kind == _RES_EXPIRE:
                    self._on_res_expire(payload)
                elif kind == _RES_START:
                    self._on_res_start(payload)
                else:
                    self._on_forecast()
            if (
                self._policy_pending
                and next_submit > time
                and (not events or events[0][0] > time)
            ):
                self._policy_pending = False
                if queue:
                    if self.free_cpus > 0:
                        self._invoke_policy()
                    else:
                        self.telemetry.policy_calls_skipped += 1
            self._check_accounting()
        if self.unfinished:
            raise SimulationError(f"{self.unfinished} jobs never finished")
        self.telemetry.final_thresholds = self.thresholds
        # the trace is columns in workload order; no record object per job
        ids = [j.job_id for j in jobs]
        times = np.array([
            [j.submit_time for j in jobs],
            list(map(self.starts.__getitem__, ids)),
            list(map(self.finishes.__getitem__, ids)),
        ], dtype=np.float64).T
        records = TraceRecords(ids, times, [j.cpus for j in jobs])
        return SimTrace(records, self.cluster, self.policy.name)

    # -- capacity helpers ------------------------------------------------

    def _check_accounting(self) -> None:
        # a full recount after every event: every running job, the whole book
        free, total, soft_held = self.free_cpus, self.total_cpus, self.soft_held
        running = hard = soft = 0
        for row in self.running.values():  # a plain loop beats sum() on a few rows
            running += row[0].cpus
        book = self.active_reservations
        if book:
            for r in book.values():
                if r.state is _HELD:
                    if r.decision is _HARD:
                        hard += r.cpus
                    else:
                        soft += r.cpus
                elif r.state is not _PENDING:
                    raise SimulationError(
                        f"ended reservation {r.res_id} still in the book at t={self.now}"
                    )
        expected_free = total - running - hard
        if free != expected_free or soft != soft_held:
            raise SimulationError(
                f"capacity accounting diverged at t={self.now}: "
                f"free={free} expected={expected_free}"
            )
        if not 0 <= free <= total:
            raise SimulationError(f"free cpus out of range at t={self.now}: {free}")
        if soft_held > free:
            raise SimulationError("soft holds exceed free capacity")

    def _cancel_youngest_soft(self) -> None:
        # the book is in res_id order, so the first soft hold from the end
        # is the youngest
        for res in reversed(self.active_reservations.values()):
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
                self.free_cpus += res.cpus
            else:
                self.soft_held -= res.cpus
        res.state = outcome
        res_id, user_id = res.res_id, res.prediction.user_id
        del self.active_reservations[res_id]
        bucket = self.by_user[user_id]
        del bucket[res_id]
        if not bucket:
            del self.by_user[user_id]
        if user_id < 0:
            self.any_user_live -= 1
        if res.decision is _HARD:
            del self.hard_live[res_id]
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
        now, cpus, job_id = self.now, job.cpus, job.job_id
        if cpus > self.free_cpus:
            raise SimulationError(
                f"start of job {job_id} exceeds capacity "
                f"({cpus} > {self.free_cpus} free)"
            )
        finish = now + job.runtime
        if finish == now:
            raise SimulationError(f"job {job_id}: runtime vanishes at start t={now}")
        while cpus > self.free_cpus - self.soft_held:
            self._cancel_youngest_soft()
        self.queue.pop(job_id, None)
        self.free_cpus -= cpus
        self.running[job_id] = (job, now, now + job.runtime_estimate)
        self.starts[job_id] = now
        heapq.heappush(self.events, (finish, _FINISH, self.seq, job))
        self.seq += 1

    # -- event handlers ---------------------------------------------------

    def _on_submit(self, job: Job) -> None:
        self.submits += 1
        res = None
        if self.fc is not None:
            res = match_arrival(job, self._candidates(job), self.fc.similarity)
            if res is not None:
                self._end(res, _CONSUMED)
        if res is not None and res.holds_capacity and job.cpus <= self.free_cpus:
            self._start_job(job)
        else:
            self.queue[job.job_id] = job
        self._policy_pending = True

    def _candidates(self, job: Job) -> Collection[Reservation]:
        """The part of the live book, in res_id order, that can match the
        arrival: its user's bucket, or the whole book when patterns span
        users or a prediction of any user (negative user id) is live."""
        if self.any_user_live or not self.fc.similarity.same_user:
            return self.active_reservations.values()
        bucket = self.by_user.get(job.user_id)
        return bucket.values() if bucket else ()

    def _on_finish(self, job: Job) -> None:
        del self.running[job.job_id]
        self.free_cpus += job.cpus
        self.finishes[job.job_id] = self.now
        self.unfinished -= 1
        self._policy_pending = True

    def _on_res_start(self, res: Reservation) -> None:
        if res.state is not _PENDING:
            return
        if res.cpus > self.free_cpus - self.soft_held:
            # capacity promised at creation no longer exists (runtime
            # underestimates); the hold cannot be established
            self._end(res, _CANCELLED)
            return
        res.state = _HELD
        if res.hard:
            self.free_cpus -= res.cpus
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
        if self.telemetry.forecast_ticks > _MAX_FORECAST_TICKS:
            # the check in __init__ cannot see finishes that a queue delays
            raise ValueError(
                f"a forecast tick of {fc.tick:g} s made more than "
                f"{_MAX_FORECAST_TICKS:,} ticks before the last job finished; raise the tick"
            )
        if self.submits >= 2:
            self.miner.add(self.workload.jobs[self.mined : self.submits])
            self.mined = self.submits
            patterns = self.miner.patterns()
            if patterns:
                scored = score_predictions(
                    patterns, self.now, fc.horizon, fc.similarity, fc.mode
                )
                # within the tick only the reservations it admits change the
                # capacity, so one profile from now serves every prediction
                profile = self._admission_profile(self.now) if scored else None
                for pred, pattern in scored:
                    self._consider_prediction(pred, pattern, profile)
        if self.unfinished:
            self._push(self.now + fc.tick, _FORECAST, None)

    def _consider_prediction(
        self, pred: PredictedJob, pattern: Pattern, profile: CapacityProfile
    ) -> None:
        width = min(_MATCH_WINDOW_FRAC * pattern.period, _MATCH_WINDOW_CAP)
        if self._duplicate_reservation(pred, width):
            return
        decision = decide(pred.confidence, self.thresholds)
        window_start = max(self.now, pred.predicted_submit - width)
        window_end = pred.predicted_submit + width
        # an admitted window is carved into the tick's one profile at once
        if decision is not Decision.IGNORE and not profile.hold_if_free(
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
        self.active_reservations[res.res_id] = res
        self.by_user.setdefault(pred.user_id, {})[res.res_id] = res
        if pred.user_id < 0:
            self.any_user_live += 1
        if decision is _HARD:
            self.hard_live[res.res_id] = res
        self.telemetry.reservations.append(res)
        if res.holds_capacity:
            self._push(window_start, _RES_START, res)
        self._push(window_end, _RES_EXPIRE, res)

    def _duplicate_reservation(self, pred: PredictedJob, width: float) -> bool:
        # a duplicate has the prediction's own user id, so only its bucket
        for res in self.by_user.get(pred.user_id, {}).values():
            p = res.prediction
            if not reqs_match(
                pred.cpus, p.cpus, pred.runtime, p.runtime, self.fc.similarity
            ):
                continue
            if abs(p.predicted_submit - pred.predicted_submit) <= max(
                width, res.match_width
            ):
                return True
        return False

    def _admission_profile(self, t0: float) -> CapacityProfile:
        """Free cpus from t0 on, which is not before now: running jobs until
        their estimated finishes and the live capacity-holding reservations
        over their windows.  Queued jobs are left out, since planner policies
        route around blocks, and an overdue estimate holds nothing."""
        deltas: dict[float, int] = {}
        for job, _start, fin in self.running.values():
            if fin > t0:
                deltas[t0] = deltas.get(t0, 0) - job.cpus
                deltas[fin] = deltas.get(fin, 0) + job.cpus
        for res in self.active_reservations.values():
            if res.holds_capacity and res.window_end > t0:
                start = max(res.window_start, t0)
                deltas[start] = deltas.get(start, 0) - res.cpus
                deltas[res.window_end] = deltas.get(res.window_end, 0) + res.cpus
        # the loads that begin at t0 are taken into the first level
        return CapacityProfile(t0, self.total_cpus + deltas.get(t0, 0), deltas)

    # -- policy dispatch ----------------------------------------------------

    def _invoke_policy(self) -> None:
        # the queue and the running rows are kept in the view's order, so
        # the view is two tuple copies
        queue = self.queue
        view = SchedulerView(
            self.now,
            self.total_cpus,
            self.free_cpus,
            tuple(queue.values()),
            tuple(self.running.values()),
            self._hard_windows() if self.hard_live else (),
        )
        for job in self.policy.select(view):
            if job.job_id not in queue:
                raise SimulationError(
                    f"policy {self.policy.name} started job {job.job_id} "
                    "which is not queued"
                )
            self._start_job(job)

    def _hard_windows(self):
        # from the hard index, so a call with none live scans nothing
        rows = [(r.window_start, r.window_end, r.cpus) for r in self.hard_live.values()]
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
    """Simulate and also return reservation/feedback telemetry.

    The forecaster runs only for a policy named `dl`, with ForecasterConfig()
    when none is given; a config given with any other policy is an error.
    """
    if isinstance(policy, str):
        policy = make_policy(policy)
    if policy.name != "dl":
        if forecaster is not None:
            raise ValueError(f"a forecaster config needs the dl policy, got {policy.name}")
    elif forecaster is None:
        forecaster = ForecasterConfig()
    engine = _Engine(workload, cluster, policy, forecaster)
    trace = engine.run()
    return trace, engine.telemetry
