"""The scheduling policies compared by the simulator.

Queue-based policies look only at the current queue and free processors.
Planner policies (backfilling, gap placement, predictive) maintain a
piecewise-constant capacity profile built from the estimated finish times
of running jobs, plus any hard reservation windows the engine passes in.

Planning always uses the user's runtime estimate; the engine fires actual
finishes, which re-invokes the policy, so early completions are exploited
immediately.  The planners keep their plan between calls and reuse it only
while the fresh profile shows that it still holds (see Planner).
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from typing import Optional

from .workload import Job


class PolicyKind(enum.Enum):
    FCFS = "fcfs"
    LCFS = "lcfs"
    SHORTEST_JF = "sjf"
    SMALLEST_JF = "smjf"
    EDF = "edf"
    FIRST_FIT = "first-fit"
    CONSERVATIVE_BF = "cons-bf"
    EASY_BF = "easy-bf"
    ESG = "esg"
    BEST_GAP = "best-gap"
    DL_PREDICTIVE = "dl"


@dataclass(frozen=True)
class SchedulerView:
    """Immutable snapshot handed to a policy at each scheduling point.

    queue is never empty (the engine does not call a policy with nothing to
    decide) and is in (submit_time, job_id) order.  running is in start
    order, jobs started at the same instant in the order they started.
    free_cpus excludes running jobs and in-window hard reservation holds.
    hard_windows carries (start, end, cpus) for live hard reservations; a
    start at or before now means the hold is already counted in free_cpus.
    """

    now: float
    total_cpus: int
    free_cpus: int
    queue: tuple[Job, ...]
    running: tuple[tuple[Job, float, float], ...]  # (job, start, estimated finish)
    hard_windows: tuple[tuple[float, float, int], ...] = ()


class CapacityProfile:
    """Free processors as a step function of time, from now onward.

    free[i] holds on [times[i], times[i + 1]); the last segment extends to
    infinity.  reserve() carves a job (or a reservation window) out of the
    profile; fit queries never mutate.  The loops below rely on two
    invariants: times[0] == now, because nothing is added at or before it,
    and times is strictly increasing, so the step after index j is j + 1.
    Neighbouring steps may share a level; segments() merges them.
    """

    def __init__(self, now: float, free_now: float, deltas: dict[float, float]):
        self.times: list[float] = [now]
        self.free: list[float] = [float(free_now)]
        level = float(free_now)
        for t in sorted(deltas):
            if t <= now:
                continue
            level += deltas[t]
            self.times.append(t)
            self.free.append(level)

    @classmethod
    def from_view(cls, view: SchedulerView) -> "CapacityProfile":
        deltas: dict[float, float] = {}
        for _job, _start, est_finish in view.running:
            # overdue estimates release nothing; the real finish event replans
            if est_finish > view.now:
                deltas[est_finish] = deltas.get(est_finish, 0.0) + _job.cpus
        for ws, we, cpus in view.hard_windows:
            if we <= view.now:
                continue
            if ws > view.now:
                deltas[ws] = deltas.get(ws, 0.0) - cpus
            deltas[we] = deltas.get(we, 0.0) + cpus
        return cls(view.now, view.free_cpus, deltas)

    def _seg_index(self, t: float) -> int:
        return bisect.bisect_right(self.times, t) - 1

    def copy(self) -> "CapacityProfile":
        other = CapacityProfile.__new__(CapacityProfile)
        other.times, other.free = self.times[:], self.free[:]
        return other

    def advance(self, now: float) -> None:
        """Drop the steps that end at or before now, which is not before
        times[0]; the profile then starts at now."""
        i = self._seg_index(now)
        if i:
            del self.times[:i], self.free[:i]
        self.times[0] = now

    def fits(self, start: float, duration: float, cpus: int) -> bool:
        i = self._seg_index(start)
        end = start + duration
        while True:
            if self.free[i] < cpus:
                return False
            i += 1
            if i >= len(self.times) or self.times[i] >= end:
                return True

    def earliest_fit(self, cpus: int, duration: float, ready: float) -> Optional[float]:
        times, free = self.times, self.free
        n = len(times)
        cand = max(ready, times[0])
        i = self._seg_index(cand)
        while True:
            end = cand + duration
            j = i
            while free[j] >= cpus:
                j += 1
                if j >= n or times[j] >= end:
                    return cand
            # restart after the violating step
            i = j + 1
            if i >= n:
                return None  # blocked by capacity that never releases in-profile
            cand = times[i]

    def reserve(self, start: float, duration: float, cpus: int) -> None:
        end = start + duration
        i = self._split(start)
        free = self.free
        for k in range(i, self._split(end)):
            free[k] -= cpus

    def _split(self, t: float) -> int:
        """Make t a step time, unless it is at or before now or infinite,
        and return the index of the first step at or after t."""
        times = self.times
        i = bisect.bisect_left(times, t)
        if i == 0 or (i < len(times) and times[i] == t) or math.isinf(t):
            return i
        times.insert(i, t)
        self.free.insert(i, self.free[i - 1])
        return i

    def segments(self) -> list[tuple[float, float, float]]:
        """Maximal constant-level (start, end, free) runs; the last end is inf."""
        out: list[tuple[float, float, float]] = []
        for i, t in enumerate(self.times):
            end = self.times[i + 1] if i + 1 < len(self.times) else math.inf
            if out and out[-1][2] == self.free[i]:
                out[-1] = (out[-1][0], end, self.free[i])
            else:
                out.append((t, end, self.free[i]))
        return out


class Policy:
    """Base: select() returns the queued jobs to start right now."""

    name = "policy"

    def select(self, view: SchedulerView) -> list[Job]:
        raise NotImplementedError


class OrderedQueuePolicy(Policy):
    """Start jobs strictly in a sort order; stop at the first one that is blocked.

    A subclass sets order_key(job); None keeps the view's queue order.
    """

    order_key = None

    def select(self, view: SchedulerView) -> list[Job]:
        free = view.free_cpus
        starts: list[Job] = []
        queue = view.queue
        for job in queue if self.order_key is None else sorted(queue, key=self.order_key):
            if job.cpus > free:
                break
            starts.append(job)
            free -= job.cpus
        return starts


class Fcfs(OrderedQueuePolicy):
    # the view's queue is already in (submit_time, job_id) order
    name = "fcfs"


class Lcfs(OrderedQueuePolicy):
    name = "lcfs"

    def order_key(self, job: Job):
        return (-job.submit_time, job.job_id)


class ShortestJobFirst(OrderedQueuePolicy):
    name = "sjf"

    def order_key(self, job: Job):
        return (job.runtime_estimate, job.submit_time, job.job_id)


class SmallestJobFirst(OrderedQueuePolicy):
    name = "smjf"

    def order_key(self, job: Job):
        return (job.cpus, job.submit_time, job.job_id)


class EarliestDeadlineFirst(OrderedQueuePolicy):
    # jobs without a deadline fall back to submit time, so deadline-free
    # workloads reproduce FCFS exactly
    name = "edf"

    def order_key(self, job: Job):
        key = job.deadline if job.deadline is not None else job.submit_time
        return (key, job.submit_time, job.job_id)


class FirstFit(Policy):
    """Scan the queue in submit order and start everything that fits."""

    name = "first-fit"

    def select(self, view: SchedulerView) -> list[Job]:
        free = view.free_cpus
        starts: list[Job] = []
        for job in view.queue:
            if job.cpus <= free:
                starts.append(job)
                free -= job.cpus
        return starts


class Planner(Policy):
    """Plans the whole queue in order on a capacity profile and starts the
    jobs planned for now.  _place(profile, job) gives a job's start, or
    None when it fits nowhere; last_placements maps each job placed at the
    last call to its start.

    The plan outlives the call.  The next call places only the jobs that
    joined the queue, on the kept plan profile, if all of these hold:
      1. now is not before the kept call;
      2. the queue starts with the jobs that call left waiting, in order;
      3. the fresh profile has exactly the steps of that call's fresh profile,
         with the jobs it started carved out, advanced to now;
      4. no kept placement is before now.
    Otherwise it plans afresh, which is the same loop with nothing kept.
    Reuse is exact: a placement is the earliest suitable start at or after
    now, so with the profile from now on unchanged each waiting job gets its
    kept start back, and a job started from behind a waiting one was placed
    around it.  A finish off its estimate, a lapsed estimate or a new hard
    window changes the fresh profile.  A call that leaves fewer than two
    jobs waiting keeps nothing, because checking a plan costs about what
    placing one job again does.
    """

    _keeps_plan = True
    _prefix_only = False  # keep only when the started jobs lead the queue

    def __init__(self):
        # (now, fresh profile with the starts carved out, plan profile,
        #  waiting jobs, their placements, the earliest of those)
        self._kept = None
        self._last: tuple[tuple[Job, ...], list[float]] = ((), [])

    @property
    def last_placements(self) -> dict[int, float]:
        queue, planned = self._last
        return {job.job_id: t for job, t in zip(queue, planned) if t != math.inf}

    def _place(self, profile: CapacityProfile, job: Job) -> Optional[float]:
        raise NotImplementedError

    def select(self, view: SchedulerView) -> list[Job]:
        now, queue = view.now, view.queue
        fresh = CapacityProfile.from_view(view)
        kept = self._kept
        if kept is not None:
            self._kept = None
            t0, base, plan, waiting, planned, earliest = kept
            if now < t0 or earliest < now or queue[:len(waiting)] != waiting:
                kept = None
            else:
                base.advance(now)
                if base.times != fresh.times or base.free != fresh.free:
                    kept = None
        if kept is None:
            plan = fresh.copy() if self._keeps_plan and len(queue) > 1 else fresh
            planned, starts, tail = [], [], queue
        else:
            plan.advance(now)
            starts = [] if earliest > now else [
                job for job, t in zip(waiting, planned) if t == now]
            tail = queue[len(waiting):]
        place = self._place
        for job in tail:
            t = place(plan, job)
            if t is None:
                planned.append(math.inf)  # waits, holding nothing
                continue
            plan.reserve(t, job.runtime_estimate, job.cpus)
            planned.append(t)
            if t == now:
                starts.append(job)
        self._last = (queue, planned)
        n = len(starts)
        if plan is fresh or n > len(queue) - 2:
            return starts
        if n == 0:
            waiting = queue
        elif starts[-1] is queue[n - 1]:  # the started jobs lead the queue
            waiting, planned = queue[n:], planned[n:]
        elif self._prefix_only:
            return starts
        else:
            waiting = tuple(job for job, t in zip(queue, planned) if t != now)
            planned = [t for t in planned if t != now]
        for job in starts:
            fresh.reserve(now, job.runtime_estimate, job.cpus)
        self._kept = (now, fresh, plan, waiting, planned, min(planned))
        return starts


class ConservativeBackfill(Planner):
    """Every queued job holds a planned start; early starts never displace one.

    Each job is planned at its earliest fit, in submit order, on the plan
    that Planner keeps between calls and checks against the fresh profile;
    with estimates that do not understate runtimes, re-planning can only
    move planned starts earlier.  first_planned keeps each job's original
    promise for auditing.
    """

    name = "cons-bf"

    def __init__(self):
        super().__init__()
        self.first_planned: dict[int, float] = {}

    def _place(self, profile: CapacityProfile, job: Job) -> Optional[float]:
        t = profile.earliest_fit(job.cpus, job.runtime_estimate, profile.times[0])
        if t is not None:
            self.first_planned.setdefault(job.job_id, t)
        return t


class EasyBackfill(Policy):
    """Only the queue head holds a planned start; others may jump it harmlessly.

    shadow_log records (now, head id, head planned start) at every decision
    so the no-head-delay guarantee can be audited after a run.
    """

    name = "easy-bf"

    def __init__(self):
        self.shadow_log: list[tuple[float, int, Optional[float]]] = []

    def select(self, view: SchedulerView) -> list[Job]:
        # every job that fits now starts; the first that does not is the
        # head, whose shadow reservation the jobs after it must fit around
        profile = CapacityProfile.from_view(view)
        now = view.now
        starts: list[Job] = []
        head_seen = False
        for job in view.queue:
            if profile.fits(now, job.runtime_estimate, job.cpus):
                profile.reserve(now, job.runtime_estimate, job.cpus)
                starts.append(job)
            elif not head_seen:
                head_seen = True
                shadow = profile.earliest_fit(job.cpus, job.runtime_estimate, now)
                self.shadow_log.append((now, job.job_id, shadow))
                if shadow is None:
                    break
                profile.reserve(shadow, job.runtime_estimate, job.cpus)
        return starts


class GapPolicy(Planner):
    """Schedule-based placement into profile gaps.

    A gap is a maximal constant-capacity rectangle of the profile.  ESG
    takes the earliest gap wide and long enough; BestGap minimizes leftover
    (cpus slack, then duration slack), earliest among equals.  ESG reuses
    its kept plan (see Planner) only after a call whose started jobs led
    the queue, because a job started from behind a waiting one can split
    that job's gap.  BestGap plans afresh at every call, because the gap
    holding now shrinks as time passes and can become the best fit.  The
    engine makes no call when the queue is empty, so last_placements keeps
    the last non-empty plan.
    """

    _best = False

    def _place(self, profile: CapacityProfile, job: Job) -> Optional[float]:
        """Start of the chosen gap, in one pass over the profile's steps.

        A gap is a run of steps at one level, the same maximal runs that
        segments() yields; it starts at a step time, so never before now.
        """
        times, free = profile.times, profile.free
        cpus, estimate = job.cpus, job.runtime_estimate
        n = len(times)
        best_start = None
        best_cpus = best_len = math.inf
        i = 0
        while i < n:
            level = free[i]
            if level < cpus:
                i += 1
                continue
            start = times[i]
            i += 1
            while i < n and free[i] == level:
                i += 1
            length = (times[i] if i < n else math.inf) - start
            if length < estimate:
                continue
            if not self._best:
                return start
            # key (cpus slack, duration slack, start); starts only grow, so
            # an equal slack pair never displaces the earlier gap
            slack_cpus, slack_len = level - cpus, length - estimate
            if slack_cpus < best_cpus or (slack_cpus == best_cpus and slack_len < best_len):
                best_start, best_cpus, best_len = start, slack_cpus, slack_len
        return best_start


class EarliestSuitableGap(GapPolicy):
    name = "esg"
    _prefix_only = True


class BestGap(GapPolicy):
    name = "best-gap"
    _keeps_plan = False
    _best = True


class DlPredictive(ConservativeBackfill):
    """Conservative backfilling around the engine's forecast reservations.

    Hard reservation windows arrive through the view and act as immovable
    capacity blocks; soft reservations never appear in planning because the
    engine releases them whenever a real job needs the capacity.  With no
    reservations the behaviour is exactly conservative backfilling.
    """

    name = "dl"


_POLICY_FACTORIES = {
    PolicyKind.FCFS: Fcfs,
    PolicyKind.LCFS: Lcfs,
    PolicyKind.SHORTEST_JF: ShortestJobFirst,
    PolicyKind.SMALLEST_JF: SmallestJobFirst,
    PolicyKind.EDF: EarliestDeadlineFirst,
    PolicyKind.FIRST_FIT: FirstFit,
    PolicyKind.CONSERVATIVE_BF: ConservativeBackfill,
    PolicyKind.EASY_BF: EasyBackfill,
    PolicyKind.ESG: EarliestSuitableGap,
    PolicyKind.BEST_GAP: BestGap,
    PolicyKind.DL_PREDICTIVE: DlPredictive,
}

# PBS-Pro's commercial rule set is unavailable; the token is a documented
# stand-in that schedules FCFS order with first-fit skipping.
_ALIASES = {"pbs-pro": PolicyKind.FIRST_FIT}

POLICY_TOKENS = tuple(k.value for k in PolicyKind) + tuple(_ALIASES)


def make_policy(kind: PolicyKind | str) -> Policy:
    if isinstance(kind, str):
        token = kind.lower()
        if token in _ALIASES:
            policy = _POLICY_FACTORIES[_ALIASES[token]]()
            policy.name = token
            return policy
        kind = PolicyKind(token)
    return _POLICY_FACTORIES[kind]()
