"""The scheduling policies compared by the simulator.

Queue policies look only at the current queue and free processors: one
class, QueuePolicy, starts jobs in the order a token sets and either stops
at the first job that does not fit or goes past it.
Planner policies (backfilling, gap placement, predictive) maintain a
piecewise-constant capacity profile built from the estimated finish times
of running jobs, plus any hard reservation windows the engine passes in.

Planning always uses the user's runtime estimate; the engine fires actual
finishes, which re-invokes the policy, so early completions are exploited
immediately.  The planners keep their plan between calls and reuse it only
while the fresh profile shows that it still holds and, for best-gap, until
the gap holding now could become a waiting job's best fit.  After a job
starts from behind a waiting one, the gap policies first place the jobs
ahead of it again and keep the rest of the plan if those starts come back
unchanged (see Planner).  A plan made because the profile changed under
the kept one places the queue only up to its last job that can start now,
and easy-bf ends its scan once no processor is free now.
"""

from __future__ import annotations

import bisect
import enum
import math
from typing import NamedTuple, Optional

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


class SchedulerView(NamedTuple):
    """Immutable snapshot handed to a policy at each scheduling point: a
    named tuple, so a copy with other fields is view._replace(...).

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
    infinity.  take() finds a job's earliest slot from now and carves it in
    the same scan, which is how the planners place; earliest_fit() and
    fits() run that scan on a copy advanced to their start, so they never
    mutate.  reserve() and hold() carve a job or a window where they are
    told; hold_if_free() carves a window only where it fits, which is how
    the engine admits a reservation.  The loops below rely on two
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
        return self.earliest_fit(cpus, duration, start) == start

    def earliest_fit(self, cpus: int, duration: float, ready: float) -> Optional[float]:
        """take's start from ready (or now, if later) on, found on a copy,
        so nothing is carved."""
        probe = self.copy()
        probe.advance(max(ready, self.times[0]))
        return probe.take(cpus, duration)

    def take(self, cpus: int, duration: float, by: float = math.inf) -> Optional[float]:
        """The earliest start from now, if at or before by, carved out as
        reserve would, in one scan; None, carving nothing, when there is
        none.  The start is the step times[i]; the scan stops at the first
        step j at or after the end, which is where reserve splits."""
        times, free = self.times, self.free
        n = len(times)
        i = 0
        while True:
            cand = times[i]
            if cand > by:
                return None
            end = cand + duration
            j = i
            while free[j] >= cpus:
                j += 1
                if j >= n or times[j] >= end:
                    # an end that rounds to the start carves nothing
                    self.carve(i, j if end > cand else i, end, cpus)
                    return cand
            # restart after the violating step
            i = j + 1
            if i >= n:
                return None

    def carve(self, i: int, j: int, end: float, cpus: int) -> None:
        """Carve cpus out of steps i to j - 1, where step i starts the slot
        and j is the first step at or after its end (len(times) if none):
        reserve's carve, with the bisects already done."""
        times, free = self.times, self.free
        if j < len(times):
            if times[j] != end:
                times.insert(j, end)
                free.insert(j, free[j - 1])
        elif end != math.inf:
            times.append(end)
            free.append(free[-1])
        for k in range(i, j):
            free[k] -= cpus

    def reserve(self, start: float, duration: float, cpus: int) -> None:
        self.hold(start, start + duration, cpus)

    def hold(self, start: float, end: float, cpus: int) -> None:
        """Carve cpus out of [start, end), with end kept exact."""
        i = self._split(start)
        free = self.free
        for k in range(i, self._split(end)):
            free[k] -= cpus

    def hold_if_free(self, start: float, end: float, cpus: int) -> bool:
        """hold, but only if every step that [start, end) covers has cpus
        free; say whether it held.  Nothing is held before now, and a window
        that ends by its start fits and carves nothing."""
        start = max(start, self.times[0])
        if end <= start:
            return True
        i = self._seg_index(start)
        if min(self.free[i:bisect.bisect_left(self.times, end, i)]) < cpus:
            return False
        self.hold(start, end, cpus)
        return True

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


class QueuePolicy(Policy):
    """Start queued jobs in order while they fit in the free processors.

    order_key(job) sorts the queue; None keeps the view's queue order.  The
    scan stops at the first job that does not fit, unless skip_blocked,
    when it goes on past that job (first fit).
    """

    def __init__(self, name: str, order_key=None, skip_blocked: bool = False):
        self.name = name
        self.order_key = order_key
        self.skip_blocked = skip_blocked

    def select(self, view: SchedulerView) -> list[Job]:
        free = view.free_cpus
        starts: list[Job] = []
        queue = view.queue
        for job in queue if self.order_key is None else sorted(queue, key=self.order_key):
            if job.cpus <= free:
                starts.append(job)
                free -= job.cpus
            elif not self.skip_blocked:
                break
        return starts


def _edf_key(job: Job):
    # jobs without a deadline fall back to submit time, so deadline-free
    # workloads reproduce FCFS exactly
    key = job.deadline if job.deadline is not None else job.submit_time
    return (key, job.submit_time, job.job_id)


class Planner(Policy):
    """Plans the queue in order on a capacity profile and starts the jobs
    planned for now.  _place(profile, job) carves a job's slot out of the
    profile and gives its start, or None, carving nothing, when it fits
    nowhere; last_placements maps each queued job at the last call to the
    start a plan of the whole queue gives it.

    The plan outlives the call.  The next call places only the jobs that
    joined the queue, on the kept plan profile, if all of these hold:
      1. now is not before the kept call;
      2. the queue starts with the jobs that call left waiting, in order;
      3. the fresh profile has exactly the steps of that call's fresh profile,
         with the jobs it started carved out, advanced to now;
      4. no kept placement is before now;
      5. now is before the plan's holds-until time, which _place may lower
         (only BestGap does; see GapPolicy);
      6. if the policy _repairs (the gap policies) and that call started a
         job from behind a waiting one: the waiting jobs ahead of the last
         job started, placed again in order on the kept fresh profile
         (equal to the new one by 3), each get their kept start back.
    Otherwise it plans afresh, which is the same loop with nothing kept;
    when only 6 fails, the loop goes on from the job that moved.
    Reuse is exact: a placement is the earliest suitable start at or after
    now, so with the profile from now on unchanged each waiting job gets its
    kept start back.  Earliest fit placed a job started from behind a
    waiting one around it; a gap policy placed the jobs ahead without it,
    hence 6.  Once those match, the plan profile carves the same rectangles
    as a fresh one (split points form a set and levels are integer sums, so
    carving commutes).  A finish off its estimate, a lapsed estimate or a
    new hard window changes the fresh profile.  A call that starts all but
    at most one queued job keeps nothing, because checking a plan costs
    about what placing one job again does; the count is of the queue, so a
    plan that deferred jobs (below) may keep a single waiting one.

    A plan made because 3 failed (1, 2, 4 and 5 held) defers the tail of
    the queue.  After the first job not planned for now, it places jobs
    only up to the last one that still fits now on the plan as it stands
    (free >= cpus over [now, now + estimate), by take's float arithmetic
    or the gap scan's; see _window_end).  After each placement that starts
    inside that job's window it finds the bound again, scanning back.
    This is exact: carving only lowers the profile, so a job that does not
    fit now at one point never does later in the call, and take, esg and
    best-gap all start a job now only if it fits now.  The kept plan holds
    the placed jobs as waiting, so a call that reuses it places the
    deferred jobs with the joined ones; last_placements places them on a
    copy of the plan.  Deferral needs the fresh profile to differ, because
    then the plan is likely stale again at the next event (an early
    finish); after a plan that held, the next call would place the
    deferred jobs anyway, which cost more than it saved.  cons-bf and dl
    defer only jobs that already hold their first_planned promise: when
    one of the jobs past the bound has none, they are all placed.
    """

    _repairs = False  # re-place the jobs ahead of the last started one

    def __init__(self):
        # (now, fresh profile with the starts carved out, plan profile,
        #  waiting jobs, their placements, the earliest of those, how many
        #  of them were ahead of the last job started)
        self._kept = None
        self._holds_until = math.inf  # _place may lower it; see GapPolicy
        # (queue, its placements, and the plan only if jobs past those were deferred)
        self._last: tuple[tuple[Job, ...], list[float], Optional[CapacityProfile]] = (
            (), [], None)

    @property
    def last_placements(self) -> dict[int, float]:
        queue, planned, plan = self._last
        if plan is not None:
            # the jobs that call deferred, placed on a copy of its plan as a
            # plan that defers nothing would; best-gap's bound stays the kept
            # plan's
            holds_until = self._holds_until
            planned = planned[:]
            self._place_all(plan.copy(), queue[len(planned):], plan.times[0], planned, [])
            self._holds_until = holds_until
        return {job.job_id: t for job, t in zip(queue, planned) if t != math.inf}

    def _place(self, profile: CapacityProfile, job: Job) -> Optional[float]:
        raise NotImplementedError

    def _may_defer(self, jobs) -> bool:
        return True

    def _window_end(self, plan: CapacityProfile, job: Job, now: float) -> Optional[float]:
        """If job fits now on plan, the first step time at or past the end
        of its window from now (inf when there is none); else None.  A step
        ends the window by take's test or by the gap scan's, which measures
        a gap as its end minus its start (a gap-long job's end can round
        past the gap); passing either is enough, as deferral only needs to
        pass every job the policy could start now."""
        times, free, cpus, estimate = plan.times, plan.free, job.cpus, job.runtime_estimate
        end = now + estimate
        n = len(times)
        j = 0
        while free[j] >= cpus:
            j += 1
            if j == n:
                return math.inf
            if times[j] >= end or times[j] - now >= estimate:
                return times[j]
        return None

    def _place_all(self, plan: CapacityProfile, jobs, now: float,
                   planned: list[float], starts: list[Job]) -> None:
        """Place jobs in order on plan, appending each one's start to planned
        (inf when it fits nowhere) and the jobs planned for now to starts."""
        place = self._place
        for job in jobs:
            t = place(plan, job)
            if t is None:
                planned.append(math.inf)  # waits, holding nothing
                continue
            planned.append(t)
            if t == now:
                starts.append(job)

    def _place_starters(self, plan: CapacityProfile, jobs, now: float,
                        planned: list[float], starts: list[Job]) -> None:
        """_place_all, but after the first job not planned for now, only up
        to the last one that fits now; the jobs after it cannot start now
        and stay unplaced, unless _may_defer refuses them."""
        place, window_end = self._place, self._window_end
        k, b = 0, len(jobs)
        while k < b:  # the jobs that lead the queue and start now
            job = jobs[k]
            k += 1
            t = place(plan, job)
            planned.append(math.inf if t is None else t)
            if t != now:
                break
            starts.append(job)
        stop = None  # jobs[b:] do not fit now; stop ends the window of jobs[b - 1]
        while k < b:
            if stop is None:
                stop = window_end(plan, jobs[b - 1], now)
                if stop is None:
                    b -= 1
                continue
            job = jobs[k]
            k += 1
            t = place(plan, job)
            if t is None:
                planned.append(math.inf)
                continue
            planned.append(t)
            if t == now:
                starts.append(job)
            if t < stop:  # the carve reached that window
                stop = None
        if k < len(jobs) and not self._may_defer(jobs[k:]):
            self._place_all(plan, jobs[k:], now, planned, starts)

    def select(self, view: SchedulerView) -> list[Job]:
        now, queue = view.now, view.queue
        fresh = CapacityProfile.from_view(view)
        kept = self._kept
        stale = False
        if kept is not None:
            self._kept = None
            t0, base, plan, waiting, planned, earliest, ahead = kept
            if (now < t0 or earliest < now or now >= self._holds_until
                    or queue[:len(waiting)] != waiting):
                kept = None
            else:
                base.advance(now)
                if base.times != fresh.times or base.free != fresh.free:
                    kept, stale = None, True
        if kept is not None and ahead:
            # the jobs ahead of the last one started were placed without it;
            # place them again, as a fresh plan would (base equals fresh)
            holds_until, self._holds_until = self._holds_until, math.inf
            again, starts = [], []
            self._place_all(base, waiting[:ahead], now, again, starts)
            if again == planned[:ahead]:
                # a lower bound only brings a re-plan earlier
                self._holds_until = min(holds_until, self._holds_until)
            else:  # one moved: the fresh plan goes on from there
                kept, plan, planned, tail = None, base, again, queue[ahead:]
        elif kept is None:
            self._holds_until = math.inf
            plan = fresh.copy() if len(queue) > 1 else fresh
            planned, starts, tail = [], [], queue
        if kept is not None:
            plan.advance(now)
            starts = [] if earliest > now else [
                job for job, t in zip(waiting, planned) if t == now]
            tail = queue[len(waiting):]
        if stale:
            self._place_starters(plan, tail, now, planned, starts)
            self._last = (queue, planned, plan if len(planned) < len(queue) else None)
        else:
            self._place_all(plan, tail, now, planned, starts)
            self._last = (queue, planned, None)
        n = len(starts)
        if plan is fresh or n > len(queue) - 2:
            return starts
        ahead = 0
        placed = len(planned)  # short of the queue when jobs were deferred
        if n == 0:
            waiting = queue if placed == len(queue) else queue[:placed]
        elif starts[-1] is queue[n - 1]:  # the started jobs lead the queue
            waiting, planned = queue[n:placed], planned[n:]
        else:
            # the jobs left waiting, their starts, and how many of them were
            # ahead of the last job started, in one pass
            waiting, kept_starts = [], []
            for job, t in zip(queue, planned):
                if t == now:
                    ahead = len(waiting)
                else:
                    waiting.append(job)
                    kept_starts.append(t)
            waiting, planned = tuple(waiting), kept_starts
            if not self._repairs:
                ahead = 0
        for job in starts:
            fresh.reserve(now, job.runtime_estimate, job.cpus)
        self._kept = (now, fresh, plan, waiting, planned, min(planned), ahead)
        return starts


class ConservativeBackfill(Planner):
    """Every queued job holds a planned start; early starts never displace one.

    Each job is planned at its earliest fit, in submit order, on the plan
    that Planner keeps between calls and checks against the fresh profile;
    a plan made because the profile changed may leave the jobs that cannot
    start now unplaced, once each of them holds its promise.
    Re-planning does not always move planned starts earlier, even with
    estimates that do not understate runtimes: an early finish can let a
    wide job ahead in the queue take the slot a later job was planned in,
    and push that job past its first plan.  first_planned keeps each job's
    original promise for auditing.
    """

    name = "cons-bf"

    def __init__(self):
        super().__init__()
        self.first_planned: dict[int, float] = {}

    def _place(self, profile: CapacityProfile, job: Job) -> Optional[float]:
        t = profile.take(job.cpus, job.runtime_estimate)
        if t is not None:
            self.first_planned.setdefault(job.job_id, t)
        return t

    def _may_defer(self, jobs) -> bool:
        # a deferred job must have had its promise: a job that joined the
        # queue or fit nowhere (behind an overdue one) may have none
        return all(job.job_id in self.first_planned for job in jobs)


class EasyBackfill(Policy):
    """Only the queue head holds a planned start; others may jump it harmlessly.

    shadow_log records (now, head id, head planned start) at every decision
    so the no-head-delay guarantee can be audited after a run.  Once the
    head's shadow is carved, the scan ends as soon as no processor is free
    now: free now changes only when a job starts now, and every job needs
    a processor.
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
        take, free = profile.take, profile.free
        for job in view.queue:
            if take(job.cpus, job.runtime_estimate, now) is not None:
                starts.append(job)
                if head_seen and free[0] <= 0:
                    break
            elif not head_seen:
                head_seen = True
                shadow = take(job.cpus, job.runtime_estimate)
                self.shadow_log.append((now, job.job_id, shadow))
                if shadow is None or free[0] <= 0:
                    break
        return starts


class GapPolicy(Planner):
    """Schedule-based placement into profile gaps.

    A gap is a maximal constant-capacity rectangle of the profile.  ESG
    takes the earliest gap wide and long enough; BestGap minimizes leftover
    (cpus slack, then duration slack), earliest among equals.  _place keeps
    the index of the chosen gap's first step and carves the job from there,
    so only the end needs a search.  A job
    started from behind a waiting one can split or join that job's gap, so
    after such a call both place the waiting jobs ahead of the last one
    started again before they reuse their kept plan (see Planner, condition
    6), and BestGap bounds holds-until afresh for those placements.

    With the profile unchanged, one gap differs between BestGap's kept plan
    and a fresh one: the gap holding now, cut to start at now, with its
    level and end kept.  Gaps that ended vanish, which cannot change a
    choice.  The cut gap displaces a job's chosen gap g only if it is at g's
    level, qualified when the job was placed, and is now no longer than g
    (the earlier gap wins a tie).  So each placement bounds the plan's
    holds-until time (see Planner) by the end of the first qualifying gap
    at g's level, when that gap precedes g, minus g's length, rounded down
    so that the float steps of the scan cannot tie sooner.  Later gaps at
    that level end later, so a now inside one is past the bound already.
    ESG takes the first suitable gap, which time passing cannot undercut,
    and sets no bound.  The engine makes no call when the queue is empty,
    so last_placements keeps the last non-empty plan.
    """

    _repairs = True
    _best = False

    def _place(self, profile: CapacityProfile, job: Job) -> Optional[float]:
        """Carve the job out of the chosen gap and give its start, in one
        pass over the profile's steps.

        A gap is a run of steps at one level, the same maximal runs that
        segments() yields; it starts at a step time, so never before now.
        """
        times, free = profile.times, profile.free
        cpus, estimate = job.cpus, job.runtime_estimate
        n = len(times)
        best = None  # index of the chosen gap's first step
        best_cpus = best_len = math.inf
        i = 0
        while i < n:
            level = free[i]
            if level < cpus:
                i += 1
                continue
            g = i
            start = times[i]
            i += 1
            while i < n and free[i] == level:
                i += 1
            length = (times[i] if i < n else math.inf) - start
            if length < estimate:
                continue
            if not self._best:
                best = g
                break
            # key (cpus slack, duration slack, start); starts only grow, so
            # an equal slack pair never displaces the earlier gap
            slack_cpus, slack_len = level - cpus, length - estimate
            if slack_cpus < best_cpus or (slack_cpus == best_cpus and slack_len < best_len):
                if slack_cpus < best_cpus:
                    # the first qualifying gap at this level: an earlier one
                    # would have been chosen over the wider gap chosen before
                    first_end = times[i] if i < n else math.inf
                best, best_cpus, best_len = g, slack_cpus, slack_len
        if best is None:
            return None
        best_start = times[best]
        end = best_start + estimate
        # reserve's split point, searched from the gap's first step on: float
        # rounding can put the end of a gap-long job past the gap's end
        profile.carve(best, bisect.bisect_left(times, end, best), end, cpus)
        if self._best and first_end <= best_start:
            # that first gap, cut to start at now, ties with the chosen one
            # once now reaches first_end - (estimate + best_len); one float
            # step up in each sum keeps the bound at or below that now
            up = math.nextafter
            tie = first_end - up(estimate + up(best_len, math.inf), math.inf)
            self._holds_until = min(self._holds_until, tie)
        return best_start


class EarliestSuitableGap(GapPolicy):
    name = "esg"


class BestGap(GapPolicy):
    name = "best-gap"
    _best = True


class DlPredictive(ConservativeBackfill):
    """Conservative backfilling around the engine's forecast reservations.

    Hard reservation windows arrive through the view and act as immovable
    capacity blocks; soft reservations never appear in planning because the
    engine releases them whenever a real job needs the capacity.  With no
    reservations the behaviour is exactly conservative backfilling.
    """

    name = "dl"


# token -> factory, in PolicyKind order, then pbs-pro: a documented stand-in
# for PBS-Pro's unavailable commercial rule set, FCFS order with first-fit
# skipping.  fcfs and first-fit keep the view's (submit_time, job_id) order.
_FACTORIES = {
    "fcfs": lambda: QueuePolicy("fcfs"),
    "lcfs": lambda: QueuePolicy("lcfs", lambda j: (-j.submit_time, j.job_id)),
    "sjf": lambda: QueuePolicy("sjf", lambda j: (j.runtime_estimate, j.submit_time, j.job_id)),
    "smjf": lambda: QueuePolicy("smjf", lambda j: (j.cpus, j.submit_time, j.job_id)),
    "edf": lambda: QueuePolicy("edf", _edf_key),
    "first-fit": lambda: QueuePolicy("first-fit", skip_blocked=True),
    "cons-bf": ConservativeBackfill,
    "easy-bf": EasyBackfill,
    "esg": EarliestSuitableGap,
    "best-gap": BestGap,
    "dl": DlPredictive,
    "pbs-pro": lambda: QueuePolicy("pbs-pro", skip_blocked=True),
}

POLICY_TOKENS = tuple(_FACTORIES)


def make_policy(kind: PolicyKind | str) -> Policy:
    token = kind.value if isinstance(kind, PolicyKind) else kind.lower()
    if token not in _FACTORIES:
        raise ValueError(f"unknown policy '{kind}'; expected one of {POLICY_TOKENS}")
    return _FACTORIES[token]()
