"""Layered mining of recurring jobs and prolongation into predicted arrivals.

Layer 1 chains individual jobs of one user with near-identical requirements
submitted at a near-constant period.  Higher layers treat each chain as a
pseudo-job anchored at its first occurrence, so groups of jobs that
themselves recur (for example a daily batch that restarts every semester)
appear as super-patterns over child chains.

Chaining is greedy and deterministic: the two earliest unclaimed jobs seed a
candidate period, the chain extends while the next unclaimed job's gap from
the tail stays within the jitter bound of the running median period, and
chains shorter than the minimum length are abandoned (their seed cannot be a
member of any later chain, which only grows forward in time).

Mining is prefix-incremental.  A job's requirement cluster depends only on
the jobs before it in (submit_time, job_id) order, so a `PatternMiner` fed
a growing history batch by batch keeps its clusters and their running
medians.  Layer-1 chaining is resumable too: an attempt that broke on a job
already present ends the same way whatever comes later, so each cluster
keeps its closed chains and the one attempt still waiting for jobs, and is
fed only the jobs it gained.  Its patterns equal `mine_patterns` over the
whole history, ids included.  `group_similar_jobs` and `mine_patterns` are
one-batch runs of the same miner, and `detect_patterns` (every layer) is a
one-batch run of the same chainer.

A job joins the first cluster of its user, in creation order, whose
medians admit it.  The clusters are indexed by median cpus (`_FirstMatch`),
so only those whose median lies within the cpu tolerance of the job's cpus
are tested, in creation order, with the exact rule: the first that passes
is the one a scan of every cluster would pick.  Cohorts in `confidence`
use the same index, by median period.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .workload import Job, Workload, write_csv


@dataclass(frozen=True)
class SimilarityParams:
    cpu_tol: float = 0.0
    runtime_tol: float = 0.25
    period_jitter: float = 0.10
    min_occurrences: int = 3
    same_user: bool = True

    def __post_init__(self):
        for name in ("cpu_tol", "runtime_tol", "period_jitter"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.min_occurrences < 3:
            raise ValueError("min_occurrences must be >= 3")


@dataclass(frozen=True)
class Pattern:
    """A chain of similar jobs recurring at a near-constant period.

    For layers >= 2 the occurrence ids are child pattern ids and the
    occurrence times are the children's first submission times.
    """

    pattern_id: int
    layer: int
    user_id: int
    rep_cpus: int
    rep_runtime: float
    period: float
    occurrences: tuple[tuple[int, float], ...]  # (job id, submit time)

    def __post_init__(self):
        # a NaN period never ends prolong's loop, a zero one divides by zero,
        # and the cohort index needs an ordered key; a mined period is a
        # median of gaps > 0
        if not 0.0 < self.period < math.inf:
            raise ValueError(f"pattern {self.pattern_id}: period must be finite and > 0")

    @property
    def child_ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.occurrences) if self.layer > 1 else ()

    @property
    def length(self) -> int:
        return len(self.occurrences)

    @property
    def span(self) -> float:
        return self.occurrences[-1][1] - self.occurrences[0][1]

    @property
    def last_time(self) -> float:
        return self.occurrences[-1][1]


@dataclass(frozen=True)
class PredictedJob:
    pattern_id: int
    predicted_submit: float
    cpus: int
    runtime: float
    confidence: float = 0.0
    user_id: int = -1
    steps_ahead: int = 1  # prolongation index past the pattern's last occurrence


def reqs_match(cpus_a: float, cpus_b: float, rt_a: float, rt_b: float,
               params: SimilarityParams) -> bool:
    """Do two (cpus, runtime) requirements agree within the tolerances?"""
    # each conditional is max() without the call; a NaN reads the same in both
    if abs(cpus_a - cpus_b) > params.cpu_tol * (cpus_a if cpus_a > cpus_b else cpus_b):
        return False
    return abs(rt_a - rt_b) <= params.runtime_tol * (rt_a if rt_a > rt_b else rt_b)


def _median(ordered: list) -> float:
    """statistics.median of an already sorted list, with the same arithmetic."""
    n = len(ordered)
    i = n // 2
    return ordered[i] if n % 2 else (ordered[i - 1] + ordered[i]) / 2


class _Rows:
    """A chain attempt being built: members in joining order, and sorted
    cpus and runtime lists.  No median is kept, since no join test reads
    one; a Pattern built from the attempt takes its own."""

    __slots__ = ("members", "cpus", "runtimes")

    def __init__(self, member, cpus: int, runtime: float):
        self.members, self.cpus, self.runtimes = [member], [cpus], [runtime]

    def add(self, member, cpus: int, runtime: float) -> None:
        self.members.append(member)
        bisect.insort(self.cpus, cpus)
        bisect.insort(self.runtimes, runtime)


class _Group(_Rows):
    """A requirement cluster or confidence cohort being built: rows with
    their medians (statistics.median's arithmetic), kept current by add(),
    the one place a median moves, since every join test reads them."""

    __slots__ = ("med_cpus", "med_runtime")

    def __init__(self, member, cpus: int, runtime: float):
        super().__init__(member, cpus, runtime)
        self.med_cpus, self.med_runtime = cpus, runtime

    def add(self, member, cpus: int, runtime: float) -> None:
        _Rows.add(self, member, cpus, runtime)
        self.med_cpus, self.med_runtime = _median(self.cpus), _median(self.runtimes)

    def matches_reqs(self, cpus: int, runtime: float, params: SimilarityParams) -> bool:
        """Do (cpus, runtime) agree with the members' medians within tolerance?"""
        return reqs_match(cpus, self.med_cpus, runtime, self.med_runtime, params)


_WINDOW_MARGIN = 1e-9  # relative; rounding in a tolerance test is ~1e-16


class _FirstMatch:
    """Groups in creation order, each keyed by one of its running medians.

    A group can admit an item only if its median lies within a factor
    `ratio` of the item's key.  window(key, ratio) gives, in creation
    order, the positions of the groups whose median lies in
    [key / ratio, key * ratio], widened by _WINDOW_MARGIN so that float
    rounding never drops one.  The caller tests them in that order with
    the exact rule, so the first that passes is the group a scan of all of
    them would pick, and calls rekey() when the group's add() moved the
    median; the list window() gave is not valid after that.
    """

    __slots__ = ("groups", "_meds", "_at")

    def __init__(self):
        self.groups: list = []
        self._meds: list[float] = []  # the distinct medians, sorted
        self._at: dict[float, list[int]] = {}  # a median's group positions, ascending

    def append(self, group, median: float) -> None:
        self._put(len(self.groups), median)
        self.groups.append(group)

    def window(self, key: float, ratio: float) -> list[int]:
        meds = self._meds
        i = bisect.bisect_left(meds, key / ratio * (1.0 - _WINDOW_MARGIN))
        j = bisect.bisect_right(meds, key * ratio * (1.0 + _WINDOW_MARGIN), i)
        if j - i == 1:
            return self._at[meds[i]]
        return sorted(itertools.chain.from_iterable(map(self._at.__getitem__, meds[i:j])))

    def rekey(self, k: int, old: float, new: float) -> None:
        if new != old:
            at = self._at[old]
            if len(at) == 1:
                del self._at[old]
                del self._meds[bisect.bisect_left(self._meds, old)]
            else:
                at.remove(k)
            self._put(k, new)

    def _put(self, k: int, median: float) -> None:
        at = self._at.get(median)
        if at is None:
            self._at[median] = [k]
            bisect.insort(self._meds, median)
        else:
            bisect.insort(at, k)


class _Chainer:
    """Greedy layer-1 (or higher) chaining over members that grow at the end.

    Members arrive in (submit_time, job_id) order, in one batch or in many.
    `avail` holds the members that no chain has claimed and that no attempt
    gave up on; `avail[0]` anchors the attempt in progress.  While `partner`
    is 0 the attempt scans avail[next:] for the first member whose gap from
    the anchor qualifies.  From then on its chain is the anchor plus
    avail[partner:next]: occurrence rows (`_Rows`), with the sorted gaps
    beside them, that grow while the next member's gap from the tail stays
    within the jitter bound of the median gap.

    An attempt that breaks on a member already present ends the same way
    whatever arrives later, so it is closed for good: its chain is claimed,
    or its anchor is given up.  Only the attempt that ran out of members
    waits, and feed() resumes it where it stopped.
    """

    __slots__ = ("params", "layer", "span_of", "start", "done", "avail",
                 "partner", "next", "gaps", "chain", "_chains")

    def __init__(
        self,
        params: SimilarityParams,
        layer: int = 1,
        span_of: Optional[dict[int, float]] = None,
        start_id: int = 0,
    ):
        self.params = params
        self.layer = layer
        self.span_of = span_of
        self.start = start_id
        self.done: list[Pattern] = []  # closed chains, numbered from start
        self.avail: list[Job] = []
        self._chains: Optional[list[Pattern]] = None  # patterns() until the next feed
        self.partner = 0  # the attempt's partner index in avail, 0 while scanning
        self.next = 1  # the next index of avail the attempt examines
        # the attempt's chain, once it has a partner
        self.gaps: list[float] = []
        self.chain: Optional[_Rows] = None

    def feed(self, jobs: Sequence[Job]) -> None:
        """Append members, none before the last one, and chain as far as they allow."""
        self._chains = None
        avail = self.avail
        avail.extend(jobs)
        n = len(avail)
        jitter = self.params.period_jitter
        span_of = self.span_of
        while True:
            k = self.next
            if not self.partner:
                if k >= n:
                    return  # waiting for a partner
                anchor = avail[0]
                t0 = anchor.submit_time
                # a partner's gap from the anchor exceeds 0 and the anchor's span
                floor = 0.0 if span_of is None else max(0.0, span_of.get(anchor.job_id, 0.0))
                while k < n and avail[k].submit_time - t0 <= floor:
                    k += 1
                self.next = k
                if k == n:
                    return
                partner = avail[k]
                self.partner = k
                self.gaps = [partner.submit_time - t0]
                self.chain = _Rows((anchor.job_id, t0), anchor.cpus, anchor.runtime)
                self.chain.add((partner.job_id, partner.submit_time), partner.cpus, partner.runtime)
                k += 1
            gaps, chain = self.gaps, self.chain
            tail = avail[k - 1]
            while k < n:
                job = avail[k]
                gap = job.submit_time - tail.submit_time
                med = _median(gaps)
                if (
                    gap <= 0
                    or (span_of is not None and gap <= span_of.get(tail.job_id, 0.0))
                    or abs(gap - med) > jitter * med
                ):
                    break
                bisect.insort(gaps, gap)
                chain.add((job.job_id, job.submit_time), job.cpus, job.runtime)
                tail = job
                k += 1
            self.next = k
            if k == n:
                return  # waiting for the next member
            # the chain broke on avail[k]: claim it, or give up on its anchor
            if len(chain.members) >= self.params.min_occurrences:
                self.done.append(self._pattern(self.start + len(self.done)))
                avail[:k] = avail[1 : self.partner]  # the anchor's skips stay
            else:
                del avail[0]
            n = len(avail)
            self.partner, self.next = 0, 1

    def _pattern(self, pattern_id: int) -> Pattern:
        """The attempt's chain as a Pattern."""
        chain = self.chain
        return Pattern(
            pattern_id=pattern_id,
            layer=self.layer,
            user_id=self.avail[0].user_id,
            rep_cpus=int(chain.cpus[(len(chain.cpus) - 1) // 2]),  # median_low
            rep_runtime=float(_median(chain.runtimes)),
            period=float(_median(self.gaps)),
            occurrences=tuple(chain.members),
        )

    def patterns(self, start_id: int) -> list[Pattern]:
        """The chains as if the input ended here, numbered from start_id.

        The closed chains come first, then the waiting attempt closed as it
        stands, then a one-batch chaining of the members it leaves (its
        anchor's skips, or all but a given-up anchor).
        """
        if start_id != self.start:
            # an earlier cluster's chain count changed: shift the ids
            if self._chains is None:
                self.done = _renumbered(self.done, start_id)
            else:
                self._chains = _renumbered(self._chains, start_id)
                self.done = self._chains[: len(self.done)]
            self.start = start_id
        if self._chains is not None:
            return self._chains
        chains = list(self.done)
        tail = self
        while True:
            if tail.partner and len(tail.chain.members) >= self.params.min_occurrences:
                chains.append(tail._pattern(start_id + len(chains)))
                rest = tail.avail[1 : tail.partner]
            else:
                rest = tail.avail[1:]
            if len(rest) < 2:
                break
            tail = _Chainer(self.params, self.layer, self.span_of, start_id + len(chains))
            tail.feed(rest)
            chains.extend(tail.done)
        self._chains = chains
        return chains


def _renumbered(patterns: list[Pattern], start_id: int) -> list[Pattern]:
    return [
        Pattern(start_id + k, p.layer, p.user_id, p.rep_cpus, p.rep_runtime, p.period,
                p.occurrences)
        for k, p in enumerate(patterns)
    ]


class _Cluster(_Group):
    """One requirement cluster: a group of jobs in submit order, and the
    chaining state of its members.

    `fed` counts the members handed to the chainer; the rest are the jobs
    the cluster gained since the last chains() call.  The chainer is made
    by the first call, so clustering alone (group_similar_jobs) makes none.
    """

    __slots__ = ("chainer", "fed")

    def __init__(self, job: Job):
        super().__init__(job, job.cpus, job.runtime)
        self.chainer: Optional[_Chainer] = None
        self.fed = 0

    def chains(self, start_id: int, params: SimilarityParams) -> list[Pattern]:
        """The cluster's layer-1 chains, numbered from start_id."""
        if self.chainer is None:
            self.chainer = _Chainer(params)
        if self.fed < len(self.members):
            self.chainer.feed(self.members[self.fed :])
            self.fed = len(self.members)
        return self.chainer.patterns(start_id)


class PatternMiner:
    """Clusters and mines a job history that grows at the end.

    add() takes the jobs submitted since the last call; in (submit_time,
    job_id) order they must not precede any job already added.  A job joins
    the first cluster of its user (of everyone, when not same_user) whose
    median cpus and runtime match it within tolerance, otherwise it opens a
    new one.  Each user's clusters are kept in a `_FirstMatch` index by
    median cpus, across add() calls, so a job is tested only against the
    clusters whose median cpus lie within the cpu tolerance of its own, in
    creation order.  patterns() hands each cluster's chainer only the jobs the
    cluster gained since it was last chained, so layer-1 chaining resumes
    where it stopped; only the higher layers are built anew.
    """

    def __init__(self, params: SimilarityParams = SimilarityParams(), max_layer: int = 3):
        if max_layer < 1:
            raise ValueError("max_layer must be >= 1")
        self.params = params
        self.max_layer = max_layer
        self._by_key = collections.defaultdict(_FirstMatch)  # clusters by median cpus
        self._last: Optional[tuple[float, int]] = None

    def add(self, jobs: Iterable[Job]) -> None:
        params = self.params
        ratio = 1.0 / (1.0 - params.cpu_tol)
        for job in sorted(jobs, key=lambda j: (j.submit_time, j.job_id)):
            order = (job.submit_time, job.job_id)
            if self._last is not None and order < self._last:
                raise ValueError(
                    f"job {job.job_id} precedes the mined history; "
                    "add() only extends it"
                )
            self._last = order
            index = self._by_key[job.user_id if params.same_user else 0]
            cpus, runtime = job.cpus, job.runtime
            for k in index.window(cpus, ratio):
                cluster = index.groups[k]
                if cluster.matches_reqs(cpus, runtime, params):
                    old = cluster.med_cpus
                    cluster.add(job, cpus, runtime)
                    index.rekey(k, old, cluster.med_cpus)
                    break
            else:
                index.append(_Cluster(job), cpus)

    def _clusters(self) -> list[_Cluster]:
        # users ascending, then clusters in creation order within each user
        return [c for key in sorted(self._by_key) for c in self._by_key[key].groups]

    def clusters(self) -> list[list[Job]]:
        return [list(c.members) for c in self._clusters()]

    def patterns(self) -> list[Pattern]:
        """All layers, with the global ids mine_patterns assigns.

        A cluster with fewer than min_occurrences members makes no chain
        and takes no id, so it is skipped; its chainer gets the members in
        one batch once it is big enough, which chains them the same.
        """
        layer1: list[Pattern] = []
        params = self.params
        for cluster in self._clusters():
            if len(cluster.members) >= params.min_occurrences:
                layer1.extend(cluster.chains(len(layer1), params))
        return build_layers(layer1, params, max_layer=self.max_layer)


def _mined(
    jobs: Workload | Sequence[Job], params: SimilarityParams, max_layer: int = 3
) -> PatternMiner:
    if not jobs:
        raise ValueError("empty workload")
    miner = PatternMiner(params, max_layer)
    miner.add(jobs)
    return miner


def group_similar_jobs(
    workload: Workload | Sequence[Job], params: SimilarityParams = SimilarityParams()
) -> list[list[Job]]:
    """Partition jobs into requirement clusters (per user when same_user).

    Single pass in submit order: a job joins the first cluster whose median
    cpus and runtime match it within tolerance, otherwise it opens a new one.
    Only the clusters whose median cpus lie within the cpu tolerance are
    tested (see PatternMiner).
    """
    return _mined(workload, params).clusters()


def detect_patterns(
    cluster: Sequence[Job],
    params: SimilarityParams = SimilarityParams(),
    layer: int = 1,
    start_id: int = 0,
    span_of: Optional[dict[int, float]] = None,
) -> list[Pattern]:
    """Extract greedy periodic chains from one requirement cluster: a
    one-batch run of the chainer PatternMiner resumes.

    span_of maps member job ids to a minimum gap (used by higher layers so a
    super-period always exceeds the child chains' spans).
    """
    chainer = _Chainer(params, layer, span_of, start_id)
    chainer.feed(sorted(cluster, key=lambda j: (j.submit_time, j.job_id)))
    return chainer.patterns(start_id)


def build_layers(
    layer1: Sequence[Pattern],
    params: SimilarityParams = SimilarityParams(),
    max_layer: int = 3,
) -> list[Pattern]:
    """Stack super-patterns on top of layer-1 chains.

    Each pattern becomes a pseudo-job at its first occurrence with
    requirements (rep_cpus, rep_runtime * length); chaining then reapplies
    with the extra constraint that gaps exceed the member chains' spans.
    Patterns of a user (of everyone, when not same_user) with fewer than
    min_occurrences patterns in the layer cannot chain and are skipped.
    Returns all layers, the input included.
    """
    all_patterns = list(layer1)
    current = list(layer1)
    next_id = max((p.pattern_id for p in all_patterns), default=-1) + 1
    for layer in range(2, max_layer + 1):
        # a key's clusters hold at most its patterns, and a cluster of fewer
        # than min_occurrences makes no chain and so takes no id
        if params.same_user:
            held = collections.Counter(p.user_id for p in current)
            current = [p for p in current if held[p.user_id] >= params.min_occurrences]
        if len(current) < params.min_occurrences:
            break
        pseudo = [
            Job(
                job_id=p.pattern_id,
                user_id=p.user_id,
                group_id=0,
                submit_time=p.occurrences[0][1],
                runtime=p.rep_runtime * p.length,
                runtime_estimate=p.rep_runtime * p.length,
                cpus=p.rep_cpus,
            )
            for p in current
        ]
        spans = {p.pattern_id: p.span for p in current}
        supers: list[Pattern] = []
        for cluster in group_similar_jobs(pseudo, params):
            found = detect_patterns(
                cluster, params, layer=layer, start_id=next_id, span_of=spans
            )
            supers.extend(found)
            next_id += len(found)
        if not supers:
            break
        all_patterns.extend(supers)
        current = supers
    return all_patterns


_STALENESS_FACTOR = 2.0
_MAX_PREDICTIONS = 1_000_000  # per pattern and call; more would not finish


def prolong(
    patterns: Sequence[Pattern],
    now: float,
    horizon: float,
) -> list[PredictedJob]:
    """Extend each live pattern into (now, now + horizon].

    A pattern is live while its last occurrence is within _STALENESS_FACTOR
    periods of now; beyond that it stops producing phantom arrivals.  Every
    predicted period tick repeats a block: a layer-1 pattern is its own block
    with the single offset 0, and a super pattern repeats its most recent
    child chain's full occurrence block, with the child's cpus and runtime.
    A pattern whose ticks would make more than _MAX_PREDICTIONS predictions
    raises ValueError before any is made.
    """
    if not (horizon > 0 and math.isfinite(now + horizon)):
        # a NaN or infinite end would never stop the emit loop below
        raise ValueError("now and horizon must be finite, and horizon > 0")
    by_id = {p.pattern_id: p for p in patterns}
    end = now + horizon
    live = []
    for p in sorted(patterns, key=lambda q: q.pattern_id):
        last = p.last_time
        if now - last > _STALENESS_FACTOR * p.period:
            continue
        block = p if p.layer == 1 else by_id.get(p.occurrences[-1][0])
        if block is None:
            continue
        first = block.occurrences[0][1]
        offsets = [0.0] if p.layer == 1 else [t - first for _, t in block.occurrences]
        # the block repeats at each period tick up to end: the emit loop's
        # (tick, offset) pairs bound the predictions it makes from above
        if (end - last) // p.period * len(offsets) > _MAX_PREDICTIONS:
            raise ValueError(
                f"pattern {p.pattern_id} would make more than {_MAX_PREDICTIONS:,} "
                f"predictions over the horizon; shorten the horizon"
            )
        live.append((p, block, offsets))
    preds: list[PredictedJob] = []
    for p, block, offsets in live:
        last = p.last_time
        m = 1
        while True:
            t0 = last + m * p.period
            if t0 > end:
                break
            for off in offsets:
                t = t0 + off
                if now < t <= end:
                    preds.append(
                        PredictedJob(
                            pattern_id=p.pattern_id,
                            predicted_submit=t,
                            cpus=block.rep_cpus,
                            runtime=block.rep_runtime,
                            user_id=p.user_id,
                            steps_ahead=m,
                        )
                    )
            m += 1
    preds.sort(key=lambda q: (q.predicted_submit, q.pattern_id))
    return preds


def mine_patterns(
    jobs: Workload | Sequence[Job],
    params: SimilarityParams = SimilarityParams(),
    max_layer: int = 3,
) -> list[Pattern]:
    """Cluster, chain, and layer in one deterministic pass with global ids."""
    return _mined(jobs, params, max_layer).patterns()


def predictions_to_csv(
    predictions: Iterable[PredictedJob], patterns: Sequence[Pattern]
) -> str:
    layer_of = {p.pattern_id: p.layer for p in patterns}
    return write_csv(
        ["pattern_id", "layer", "predicted_submit", "cpus", "runtime", "confidence"],
        ((pred.pattern_id, layer_of.get(pred.pattern_id, 1), pred.predicted_submit,
          pred.cpus, pred.runtime, f"{pred.confidence:.6f}") for pred in predictions),
    )
