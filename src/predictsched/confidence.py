"""Confidence scoring for predicted jobs and the adaptive reserve decision.

Patterns with similar periodicity and requirements form a cohort; the
distribution of cohort chain lengths says how plausible it is for a chain to
keep extending.  Each predicted occurrence gets a confidence in [0, 1] from
that distribution, and two adaptive borders split it into ignore / soft
reserve / hard reserve.  Feedback (did the prediction come true?) nudges the
borders during a run.
"""

from __future__ import annotations

import bisect
import collections
import enum
import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from .patterns import Pattern, PredictedJob, SimilarityParams, _FirstMatch, _Group, _median
from .workload import write_csv

MODES = ("survival", "pdf_normalized")
_PERIOD_RATIO_TOL = 0.25


class Decision(enum.Enum):
    IGNORE = "ignore"
    SOFT_RESERVE = "soft_reserve"
    HARD_RESERVE = "hard_reserve"


@dataclass(frozen=True)
class PatternGroup:
    member_pattern_ids: tuple[int, ...]
    lengths: tuple[int, ...]
    mean_len: float
    std_len: float


def _make_group(member_ids: Sequence[int], lengths: Sequence[int]) -> PatternGroup:
    if not lengths:
        raise ValueError("group must be nonempty")
    # statistics.fmean's arithmetic without its overhead; the deviation is
    # the population one: singleton cohorts are legal and get std 0
    n = len(lengths)
    mean = math.fsum(lengths) / n
    std = math.sqrt(math.fsum([(x - mean) ** 2 for x in lengths]) / n)
    return PatternGroup(
        member_pattern_ids=tuple(member_ids),
        lengths=tuple(lengths),
        mean_len=mean,
        std_len=std,
    )


class _Cohort(_Group):
    """A group of patterns being built, all of one layer, with a sorted
    period list and its median beside the requirement lists."""

    __slots__ = ("periods", "med_period")

    def __init__(self, p: Pattern):
        super().__init__(p, p.rep_cpus, p.rep_runtime)
        self.periods = [p.period]
        self.med_period = p.period

    def add(self, p: Pattern) -> None:
        super().add(p, p.rep_cpus, p.rep_runtime)
        bisect.insort(self.periods, p.period)
        self.med_period = _median(self.periods)

    def admits(self, p: Pattern, req_params: SimilarityParams) -> bool:
        lo, hi = min(p.period, self.med_period), max(p.period, self.med_period)
        if hi / lo > 1.0 + _PERIOD_RATIO_TOL:
            return False
        return self.matches_reqs(p.rep_cpus, p.rep_runtime, req_params)


def group_patterns(
    patterns: Sequence[Pattern],
    req_params: SimilarityParams = SimilarityParams(),
) -> list[PatternGroup]:
    """Cohort patterns by period ratio and requirement similarity.

    Two patterns share a group when max/min of their periods is at most
    1 + _PERIOD_RATIO_TOL and their representative requirements match within
    the similarity tolerances.  Grouping is a single pass in pattern_id
    order against group medians, and a pattern joins the first cohort, in
    creation order, that admits it; cohorts never span layers (length
    statistics of chains and super-chains are not comparable).  Each
    layer's cohorts are kept in a `_FirstMatch` index by median period, so
    a pattern is tested only against the cohorts whose median period lies
    within the period ratio of its own.
    """
    cohorts: list[_Cohort] = []  # creation order, over all layers
    by_layer = collections.defaultdict(_FirstMatch)  # cohorts by median period
    ratio = 1.0 + _PERIOD_RATIO_TOL
    for p in sorted(patterns, key=lambda q: q.pattern_id):
        index = by_layer[p.layer]
        for k in index.window(p.period, ratio):
            cohort = index.groups[k]
            if cohort.admits(p, req_params):
                old = cohort.med_period
                cohort.add(p)
                index.rekey(k, old, cohort.med_period)
                break
        else:
            cohort = _Cohort(p)
            index.append(cohort, p.period)
            cohorts.append(cohort)
    return [
        _make_group([m.pattern_id for m in c.members], [m.length for m in c.members])
        for c in cohorts
    ]


def groups_by_pattern(groups: Iterable[PatternGroup]) -> dict[int, PatternGroup]:
    """Each member pattern id mapped to its group."""
    return {pid: g for g in groups for pid in g.member_pattern_ids}


def confidence_factor(
    length_including_predicted: int, group: PatternGroup, mode: str = "survival"
) -> float:
    """Confidence in [0, 1] that a chain of this cohort reaches the given length.

    survival mode answers "how likely is the chain to extend at least this
    far": 1 - Phi((n - mean) / std).  pdf_normalized keeps the bell shape of
    the cohort length distribution scaled to peak 1.  With a degenerate
    cohort (std 0) the factor collapses to an indicator around the mean.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode '{mode}'; expected one of {MODES}")
    n = float(length_including_predicted)
    if n < 1:
        raise ValueError("length must be >= 1")
    mean, std = group.mean_len, group.std_len
    if std == 0.0:
        if mode == "survival":
            return 1.0 if n <= mean else 0.0
        return 1.0 if n == mean else 0.0
    z = (n - mean) / std
    if mode == "survival":
        return 0.5 * math.erfc(z / math.sqrt(2.0))
    return math.exp(-0.5 * z * z)


@dataclass(frozen=True)
class ThresholdState:
    """Adaptive borders between the small / medium / high confidence ranges."""

    t_low: float = 0.33
    t_high: float = 0.66
    step: float = 0.02
    min_gap: float = 0.05

    def __post_init__(self):
        if not 0 <= self.step < math.inf:
            raise ValueError("step must be a finite number >= 0")
        if not 0 <= self.min_gap < math.inf:
            # a negative gap let t_high sit below t_low
            raise ValueError("min_gap must be a finite number >= 0")
        eps = 1e-12  # clamping arithmetic may land on the border inexactly
        if not (
            0.0 <= self.t_low <= self.t_high - self.min_gap + eps
            and self.t_high <= 1.0
        ):
            raise ValueError(
                f"thresholds violate 0 <= t_low <= t_high - min_gap <= 1: "
                f"({self.t_low}, {self.t_high}, gap {self.min_gap})"
            )


def decide(confidence: float, state: ThresholdState) -> Decision:
    """Map a confidence to a decision tier; boundaries belong to the higher range."""
    if not 0.0 <= confidence <= 1.0:
        raise ValueError("confidence must lie in [0, 1]")
    if confidence < state.t_low:
        return Decision.IGNORE
    if confidence < state.t_high:
        return Decision.SOFT_RESERVE
    return Decision.HARD_RESERVE


def update_thresholds(
    state: ThresholdState, came_true: bool, confidence_at_decision: float
) -> ThresholdState:
    """Adapt the borders from one prediction outcome.

    Low-confidence predictions that come true pull the lower border down;
    high-confidence ones that fail push the upper border up.  The symmetric
    counter-moves (high confirmed pulls t_high down, low falsified pushes
    t_low up) keep the borders from drifting one way.  Medium outcomes leave
    the borders alone.  Updates clamp to [0, 1] and the minimum separation.
    """
    c = confidence_at_decision
    t_low, t_high = state.t_low, state.t_high
    if c < state.t_low:
        if came_true:
            t_low = max(0.0, t_low - state.step)
        else:
            t_low = min(t_high - state.min_gap, t_low + state.step)
    elif c >= state.t_high:
        if came_true:
            t_high = max(t_low + state.min_gap, t_high - state.step)
            # t_low + min_gap can round to a float whose distance from t_low
            # is below min_gap; step up to the first one that keeps the gap
            while t_high - state.min_gap < t_low:
                t_high = math.nextafter(t_high, math.inf)
        else:
            t_high = min(1.0, t_high + state.step)
    else:
        return state
    return replace(state, t_low=t_low, t_high=t_high)


@dataclass(frozen=True)
class FeedbackEvent:
    prediction: PredictedJob
    came_true: bool
    observed_time: float
    decision: Optional[Decision] = None


def feedback_to_csv(events: Iterable[FeedbackEvent]) -> str:
    return write_csv(
        ["pattern_id", "predicted_submit", "confidence", "decision", "came_true"],
        ((ev.prediction.pattern_id, ev.prediction.predicted_submit,
          f"{ev.prediction.confidence:.6f}",
          ev.decision.value if ev.decision is not None else "", int(ev.came_true))
         for ev in events),
    )
