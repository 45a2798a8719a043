"""Objective functions computed from a simulation trace.

All three objectives read nothing but the per-job (submit, start, finish,
cpus) rows plus the cluster size, so any scheduler producing a trace can
be scored identically.  `objectives` stacks the trace's columns into one
array once and derives all three from it; no record object is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simtrace import SimTrace
from .workload import ClusterConfig

OBJECTIVES = ("makespan", "utilization", "slowdown")
# orientation per objective: minimize, maximize, minimize
ORIENTATIONS = ("min", "max", "min")


@dataclass(frozen=True)
class ObjectiveVector:
    makespan: float
    utilization: float  # percent in (0, 100]
    slowdown: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.makespan, self.utilization, self.slowdown)


def _columns(trace: SimTrace) -> np.ndarray:
    """The trace's columns as float rows of (submit, start, finish, cpus)."""
    records = trace.records
    if not records:
        raise ValueError("empty trace")
    return np.column_stack((records.times, records.cpus))


def _ordered_sum(x: np.ndarray) -> float:
    """Sum of x added left to right, as a loop would; np.sum pairs terms up
    and may differ in the last bits, which the ranking locks would see."""
    return float(np.cumsum(x)[-1])


def _makespan(cols: np.ndarray) -> float:
    return float(cols[:, 2].max())


def _slowdown(cols: np.ndarray) -> float:
    # a trace holds start < finish on every row, so every run time is > 0
    submit, start, finish = cols[:, 0], cols[:, 1], cols[:, 2]
    return _ordered_sum((finish - submit) / (finish - start))


def _utilization(cols: np.ndarray, total: int) -> float:
    # every record time is an instant; cpus are integers, so the deltas at
    # an instant and their running levels are exact in any order
    grid, at = np.unique(cols[:, :3], return_inverse=True)
    submit, start, finish = at.reshape(-1, 3).T
    cpus, m = cols[:, 3], len(grid)
    freed = np.bincount(finish, cpus, m)
    active = np.cumsum(np.bincount(start, cpus, m) - freed)[:-1]
    requested = np.cumsum(np.bincount(submit, cpus, m) - freed)[:-1]
    demand = requested > 0  # stretches with no demand are left out
    if not demand.any():
        raise ValueError("trace has no demand intervals")
    width = np.diff(grid)[demand]
    u = active[demand] / np.minimum(total, requested[demand])
    return 100.0 * _ordered_sum(u * width) / _ordered_sum(width)


def makespan(trace: SimTrace) -> float:
    """Latest finish time in the trace, on the trace's own clock.

    The parsers put the first submit at 0, so there it is the time from the
    first submit to the last finish; a workload built in code may start
    elsewhere, and its makespan still reads the latest finish.
    """
    return _makespan(_columns(trace))


def slowdown(trace: SimTrace) -> float:
    """Sum over jobs of response time over run time; n jobs give at least n."""
    return _slowdown(_columns(trace))


def resource_utilization(trace: SimTrace, cluster: ClusterConfig) -> float:
    """Time-averaged active CPUs over min(available, requested), in percent.

    The denominator uses the demand actually present (jobs submitted and not
    yet finished), so stretches where the system is simply short of work do
    not count against the schedule.  Stretches with no demand at all are
    excluded from the average.
    """
    return _utilization(_columns(trace), cluster.total_cpus)


def objectives(trace: SimTrace, cluster: ClusterConfig) -> ObjectiveVector:
    cols = _columns(trace)
    return ObjectiveVector(
        makespan=_makespan(cols),
        utilization=_utilization(cols, cluster.total_cpus),
        slowdown=_slowdown(cols),
    )
