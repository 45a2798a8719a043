"""Objective functions computed from a simulation trace.

All three objectives read nothing but the per-job (submit, start, finish,
cpus) records plus the cluster size, so any scheduler producing a trace can
be scored identically.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def makespan(trace: SimTrace) -> float:
    """Completion time of the last job (clock origin at the earliest submit)."""
    if not trace.records:
        raise ValueError("empty trace")
    return max(r.finish for r in trace.records)


def slowdown(trace: SimTrace) -> float:
    """Sum over jobs of response time over run time; n jobs give at least n."""
    if not trace.records:
        raise ValueError("empty trace")
    total = 0.0
    for r in trace.records:
        run = r.finish - r.start
        if run <= 0:
            raise ValueError(f"job {r.job_id}: zero-runtime record")
        total += (r.finish - r.submit) / run
    return total


def resource_utilization(trace: SimTrace, cluster: ClusterConfig) -> float:
    """Time-averaged active CPUs over min(available, requested), in percent.

    The denominator uses the demand actually present (jobs submitted and not
    yet finished), so stretches where the system is simply short of work do
    not count against the schedule.  Stretches with no demand at all are
    excluded from the average.
    """
    if not trace.records:
        raise ValueError("empty trace")
    end = makespan(trace)
    total = cluster.total_cpus

    # capacity deltas at each breakpoint: active while running, requested while present
    times: set[float] = {0.0, end}
    for r in trace.records:
        times.update((r.submit, r.start, r.finish))
    grid = sorted(t for t in times if 0.0 <= t <= end)

    active_delta: dict[float, float] = {}
    requested_delta: dict[float, float] = {}
    for r in trace.records:
        active_delta[r.start] = active_delta.get(r.start, 0) + r.cpus
        active_delta[r.finish] = active_delta.get(r.finish, 0) - r.cpus
        requested_delta[r.submit] = requested_delta.get(r.submit, 0) + r.cpus
        requested_delta[r.finish] = requested_delta.get(r.finish, 0) - r.cpus

    weighted = 0.0
    covered = 0.0
    active = 0.0
    requested = 0.0
    for i, t in enumerate(grid[:-1]):
        active += active_delta.get(t, 0)
        requested += requested_delta.get(t, 0)
        width = grid[i + 1] - t
        if width <= 0 or requested <= 0:
            continue
        u = active / min(total, requested)
        weighted += u * width
        covered += width
    if covered == 0:
        raise ValueError("trace has no demand intervals")
    return 100.0 * weighted / covered


def objectives(trace: SimTrace, cluster: ClusterConfig) -> ObjectiveVector:
    return ObjectiveVector(
        makespan=makespan(trace),
        utilization=resource_utilization(trace, cluster),
        slowdown=slowdown(trace),
    )
