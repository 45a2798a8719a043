"""Seeded benchmark workloads and the input text the library reads.

All three workloads share the ten periodic users of
``demos/03_policy_showdown.py`` (1 % submit jitter) and add Poisson
background traffic.  The seed drives every random choice; the library only
ever sees the CSV or SWF text built here, parsed back through its own
``parse_csv`` / ``parse_swf``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import predictsched as ps
from predictsched import SynthSpec, SynthTemplate, Workload

DAY = 86400.0

# (user, cpus, runtime s, period s, offset s): the demo's ten periodic users
_USERS = (
    (1, 2, 1800, 21600, 0),
    (2, 4, 3600, 21600, 2000),
    (3, 8, 7200, 43200, 4000),
    (4, 4, 3600, 43200, 6000),
    (5, 16, 10800, 86400, 8000),
    (6, 2, 1800, 86400, 10000),
    (7, 4, 3600, 86400, 12000),
    (8, 8, 5400, 43200, 14000),
    (9, 2, 2700, 21600, 16000),
    (10, 4, 3600, 86400, 18000),
)


PERIODIC_USERS = frozenset(u for u, *_ in _USERS)


@dataclasses.dataclass(frozen=True)
class WorkloadDef:
    name: str
    days: float
    background_per_day: float
    cpus: int
    fmt: str  # "csv" or "swf": the text the library parses
    estimate_factor: float = 1.0
    deadlines: bool = False
    load: float | None = None  # daily offered load the background is scaled to
    window: tuple[float, float] | None = None  # background submit hours (from, to)

    def spec(self) -> SynthSpec:
        horizon = self.days * DAY
        templates = tuple(
            SynthTemplate(u, c, rt, period, offset=off,
                          count=int(horizon // period) + 1, submit_jitter=0.01)
            for u, c, rt, period, off in _USERS
        )
        return SynthSpec(
            horizon=horizon,
            templates=templates,
            background_rate=self.background_per_day / DAY,
            estimate_factor=self.estimate_factor,
        )


# One run replays INSTANCES independent instances of its workload, each drawn
# from (seed, k), and reports the mean over them: near saturation one trace's
# planner cost depends on a few random busy periods, and averaging over
# instances keeps a metric from hinging on the seed.
INSTANCES = 4

WORKLOADS = {
    w.name: w
    for w in (
        # light load, long history: the forecaster re-mines a growing prefix
        # every simulated day and the planner policies barely queue
        WorkloadDef("periodic", days=48, background_per_day=5.5, cpus=20, fmt="csv"),
        # background arrives 09:00-13:00 at a fixed 80 % daily offered load:
        # a deep queue builds every morning and drains overnight; per-job
        # deadlines make edf order differently from fcfs
        WorkloadDef("backlog", days=14, background_per_day=40, cpus=16, fmt="csv",
                    deadlines=True, load=0.8, window=(9.0, 13.0)),
        # the backlog mix with estimates 3x the runtime, read from SWF: every
        # finish comes early, so each plan is stale at the next event
        WorkloadDef("overestimate", days=14, background_per_day=40, cpus=16, fmt="swf",
                    estimate_factor=3.0, load=0.8, window=(9.0, 13.0)),
    )
}


def instance_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def generate(wdef: WorkloadDef, seed: int) -> Workload:
    """The synthetic workload for one instance seed, reshaped as wdef asks."""
    workload, _truth = ps.synth_workload(wdef.spec(), seed=seed)
    jobs = list(workload.jobs)
    background = [i for i, j in enumerate(jobs) if j.user_id not in PERIODIC_USERS]
    if wdef.load is not None:
        # scaling each day's background runtimes pins that day's offered load,
        # which would otherwise follow the day's Poisson job count; the queue
        # cost is convex in it, so unpinned days make the seed dominate
        capacity = wdef.cpus * wdef.days * DAY
        periodic = sum(j.cpus * j.runtime for j in jobs if j.user_id in PERIODIC_USERS)
        per_day = (wdef.load * capacity - periodic) / wdef.days
        days: dict[int, list[int]] = {}
        for i in background:
            days.setdefault(int(jobs[i].submit_time // DAY), []).append(i)
        for members in days.values():
            f = per_day / sum(jobs[i].cpus * jobs[i].runtime for i in members)
            for i in members:
                j = jobs[i]
                jobs[i] = dataclasses.replace(
                    j, runtime=j.runtime * f, runtime_estimate=j.runtime_estimate * f)
    if wdef.window is not None:
        lo, hi = wdef.window
        for i in background:
            day, frac = divmod(jobs[i].submit_time / DAY, 1.0)
            submit = day * DAY + (lo + frac * (hi - lo)) * 3600.0
            jobs[i] = dataclasses.replace(jobs[i], submit_time=submit)
    if wdef.deadlines:
        # a separate stream keeps the jobs themselves independent of deadlines
        slack = np.random.default_rng([seed, 1]).uniform(1.5, 6.0, size=len(jobs))
        jobs = [
            dataclasses.replace(j, deadline=j.submit_time + float(s) * j.runtime_estimate)
            for j, s in zip(jobs, slack)
        ]
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    return dataclasses.replace(workload, jobs=tuple(jobs))


def _swf_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def workload_to_swf(workload: Workload) -> str:
    """18-field Standard Workload Format text; requested time carries the estimate."""
    lines = ["; synthetic benchmark workload"]
    for j in workload.jobs:
        fields = (
            j.job_id, _swf_num(j.submit_time), -1, _swf_num(j.runtime), j.cpus, -1, -1,
            j.cpus, _swf_num(j.runtime_estimate), -1, 1, j.user_id, j.group_id,
            -1, -1, -1, -1, -1,
        )
        lines.append(" ".join(str(f) for f in fields))
    return "\n".join(lines) + "\n"


def to_text(wdef: WorkloadDef, workload: Workload) -> str:
    return workload_to_swf(workload) if wdef.fmt == "swf" else ps.workload_to_csv(workload)


def parse(wdef: WorkloadDef, text: str) -> Workload:
    return ps.parse_swf(text) if wdef.fmt == "swf" else ps.parse_csv(text)
