from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from predictsched import (
    ClusterConfig,
    Job,
    ParseError,
    SimTrace,
    SynthSpec,
    SynthTemplate,
    Workload,
    synth_workload,
)
from predictsched.synth import Occurrence

DAY = 86400.0


def make_job(
    job_id: int,
    submit: float,
    runtime: float,
    cpus: int,
    user: int = 1,
    estimate: float | None = None,
    deadline: float | None = None,
) -> Job:
    return Job(
        job_id=job_id,
        user_id=user,
        group_id=1,
        submit_time=submit,
        runtime=runtime,
        runtime_estimate=estimate if estimate is not None else runtime,
        cpus=cpus,
        deadline=deadline,
    )


def make_workload(*jobs: Job) -> Workload:
    ordered = tuple(sorted(jobs, key=lambda j: (j.submit_time, j.job_id)))
    return Workload(jobs=ordered)


# runtimes and submit gaps on small grids, so that finishes, estimates and
# submits often fall on the same instant; a gap of 0 is a burst
RUNTIMES = st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 30.0, 60.0])
ESTIMATE_FACTORS = st.sampled_from([0.5, 0.6, 0.75, 1.0, 1.0, 1.0, 1.5, 2.0, 3.0])
SUBMIT_GAPS = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 5.0, 10.0, 40.0])
# a deadline this long after the submit, or none, so that edf orders the
# queue apart from fcfs
DEADLINE_SLACKS = st.none() | st.sampled_from([0.0, 3.0, 10.0, 50.0, 200.0])


@st.composite
def random_workloads(draw, estimate_factors=ESTIMATE_FACTORS):
    total = draw(st.integers(min_value=2, max_value=16))
    n = draw(st.integers(min_value=5, max_value=150))  # a list size alone stays small
    rows = draw(st.lists(
        st.tuples(SUBMIT_GAPS, st.integers(min_value=1, max_value=total),
                  RUNTIMES, estimate_factors, DEADLINE_SLACKS),
        min_size=n, max_size=n,
    ))
    jobs, submit = [], 0.0
    for k, (gap, cpus, runtime, factor, slack) in enumerate(rows):
        submit += gap
        deadline = None if slack is None else submit + slack
        jobs.append(make_job(k + 1, submit, runtime, cpus, estimate=factor * runtime,
                             deadline=deadline))
    return make_workload(*jobs), ClusterConfig(total)


def reference_objectives(trace, cluster):
    """(makespan, utilization, slowdown) by the per-record and per-instant
    loops the array version replaced, kept as its reference.  The loop grid
    starts at 0, so it only agrees on traces whose times are all >= 0."""

    def makespan(trace):
        if not trace.records:
            raise ValueError("empty trace")
        return max(r.finish for r in trace.records)

    def slowdown(trace):
        if not trace.records:
            raise ValueError("empty trace")
        total = 0.0
        for r in trace.records:
            run = r.finish - r.start
            if run <= 0:
                raise ValueError(f"job {r.job_id}: zero-runtime record")
            total += (r.finish - r.submit) / run
        return total

    def resource_utilization(trace, cluster):
        if not trace.records:
            raise ValueError("empty trace")
        end = makespan(trace)
        total = cluster.total_cpus
        times = {0.0, end}
        for r in trace.records:
            times.update((r.submit, r.start, r.finish))
        grid = sorted(t for t in times if 0.0 <= t <= end)
        active_delta, requested_delta = {}, {}
        for r in trace.records:
            active_delta[r.start] = active_delta.get(r.start, 0) + r.cpus
            active_delta[r.finish] = active_delta.get(r.finish, 0) - r.cpus
            requested_delta[r.submit] = requested_delta.get(r.submit, 0) + r.cpus
            requested_delta[r.finish] = requested_delta.get(r.finish, 0) - r.cpus
        weighted = covered = active = requested = 0.0
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

    return makespan(trace), resource_utilization(trace, cluster), slowdown(trace)


def fmt_seconds(x: float) -> str:
    """A number as the reference writers print it: whole values as ints."""
    return str(int(x)) if float(x).is_integer() else repr(float(x))


# The ingest functions as they were before they went columnar: a scalar
# draw per jitter, csv.DictReader rows, dict records built into Job(**r),
# a fmt_seconds call per written field.  Kept as the references the
# columnar versions must match byte for byte; only reference_parse_csv's
# line numbers differ, as it counts rows where parse_csv names lines.

def _reference_build_workload(raw, source):
    kept = [(lineno, r) for lineno, r in raw if r["runtime"] > 0 and r["cpus"] > 0]
    if not kept:
        raise ParseError("empty workload")
    seen = set()
    for lineno, r in kept:
        if r["job_id"] in seen:
            raise ParseError(f"line {lineno}: duplicate id {r['job_id']}")
        seen.add(r["job_id"])
    t0 = min(r["submit_time"] for _lineno, r in kept)
    jobs = []
    for lineno, r in kept:
        r["submit_time"] -= t0
        if r["deadline"] is not None:
            r["deadline"] -= t0
        try:
            jobs.append(Job(**r))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return Workload(jobs=tuple(sorted(jobs, key=lambda j: (j.submit_time, j.job_id))),
                    source_name=source, dropped=len(raw) - len(kept))


_SWF_INT_NAMES = ("job id", "allocated processors", "requested processors",
                  "user id", "group id")


def reference_parse_swf(text, source_name="swf"):
    raw = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(";"):
            continue
        fields = stripped.split()
        if len(fields) != 18:
            raise ParseError(f"line {lineno}: expected 18 fields, got {len(fields)}")
        try:
            vals = [float(f) for f in fields]
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric field") from None
        if not math.isfinite(sum(vals)):
            raise ParseError(f"line {lineno}: non-finite field")
        given = (vals[0], vals[4], vals[7], vals[11], vals[12])
        job_id, alloc, requested, user_id, group_id = ints = tuple(map(int, given))
        if ints != given:
            name, value = next((n, g) for n, i, g in zip(_SWF_INT_NAMES, ints, given) if i != g)
            raise ParseError(f"line {lineno}: {name} must be an integer, got {value!r}")
        runtime, req_time = vals[3], vals[8]
        raw.append((lineno, dict(
            job_id=job_id, user_id=user_id, group_id=group_id, submit_time=vals[1],
            runtime=runtime, runtime_estimate=req_time if req_time > 0 else runtime,
            cpus=requested if requested > 0 else alloc, deadline=None,
        )))
    return _reference_build_workload(raw, source_name)


CSV_COLUMNS = ("job_id", "user_id", "group_id", "submit_time", "runtime",
               "runtime_estimate", "cpus")


def reference_parse_csv(text, source_name="csv"):
    """DictReader rows; errors name the row's place among the non-blank
    rows (header is 1), not its physical line."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ParseError("empty workload")
    for col in CSV_COLUMNS:
        if col not in reader.fieldnames:
            raise ParseError(f"missing column '{col}'")
    has_deadline = "deadline" in reader.fieldnames
    raw = []
    for lineno, row in enumerate(reader, start=2):
        try:
            rec = dict(
                job_id=int(row["job_id"]),
                user_id=int(row["user_id"]),
                group_id=int(row["group_id"]),
                submit_time=float(row["submit_time"]),
                runtime=float(row["runtime"]),
                runtime_estimate=float(row["runtime_estimate"]),
                cpus=int(row["cpus"]),
                deadline=float(row["deadline"])
                if has_deadline and row.get("deadline") not in (None, "")
                else None,
            )
        except (TypeError, ValueError):
            raise ParseError(f"line {lineno}: non-numeric field") from None
        times = rec["submit_time"] + rec["runtime"] + rec["runtime_estimate"]
        if not math.isfinite(times + (rec["deadline"] or 0.0)):
            raise ParseError(f"line {lineno}: non-finite field")
        raw.append((lineno, rec))
    return _reference_build_workload(raw, source_name)


def reference_workload_to_csv(workload):
    any_deadline = any(j.deadline is not None for j in workload.jobs)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(list(CSV_COLUMNS) + (["deadline"] if any_deadline else []))
    for j in workload.jobs:
        row = [j.job_id, j.user_id, j.group_id, fmt_seconds(j.submit_time),
               fmt_seconds(j.runtime), fmt_seconds(j.runtime_estimate), int(j.cpus)]
        if any_deadline:
            row.append("" if j.deadline is None else fmt_seconds(j.deadline))
        writer.writerow(row)
    return out.getvalue()


def reference_synth_workload(spec, seed=0):
    rng = np.random.default_rng(seed)
    truth, pending = [], []
    for tid, tpl in enumerate(spec.templates):
        for k in range(tpl.count):
            t = tpl.offset + k * tpl.period
            if tpl.submit_jitter > 0:
                t += rng.uniform(-1.0, 1.0) * tpl.submit_jitter * tpl.period
            runtime = tpl.runtime
            if tpl.runtime_jitter > 0:
                runtime *= 1.0 + rng.uniform(-1.0, 1.0) * tpl.runtime_jitter
            t = max(t, 0.0)
            if t > spec.horizon:
                continue
            truth.append(Occurrence(tid, k, t, tpl.cpus, runtime))
            pending.append((t, tpl.user_id, tpl.cpus, runtime, 0))
    if spec.background_rate > 0:
        n_bg = int(rng.poisson(spec.background_rate * spec.horizon))
        times = np.sort(rng.uniform(0.0, spec.horizon, size=n_bg))
        users = rng.integers(0, spec.background_users, size=n_bg) + 1000
        lo_c, hi_c = spec.background_cpus
        cpus = rng.integers(lo_c, hi_c + 1, size=n_bg)
        lo_r, hi_r = spec.background_runtime
        runtimes = rng.uniform(lo_r, hi_r, size=n_bg)
        for i in range(n_bg):
            pending.append(
                (float(times[i]), int(users[i]), int(cpus[i]), float(runtimes[i]), 99)
            )
    pending.sort(key=lambda p: p[0])
    jobs = [
        Job(job_id=i + 1, user_id=user, group_id=group, submit_time=t, runtime=runtime,
            runtime_estimate=runtime * spec.estimate_factor, cpus=cpus)
        for i, (t, user, cpus, runtime, group) in enumerate(pending)
    ]
    return Workload(jobs=tuple(jobs), source_name=f"synth(seed={seed})"), tuple(truth)


def capacity_breaches(trace: SimTrace) -> list[float]:
    """Replay a trace and return instants where running cpus exceed the cluster.

    Independent of the engine: works purely from the per-job records.
    """
    total = trace.cluster.total_cpus
    deltas: dict[float, int] = {}
    for r in trace.records:
        deltas[r.start] = deltas.get(r.start, 0) + r.cpus
        deltas[r.finish] = deltas.get(r.finish, 0) - r.cpus
    busy = 0
    breaches = []
    for t in sorted(deltas):
        busy += deltas[t]
        if busy > total:
            breaches.append(t)
    return breaches


def lifecycle_workload() -> Workload:
    """Four daily/half-daily users plus light noise (161 jobs over 12 days).

    With thresholds (0.2, 0.6) on 16 cpus, `dl` makes soft and ignored
    reservations that end consumed, expired and cancelled.
    """
    templates = (
        SynthTemplate(user_id=1, cpus=4, runtime=3600, period=DAY, count=12),
        SynthTemplate(user_id=2, cpus=4, runtime=3600, period=DAY, count=9),
        SynthTemplate(user_id=3, cpus=2, runtime=1800, period=DAY / 2, count=24),
        SynthTemplate(user_id=4, cpus=2, runtime=1800, period=DAY / 2, count=18),
    )
    wl, _ = synth_workload(
        SynthSpec(horizon=12 * DAY, templates=templates, background_rate=1e-4),
        seed=8,
    )
    return wl


def weekly_workload() -> Workload:
    """A weekday user whose Monday-Friday chains recur weekly, plus two
    daily-ish users and noise (260 jobs over 28 days).

    Mining reaches layer 2 both per user and pooled (same_user=False).
    """
    weekdays = tuple(
        SynthTemplate(user_id=1, cpus=8, runtime=7200, period=7 * DAY,
                      offset=k * DAY + 3600, count=5)
        for k in range(5)
    )
    templates = weekdays + (
        SynthTemplate(user_id=2, cpus=4, runtime=3600, period=DAY / 2,
                      offset=1800, count=70, submit_jitter=0.01),
        SynthTemplate(user_id=3, cpus=4, runtime=3000, period=DAY,
                      offset=5000, count=35),
    )
    wl, _ = synth_workload(
        SynthSpec(horizon=28 * DAY, templates=templates, background_rate=6e-5,
                  background_runtime=(1800.0, 14400.0)),
        seed=3,
    )
    return wl


def backlog_workload() -> Workload:
    """Two periodic users plus background squeezed into 09:00-13:00 (259 jobs
    over 4 days, about 80 % offered load on 16 cpus).

    A deep queue builds every morning, so the planner policies see profiles
    with many steps; `dl` makes only soft reservations here.
    """
    templates = (
        SynthTemplate(user_id=1, cpus=4, runtime=3600, period=DAY / 2,
                      offset=1800, count=8, submit_jitter=0.01),
        SynthTemplate(user_id=2, cpus=8, runtime=7200, period=DAY,
                      offset=30000, count=4),
    )
    wl, _ = synth_workload(
        SynthSpec(horizon=4 * DAY, templates=templates, background_rate=60 / DAY),
        seed=5,
    )
    jobs = []
    for j in wl.jobs:
        if j.user_id >= 1000:  # background users
            day, frac = divmod(j.submit_time / DAY, 1.0)
            j = dataclasses.replace(j, submit_time=day * DAY + (9 + 4 * frac) * 3600)
        jobs.append(j)
    return make_workload(*jobs)


def overestimate_workload() -> Workload:
    """The backlog mix with every estimate 3x the runtime: each job finishes
    early, so the plan made at one event is stale at the next."""
    return make_workload(
        *(dataclasses.replace(j, runtime_estimate=3 * j.runtime)
          for j in backlog_workload().jobs)
    )


def underestimate_workload() -> Workload:
    """The backlog mix with estimates alternately 0.6x and 1.5x the runtime:
    half the jobs outlive their estimate, so the capacity a plan counted on
    is not released when it was due, and the other half finish early."""
    return make_workload(
        *(dataclasses.replace(j, runtime_estimate=(0.6 if k % 2 == 0 else 1.5) * j.runtime)
          for k, j in enumerate(backlog_workload().jobs))
    )


def saturated_workload() -> Workload:
    """Ten periodic users plus 80 background jobs a day over 3 days (310 jobs):
    on 24 cpus the offered load is above 90 % and the queue keeps growing,
    so the planners carry plans of 50 to 80 jobs."""
    users = (  # (user, cpus, runtime, period, offset)
        (1, 2, 1800, DAY / 4, 0), (2, 4, 3600, DAY / 4, 2000),
        (3, 8, 7200, DAY / 2, 4000), (4, 4, 3600, DAY / 2, 6000),
        (5, 16, 10800, DAY, 8000), (6, 2, 1800, DAY, 10000),
        (7, 4, 3600, DAY, 12000), (8, 8, 5400, DAY / 2, 14000),
        (9, 2, 2700, DAY / 4, 16000), (10, 4, 3600, DAY, 18000),
    )
    horizon = 3 * DAY
    templates = tuple(
        SynthTemplate(user_id=u, cpus=c, runtime=rt, period=period, offset=off,
                      count=int(horizon // period) + 1, submit_jitter=0.01)
        for u, c, rt, period, off in users
    )
    wl, _ = synth_workload(
        SynthSpec(horizon=horizon, templates=templates, background_rate=80 / DAY),
        seed=7,
    )
    return wl


def enumerate_instances(max_jobs: int = 5):
    """Every small workload used by the backfilling correctness gate.

    Jobs draw cpus from {1, 2} and runtimes from {1, 2, 3} (estimates exact).
    Up to 3 jobs the submit times range over {0, 1, 2} exhaustively; for 4
    and 5 jobs the submits are the staggered prefix of (0, 1, 2, 3, 4) so the
    instance count stays tractable.
    """
    params = list(itertools.product((1, 2), (1, 2, 3)))  # (cpus, runtime)
    for n in range(1, min(max_jobs, 3) + 1):
        for submits in itertools.product((0, 1, 2), repeat=n):
            for combo in itertools.product(params, repeat=n):
                yield make_workload(
                    *(
                        make_job(i + 1, submits[i], combo[i][1], combo[i][0])
                        for i in range(n)
                    )
                )
    for n in range(4, max_jobs + 1):
        submits = tuple(range(n))
        for combo in itertools.product(params, repeat=n):
            yield make_workload(
                *(
                    make_job(i + 1, submits[i], combo[i][1], combo[i][0])
                    for i in range(n)
                )
            )


@pytest.fixture
def two_job_one_cpu() -> tuple[Workload, ClusterConfig]:
    wl = make_workload(
        make_job(1, 0, 10, 1),
        make_job(2, 0, 5, 1),
    )
    return wl, ClusterConfig(total_cpus=1)


@pytest.fixture
def easy_fixture() -> tuple[Workload, ClusterConfig]:
    wl = make_workload(
        make_job(1, 0, 10, 2),  # A
        make_job(2, 0, 5, 4),   # B
        make_job(3, 0, 10, 2),  # C
    )
    return wl, ClusterConfig(total_cpus=4)
