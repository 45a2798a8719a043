"""Synthetic workload generation with known periodic structure.

Templates inject periodic jobs (fixed user, requirements, and period, with
optional submit/runtime jitter); a Poisson background adds non-periodic
noise from a separate pool of users.  The generator returns both the
workload and the injected occurrences, so forecaster recall can be scored
against exact ground truth.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .workload import Job, Workload


@dataclass(frozen=True)
class SynthTemplate:
    user_id: int
    cpus: int
    runtime: float
    period: float
    offset: float = 0.0
    count: int = 10
    submit_jitter: float = 0.0  # fraction of period, uniform +/-
    runtime_jitter: float = 0.0  # fraction of runtime, uniform +/-

    def __post_init__(self):
        # written so that NaN fails each test
        if not 0 < self.period < math.inf:
            raise ValueError("template period must be a finite number > 0")
        if not 0 < self.runtime < math.inf:
            raise ValueError("template runtime must be a finite number > 0")
        if not -math.inf < self.offset < math.inf:
            raise ValueError("template offset must be a finite number")
        if self.cpus < 1 or self.count < 1:
            raise ValueError("template cpus/count must be positive")
        if not 0 <= self.submit_jitter < 1 or not 0 <= self.runtime_jitter < 1:
            raise ValueError("jitter fractions must lie in [0, 1)")


@dataclass(frozen=True)
class SynthSpec:
    horizon: float
    templates: tuple[SynthTemplate, ...] = ()
    background_rate: float = 0.0  # Poisson arrivals per second
    background_users: int = 10  # distinct background user ids (>= 1000)
    background_cpus: tuple[int, int] = (1, 8)
    background_runtime: tuple[float, float] = (600.0, 7200.0)
    estimate_factor: float = 1.0  # runtime_estimate = runtime * factor

    def __post_init__(self):
        # written so that NaN fails each test
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be a finite number > 0")
        if not 0 <= self.background_rate < math.inf:
            raise ValueError("background_rate must be a finite number >= 0")
        if not 1.0 <= self.estimate_factor < math.inf:
            raise ValueError("estimate_factor must be a finite number >= 1")


@dataclass(frozen=True)
class Occurrence:
    """Ground-truth record of one injected periodic job."""

    template_id: int
    occurrence_index: int
    submit_time: float
    cpus: int
    runtime: float


_BG_USER_BASE = 1000
_BG_GROUP = 99


def synth_workload(spec: SynthSpec, seed: int = 0) -> tuple[Workload, tuple[Occurrence, ...]]:
    """Generate a deterministic workload plus the injected ground truth.

    Template occurrences beyond the horizon are clipped.  Job ids are
    assigned in submit order after merging templates and background.
    """
    rng = np.random.default_rng(seed)
    truth: list[Occurrence] = []
    pending: list[tuple[float, int, int, float, float]] = []  # submit, user, cpus, runtime, group

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
        users = rng.integers(0, spec.background_users, size=n_bg) + _BG_USER_BASE
        lo_c, hi_c = spec.background_cpus
        cpus = rng.integers(lo_c, hi_c + 1, size=n_bg)
        lo_r, hi_r = spec.background_runtime
        runtimes = rng.uniform(lo_r, hi_r, size=n_bg)
        for i in range(n_bg):
            pending.append(
                (float(times[i]), int(users[i]), int(cpus[i]), float(runtimes[i]), _BG_GROUP)
            )

    pending.sort(key=lambda p: p[0])
    jobs = [
        Job(
            job_id=i + 1,
            user_id=user,
            group_id=group,
            submit_time=t,
            runtime=runtime,
            runtime_estimate=runtime * spec.estimate_factor,
            cpus=cpus,
        )
        for i, (t, user, cpus, runtime, group) in enumerate(pending)
    ]
    workload = Workload(jobs=tuple(jobs), source_name=f"synth(seed={seed})")
    return workload, tuple(truth)


def truth_to_csv(truth: tuple[Occurrence, ...] | list[Occurrence]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["template_id", "occurrence_index", "submit_time", "cpus", "runtime"])
    for occ in truth:
        writer.writerow(
            [occ.template_id, occ.occurrence_index, occ.submit_time, occ.cpus, occ.runtime]
        )
    return out.getvalue()


def parse_synth_spec(text: str) -> SynthSpec:
    """Read a SynthSpec from key/value config text.

    A [workload] section carries scalar settings; each [template.<name>]
    section defines one periodic template:

        [workload]
        horizon = 864000
        background_rate = 0.0001

        [template.daily]
        user_id = 1
        cpus = 4
        runtime = 3600
        period = 86400
        count = 10
    """
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if "workload" not in parser:
        raise ValueError("synthetic spec needs a [workload] section")
    w = parser["workload"]
    tpl = {f.name: f.default for f in fields(SynthTemplate)}
    spec = {f.name: f.default for f in fields(SynthSpec)}
    templates = []
    for section in parser.sections():
        if not section.startswith("template"):
            continue
        s = parser[section]
        templates.append(
            SynthTemplate(
                user_id=s.getint("user_id"),
                cpus=s.getint("cpus"),
                runtime=s.getfloat("runtime"),
                period=s.getfloat("period"),
                offset=s.getfloat("offset", tpl["offset"]),
                count=s.getint("count", tpl["count"]),
                submit_jitter=s.getfloat("submit_jitter", tpl["submit_jitter"]),
                runtime_jitter=s.getfloat("runtime_jitter", tpl["runtime_jitter"]),
            )
        )
    cpus, runtime = spec["background_cpus"], spec["background_runtime"]
    return SynthSpec(
        horizon=w.getfloat("horizon"),
        templates=tuple(templates),
        background_rate=w.getfloat("background_rate", spec["background_rate"]),
        background_users=w.getint("background_users", spec["background_users"]),
        background_cpus=(
            w.getint("background_cpus_min", cpus[0]),
            w.getint("background_cpus_max", cpus[1]),
        ),
        background_runtime=(
            w.getfloat("background_runtime_min", runtime[0]),
            w.getfloat("background_runtime_max", runtime[1]),
        ),
        estimate_factor=w.getfloat("estimate_factor", spec["estimate_factor"]),
    )
