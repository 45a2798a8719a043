"""Synthetic workload generation with known periodic structure.

Templates inject periodic jobs (fixed user, requirements, and period, with
optional submit/runtime jitter); a Poisson background adds non-periodic
noise from a separate pool of users.  The generator returns both the
workload and the injected occurrences, so forecaster recall can be scored
against exact ground truth.

Each template takes its jitter draws in one array call, an occurrence's
submit draw before its runtime draw, so the stream of draws, and with it
every time, is the one a draw per jittered value would give.  The
per-occurrence arithmetic stays in plain Python: a template's int runtime
stays an int when it has no runtime jitter.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .workload import Job, Workload, write_csv


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
        if self.background_users < 1:
            raise ValueError("background_users must be >= 1")
        lo_c, hi_c = self.background_cpus
        if not 1 <= lo_c <= hi_c:
            raise ValueError("background_cpus must satisfy 1 <= min <= max, "
                             f"got {self.background_cpus}")
        lo_r, hi_r = self.background_runtime
        if not 0 < lo_r <= hi_r < math.inf:
            raise ValueError("background_runtime must be finite numbers with 0 < min <= max, "
                             f"got {self.background_runtime}")


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
_MAX_JOBS = 1_000_000  # rows drawn per workload; more would not fit in memory


def _check_jobs(n: int, source: str) -> None:
    if n > _MAX_JOBS:
        raise ValueError(f"synthetic spec: {source} would bring the workload past "
                         f"{_MAX_JOBS:,} jobs")


def synth_workload(spec: SynthSpec, seed: int = 0) -> tuple[Workload, tuple[Occurrence, ...]]:
    """Generate a deterministic workload plus the injected ground truth.

    Template occurrences beyond the horizon are clipped.  Job ids are
    assigned in submit order after merging templates and background.  More
    than _MAX_JOBS rows to draw is a ValueError raised before they are drawn.
    """
    drawn = 0
    for tid, tpl in enumerate(spec.templates):
        drawn += tpl.count
        _check_jobs(drawn, f"template {tid}")
    rng = np.random.default_rng(seed)
    truth: list[Occurrence] = []
    pending: list[tuple[float, int, int, float, int]] = []  # submit, user, cpus, runtime, group

    for tid, tpl in enumerate(spec.templates):
        # one row of draws per occurrence, in the order a draw per jitter
        # takes them: the submit draw, then the runtime draw (no jitter
        # draws nothing)
        draws = (tpl.submit_jitter > 0) + (tpl.runtime_jitter > 0)
        rows = rng.uniform(-1.0, 1.0, size=(tpl.count, draws)).tolist()
        for k, row in enumerate(rows):
            t = tpl.offset + k * tpl.period
            if tpl.submit_jitter > 0:
                t += row[0] * tpl.submit_jitter * tpl.period
            runtime = tpl.runtime
            if tpl.runtime_jitter > 0:
                runtime *= 1.0 + row[-1] * tpl.runtime_jitter
            t = max(t, 0.0)
            if t > spec.horizon:
                continue
            truth.append(Occurrence(tid, k, t, tpl.cpus, runtime))
            pending.append((t, tpl.user_id, tpl.cpus, runtime, 0))

    if spec.background_rate > 0:
        n_bg = int(rng.poisson(spec.background_rate * spec.horizon))
        _check_jobs(drawn + n_bg, "[workload] background_rate * horizon")
        times = np.sort(rng.uniform(0.0, spec.horizon, size=n_bg))
        users = rng.integers(0, spec.background_users, size=n_bg) + _BG_USER_BASE
        lo_c, hi_c = spec.background_cpus
        cpus = rng.integers(lo_c, hi_c + 1, size=n_bg)
        lo_r, hi_r = spec.background_runtime
        runtimes = rng.uniform(lo_r, hi_r, size=n_bg)
        pending.extend(zip(times.tolist(), users.tolist(), cpus.tolist(), runtimes.tolist(),
                           [_BG_GROUP] * n_bg))

    pending.sort(key=itemgetter(0))
    factor = spec.estimate_factor
    jobs = [
        Job(i, user, group, t, runtime, runtime * factor, cpus)
        for i, (t, user, cpus, runtime, group) in enumerate(pending, start=1)
    ]
    workload = Workload(jobs=tuple(jobs), source_name=f"synth(seed={seed})")
    return workload, tuple(truth)


def truth_to_csv(truth: tuple[Occurrence, ...] | list[Occurrence]) -> str:
    return write_csv(
        ["template_id", "occurrence_index", "submit_time", "cpus", "runtime"],
        ((o.template_id, o.occurrence_index, o.submit_time, o.cpus, o.runtime) for o in truth),
    )


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

    horizon and each template's user_id, cpus, runtime and period are
    required.  A missing key, a value that does not convert, a section of
    another name, or text configparser cannot read is a ValueError.
    """
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
        return _spec_from(parser)
    except configparser.Error as exc:
        raise ValueError(f"synthetic spec: {' '.join(str(exc).split())}") from None


# each section's keys and their types
_TEMPLATE_KEYS = {"user_id": int, "cpus": int, "runtime": float, "period": float,
                  "offset": float, "count": int, "submit_jitter": float,
                  "runtime_jitter": float}
_WORKLOAD_KEYS = {"horizon": float, "background_rate": float, "background_users": int,
                  "background_cpus_min": int, "background_cpus_max": int,
                  "background_runtime_min": float, "background_runtime_max": float,
                  "estimate_factor": float}


def _values(section, keys: dict, required) -> dict:
    """The keys present in section, each converted to its type; a missing
    required key or a value that does not convert names the section and key."""
    values = {}
    for key, kind in keys.items():
        if key not in section:
            if key in required:
                raise ValueError(f"synthetic spec: [{section.name}] has no {key}")
            continue
        try:
            values[key] = kind(section[key])
        except ValueError:
            raise ValueError(f"synthetic spec: [{section.name}] {key} = {section[key]!r} "
                             f"is not {'an integer' if kind is int else 'a number'}") from None
    return values


def _spec_from(parser: configparser.ConfigParser) -> SynthSpec:
    if "workload" not in parser:
        raise ValueError("synthetic spec needs a [workload] section")
    templates = []
    for name in parser.sections():
        if name == "workload":
            continue
        if not name.startswith("template.") or name == "template.":
            raise ValueError(f"synthetic spec: unknown section [{name}]; "
                             "expected [workload] or [template.<name>]")
        templates.append(SynthTemplate(**_values(
            parser[name], _TEMPLATE_KEYS, ("user_id", "cpus", "runtime", "period"))))
    w = _values(parser["workload"], _WORKLOAD_KEYS, ("horizon",))
    (lo_c, hi_c), (lo_r, hi_r) = SynthSpec.background_cpus, SynthSpec.background_runtime
    return SynthSpec(
        templates=tuple(templates),
        background_cpus=(w.pop("background_cpus_min", lo_c), w.pop("background_cpus_max", hi_c)),
        background_runtime=(w.pop("background_runtime_min", lo_r),
                            w.pop("background_runtime_max", hi_r)),
        **w,
    )
