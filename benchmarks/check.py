"""Output checks: trace invariants on any seed, fingerprints on recorded ones.

The invariants read nothing but the trace and the workload it replays, so
they hold for every seed.  Fingerprints lock the exact behaviour at the
commit that recorded them: the sha256 of every policy's trace CSV, of the
``dl`` feedback log and of the offline forecast, plus the ranking.
"""

from __future__ import annotations

import collections
import hashlib
import json
from pathlib import Path

import predictsched as ps

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_violations(trace: ps.SimTrace, workload: ps.Workload, total_cpus: int) -> list[str]:
    """Broken invariants of one trace: capacity, submit order, runtimes, job coverage."""
    problems: list[str] = []
    jobs = {j.job_id: j for j in workload}
    seen = collections.Counter(r.job_id for r in trace.records)
    for job_id, n in sorted(seen.items()):
        if job_id not in jobs:
            problems.append(f"job {job_id} is not in the workload")
        elif n > 1:
            problems.append(f"job {job_id} appears {n} times")
    missing = sorted(set(jobs) - set(seen))
    if missing:
        problems.append(f"{len(missing)} jobs missing, first {missing[0]}")
    deltas: list[tuple[float, int]] = []
    for r in trace.records:
        job = jobs.get(r.job_id)
        if job is None:
            continue
        if r.start < job.submit_time:
            problems.append(f"job {r.job_id} starts at {r.start!r} before its submit")
        # the engine schedules the finish at start + runtime; compare the same sum
        if r.finish != r.start + job.runtime:
            problems.append(f"job {r.job_id}: finish - start != runtime")
        if r.cpus != job.cpus:
            problems.append(f"job {r.job_id} holds {r.cpus} cpus, asked {job.cpus}")
        deltas.append((r.start, r.cpus))
        deltas.append((r.finish, -r.cpus))
    busy = 0
    for t, d in sorted(deltas):  # at one instant finishes (negative) come first
        busy += d
        if busy > total_cpus:
            problems.append(f"{busy} cpus busy at t={t!r} on a {total_cpus}-cpu cluster")
            break
    return problems


def fingerprint(traces: dict, feedback: list, ranking: ps.Ranking, forecast_csv: str) -> dict:
    """The behaviour lock of one replay; the recorded lock adds the input's sha256."""
    names = list(traces)
    return {
        "traces": {name: sha256(ps.trace_to_csv(traces[name])) for name in names},
        "feedback": sha256(ps.feedback_to_csv(feedback)),
        "forecast": sha256(forecast_csv),
        "winner": names[ranking.winner],
        "eigenvector": list(ranking.eigenvector),
    }


def operation_of(key: str) -> str:
    """The operation a fingerprint entry belongs to: "traces.edf" is the edf run."""
    group, _, policy = key.partition(".")
    return {"traces": policy, "feedback": "dl", "forecast": "forecast"}.get(group, "ranking")


def fingerprint_diff(expected: dict, got: dict) -> list[str]:
    """Entries of got that expected does not match."""
    out = []
    for key in sorted(got):
        a, b = expected.get(key), got.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            out.extend(f"{key}.{k}" for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k))
        elif a != b:
            out.append(key)
    return out


def load_recorded() -> dict:
    """{workload: {seed (str): [fingerprint per instance]}}; empty if none were recorded."""
    if not FINGERPRINTS.exists():
        return {}
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
