"""Simulation trace records and their CSV form."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .workload import ClusterConfig, fmt_seconds


@dataclass(frozen=True)
class TraceRecord:
    job_id: int
    submit: float
    start: float
    finish: float
    cpus: int

    def __post_init__(self):
        if not self.submit <= self.start < self.finish:
            raise ValueError(
                f"job {self.job_id}: need submit <= start < finish, "
                f"got ({self.submit}, {self.start}, {self.finish})"
            )


@dataclass(frozen=True)
class SimTrace:
    records: tuple[TraceRecord, ...]  # sorted by (submit, job_id)
    cluster: ClusterConfig
    policy_name: str


def trace_to_csv(trace: SimTrace) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["job_id", "submit", "start", "finish", "cpus"])
    for r in trace.records:
        writer.writerow([r.job_id, fmt_seconds(r.submit), fmt_seconds(r.start),
                         fmt_seconds(r.finish), r.cpus])
    return out.getvalue()

