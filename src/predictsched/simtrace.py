"""Simulation trace records and their CSV form.

A trace holds its per-job rows as columns (`TraceRecords`); a `TraceRecord`
object is built only when a caller reads one row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .workload import ClusterConfig, _whole_as_int, write_csv


@dataclass(frozen=True)
class TraceRecord:
    job_id: int
    submit: float
    start: float
    finish: float
    cpus: int

    def __post_init__(self):
        if not -math.inf < self.submit <= self.start < self.finish < math.inf:
            raise ValueError(
                f"job {self.job_id}: need submit <= start < finish, "
                f"got ({self.submit}, {self.start}, {self.finish})"
            )


class TraceRecords(Sequence[TraceRecord]):
    """The rows of a trace as three read-only columns: `job_ids`, `times`
    (float64, one row of submit, start, finish per job) and `cpus`.

    Reading `[k]` or iterating builds each `TraceRecord` on the fly, and
    built records are not cached.  A slice is a `TraceRecords`, `+`
    concatenates, and `==` compares values with another `TraceRecords` or
    a tuple of records; equal rows hash equal.  The constructor checks
    finite times with submit <= start < finish on every row at once and
    raises the `TraceRecord` error of the first row that breaks it.
    """

    __slots__ = ("job_ids", "times", "cpus")

    def __init__(self, job_ids: list[int], times: np.ndarray, cpus: list[int]):
        times = np.asarray(times, dtype=np.float64)
        if times.shape != (len(job_ids), 3) or len(cpus) != len(job_ids):
            raise ValueError(
                f"need {len(job_ids)} rows of (submit, start, finish) and of cpus, "
                f"got times of shape {times.shape} and {len(cpus)} cpus"
            )
        submit, start, finish = times.T
        ordered = (-np.inf < submit) & (submit <= start) & (start < finish) & (finish < np.inf)
        bad = np.flatnonzero(~ordered)  # NaN fails too
        if bad.size:  # the first bad row fails TraceRecord's own check
            k = bad[0]
            TraceRecord(job_ids[k], *times[k].tolist(), cpus[k])
        times.flags.writeable = False
        self.job_ids, self.times, self.cpus = job_ids, times, cpus

    @classmethod
    def of(cls, records: Sequence[TraceRecord]) -> TraceRecords:
        """The columns of a sequence of records."""
        if isinstance(records, TraceRecords):
            return records
        times = [(r.submit, r.start, r.finish) for r in records]
        return cls([r.job_id for r in records], np.reshape(times, (-1, 3)),
                   [r.cpus for r in records])

    def _rows(self) -> Iterator[tuple]:
        return zip(self.job_ids, *self.times.T.tolist(), self.cpus)

    def __len__(self) -> int:
        return len(self.job_ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return TraceRecords(self.job_ids[k], self.times[k], self.cpus[k])
        return TraceRecord(self.job_ids[k], *self.times[k].tolist(), self.cpus[k])

    def __iter__(self) -> Iterator[TraceRecord]:
        return itertools.starmap(TraceRecord, self._rows())

    def __add__(self, other: Sequence[TraceRecord]) -> TraceRecords:
        other = TraceRecords.of(other)
        return TraceRecords([*self.job_ids, *other.job_ids],
                            np.concatenate((self.times, other.times)),
                            [*self.cpus, *other.cpus])

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceRecords):
            return (self.job_ids == other.job_ids and self.cpus == other.cpus
                    and np.array_equal(self.times, other.times))
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        # a frozen dataclass hashes as the tuple of its fields, so this is
        # the hash of the equal tuple of records
        return hash(tuple(self._rows()))

    def __repr__(self) -> str:
        return f"TraceRecords({list(self)!r})"


@dataclass(frozen=True)
class SimTrace:
    """One run's trace: a row per job, sorted by (submit, job_id), the
    cluster and the policy.  Any sequence of `TraceRecord`s given as
    `records` is stored as `TraceRecords` columns."""

    records: Sequence[TraceRecord]
    cluster: ClusterConfig
    policy_name: str

    def __post_init__(self):
        object.__setattr__(self, "records", TraceRecords.of(self.records))


def trace_to_csv(trace: SimTrace) -> str:
    records = trace.records
    # cpus too: a whole float count (2.0) prints as 2
    columns = map(_whole_as_int, [*records.times.T.tolist(), records.cpus])
    return write_csv(["job_id", "submit", "start", "finish", "cpus"],
                     zip(records.job_ids, *columns))
