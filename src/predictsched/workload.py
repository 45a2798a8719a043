"""Workload records, trace parsers, and time-series conversion.

A workload is an ordered stream of batch jobs (submit time plus resource
request).  Two on-disk formats are supported: the 18-field Standard Workload
Format used by the public parallel-workload archives, and a plain CSV with
named columns; load_workload also reads either one gzipped.  Parsed
workloads are normalized so the earliest submission is at t = 0, which
makes makespans comparable across traces.

Parse errors name the physical line of the text.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import zlib
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Optional, Sequence

import numpy as np

CHANNELS = ("submitted_cpu_time", "submitted_job_count", "interarrival")


class ParseError(ValueError):
    """Malformed trace input."""


@dataclass(frozen=True)
class Job:
    job_id: int
    user_id: int
    group_id: int
    submit_time: float
    runtime: float
    runtime_estimate: float
    cpus: int
    deadline: Optional[float] = None

    def __post_init__(self):
        # one test covers all four: inf and nan survive a sum, and nan
        # would slip through every comparison below
        times = self.submit_time + self.runtime + self.runtime_estimate
        if not math.isfinite(times + (self.deadline or 0.0)):
            raise ValueError(f"job {self.job_id}: times must be finite numbers")
        if self.runtime <= 0:
            raise ValueError(f"job {self.job_id}: runtime must be > 0")
        if self.runtime_estimate <= 0:
            raise ValueError(f"job {self.job_id}: runtime_estimate must be > 0")
        t = self.submit_time  # far from 0 a short duration rounds away
        if t + self.runtime == t or t + self.runtime_estimate == t:
            raise ValueError(f"job {self.job_id}: runtime and estimate must not "
                             f"vanish at submit_time {t}")
        # a whole number: fractional cpus let float rounding break the
        # engine's accounting; nan fails >= and inf % 1 is nan
        cpus = self.cpus
        if not (cpus >= 1 and cpus % 1 == 0):
            raise ValueError(f"job {self.job_id}: cpus must be a whole number >= 1, "
                             f"got {cpus!r}")
        if self.submit_time < 0:
            raise ValueError(f"job {self.job_id}: submit_time must be >= 0")


_JOB_ORDER = attrgetter("submit_time", "job_id")


@dataclass(frozen=True)
class Workload:
    """Jobs sorted by (submit_time, job_id) with unique ids."""

    jobs: tuple[Job, ...]
    source_name: str = ""
    dropped: int = 0  # records discarded during parsing (nonpositive runtime/cpus)

    def __post_init__(self):
        keys = list(map(_JOB_ORDER, self.jobs))
        if keys != sorted(keys):
            raise ValueError("jobs must be sorted by (submit_time, job_id)")
        if len({job_id for _submit, job_id in keys}) != len(keys):
            raise ParseError("duplicate id in workload")

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)


@dataclass(frozen=True)
class ClusterConfig:
    total_cpus: int

    def __post_init__(self):
        n = self.total_cpus  # whole, as Job.cpus is
        if not (n >= 1 and n % 1 == 0):
            raise ValueError(f"total_cpus must be a whole number >= 1, got {n!r}")


@dataclass(frozen=True)
class TimeSeries:
    """Regularly binned values; bin i covers [start + i*bin_width, start + (i+1)*bin_width)."""

    start_time: float
    bin_width: float
    values: tuple[float, ...]

    def __post_init__(self):
        if not 0 < self.bin_width < math.inf:
            raise ValueError(f"bin_width must be a finite number > 0, got {self.bin_width}")
        if len(self.values) < 1:
            raise ValueError("series must have at least one value")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def _build_workload(raw: list[tuple], source: str) -> Workload:
    """Jobs from (line number, job_id, user_id, group_id, submit_time,
    runtime, runtime_estimate, cpus, deadline) records, shifted so the
    earliest kept submit is at 0.  Records with nonpositive runtime or cpus
    are dropped and counted; a kept record whose id a kept record already
    has, or that Job rejects, is a ParseError naming its line."""
    kept = [r for r in raw if r[5] > 0 and r[7] > 0]
    if not kept:
        raise ParseError("empty workload")
    seen: set[int] = set()
    for r in kept:
        if r[1] in seen:
            raise ParseError(f"line {r[0]}: duplicate id {r[1]}")
        seen.add(r[1])
    t0 = min(r[4] for r in kept)
    jobs = []
    for lineno, job_id, user_id, group_id, submit, runtime, estimate, cpus, deadline in kept:
        try:
            jobs.append(Job(job_id, user_id, group_id, submit - t0, runtime, estimate, cpus,
                            None if deadline is None else deadline - t0))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    jobs.sort(key=_JOB_ORDER)
    return Workload(jobs=tuple(jobs), source_name=source, dropped=len(raw) - len(kept))


# SWF data lines: 18 whitespace-separated fields.
# 1 job id, 2 submit, 3 wait, 4 runtime, 5 allocated procs, 6 cpu used,
# 7 mem used, 8 requested procs, 9 requested time, 10 requested mem,
# 11 status, 12 user id, 13 group id, 14 executable, 15 queue,
# 16 partition, 17 preceding job, 18 think time.
_SWF_FIELDS = 18
_SWF_INT_NAMES = ("job id", "allocated processors", "requested processors",
                  "user id", "group id")


def parse_swf(text: str, source_name: str = "swf") -> Workload:
    """Parse Standard Workload Format text into a normalized Workload.

    Requested processors take precedence over allocated ones; the requested
    wall time becomes the runtime estimate when present, falling back to the
    actual runtime.  A fractional id or processor count is a ParseError.
    Records are dropped and ids checked as in parse_csv: a record with
    nonpositive runtime or processor count is dropped and counted, and an id
    that a kept record already has is a ParseError.
    """
    raw: list[tuple] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0][0] == ";":
            continue
        if len(fields) != _SWF_FIELDS:
            raise ParseError(
                f"line {lineno}: expected {_SWF_FIELDS} fields, got {len(fields)}"
            )
        try:
            vals = list(map(float, fields))
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
        raw.append((lineno, job_id, user_id, group_id, vals[1], runtime,
                    req_time if req_time > 0 else runtime,
                    requested if requested > 0 else alloc, None))
    return _build_workload(raw, source_name)


_CSV_COLUMNS = (
    "job_id",
    "user_id",
    "group_id",
    "submit_time",
    "runtime",
    "runtime_estimate",
    "cpus",
)


def _csv_rows(reader):
    """The reader's rows, with a csv.Error (a lone carriage return, an
    oversized field) made a ParseError naming the line it was seen on."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def parse_csv(text: str, source_name: str = "csv") -> Workload:
    """Parse the package's CSV workload format (optional trailing deadline
    column); records are dropped and ids checked as in parse_swf.

    Columns are found by header name, in any order; a name given twice
    reads its last column.  Blank lines are skipped, fields past the header
    are ignored, a missing field is non-numeric (a missing or blank deadline
    is none), and errors name the physical line the row ends on.
    """
    reader = csv.reader(io.StringIO(text))
    rows = _csv_rows(reader)
    header = next(rows, None)
    if header is None:
        raise ParseError("empty workload")
    at = {name: k for k, name in enumerate(header)}  # the last of a repeated name
    for col in _CSV_COLUMNS:
        if col not in at:
            raise ParseError(f"missing column '{col}'")
    get = itemgetter(*(at[col] for col in _CSV_COLUMNS))
    deadline_at = at.get("deadline")
    raw: list[tuple] = []
    for row in rows:
        if not row:
            continue
        if len(row) < len(header):
            row += [None] * (len(header) - len(row))
        lineno = reader.line_num
        deadline = None if deadline_at is None else row[deadline_at]
        try:
            job_id, user_id, group_id, submit, runtime, estimate, cpus = get(row)
            rec = (lineno, int(job_id), int(user_id), int(group_id), float(submit),
                   float(runtime), float(estimate), int(cpus),
                   float(deadline) if deadline else None)
        except (TypeError, ValueError):
            raise ParseError(f"line {lineno}: non-numeric field") from None
        if not math.isfinite(rec[4] + rec[5] + rec[6] + (rec[8] or 0.0)):
            raise ParseError(f"line {lineno}: non-finite field")
        raw.append(rec)
    return _build_workload(raw, source_name)


def _whole_as_int(column) -> list:
    """The column with each whole number made an int and every other one a
    float (None stays None).  csv writes an int as its digits, a float as
    its repr and None as an empty field, so a time goes out as whole
    seconds when it is whole and as its exact float repr otherwise.  Jobs
    and traces hold only finite times, so int() cannot overflow here."""
    return [x if x is None else i if x == (i := int(x)) else float(x) for x in column]


def workload_to_csv(workload: Workload) -> str:
    """Serialize to the canonical CSV format (round-trips through parse_csv)."""
    jobs = workload.jobs
    deadlines = [j.deadline for j in jobs]
    any_deadline = deadlines.count(None) < len(deadlines)
    columns = [
        [j.job_id for j in jobs],
        [j.user_id for j in jobs],
        [j.group_id for j in jobs],
        _whole_as_int([j.submit_time for j in jobs]),
        _whole_as_int([j.runtime for j in jobs]),
        _whole_as_int([j.runtime_estimate for j in jobs]),
        [int(j.cpus) for j in jobs],  # whole (Job checks), so 2.0 prints as 2
    ]
    if any_deadline:
        columns.append(_whole_as_int(deadlines))
    return write_csv(list(_CSV_COLUMNS) + (["deadline"] if any_deadline else []),
                     zip(*columns))


def write_csv(header: Sequence[str], rows) -> str:
    """CSV text of the header and then each row, as every CSV output is
    written: an int as its digits, a float as its repr, None as empty."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def read_text(path: str) -> str:
    """The text of any input file: read through gzip when its name ends in
    .gz, as UTF-8 with a leading byte order mark skipped.  A file that is
    not valid gzip, or holds a byte that is not UTF-8, is a ParseError
    naming the path (and the physical line of the byte)."""
    opener = gzip.open if str(path).lower().endswith(".gz") else open
    try:
        try:
            with opener(path, "rt", encoding="utf-8-sig") as fh:
                return fh.read()
        except UnicodeDecodeError as exc:
            # the text reader's position is within a chunk: find the byte again
            reason = exc.reason
            with opener(path, "rb") as fh:
                data = fh.read()
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise ParseError(f"{path}: not a readable gzip file ({exc})") from None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lineno = head.count(b"\n") + 1
        raise ParseError(
            f"{path}: line {lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None
    raise ParseError(f"{path}: a byte is not UTF-8 ({reason})")  # the file changed since


def load_workload(path: str, fmt: Optional[str] = None) -> Workload:
    """Read a workload file through read_text, inferring the format from the
    extension unless given; a name ending in .gz has its format inferred
    from the name without .gz."""
    if fmt is None:
        fmt = "swf" if str(path).lower().removesuffix(".gz").endswith(".swf") else "csv"
    text = read_text(path)
    if fmt == "swf":
        return parse_swf(text, source_name=str(path))
    if fmt == "csv":
        return parse_csv(text, source_name=str(path))
    raise ValueError(f"unknown workload format '{fmt}'")


def to_time_series(
    workload: Workload | Sequence[Job],
    channel: str = "interarrival",
    bin_width: float = 3600.0,
) -> TimeSeries:
    """Convert a job stream into one of three time-series channels.

    submitted_cpu_time   -- per bin, sum of cpus * runtime_estimate of jobs
                            submitted in the bin
    submitted_job_count  -- per bin, number of submissions
    interarrival         -- successive submit-time differences (bin_width
                            is ignored; one value per adjacent pair)
    """
    jobs = tuple(workload)
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel '{channel}'; expected one of {CHANNELS}")
    if not jobs:
        raise ValueError("empty workload")
    submits = np.array([j.submit_time for j in jobs], dtype=float)
    start = float(submits[0])

    if channel == "interarrival":
        if len(jobs) < 2:
            raise ValueError("interarrival channel needs at least 2 jobs")
        gaps = np.diff(submits)
        return TimeSeries(start_time=start, bin_width=1.0, values=tuple(gaps))

    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be a finite number > 0, got {bin_width}")
    idx = np.floor((submits - start) / bin_width).astype(int)
    nbins = int(idx.max()) + 1
    if channel == "submitted_job_count":
        vals = np.bincount(idx, minlength=nbins).astype(float)
    else:  # submitted_cpu_time
        weights = np.array([j.cpus * j.runtime_estimate for j in jobs], dtype=float)
        vals = np.bincount(idx, weights=weights, minlength=nbins)
    return TimeSeries(start_time=start, bin_width=float(bin_width), values=tuple(vals))
