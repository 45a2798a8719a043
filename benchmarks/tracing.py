"""Outside-in layer tracing for the benchmark's traced run.

The library has no hooks, so the traced run swaps public functions for
timed wrappers: module attributes the engine and the miner look up at call
time (``predictsched.simulator.mine_patterns``,
``predictsched.patterns.group_similar_jobs``, ...), the ``CapacityProfile``
methods, the package attributes the benchmark itself calls, and a wrapping
``Policy`` whose ``select`` is timed.  Everything is restored on exit.

Spans (name, parent, start, end) stay in memory and are written out once
at the end.  A span's self time is its duration minus its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from pathlib import Path

import numpy as np

import predictsched as ps
import predictsched.patterns as ps_patterns
import predictsched.policies as ps_policies
import predictsched.simulator as ps_simulator

# bookkeeping for counters runs in its own span, so that neither the wrapped
# call nor its caller's self time absorbs it
COUNT_SPAN = "trace.count"


class SpanRecorder:
    """Spans of one replay, as parallel lists indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
        }

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """{name: (calls, inclusive seconds, self seconds)}."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        incl = np.bincount(a["name"], weights=dur, minlength=n)
        own = np.bincount(a["name"], weights=dur - child, minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, name in enumerate(self.names)}


class Tracer:
    """Installs the timed wrappers; spans go to whichever recorder is current."""

    def __init__(self):
        self.rec = SpanRecorder()

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.rec
            idx = rec.open(rec.name_id(name))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if count is not None:
                cidx = rec.open(rec.name_id(COUNT_SPAN))
                count(rec, args, result)
                rec.close(cidx)
            return result

        return traced

    def policy(self, policy: ps.Policy) -> ps.Policy:
        return TracedPolicy(self, policy)

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr, name, count=None, kind=None):
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            fn = original.__func__ if kind is classmethod else original
            wrapped = self.wrap(name, fn, count)
            saved.append((owner, attr, original))
            setattr(owner, attr, classmethod(wrapped) if kind is classmethod else wrapped)

        # calls the engine and the miner make into other layers
        patch(ps_simulator, "mine_patterns", "patterns.mine_patterns", _count_mined)
        patch(ps_simulator, "prolong", "patterns.prolong", _count_predictions)
        patch(ps_simulator, "group_patterns", "confidence.group_patterns")
        patch(ps_simulator, "confidence_factor", "confidence.confidence_factor")
        patch(ps_simulator, "match_arrival", "simulator.match_arrival", _count_scanned)
        patch(ps_patterns, "group_similar_jobs", "patterns.group_similar_jobs")
        patch(ps_patterns, "detect_patterns", "patterns.detect_patterns")
        patch(ps_patterns, "build_layers", "patterns.build_layers")
        profile = ps_policies.CapacityProfile
        patch(profile, "from_view", "policies.profile_build", kind=classmethod)
        for method in ("earliest_fit", "fits", "reserve", "segments"):
            patch(profile, method, f"policies.{method}")
        # calls the benchmark itself makes through the package namespace
        for attr, name, count in (
            ("synth_workload", "synth.synth_workload", None),
            ("parse_csv", "workload.parse", None),
            ("parse_swf", "workload.parse", None),
            ("to_time_series", "workload.to_time_series", None),
            ("hurst_exponent", "hurst.hurst_exponent", None),
            ("mine_patterns", "patterns.mine_patterns", _count_mined),
            ("prolong", "patterns.prolong", _count_predictions),
            ("group_patterns", "confidence.group_patterns", None),
            ("confidence_factor", "confidence.confidence_factor", None),
            ("objectives", "metrics.objectives", None),
            ("rank_algorithms", "ranking.rank_algorithms", _count_iterations),
            ("trace_to_csv", "simtrace.trace_to_csv", None),
        ):
            patch(ps, attr, name, count)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

class TracedPolicy(ps.Policy):
    """Times the wrapped policy's select and records the queue it saw."""

    def __init__(self, tracer: Tracer, inner: ps.Policy):
        self.tracer = tracer
        self.inner = inner
        self.name = inner.name
        self._span = f"policies.select.{inner.name}"

    def select(self, view):
        rec = self.tracer.rec
        idx = rec.open(rec.name_id(self._span))
        try:
            starts = self.inner.select(view)
        finally:
            rec.close(idx)
        cidx = rec.open(rec.name_id(COUNT_SPAN))
        q = len(view.queue)
        rec.counts[f"queue_seen.{self.name}"] += q
        rec.counts[f"started.{self.name}"] += len(starts)
        if q > rec.maxima.get(f"max_queue.{self.name}", 0):
            rec.maxima[f"max_queue.{self.name}"] = q
        rec.close(cidx)
        return starts


def write_spans(path: Path, recorders: list[SpanRecorder]) -> None:
    """All spans of the run, one row per span, tagged with its recorder's number."""
    ids: dict[str, int] = {}
    cols: dict[str, list[np.ndarray]] = {k: [] for k in ("replay", "name", "parent", "start", "end")}
    for i, rec in enumerate(recorders):
        a = rec.arrays()
        remap = np.asarray([ids.setdefault(n, len(ids)) for n in rec.names] or [0], dtype=np.int32)
        cols["replay"].append(np.full(len(a["name"]), i, dtype=np.int32))
        cols["name"].append(remap[a["name"]])
        for key in ("parent", "start", "end"):
            cols[key].append(a[key])
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, names=np.asarray(list(ids)),
                        **{k: np.concatenate(v) for k, v in cols.items()})


def _count_mined(rec, args, patterns):
    rec.counts["jobs_mined"] += len(args[0])
    rec.counts["patterns_found"] += len(patterns)


def _count_predictions(rec, args, preds):
    rec.counts["predictions"] += len(preds)


def _count_scanned(rec, args, _result):
    active = args[1]
    rec.counts["reservations_scanned"] += len(active)
    rec.counts["reservations_live"] += sum(1 for r in active if r.live)


def _count_iterations(rec, args, result):
    rec.counts["ranking_iterations"] += result[1].iterations


def setup_layers(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer times of one traced set-up."""
    t = rec.totals()
    return {
        "synth.synth_workload_s": _incl(t, "synth.synth_workload"),
        # the library has no SWF writer: on SWF workloads this times the benchmark's
        "workload.workload_to_csv_s": _incl(t, "workload.write"),
        "workload.parse_s": _incl(t, "workload.parse"),
    }


def replay_layers(rec: SpanRecorder, telemetry: dict, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced replay (compare pass, forecast path, checks)."""
    t = rec.totals()
    c = rec.counts
    m: dict[str, float] = {
        "workload.to_time_series_s": _incl(t, "workload.to_time_series"),
        "hurst.hurst_exponent_s": _incl(t, "hurst.hurst_exponent"),
        "patterns.mine_patterns_s": _incl(t, "patterns.mine_patterns"),
        "patterns.mine_calls": _calls(t, "patterns.mine_patterns"),
        "patterns.jobs_mined": c["jobs_mined"],
        "patterns.group_similar_jobs_s": _incl(t, "patterns.group_similar_jobs"),
        "patterns.detect_patterns_s": _incl(t, "patterns.detect_patterns"),
        "patterns.build_layers_s": _incl(t, "patterns.build_layers"),
        "patterns.prolong_s": _incl(t, "patterns.prolong"),
        "patterns.patterns_found": c["patterns_found"],
        "patterns.predictions": c["predictions"],
        "confidence.group_patterns_s": _incl(t, "confidence.group_patterns"),
        "confidence.confidence_factor_s": _incl(t, "confidence.confidence_factor"),
        "confidence.confidence_factor_calls": _calls(t, "confidence.confidence_factor"),
    }
    dl = telemetry["dl"]
    for tier, decision in (("hard", ps.Decision.HARD_RESERVE),
                           ("soft", ps.Decision.SOFT_RESERVE),
                           ("ignore", ps.Decision.IGNORE)):
        made = [r for r in dl.reservations if r.decision is decision]
        m[f"confidence.decisions.{tier}"] = len(made)
        if made:  # a tier with no decisions has no precision
            m[f"confidence.precision.{tier}"] = sum(r.consumed for r in made) / len(made)
    for name, tel in telemetry.items():
        m[f"simulator.self_s.{name}"] = t[f"simulator.run.{name}"][2]
        m[f"simulator.events.{name}"] = (
            2 * jobs + sum(2 if r.holds_capacity else 1 for r in tel.reservations)
            + tel.forecast_ticks)
    scanned = c["reservations_scanned"]
    m.update({
        "simulator.match_arrival_s": _incl(t, "simulator.match_arrival"),
        "simulator.match_arrival_calls": _calls(t, "simulator.match_arrival"),
        "simulator.reservations_scanned": scanned,
        "simulator.live_ratio": c["reservations_live"] / scanned if scanned else 0.0,
        "simulator.reservations": len(dl.reservations),
        "simulator.reservations_skipped": dl.reservations_skipped,
        "simulator.forecast_ticks": dl.forecast_ticks,
    })
    for name in telemetry:
        seen = c[f"queue_seen.{name}"]
        m[f"policies.select_s.{name}"] = _incl(t, f"policies.select.{name}")
        m[f"policies.select_calls.{name}"] = _calls(t, f"policies.select.{name}")
        m[f"policies.queue_seen.{name}"] = seen
        m[f"policies.max_queue.{name}"] = rec.maxima.get(f"max_queue.{name}", 0)
        m[f"policies.started_ratio.{name}"] = c[f"started.{name}"] / seen if seen else 0.0
    m.update({
        "policies.profile_build_s": _incl(t, "policies.profile_build"),
        "policies.earliest_fit_s": _incl(t, "policies.earliest_fit"),
        "policies.earliest_fit_calls": _calls(t, "policies.earliest_fit"),
        "policies.fits_calls": _calls(t, "policies.fits"),
        "policies.reserve_s": _incl(t, "policies.reserve"),
        "policies.reserve_calls": _calls(t, "policies.reserve"),
        "policies.segments_s": _incl(t, "policies.segments"),
        "policies.segments_calls": _calls(t, "policies.segments"),
        "metrics.objectives_s": _incl(t, "metrics.objectives"),
        "ranking.rank_s": _incl(t, "ranking.rank_algorithms"),
        "ranking.iterations": c["ranking_iterations"],
        "simtrace.trace_to_csv_s": _incl(t, "simtrace.trace_to_csv"),
        "trace.spans": len(rec.start),
    })
    return m


def _incl(totals, name: str) -> float:
    return totals.get(name, (0, 0.0, 0.0))[1]


def _calls(totals, name: str) -> int:
    return totals.get(name, (0, 0.0, 0.0))[0]
