"""Eleven-policy replay benchmark.

    python3 benchmarks/run.py --workload backlog --seed 3 --seconds 30 --trace 0

For each of INSTANCES workload instances drawn from the seed, the run sets
up the input (generate, write CSV or SWF text, parse it back), then replays
it through all eleven policies the way ``predictsched compare`` does
(``run`` per policy, ``objectives`` per trace, ``rank_algorithms``), and
runs the offline ``analyze`` + ``forecast`` path at the last submit.
Replays cycle through the instances until ``--seconds`` is spent.  A metric
is the mean over instances of its median over that instance's replays.

Every replay is checked: trace invariants on any seed, and on the seeds in
``fingerprints.json`` the recorded trace, feedback, forecast and ranking
fingerprints.  A failed check or an exception counts as a failed operation
and makes the command exit 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced replay and prints the per-layer metrics, with the
tracing overhead, and writes all spans to ``.bench_out/``.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import itertools
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# one thread everywhere: the host has two cores and numpy's BLAS would take both
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np
    import predictsched as ps
    from predictsched.cli import DEFAULT_BINARY_MATRIX
except ImportError as exc:
    sys.exit(f"benchmark: cannot import predictsched from {ROOT / 'src'}: {exc}")
if not Path(ps.__file__).resolve().is_relative_to(ROOT / "src"):
    # an installed copy would be measured instead of this checkout's code
    sys.exit(f"benchmark: predictsched was imported from {ps.__file__}, not {ROOT / 'src'}")

import check  # noqa: E402
import workloads  # noqa: E402
from tracing import SpanRecorder, Tracer, replay_layers, setup_layers, write_spans  # noqa: E402

POLICIES = ("fcfs", "lcfs", "sjf", "smjf", "edf", "first-fit",
            "cons-bf", "easy-bf", "esg", "best-gap", "dl")
FAMILIES = {
    "run_s.dl": ("dl",),
    "run_s.best-gap": ("best-gap",),
    "run_s.esg": ("esg",),
    "run_s.backfill": ("cons-bf", "easy-bf"),
    "run_s.queue": ("fcfs", "lcfs", "sjf", "smjf", "edf", "first-fit"),
}
CHANNELS = ("submitted_cpu_time", "submitted_job_count", "interarrival")
WEIGHTS, _ = ps.weights_from_binary_matrix(DEFAULT_BINARY_MATRIX)
FORECAST_HORIZON = 86400.0
SETUP_REPEATS = 3  # set-ups per instance; setup_s is their median
FORECAST_REPEATS = 3  # offline forecasts per untraced replay
SPAN_DIR = ROOT / ".bench_out"

# The host's speed swings by about half between states lasting from a fraction
# of a second to minutes (other tenants, clock changes), which
# moves raw timings by 20-25 % from one run to the next.  So every timed
# operation is bracketed by a fixed interpreter-bound reference loop, and its
# wall time is scaled by REFERENCE_S over the loop's mean time: the result is
# in reference-host seconds (unit "ref_s"), those of a host on which the loop
# takes REFERENCE_S, which is its time on the 2-core host the baseline was
# recorded on, in its fast state.  The wall seconds are reported beside them
# under WALL + name, with the mean scale factor as "host_scale".  setup_s is in
# reference-host seconds too; BENCHMARK.json writes its unit "s" because the
# set-up time's unit is fixed there.
REFERENCE_S = 0.0045
WALL = "wall."


def _reference_work() -> int:
    table: dict[int, float] = {}
    items: list[int] = []
    for i in range(6000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        items.append((i * 7919) % 1009)
    items.sort()
    return len(table) + items[-1]


def _reference_s() -> float:
    t = time.perf_counter()
    for _ in range(3):
        _reference_work()
    return time.perf_counter() - t


def timed(fn, *args):
    """The result of fn(*args), its wall seconds, and the factor to reference-host seconds."""
    before = _reference_s()
    t = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - t
    return result, elapsed, 2 * REFERENCE_S / (before + _reference_s())


def _put(timing: dict[str, float], metric: str, parts: list[tuple[float, float]], combine=sum):
    """Store a metric from timed (wall seconds, scale) parts, in both units."""
    timing[metric] = combine([wall * scale for wall, scale in parts])
    timing[WALL + metric] = combine([wall for wall, _ in parts])


@dataclasses.dataclass
class Instance:
    index: int
    cluster: ps.ClusterConfig
    text: str
    workload: ps.Workload
    fingerprint: dict | None = None  # from the first replay; later ones must match


class Tally:
    """Operations attempted and failed; a failure is an exception or a failed check.

    An operation is one set-up, one policy run, one ranking or one forecast;
    it counts as failed once however many of its checks fail.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._failed_ops: set[str] = set()

    def attempt(self, ops: int) -> None:
        """Start a unit of ops operations; failures name them by key."""
        self.attempted += ops
        self._failed_ops = set()

    def fail(self, op: str, why: str) -> None:
        if op not in self._failed_ops:
            self._failed_ops.add(op)
            self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{op}: {why}")


def _span(tracer: Tracer | None, name: str):
    return tracer.rec.span(name) if tracer is not None else contextlib.nullcontext()


def set_up(wdef, seed: int, k: int, tally: Tally, recorded: list | None,
           tracer: Tracer | None = None):
    """Generate, write and parse instance k SETUP_REPEATS times.

    Returns the instance, the (wall seconds, scale) of each set-up and,
    when traced, one span recorder per set-up.
    """
    iseed = workloads.instance_seed(seed, k)

    def once():
        generated = workloads.generate(wdef, iseed)
        with _span(tracer, "workload.write"):
            text = workloads.to_text(wdef, generated)
        return generated, text, workloads.parse(wdef, text)

    times, texts, recorders, parsed = [], [], [], None
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.rec = SpanRecorder()
            recorders.append(tracer.rec)
        tally.attempt(1)
        gc.collect()
        (generated, text, parsed), *clock = timed(once)
        times.append(tuple(clock))
        texts.append(text)
        if len(parsed) != len(generated):
            tally.fail(f"setup {k}", f"parsed {len(parsed)} of {len(generated)} jobs")
    if any(text != texts[0] for text in texts[1:]):
        tally.fail(f"setup {k}", "the same seed gave different input text")
    if recorded is not None and check.sha256(texts[0]) != recorded[k]["input"]:
        tally.fail(f"setup {k}", "input text differs from the recorded lock")
    inst = Instance(k, ps.ClusterConfig(wdef.cpus), texts[0], parsed)
    return inst, times, recorders


def forecast(workload: ps.Workload):
    """The offline analyze + forecast path at the last submit."""
    for channel in CHANNELS:
        ps.hurst_exponent(ps.to_time_series(workload, channel))
    patterns = ps.mine_patterns(workload)
    preds = ps.prolong(patterns, workload.jobs[-1].submit_time, FORECAST_HORIZON)
    groups = ps.group_patterns(patterns)
    by_id = {p.pattern_id: p for p in patterns}
    scored = []
    for pred in preds:
        group = next(g for g in groups if pred.pattern_id in g.member_pattern_ids)
        conf = ps.confidence_factor(by_id[pred.pattern_id].length + pred.steps_ahead, group)
        scored.append(dataclasses.replace(pred, confidence=conf))
    return scored, patterns


def rank(traces: dict, cluster: ps.ClusterConfig) -> ps.Ranking:
    """Objectives per trace, then the ranking: the tail of ``predictsched compare``."""
    values = np.array([ps.objectives(traces[n], cluster).as_tuple() for n in POLICIES])
    _matrix, ranking = ps.rank_algorithms(values, ps.ORIENTATIONS, WEIGHTS)
    return ranking


def replay(inst: Instance, tally: Tally, recorded: list | None, tracer: Tracer | None = None,
           forecasts: int = 1) -> tuple[dict[str, float], dict | None]:
    """One compare pass plus the forecast path, then the output checks.

    Returns the timings and, when every operation produced its output, the
    telemetry of each run.
    """
    wrap = tracer.policy if tracer is not None else (lambda p: p)
    policies = {name: wrap(ps.make_policy(name)) for name in POLICIES}
    traces, telemetry, timing = {}, {}, {}
    clock: dict[str, tuple[float, float]] = {}  # operation -> (wall seconds, scale)
    failed: set[str] = set()
    tally.attempt(len(POLICIES) + 2)  # eleven runs, the ranking, the forecast
    gc.collect()

    def run_policy(name: str):
        fc = ps.ForecasterConfig() if name == "dl" else None
        with _span(tracer, f"simulator.run.{name}"):
            return ps.run_with_telemetry(inst.workload, inst.cluster, policies[name], fc)

    for name in POLICIES:
        try:
            (traces[name], telemetry[name]), *clock[name] = timed(run_policy, name)
        except Exception as exc:  # a failed run is counted, and the replay goes on
            failed.add(name)
            tally.fail(name, repr(exc))
    ranking = None
    if not failed:
        try:
            ranking, *clock["rank"] = timed(rank, traces, inst.cluster)
        except Exception as exc:
            tally.fail("ranking", repr(exc))
    else:
        tally.fail("ranking", "a policy run failed")
    if ranking is not None:
        _put(timing, "compare_s", [clock[name] for name in (*POLICIES, "rank")])
        for metric, members in FAMILIES.items():
            _put(timing, metric, [clock[m] for m in members])

    fc_times, scored, patterns = [], None, None
    for _ in range(forecasts):
        gc.collect()
        try:
            (scored, patterns), *fc_clock = timed(forecast, inst.workload)
        except Exception as exc:
            tally.fail("forecast", repr(exc))
            break
        fc_times.append(tuple(fc_clock))
    if fc_times:
        _put(timing, "forecast_s", fc_times, statistics.median)
    timing["host_scale"] = statistics.fmean(scale for _, scale in (*clock.values(), *fc_times))

    if failed or ranking is None or scored is None:
        return timing, None
    for name in POLICIES:
        for problem in check.trace_violations(traces[name], inst.workload,
                                              inst.cluster.total_cpus)[:3]:
            tally.fail(name, f"instance {inst.index}: {problem}")
    fp = check.fingerprint(traces, telemetry["dl"].feedback, ranking,
                           ps.predictions_to_csv(scored, patterns))
    if inst.fingerprint is None:
        inst.fingerprint = fp
    locks = [("between replays", inst.fingerprint)]
    if recorded is not None:
        locks.append(("from the recorded lock", recorded[inst.index]))
    for what, expected in locks:
        for key in check.fingerprint_diff(expected, fp):
            tally.fail(check.operation_of(key), f"instance {inst.index}: {key} differs {what}")
    return timing, telemetry


def _median_mean(per_instance: list[dict[str, list[float]]], key: str) -> float:
    """Mean over the instances that measured key of its median over their replays."""
    return statistics.fmean(statistics.median(s[key]) for s in per_instance if key in s)


def measure(wdef, seed: int, seconds: float, traced: bool) -> tuple[Tally, dict[str, float]]:
    """Set up, replay until the time is spent; return the tally and every value measured."""
    recorded = check.load_recorded().get(wdef.name, {}).get(str(seed))
    tally = Tally()
    tracer = Tracer() if traced else None
    recorders: list[SpanRecorder] = []
    instances, setups = [], []
    with tracer.installed() if traced else contextlib.nullcontext():
        for k in range(workloads.INSTANCES):
            inst, times, recs = set_up(wdef, seed, k, tally, recorded, tracer)
            instances.append(inst)
            setup: dict[str, list[float]] = {}
            _put(setup, "setup_s", times, list)
            for rec, (_wall, scale) in zip(recs, times):
                for key, value in setup_layers(rec).items():
                    setup.setdefault(key, []).append(value * scale if key.endswith("_s") else value)
            setups.append(setup)
            recorders.extend(recs)

    # replays cycle through the instances, each instance at least once, and
    # stop before the next one would overrun the time given
    samples: list[dict[str, list[float]]] = [{} for _ in instances]
    start = time.perf_counter()
    for n in itertools.count():
        replay_start = time.perf_counter()
        inst, sample = instances[n % len(instances)], samples[n % len(instances)]
        timing, untraced_tel = replay(inst, tally, recorded,
                                      forecasts=1 if traced else FORECAST_REPEATS)
        for key, value in timing.items():
            sample.setdefault(key, []).append(value)
        if tracer is not None and untraced_tel is not None:
            tracer.rec = SpanRecorder()
            recorders.append(tracer.rec)
            with tracer.installed():
                timing, tel = replay(inst, tally, recorded, tracer)
            if tel is not None:
                layers = replay_layers(tracer.rec, tel, len(inst.workload))
                layers = {key: value * timing["host_scale"] if key.endswith("_s") else value
                          for key, value in layers.items()}
                layers["trace.overhead_s"] = timing["compare_s"] - sample["compare_s"][-1]
                for key, value in layers.items():
                    sample.setdefault(key, []).append(value)
        now = time.perf_counter()
        if n + 1 >= len(instances) and now - start + (now - replay_start) > seconds:
            break

    if tally.failed:
        return tally, {}
    if tracer is not None:
        write_spans(SPAN_DIR / f"spans-{wdef.name}.npz", recorders)
    values = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for group in (setups, samples):
        values.update((key, _median_mean(group, key)) for key in set().union(*group))
    return tally, values


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    wdef = workloads.WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    tally, values = measure(wdef, args.seed, args.seconds, bool(args.trace))
    metrics = {name: values[name] for name in units} if values else {}
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    for name, value in metrics.items():
        wall = f"  (wall {values[WALL + name]:.6f} s)" if WALL + name in values else ""
        print(f"{name:40s} {value:14.6f} {units[name]}{wall}")
    if values:
        # the wall seconds behind each reference-host time, machine-readable
        print("wall-clock " + json.dumps({"host_scale": values["host_scale"], **{
            name: values[WALL + name] for name in metrics if WALL + name in values}}))
    print(f"{'fail_ratio':40s} {tally.failed / tally.attempted:14.6f} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
