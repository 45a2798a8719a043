"""Command-line front end.

Subcommands: analyze (Hurst report), forecast (pattern mining to CSV),
simulate (one policy, trace + objectives), compare (many policies or a
stored matrix, full ranking report), synth (generate a workload).  The
PREDICTSCHED_SEED environment variable overrides any configured seed.
Exit status: 0 on success, 1 on domain errors, 2 on usage errors and on a
path that cannot be read or written.  A command opens all its output files
before it writes any of them.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys

import numpy as np

from . import __version__
from .confidence import MODES, ThresholdState, feedback_to_csv
from .hurst import hurst_exponent
from .metrics import ORIENTATIONS, objectives
from .patterns import SimilarityParams, mine_patterns, predictions_to_csv
from .policies import POLICY_TOKENS
from .ranking import (
    load_matrix_tsv,
    principal_eigenvector,
    rank_algorithms,
    render_matrix,
    render_report,
    weights_from_binary_matrix,
)
from .simtrace import trace_to_csv
from .simulator import ForecasterConfig, run, run_with_telemetry, score_predictions
from .synth import parse_synth_spec, synth_workload, truth_to_csv
from .workload import (CHANNELS, ClusterConfig, load_workload, read_text, to_time_series,
                       workload_to_csv)

# default criterion preferences: makespan and slowdown tie, slowdown
# outranks resource usage, resource usage outranks makespan
DEFAULT_BINARY_MATRIX = [
    [0.0, 0.5, 0.0],
    [0.5, 0.0, 1.0],
    [1.0, 0.0, 0.0],
]


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _seed(args) -> int:
    env = os.environ.get("PREDICTSCHED_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _similarity(args) -> SimilarityParams:
    return SimilarityParams(
        cpu_tol=args.cpu_tol,
        runtime_tol=args.runtime_tol,
        period_jitter=args.period_jitter,
        min_occurrences=args.min_occurrences,
        same_user=not args.any_user,
    )


def _policy_token(token: str) -> str:
    lowered = token.lower()
    if lowered not in POLICY_TOKENS:
        valid = ", ".join(POLICY_TOKENS)
        raise CliError(f"unknown policy '{token}'; expected one of {valid}", code=2)
    return lowered


def _write_all(outputs: list[tuple[str, str, str]]) -> None:
    """Write each (path, text, note) output, then print the notes.  Every
    path is opened for writing first, as it is, so a symlink is written
    through and a device or an existing file keeps its identity; only once
    all are open is any truncated and written, devices and pipes first.  A
    path that cannot be opened (missing directory, a directory, read-only,
    too long) changes no output, and on any error a file this call created
    is removed.  An OSError names the path."""
    created: list[str] = []
    current = None  # the path being opened or written
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for current, text, _note in outputs:
                existed = os.path.exists(current)
                fd = os.open(current, os.O_WRONLY | os.O_CREAT, 0o666)
                if not existed:
                    created.append(os.path.realpath(current))
                fh = stack.enter_context(open(fd, "w", encoding="utf-8"))
                files.append((stat.S_ISREG(os.fstat(fd).st_mode), current, fh, text))
            for is_regular, current, fh, text in sorted(files, key=lambda f: f[0]):
                if is_regular:
                    fh.truncate(0)
                fh.write(text)
                fh.flush()
    except BaseException as exc:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError) and exc.filename is None:
            raise OSError(exc.errno, exc.strerror, current) from None
        raise
    for _path, _text, note in outputs:
        print(note)


def cmd_analyze(args) -> int:
    workload = load_workload(args.workload, args.format)
    series = to_time_series(workload, args.channel, args.bin_width)
    result = hurst_exponent(series)
    print(f"workload: {workload.source_name} ({len(workload)} jobs)")
    print(f"channel:  {args.channel}")
    print(f"H = {result.h:.6f}   (fit residual {result.fit_residual:.4g})")
    print("log(n)\tlog(R/S)")
    for log_n, log_rs in result.rs_points:
        print(f"{log_n:.4f}\t{log_rs:.4f}")
    return 0


def cmd_forecast(args) -> int:
    workload = load_workload(args.workload, args.format)
    params = _similarity(args)
    patterns = mine_patterns(workload, params, max_layer=args.max_layer)
    now = args.now if args.now is not None else workload.jobs[-1].submit_time
    scored = [pred for pred, _ in score_predictions(patterns, now, args.horizon, params, args.mode)]
    csv_text = predictions_to_csv(scored, patterns)
    if args.out:
        _write_all([(args.out, csv_text, f"wrote {len(scored)} predictions to {args.out}")])
    else:
        sys.stdout.write(csv_text)
    print(
        f"{len(patterns)} patterns "
        f"({sum(1 for p in patterns if p.layer > 1)} above layer 1), "
        f"{len(scored)} predictions in ({now:g}, {now + args.horizon:g}]"
    )
    return 0


def _forecaster_config(args, policies: list[str]) -> ForecasterConfig | None:
    """The checked config, or None without `dl`, whose options then keep their defaults."""
    config = ForecasterConfig(
        similarity=_similarity(args),
        thresholds=ThresholdState(t_low=args.t_low, t_high=args.t_high),
        mode=args.mode,
        tick=args.tick,
        horizon=args.horizon,
        max_layer=args.max_layer,
    )
    if "dl" in policies:
        return config
    _reject_given(args, _add_dl_args, "dl options need the dl policy")
    return None


def _reject_given(args, add_args, context: str) -> None:
    """Exit 2 when args holds, away from its default, any option add_args defines."""
    bare = argparse.ArgumentParser(add_help=False)
    add_args(bare)
    given = [k for k, v in vars(bare.parse_args([])).items() if getattr(args, k) != v]
    if given:
        flags = ", ".join("--" + k.replace("_", "-") for k in given)
        raise CliError(f"{context}, got {flags}", code=2)


def cmd_simulate(args) -> int:
    policy = _policy_token(args.policy)
    workload = load_workload(args.workload, args.format)
    cluster = ClusterConfig(total_cpus=args.cpus)
    forecaster = _forecaster_config(args, [policy])
    trace, telemetry = run_with_telemetry(workload, cluster, policy, forecaster)
    outputs = []
    if args.out:
        outputs.append((args.out, trace_to_csv(trace), f"trace written to {args.out}"))
    if args.feedback_out:
        outputs.append((args.feedback_out, feedback_to_csv(telemetry.feedback),
                        f"feedback log written to {args.feedback_out}"))
    _write_all(outputs)
    vec = objectives(trace, cluster)
    print(f"policy:      {trace.policy_name}")
    print(f"makespan:    {vec.makespan:g}")
    print(f"utilization: {vec.utilization:.3f}")
    print(f"slowdown:    {vec.slowdown:.4f}")
    return 0


def cmd_compare(args) -> int:
    if args.matrix:
        _reject_given(args, _add_replay_args, "--matrix takes no replay options")
        matrix, names = load_matrix_tsv(read_text(args.matrix))
        names = names or [f"alg{i}" for i in range(matrix.shape[0])]
        sys.stdout.write(render_matrix(names, matrix, principal_eigenvector(matrix)))
        return 0

    policies = [_policy_token(t) for t in args.policies.split(",")] if args.policies else []
    if len(policies) < 2:
        raise CliError("compare needs at least 2 policies (or --matrix)", code=2)
    if not args.workload or args.cpus is None:
        raise CliError("compare needs --workload and --cpus", code=2)
    workload = load_workload(args.workload, args.format)
    cluster = ClusterConfig(total_cpus=args.cpus)
    forecaster = _forecaster_config(args, policies)
    values = []
    for token in policies:
        trace = run(workload, cluster, token, forecaster if token == "dl" else None)
        values.append(objectives(trace, cluster).as_tuple())
    values = np.array(values)
    raw_weights, _ = weights_from_binary_matrix(DEFAULT_BINARY_MATRIX)
    matrix, ranking = rank_algorithms(values, ORIENTATIONS, raw_weights)
    sys.stdout.write(render_report(policies, values, matrix, ranking))
    return 0


def cmd_synth(args) -> int:
    spec = parse_synth_spec(read_text(args.spec))
    workload, truth = synth_workload(spec, seed=_seed(args))
    outputs = [(args.out, workload_to_csv(workload), f"wrote {len(workload)} jobs to {args.out}")]
    if args.truth:
        outputs.append((args.truth, truth_to_csv(truth),
                        f"wrote {len(truth)} ground-truth occurrences to {args.truth}"))
    _write_all(outputs)
    return 0


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", required=True, help="workload file (SWF or CSV)")
    p.add_argument("--format", choices=("swf", "csv"), default=None)


def _add_forecast_args(p: argparse.ArgumentParser) -> None:
    """The mining options; their defaults are ForecasterConfig()'s."""
    fc = ForecasterConfig()
    sim = fc.similarity
    p.add_argument("--cpu-tol", type=float, default=sim.cpu_tol)
    p.add_argument("--runtime-tol", type=float, default=sim.runtime_tol)
    p.add_argument("--period-jitter", type=float, default=sim.period_jitter)
    p.add_argument("--min-occurrences", type=int, default=sim.min_occurrences)
    p.add_argument("--any-user", action="store_true", help="cluster across users")
    p.add_argument("--max-layer", type=int, default=fc.max_layer)
    p.add_argument("--mode", choices=MODES, default=fc.mode)
    p.add_argument("--horizon", type=float, default=fc.horizon)


def _add_dl_args(p: argparse.ArgumentParser) -> None:
    """The options of the `dl` policy's online forecaster beyond mining."""
    _add_forecast_args(p)
    fc = ForecasterConfig()
    p.add_argument("--tick", type=float, default=fc.tick)
    p.add_argument("--t-low", type=float, default=fc.thresholds.t_low)
    p.add_argument("--t-high", type=float, default=fc.thresholds.t_high)


def _add_replay_args(p: argparse.ArgumentParser) -> None:
    """The options of `compare` when it replays a workload."""
    p.add_argument("--workload", default=None)
    p.add_argument("--format", choices=("swf", "csv"), default=None)
    _add_dl_args(p)
    p.add_argument("--cpus", type=int, default=None)
    p.add_argument("--policies", default=None, help="comma-separated policy tokens")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predictsched",
        description="workload analysis, forecasting, scheduling simulation, "
        "and policy ranking",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="Hurst exponent of a workload series")
    _add_workload_args(p)
    p.add_argument("--channel", choices=sorted(CHANNELS), default="interarrival")
    p.add_argument("--bin-width", type=float, default=3600.0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("forecast", help="mine patterns and emit predictions CSV")
    _add_workload_args(p)
    _add_forecast_args(p)
    p.add_argument("--now", type=float, default=None, help="default: last submit")
    p.add_argument("--out", default=None, help="predictions CSV path")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("simulate", help="run one policy and report objectives")
    _add_workload_args(p)
    _add_dl_args(p)
    p.add_argument("--cpus", type=int, required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--out", default=None, help="trace CSV path")
    p.add_argument("--feedback-out", default=None, help="forecast feedback CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="rank policies (or replay a stored matrix)")
    _add_replay_args(p)
    p.add_argument("--matrix", default=None, help="TSV matrix for eigenvector replay")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic workload")
    p.add_argument("--spec", required=True, help="key/value spec file")
    p.add_argument("--out", required=True, help="workload CSV path")
    p.add_argument("--truth", default=None, help="ground-truth CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:  # a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
