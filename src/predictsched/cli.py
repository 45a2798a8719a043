"""Command-line front end.

Subcommands: analyze (Hurst report), forecast (pattern mining to CSV),
simulate (one policy, trace + objectives), compare (many policies or a
stored matrix, full ranking report), synth (generate a workload).  The
PREDICTSCHED_SEED environment variable overrides any configured seed.
Exit status: 0 on success, 1 on domain errors, 2 on usage/file errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .confidence import ThresholdState, feedback_to_csv
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
from .workload import ClusterConfig, load_workload, to_time_series, workload_to_csv

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


def _read_file(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise CliError(f"file not found: {path}", code=2)
    return p.read_text(encoding="utf-8")


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
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(f"wrote {len(scored)} predictions to {args.out}")
    else:
        sys.stdout.write(csv_text)
    print(
        f"{len(patterns)} patterns "
        f"({sum(1 for p in patterns if p.layer > 1)} above layer 1), "
        f"{len(scored)} predictions in ({now:g}, {now + args.horizon:g}]"
    )
    return 0


def _forecaster_config(args) -> ForecasterConfig:
    return ForecasterConfig(
        similarity=_similarity(args),
        thresholds=ThresholdState(t_low=args.t_low, t_high=args.t_high),
        mode=args.mode,
        tick=args.tick,
        horizon=args.horizon,
        max_layer=args.max_layer,
    )


def cmd_simulate(args) -> int:
    policy = _policy_token(args.policy)
    workload = load_workload(args.workload, args.format)
    cluster = ClusterConfig(total_cpus=args.cpus)
    forecaster = _forecaster_config(args) if policy == "dl" else None
    trace, telemetry = run_with_telemetry(workload, cluster, policy, forecaster)
    if args.out:
        Path(args.out).write_text(trace_to_csv(trace), encoding="utf-8")
        print(f"trace written to {args.out}")
    if args.feedback_out:
        Path(args.feedback_out).write_text(
            feedback_to_csv(telemetry.feedback), encoding="utf-8"
        )
        print(f"feedback log written to {args.feedback_out}")
    vec = objectives(trace, cluster)
    print(f"policy:      {trace.policy_name}")
    print(f"makespan:    {vec.makespan:g}")
    print(f"utilization: {vec.utilization:.3f}")
    print(f"slowdown:    {vec.slowdown:.4f}")
    return 0


def cmd_compare(args) -> int:
    if args.matrix:
        matrix, names = load_matrix_tsv(_read_file(args.matrix))
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
    values = []
    for token in policies:
        forecaster = _forecaster_config(args) if token == "dl" else None
        trace = run(workload, cluster, token, forecaster)
        values.append(objectives(trace, cluster).as_tuple())
    values = np.array(values)
    raw_weights, _ = weights_from_binary_matrix(DEFAULT_BINARY_MATRIX)
    matrix, ranking = rank_algorithms(values, ORIENTATIONS, raw_weights)
    sys.stdout.write(render_report(policies, values, matrix, ranking))
    return 0


def cmd_synth(args) -> int:
    spec = parse_synth_spec(_read_file(args.spec))
    workload, truth = synth_workload(spec, seed=_seed(args))
    Path(args.out).write_text(workload_to_csv(workload), encoding="utf-8")
    print(f"wrote {len(workload)} jobs to {args.out}")
    if args.truth:
        Path(args.truth).write_text(truth_to_csv(truth), encoding="utf-8")
        print(f"wrote {len(truth)} ground-truth occurrences to {args.truth}")
    return 0


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", required=True, help="workload file (SWF or CSV)")
    p.add_argument("--format", choices=("swf", "csv"), default=None)


def _add_forecast_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cpu-tol", type=float, default=0.0)
    p.add_argument("--runtime-tol", type=float, default=0.25)
    p.add_argument("--period-jitter", type=float, default=0.10)
    p.add_argument("--min-occurrences", type=int, default=3)
    p.add_argument("--any-user", action="store_true", help="cluster across users")
    p.add_argument("--max-layer", type=int, default=3)
    p.add_argument("--mode", choices=("survival", "pdf_normalized"), default="survival")
    p.add_argument("--horizon", type=float, default=86400.0)
    p.add_argument("--tick", type=float, default=86400.0)
    p.add_argument("--t-low", type=float, default=0.33)
    p.add_argument("--t-high", type=float, default=0.66)


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
    p.add_argument(
        "--channel",
        choices=("interarrival", "submitted_cpu_time", "submitted_job_count"),
        default="interarrival",
    )
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
    _add_forecast_args(p)
    p.add_argument("--cpus", type=int, required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--out", default=None, help="trace CSV path")
    p.add_argument("--feedback-out", default=None, help="forecast feedback CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="rank policies (or replay a stored matrix)")
    p.add_argument("--workload", default=None)
    p.add_argument("--format", choices=("swf", "csv"), default=None)
    _add_forecast_args(p)
    p.add_argument("--cpus", type=int, default=None)
    p.add_argument("--policies", default=None, help="comma-separated policy tokens")
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
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except IsADirectoryError as exc:
        print(f"error: is a directory, not a file: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
