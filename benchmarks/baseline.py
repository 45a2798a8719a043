"""Measure the baseline: ten seeds per workload, then one traced run each.

    python3 benchmarks/baseline.py --seeds 0-9 --out benchmarks/baseline.json

Runs ``run.py`` once per (workload, seed), one after another, and records
for every end-to-end metric its median, quartiles and spread (the distance
between the quartiles as a share of the median), both as reported and, for
times, in the wall seconds behind them, with the host scale factor of each
run; then one ``--trace 1`` run per workload for the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result object and its wall-clock line (host scale, wall seconds)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=False, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    wall = next(json.loads(line.removeprefix("wall-clock ")) for line in lines
                if line.startswith("wall-clock "))
    return json.loads(lines[-1]), wall


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-9")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi) + 1))
    names = [w["name"] for w in declared["workloads"]]
    out = {"run_seconds": declared["run_seconds"], "seeds": seeds,
           "end_to_end": {}, "per_layer": {}}
    for name in names:
        runs, walls = [], []
        for seed in seeds:
            result, wall = run_once(name, seed, declared["run_seconds"], 0)
            runs.append(result)
            walls.append(wall)
            print(f"{name} seed {seed}: compare_s {result['metrics']['compare_s']['value']:.4f}"
                  f" (wall {wall['compare_s']:.4f}, host scale {wall['host_scale']:.3f})",
                  file=sys.stderr)
        metrics = {"host_scale": {"host": summarize([w["host_scale"] for w in walls])}}
        for m in declared["end_to_end"]:
            metrics[m["name"]] = {"reported": summarize(
                [r["metrics"][m["name"]]["value"] for r in runs])}
            if m["name"] in walls[0]:
                metrics[m["name"]]["wall"] = summarize([w[m["name"]] for w in walls])
        out["end_to_end"][name] = metrics
        traced, _wall = run_once(name, seeds[0], declared["run_seconds"], 1)
        out["per_layer"][name] = {k: v["value"] for k, v in traced["metrics"].items()}
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for name, metrics in out["end_to_end"].items():
        for metric, kinds in metrics.items():
            print(f"{name:13s} {metric:16s} " + "  ".join(
                f"{kind} median {s['median']:.5g} spread {s['spread']:.3f}"
                for kind, s in kinds.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
