"""Record the behaviour lock that every benchmark run checks.

    python3 benchmarks/record_fingerprints.py --seeds 0-31

For each workload and seed, sets up and replays every instance once and
stores the sha256 of its input text, of each policy's trace CSV, of the
``dl`` feedback log and of the offline forecast, with the ranking winner
and eigenvector, in ``fingerprints.json``.  Re-record only at a commit
whose behaviour is meant to change, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # puts src/ on the path before the modules below import the library
from run import check, workloads


def record(wdef, seed: int) -> list[dict]:
    tally = run.Tally()
    fps = []
    for k in range(workloads.INSTANCES):
        inst, _times, _recs = run.set_up(wdef, seed, k, tally, None)
        run.replay(inst, tally, recorded=None)
        if tally.failed:
            raise SystemExit(f"{wdef.name} seed {seed}: {tally.messages}")
        fps.append({"input": check.sha256(inst.text), **inst.fingerprint})
    return fps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    locks = check.load_recorded()
    for name, wdef in workloads.WORKLOADS.items():
        for seed in seeds:
            locks.setdefault(name, {})[str(seed)] = record(wdef, seed)
            print(f"{name} seed {seed} recorded", file=sys.stderr)
            check.FINGERPRINTS.write_text(json.dumps(locks, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
