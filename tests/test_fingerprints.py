"""Behaviour lock for every policy.

`data/dl_fingerprints.json` stores the sha256 of the trace CSV and of the
feedback CSV of a few small `dl` runs, and under "policies" the sha256 of
the trace CSV of each of the other ten policies on the lifecycle and weekly
workloads and of the four planner policies on the deep-queue backlog
workload, on its overestimated twin, where every finish comes early, and on
its underestimated twin, where half the jobs outlive their estimate.
A refactor of the engine, the planners, the miner or the confidence
scoring must leave every byte unchanged.  When behaviour is
meant to change, re-record with

    PYTHONPATH=src python tests/test_fingerprints.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from predictsched import (
    POLICY_TOKENS,
    ClusterConfig,
    ForecasterConfig,
    SimilarityParams,
    ThresholdState,
    feedback_to_csv,
    run,
    run_with_telemetry,
    trace_to_csv,
)

from conftest import (
    backlog_workload,
    lifecycle_workload,
    overestimate_workload,
    underestimate_workload,
    weekly_workload,
)

DATA = Path(__file__).parent / "data" / "dl_fingerprints.json"
CLUSTER = ClusterConfig(16)

# name -> (workload builder, same_user, thresholds); the weekly scenarios use
# low thresholds so that hard reservations reshape the trace, and
# weekly-hard pins both borders at 0 so that every reservation is hard
SCENARIOS = {
    "lifecycle": (lifecycle_workload, True, ThresholdState(0.2, 0.6, min_gap=0.05)),
    "weekly": (weekly_workload, True, ThresholdState(0.05, 0.1, min_gap=0.05)),
    "weekly-pooled": (weekly_workload, False, ThresholdState(0.05, 0.1, min_gap=0.05)),
    "weekly-hard": (
        weekly_workload, True, ThresholdState(0.0, 0.0, step=0.0, min_gap=0.0)
    ),
    "backlog": (backlog_workload, True, ThresholdState()),
    "overestimate": (overestimate_workload, True, ThresholdState()),
    "underestimate": (underestimate_workload, True, ThresholdState()),
}

# the ten policies that run without a forecaster on the two light workloads
# (pbs-pro is first-fit under another name), and the planner policies on the
# deep queue, where profiles have many steps
PLAIN_POLICIES = tuple(t for t in POLICY_TOKENS if t not in ("dl", "pbs-pro"))
POLICY_SCENARIOS = {
    "lifecycle": (lifecycle_workload, PLAIN_POLICIES),
    "weekly": (weekly_workload, PLAIN_POLICIES),
    "backlog": (backlog_workload, ("cons-bf", "easy-bf", "esg", "best-gap")),
    "overestimate": (overestimate_workload, ("cons-bf", "easy-bf", "esg", "best-gap")),
    "underestimate": (underestimate_workload, ("cons-bf", "easy-bf", "esg", "best-gap")),
}
POLICY_CASES = [
    (name, token)
    for name, (_build, tokens) in sorted(POLICY_SCENARIOS.items())
    for token in tokens
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(name: str) -> dict[str, str]:
    build, same_user, thresholds = SCENARIOS[name]
    fc = ForecasterConfig(
        similarity=SimilarityParams(same_user=same_user), thresholds=thresholds
    )
    trace, tel = run_with_telemetry(build(), CLUSTER, "dl", fc)
    return {
        "trace": _sha(trace_to_csv(trace)),
        "feedback": _sha(feedback_to_csv(tel.feedback)),
        "reservations": len(tel.reservations),
    }


def policy_fingerprint(name: str, token: str) -> str:
    return _sha(trace_to_csv(run(POLICY_SCENARIOS[name][0](), CLUSTER, token)))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_dl_fingerprint_unchanged(name):
    expected = json.loads(DATA.read_text())[name]
    assert fingerprint(name) == expected


@pytest.mark.parametrize("name, token", POLICY_CASES)
def test_policy_fingerprint_unchanged(name, token):
    expected = json.loads(DATA.read_text())["policies"][name][token]
    assert policy_fingerprint(name, token) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record = {name: fingerprint(name) for name in sorted(SCENARIOS)}
    record["policies"] = {
        name: {token: policy_fingerprint(name, token) for token in tokens}
        for name, (_build, tokens) in sorted(POLICY_SCENARIOS.items())
    }
    DATA.write_text(json.dumps(record, indent=2) + "\n")
