"""Behaviour lock for the forecasting policy `dl`.

The sha256 of the trace CSV and of the feedback CSV of a few small `dl`
runs is stored in `data/dl_fingerprints.json`.  A refactor of the engine,
the miner or the confidence scoring must leave every byte unchanged.  When
behaviour is meant to change, re-record with

    PYTHONPATH=src python tests/test_fingerprints.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from predictsched import (
    ClusterConfig,
    ForecasterConfig,
    SimilarityParams,
    ThresholdState,
    feedback_to_csv,
    run_with_telemetry,
    trace_to_csv,
)

from conftest import lifecycle_workload, weekly_workload

DATA = Path(__file__).parent / "data" / "dl_fingerprints.json"

# name -> (workload builder, same_user, thresholds); the weekly scenarios use
# low thresholds so that hard reservations reshape the trace
SCENARIOS = {
    "lifecycle": (lifecycle_workload, True, ThresholdState(0.2, 0.6, min_gap=0.05)),
    "weekly": (weekly_workload, True, ThresholdState(0.05, 0.1, min_gap=0.05)),
    "weekly-pooled": (weekly_workload, False, ThresholdState(0.05, 0.1, min_gap=0.05)),
}


def fingerprint(name: str) -> dict[str, str]:
    build, same_user, thresholds = SCENARIOS[name]
    fc = ForecasterConfig(
        similarity=SimilarityParams(same_user=same_user), thresholds=thresholds
    )
    trace, tel = run_with_telemetry(build(), ClusterConfig(16), "dl", fc)
    return {
        "trace": hashlib.sha256(trace_to_csv(trace).encode()).hexdigest(),
        "feedback": hashlib.sha256(feedback_to_csv(tel.feedback).encode()).hexdigest(),
        "reservations": len(tel.reservations),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_dl_fingerprint_unchanged(name):
    expected = json.loads(DATA.read_text())[name]
    assert fingerprint(name) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    DATA.write_text(
        json.dumps({name: fingerprint(name) for name in sorted(SCENARIOS)}, indent=2)
        + "\n"
    )
