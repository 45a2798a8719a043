"""The demos' stdout, byte for byte.

Demo 02 mines a layer-2 pattern and prints its predictions, which the
benchmark workloads never reach; its hash pins that path end to end.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout: a change to any byte fails here
PINNED_STDOUT = {
    "01_workload_and_hurst.py": "d48d8256f327b7a1aa374214a4eac2896feb350ebcb23695a5737a719cb2a2a2",
    "02_forecasting_pipeline.py": "7a2fc99049c19c8ea2791609c4885aed8a8e57bde303465eaa9e600aaaa1042d",
    "03_policy_showdown.py": "213f8d8677aab12660dbbda3ccc59c44471f67bd95a1118af459407f751842bd",
    "04_ranking_replay.py": "0ef4476c0c7b988e5c78f996cea082191ce1415c0ad571759f4dc10bd30cd837",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(PINNED_STDOUT)


@pytest.mark.parametrize("demo", sorted(PINNED_STDOUT))
def test_demo_stdout_pinned(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, cwd=ROOT, capture_output=True, check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == PINNED_STDOUT[demo]
