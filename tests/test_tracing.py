"""Smoke test for the benchmark's layer tracer, so that renaming or deleting
a library name it wraps fails here and not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import predictsched as ps
import predictsched.patterns as ps_patterns
import predictsched.policies as ps_policies
import predictsched.simulator as ps_simulator

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    owners = (ps, ps_simulator, ps_patterns, ps_policies.CapacityProfile)
    return [dict(vars(owner)) for owner in owners]


def test_tracer_installs_and_restores_every_name():
    before = namespaces()
    tracer = load_tracing().Tracer()
    with tracer.installed():
        during = namespaces()
    after = namespaces()
    patched = {
        (i, name)
        for i, names in enumerate(before)
        for name, value in names.items()
        if during[i][name] is not value
    }
    # score_predictions reaches these through the simulator module
    assert {(1, "prolong"), (1, "group_patterns"), (1, "confidence_factor")} <= patched
    assert all(a.keys() == b.keys() for a, b in zip(before, after))
    for i, names in enumerate(before):
        assert all(after[i][name] is value for name, value in names.items())
