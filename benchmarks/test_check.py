"""Tests that the benchmark's output checks bite.

    python3 -m pytest benchmarks -q
"""

import dataclasses

import pytest

import run  # puts src/ on the path before the modules below import the library
from run import check, ps, workloads


@pytest.fixture(scope="module")
def replayed():
    wdef = workloads.WORKLOADS["backlog"]
    tally = run.Tally()
    inst, _times, _recs = run.set_up(wdef, seed=0, k=0, tally=tally, recorded=None)
    trace = ps.run(inst.workload, inst.cluster, "cons-bf")
    return inst, trace


def _move_start(trace, index, by):
    records = list(trace.records)
    records[index] = dataclasses.replace(records[index], start=records[index].start + by)
    return dataclasses.replace(trace, records=tuple(records))


def test_replayed_trace_passes(replayed):
    inst, trace = replayed
    assert check.trace_violations(trace, inst.workload, inst.cluster.total_cpus) == []


def test_one_moved_start_fails_the_invariants_and_the_lock(replayed):
    inst, trace = replayed
    moved = _move_start(trace, 10, 1.0)
    problems = check.trace_violations(moved, inst.workload, inst.cluster.total_cpus)
    assert any("finish - start != runtime" in p for p in problems)
    assert check.sha256(ps.trace_to_csv(moved)) != check.sha256(ps.trace_to_csv(trace))


def test_start_before_submit_and_overbooking_fail():
    jobs = tuple(ps.Job(i, 1, 1, 0.0, 10.0, 10.0, 3) for i in (1, 2))
    workload = ps.Workload(jobs=jobs)
    cluster = ps.ClusterConfig(4)
    ok = ps.SimTrace((ps.TraceRecord(1, 0.0, 0.0, 10.0, 3),
                      ps.TraceRecord(2, 0.0, 10.0, 20.0, 3)), cluster, "x")
    assert check.trace_violations(ok, workload, 4) == []
    overlap = _move_start(ok, 1, -5.0)
    overlap = dataclasses.replace(overlap, records=(
        overlap.records[0], dataclasses.replace(overlap.records[1], finish=15.0)))
    assert any("cpus busy" in p for p in check.trace_violations(overlap, workload, 4))
    early = ps.Workload(jobs=(jobs[0], dataclasses.replace(jobs[1], submit_time=12.0)))
    assert any("before its submit" in p for p in check.trace_violations(ok, early, 4))


def test_missing_and_repeated_jobs_fail(replayed):
    inst, trace = replayed
    records = trace.records
    dropped = dataclasses.replace(trace, records=records[1:])
    assert any("missing" in p for p in check.trace_violations(
        dropped, inst.workload, inst.cluster.total_cpus))
    doubled = dataclasses.replace(trace, records=records + records[:1])
    assert any("appears 2 times" in p for p in check.trace_violations(
        doubled, inst.workload, inst.cluster.total_cpus))


def test_recorded_lock_holds_and_a_mismatch_fails_its_operation(replayed):
    inst, _trace = replayed
    tally = run.Tally()
    _timing, _tel = run.replay(inst, tally, recorded=check.load_recorded()["backlog"]["0"])
    assert tally.failed == 0, tally.messages
    assert tally.attempted == len(run.POLICIES) + 2
    lock = dict(inst.fingerprint, traces=dict(inst.fingerprint["traces"], edf="0" * 64),
                winner="nobody")
    _timing, _tel = run.replay(inst, tally, recorded=[lock])
    assert tally.failed == 2  # the edf run and the ranking
    assert any("edf" in m for m in tally.messages)


def test_traced_replay_matches_untraced(replayed):
    inst, _trace = replayed
    tally = run.Tally()
    tracer = run.Tracer()
    with tracer.installed():
        _timing, tel = run.replay(inst, tally, recorded=[inst.fingerprint], tracer=tracer)
    assert tally.failed == 0, tally.messages
    layers = run.replay_layers(tracer.rec, tel, len(inst.workload))
    assert layers["policies.segments_calls"] > 0
    assert layers["patterns.mine_calls"] == tel["dl"].forecast_ticks + 1
    # the wrappers are gone again
    for fn in (ps.mine_patterns, ps.simulator.match_arrival,
               ps.policies.CapacityProfile.segments):
        assert not hasattr(fn, "__wrapped__")


def test_same_seed_same_text_other_seed_other_text():
    wdef = workloads.WORKLOADS["overestimate"]
    a = workloads.to_text(wdef, workloads.generate(wdef, 5))
    assert a == workloads.to_text(wdef, workloads.generate(wdef, 5))
    assert a != workloads.to_text(wdef, workloads.generate(wdef, 6))
    parsed = workloads.parse(wdef, a)
    assert all(j.runtime_estimate == pytest.approx(3 * j.runtime) for j in parsed)


def test_recorded_lock_covers_every_workload():
    recorded = check.load_recorded()
    assert set(recorded) == set(workloads.WORKLOADS)
    for seeds in recorded.values():
        for fps in seeds.values():
            assert len(fps) == workloads.INSTANCES
            assert set(fps[0]["traces"]) == set(run.POLICIES)
