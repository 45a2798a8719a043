import math

import pytest
from hypothesis import given, settings, strategies as st

from predictsched import (
    POLICY_TOKENS,
    ClusterConfig,
    SimTrace,
    TraceRecord,
    makespan,
    objectives,
    resource_utilization,
    run,
    slowdown,
)

from conftest import (
    backlog_workload,
    lifecycle_workload,
    make_job,
    make_workload,
    overestimate_workload,
    reference_objectives,
    saturated_workload,
    underestimate_workload,
    weekly_workload,
)


def trace(records, total_cpus=8, policy="test"):
    return SimTrace(
        records=tuple(TraceRecord(*r) for r in records),
        cluster=ClusterConfig(total_cpus),
        policy_name=policy,
    )


class TestMakespan:
    def test_two_jobs(self):
        t = trace([(1, 0, 0, 10, 1), (2, 0, 10, 15, 1)], total_cpus=1)
        assert makespan(t) == 15

    def test_single_job(self):
        assert makespan(trace([(1, 0, 0, 10, 4)])) == 10

    def test_order_free(self):
        a = trace([(1, 0, 0, 10, 1), (2, 0, 10, 15, 1)], 1)
        b = trace([(2, 0, 10, 15, 1), (1, 0, 0, 10, 1)], 1)
        assert makespan(a) == makespan(b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            makespan(trace([]))


class TestSlowdown:
    def test_no_wait_is_one(self):
        assert slowdown(trace([(1, 0, 0, 10, 1)])) == 1.0

    def test_fcfs_pair(self):
        t = trace([(1, 0, 0, 10, 1), (2, 0, 10, 15, 1)], 1)
        assert slowdown(t) == 4.0  # 10/10 + 15/5

    def test_zero_wait_lower_bound(self):
        recs = [(i, i * 10.0, i * 10.0, i * 10.0 + 5, 1) for i in range(1, 8)]
        assert slowdown(trace(recs)) == 7.0

    def test_zero_runtime_rejected(self):
        with pytest.raises(ValueError):
            trace([(1, 0, 5, 5, 1)])  # TraceRecord itself refuses start == finish


class TestUtilization:
    def test_sole_small_job_is_full_use(self):
        # 4 cpus on an 8-cpu cluster, but it is the only demand present
        t = trace([(1, 0, 0, 10, 4)], total_cpus=8)
        assert resource_utilization(t, ClusterConfig(8)) == pytest.approx(100.0)

    def test_fcfs_pair_full_use(self):
        t = trace([(1, 0, 0, 10, 1), (2, 0, 10, 15, 1)], 1)
        assert resource_utilization(t, ClusterConfig(1)) == pytest.approx(100.0)

    def test_enforced_idle_counts_against(self):
        # job 2 present from t=0 but idles [10, 12) before starting
        t = trace([(1, 0, 0, 10, 1), (2, 0, 12, 15, 1)], 1)
        assert resource_utilization(t, ClusterConfig(1)) == pytest.approx(
            100.0 * 13 / 15
        )

    def test_no_demand_interval_excluded(self):
        # gap [10, 12) has nothing submitted: excluded, still 100%
        t = trace([(1, 0, 0, 10, 1), (2, 12, 12, 15, 1)], 1)
        assert resource_utilization(t, ClusterConfig(1)) == pytest.approx(100.0)

    def test_bounds(self):
        t = trace([(1, 0, 0, 10, 2), (2, 0, 5, 25, 4)], total_cpus=8)
        u = resource_utilization(t, ClusterConfig(8))
        assert 0 < u <= 100


class TestNegativeTimes:
    """Times before 0 are instants like any other."""

    def test_early_job_counts_from_its_submit(self):
        # [-5, 0): 1 of 1 requested; [0, 2): 1 of 2; [2, 10): 2 of 2
        t = trace([(1, -5, -5, 10, 1), (2, 0, 2, 10, 1)], total_cpus=2)
        assert resource_utilization(t, ClusterConfig(2)) == 100.0 * 14 / 15

    def test_lone_early_job_is_full_use(self):
        t = trace([(1, -5, -5, 10, 1)], total_cpus=2)
        assert resource_utilization(t, ClusterConfig(2)) == 100.0


# a coarse integer clock forces shared instants; float times do not
TIMES = st.one_of(st.integers(0, 12).map(float), st.floats(0.0, 1e5))


@st.composite
def random_traces(draw):
    """1-300 records with times >= 0 and 1-64 cpus, on a cluster below or
    above the demand."""
    rows = draw(st.lists(st.tuples(TIMES, TIMES, TIMES, st.integers(1, 64)),
                         min_size=1, max_size=300))
    records = []
    for job_id, (submit, wait, run, cpus) in enumerate(rows, start=1):
        start = submit + wait
        finish = start + run
        if finish <= start:
            finish = math.nextafter(start, math.inf)
        records.append((job_id, submit, start, finish, cpus))
    demand = sum(r[4] for r in records)
    total = draw(st.one_of(st.integers(1, 64), st.integers(demand, demand + 64)))
    return trace(records, total_cpus=total), ClusterConfig(total)


class TestMatchesReference:
    """The array version gives the reference loops' floats, bit for bit: the
    ranking eigenvector would see a last-bit difference."""

    @settings(max_examples=300, deadline=None)
    @given(random_traces())
    def test_random_traces(self, case):
        t, cluster = case
        expected = reference_objectives(t, cluster)
        assert objectives(t, cluster).as_tuple() == expected
        assert (makespan(t), resource_utilization(t, cluster), slowdown(t)) == expected

    @pytest.mark.parametrize("build, cpus", [
        (lifecycle_workload, 16), (weekly_workload, 16), (backlog_workload, 16),
        (overestimate_workload, 16), (underestimate_workload, 16),
        (saturated_workload, 24),
    ])
    def test_every_policy_on_the_conftest_workloads(self, build, cpus):
        wl, cluster = build(), ClusterConfig(cpus)
        for token in POLICY_TOKENS:
            t = run(wl, cluster, token)
            assert objectives(t, cluster).as_tuple() == reference_objectives(t, cluster)


class TestInvariance:
    def test_relabeling_job_ids(self):
        base = [(1, 0, 0, 10, 2), (2, 3, 5, 25, 4), (3, 4, 30, 40, 8)]
        relabeled = [(9, 0, 0, 10, 2), (5, 3, 5, 25, 4), (7, 4, 30, 40, 8)]
        a, b = trace(base), trace(relabeled)
        cluster = ClusterConfig(8)
        assert makespan(a) == makespan(b)
        assert slowdown(a) == slowdown(b)
        assert resource_utilization(a, cluster) == resource_utilization(b, cluster)

    @given(st.integers(min_value=1, max_value=400))
    def test_slowdown_at_least_job_count_on_simulated_traces(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 8)
        jobs = [
            make_job(
                i + 1,
                submit=rng.randint(0, 20),
                runtime=rng.randint(1, 10),
                cpus=rng.randint(1, 2),
            )
            for i in range(n)
        ]
        wl = make_workload(*jobs)
        cluster = ClusterConfig(2)
        t = run(wl, cluster, "fcfs")
        assert slowdown(t) >= n
        u = resource_utilization(t, cluster)
        assert 0 < u <= 100.0 + 1e-9


def test_objective_vector_bundle(two_job_one_cpu):
    wl, cluster = two_job_one_cpu
    t = run(wl, cluster, "fcfs")
    vec = objectives(t, cluster)
    assert vec.as_tuple() == (15, pytest.approx(100.0), 4.0)
