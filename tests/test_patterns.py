import statistics
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from predictsched import (
    Pattern,
    PatternMiner,
    PredictedJob,
    SimilarityParams,
    SynthSpec,
    SynthTemplate,
    build_layers,
    detect_patterns,
    group_similar_jobs,
    mine_patterns,
    predictions_to_csv,
    prolong,
    synth_workload,
)

from conftest import DAY, make_job, make_workload, weekly_workload
from predictsched import patterns as patterns_module


def jobs_at(times, user=1, cpus=4, runtime=3600, start_id=1):
    return [
        make_job(start_id + i, t, runtime, cpus, user=user) for i, t in enumerate(times)
    ]


class TestGrouping:
    def test_identical_jobs_one_cluster(self):
        wl = make_workload(*jobs_at([0, DAY, 2 * DAY]))
        clusters = group_similar_jobs(wl)
        assert len(clusters) == 1
        assert len(clusters[0]) == 3

    def test_users_split_when_same_user(self):
        wl = make_workload(
            *jobs_at([0, DAY], user=1), *jobs_at([100, DAY + 100], user=2, start_id=10)
        )
        assert len(group_similar_jobs(wl)) == 2
        params = SimilarityParams(same_user=False)
        assert len(group_similar_jobs(wl, params)) == 1

    def test_exact_cpu_tolerance_splits(self):
        wl = make_workload(
            make_job(1, 0, 3600, 4),
            make_job(2, 100, 3600, 4),
            make_job(3, 200, 3600, 5),
        )
        clusters = group_similar_jobs(wl, SimilarityParams(cpu_tol=0.0))
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [1, 2]

    def test_runtime_tolerance(self):
        wl = make_workload(
            make_job(1, 0, 1000, 4),
            make_job(2, 100, 1200, 4),   # within 25% of 1200
            make_job(3, 200, 2000, 4),   # outside
        )
        clusters = group_similar_jobs(wl)
        assert sorted(len(c) for c in clusters) == [1, 2]


class TestDetectPatterns:
    def test_clean_daily_chain(self):
        cluster = jobs_at([0, DAY, 2 * DAY])
        (pat,) = detect_patterns(cluster)
        assert pat.period == DAY
        assert pat.length == 3
        assert pat.layer == 1
        assert [o[0] for o in pat.occurrences] == [1, 2, 3]

    def test_outlier_excluded(self):
        cluster = jobs_at([0, DAY, 2 * DAY, 500000])
        (pat,) = detect_patterns(cluster)
        assert pat.length == 3
        assert 500000 not in [t for _, t in pat.occurrences]

    def test_too_few_occurrences(self):
        assert detect_patterns(jobs_at([0, DAY])) == []

    def test_jitter_within_bound_accepted(self):
        times = [0, DAY * 1.05, 2 * DAY * 1.01, 3 * DAY]
        pats = detect_patterns(jobs_at(times))
        assert len(pats) == 1
        assert pats[0].length == 4

    def test_rep_values_are_medians(self):
        cluster = [
            make_job(1, 0, 3000, 4),
            make_job(2, DAY, 3600, 4),
            make_job(3, 2 * DAY, 4000, 5),
        ]
        (pat,) = detect_patterns(cluster, SimilarityParams(runtime_tol=0.3, cpu_tol=0.3))
        assert pat.rep_runtime == 3600
        assert pat.rep_cpus == 4

    def test_failed_seed_does_not_poison_later_chain(self):
        # a noise job right after the anchor seeds a dead chain; the daily
        # chain must still come out, minus that anchor at worst
        times = [0, 50, DAY, 2 * DAY, 3 * DAY]
        pats = detect_patterns(jobs_at(times))
        assert len(pats) == 1
        assert pats[0].length >= 3


class TestLayers:
    def test_semester_super_pattern(self):
        half_year = 180 * DAY
        times = []
        for block in range(4):
            times.extend(block * half_year + k * DAY for k in range(5))
        layer1 = detect_patterns(jobs_at(times))
        assert len(layer1) == 4
        all_patterns = build_layers(layer1)
        supers = [p for p in all_patterns if p.layer == 2]
        assert len(supers) == 1
        assert supers[0].length == 4
        assert supers[0].period == pytest.approx(half_year)
        assert supers[0].child_ids == tuple(p.pattern_id for p in layer1)

    def test_single_pattern_no_layering(self):
        layer1 = detect_patterns(jobs_at([0, DAY, 2 * DAY]))
        assert build_layers(layer1) == layer1

    def test_empty_input(self):
        assert build_layers([]) == []

    def test_super_period_must_exceed_child_span(self):
        # pseudo-jobs whose blocks would overlap cannot chain
        pseudo = jobs_at([0, 5 * DAY, 10 * DAY])
        spans_too_wide = {j.job_id: 6 * DAY for j in pseudo}
        assert detect_patterns(pseudo, layer=2, span_of=spans_too_wide) == []
        spans_ok = {j.job_id: 4 * DAY for j in pseudo}
        (pat,) = detect_patterns(pseudo, layer=2, span_of=spans_ok)
        assert pat.period == 5 * DAY


@st.composite
def layered_patterns(draw):
    """Layer-1 and layer-2/3 patterns on an integer clock, so that predicted
    times land exactly on now and on now + horizon.  Ids are shuffled across
    layers; a super pattern's occurrence ids may name no pattern (a missing
    child) and its child's block may be wider than the horizon."""
    n1, n_super = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    ids = draw(st.permutations(range(n1 + n_super)))
    patterns = []
    for k, pattern_id in enumerate(ids):
        layer = 1 if k < n1 else draw(st.sampled_from([2, 3]))
        times = sorted(draw(st.lists(st.integers(0, 60), min_size=1, max_size=4)))
        if layer == 1:
            occ_ids = range(100 * k, 100 * k + len(times))
        else:
            occ_ids = draw(st.lists(
                st.integers(0, n1 + n_super + 1), min_size=len(times), max_size=len(times)
            ))
        patterns.append(Pattern(
            pattern_id=pattern_id,
            layer=layer,
            user_id=draw(st.integers(0, 2)),
            rep_cpus=draw(st.integers(1, 8)),
            rep_runtime=600.0 * draw(st.integers(1, 4)),
            period=float(draw(st.integers(1, 30))),
            occurrences=tuple(zip(occ_ids, map(float, times))),
        ))
    return patterns


class TestProlong:
    def test_single_step(self):
        (pat,) = detect_patterns(jobs_at([0, DAY, 2 * DAY]))
        preds = prolong([pat], now=2 * DAY, horizon=DAY)
        assert [p.predicted_submit for p in preds] == [3 * DAY]
        assert preds[0].cpus == pat.rep_cpus
        assert preds[0].runtime == pat.rep_runtime
        assert preds[0].steps_ahead == 1

    def test_stale_pattern_silenced(self):
        (pat,) = detect_patterns(jobs_at([0, DAY, 2 * DAY]))
        assert prolong([pat], now=10 * DAY, horizon=DAY) == []

    def test_three_steps(self):
        (pat,) = detect_patterns(jobs_at([0, DAY, 2 * DAY]))
        preds = prolong([pat], now=2 * DAY, horizon=3 * DAY)
        assert [p.predicted_submit for p in preds] == [3 * DAY, 4 * DAY, 5 * DAY]
        assert [p.steps_ahead for p in preds] == [1, 2, 3]

    def test_super_pattern_spawns_child_block(self):
        half_year = 180 * DAY
        times = []
        for block in range(4):
            times.extend(block * half_year + k * DAY for k in range(5))
        patterns = build_layers(detect_patterns(jobs_at(times)))
        now = 3 * half_year + 10 * DAY  # after the last block completed
        preds = prolong(patterns, now=now, horizon=half_year)
        super_preds = [p for p in preds if p.pattern_id >= 4]
        assert [p.predicted_submit for p in super_preds] == [
            4 * half_year + k * DAY for k in range(5)
        ]

    def test_times_strictly_increasing_and_in_window(self):
        wl, _ = synth_workload(
            SynthSpec(
                horizon=20 * DAY,
                templates=(
                    SynthTemplate(user_id=1, cpus=4, runtime=3600, period=DAY, count=20),
                    SynthTemplate(
                        user_id=2, cpus=2, runtime=600, period=DAY / 2, count=40
                    ),
                ),
            ),
            seed=3,
        )
        patterns = mine_patterns(wl)
        now, horizon = 20 * DAY, 5 * DAY
        preds = prolong(patterns, now, horizon)
        per_pattern: dict[int, list[float]] = {}
        for p in preds:
            assert now < p.predicted_submit <= now + horizon
            per_pattern.setdefault(p.pattern_id, []).append(p.predicted_submit)
        for times in per_pattern.values():
            assert times == sorted(times)
            assert len(set(times)) == len(times)

    def test_bad_horizon(self):
        # a NaN or infinite end would keep the emit loop from ever passing it
        inf, nan = float("inf"), float("nan")
        for now, horizon in [(0, 0), (0, -1), (0, nan), (0, inf), (nan, 1), (inf, 1), (-inf, 1)]:
            with pytest.raises(ValueError):
                prolong([], now=now, horizon=horizon)

    @settings(max_examples=500, deadline=None)
    @given(layered_patterns(), st.integers(0, 100), st.integers(1, 60))
    def test_equals_two_loop_reference(self, patterns, now, horizon):
        assert prolong(patterns, float(now), float(horizon)) == reference_prolong(
            patterns, float(now), float(horizon)
        )


def reference_prolong(patterns, now, horizon):
    """Reference prolongation with one emit loop per kind of pattern: layer 1
    steps its own period, a super pattern repeats its most recent child's
    occurrence block at every super-period tick."""
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    by_id = {p.pattern_id: p for p in patterns}
    preds = []
    for p in sorted(patterns, key=lambda q: q.pattern_id):
        last = p.last_time
        if now - last > patterns_module._STALENESS_FACTOR * p.period:
            continue
        if p.layer == 1:
            k = 1
            while True:
                t = last + k * p.period
                if t > now + horizon:
                    break
                if t > now:
                    preds.append(PredictedJob(
                        pattern_id=p.pattern_id, predicted_submit=t, cpus=p.rep_cpus,
                        runtime=p.rep_runtime, user_id=p.user_id, steps_ahead=k,
                    ))
                k += 1
        else:
            child = by_id.get(p.occurrences[-1][0])
            if child is None:
                continue
            offsets = [t - child.occurrences[0][1] for _, t in child.occurrences]
            m = 1
            while True:
                t0 = last + m * p.period
                if t0 > now + horizon:
                    break
                for off in offsets:
                    t = t0 + off
                    if now < t <= now + horizon:
                        preds.append(PredictedJob(
                            pattern_id=p.pattern_id, predicted_submit=t,
                            cpus=child.rep_cpus, runtime=child.rep_runtime,
                            user_id=p.user_id, steps_ahead=m,
                        ))
                m += 1
    preds.sort(key=lambda q: (q.predicted_submit, q.pattern_id))
    return preds


class TestInvariantsOnSynthetic:
    def make_clean_workload(self, seed=1):
        templates = (
            SynthTemplate(user_id=1, cpus=4, runtime=3600, period=DAY, count=10),
            SynthTemplate(user_id=2, cpus=8, runtime=7200, period=DAY / 2, count=20),
            SynthTemplate(user_id=3, cpus=1, runtime=600, period=DAY / 4, count=40),
        )
        spec = SynthSpec(horizon=11 * DAY, templates=templates)
        return synth_workload(spec, seed=seed)

    def test_zero_jitter_exact_recovery(self):
        wl, truth = self.make_clean_workload()
        patterns = [p for p in mine_patterns(wl) if p.layer == 1]
        assert len(patterns) == 3
        by_user = {p.user_id: p for p in patterns}
        expected = {1: (DAY, 10), 2: (DAY / 2, 20), 3: (DAY / 4, 40)}
        for user, (period, count) in expected.items():
            pat = by_user[user]
            assert pat.period == pytest.approx(period)
            assert pat.length == count
        # membership: every injected occurrence belongs to a pattern
        covered = {
            occ_id for p in patterns for occ_id, _ in p.occurrences
        }
        assert len(covered) == len(truth)

    def test_each_job_in_at_most_one_pattern_per_layer(self):
        wl, _ = self.make_clean_workload()
        patterns = mine_patterns(wl)
        for layer in {p.layer for p in patterns}:
            seen: set[int] = set()
            for p in (q for q in patterns if q.layer == layer):
                ids = {occ_id for occ_id, _ in p.occurrences}
                assert not ids & seen
                seen |= ids

    def test_gap_jitter_bound_replay(self):
        # re-check the growth rule from the emitted occurrences alone
        wl, _ = synth_workload(
            SynthSpec(
                horizon=15 * DAY,
                templates=(
                    SynthTemplate(
                        user_id=1, cpus=4, runtime=3600, period=DAY,
                        count=15, submit_jitter=0.03,
                    ),
                ),
            ),
            seed=5,
        )
        params = SimilarityParams()
        for pat in mine_patterns(wl, params):
            times = [t for _, t in pat.occurrences]
            gaps = [b - a for a, b in zip(times, times[1:])]
            running: list[float] = []
            for gap in gaps:
                if running:
                    med = sorted(running)[len(running) // 2] if len(running) % 2 else (
                        sorted(running)[len(running) // 2 - 1]
                        + sorted(running)[len(running) // 2]
                    ) / 2
                    assert abs(gap - med) <= params.period_jitter * med
                running.append(gap)

    def test_determinism(self):
        wl, _ = self.make_clean_workload(seed=9)
        a = mine_patterns(wl)
        b = mine_patterns(wl)
        assert a == b
        assert prolong(a, 11 * DAY, DAY) == prolong(b, 11 * DAY, DAY)


class TestPatternMiner:
    @pytest.mark.parametrize("same_user", [True, False])
    def test_daily_batches_equal_batch_mining(self, same_user):
        # the engine feeds the miner one day of submits per forecast tick;
        # after every batch it must agree with mining the whole prefix
        jobs = list(weekly_workload())
        params = SimilarityParams(same_user=same_user)
        miner = PatternMiner(params)
        mined, layers = 0, set()
        day = 0
        while mined < len(jobs):
            day += 1
            batch = [j for j in jobs[mined:] if j.submit_time <= day * DAY]
            miner.add(batch)
            mined += len(batch)
            if not mined:
                continue
            prefix = jobs[:mined]
            expected = mine_patterns(prefix, params)
            assert miner.patterns() == expected, f"day {day}"
            assert miner.clusters() == group_similar_jobs(prefix, params)
            layers.update(p.layer for p in expected)
        assert 2 in layers

    def test_add_rejects_jobs_before_the_history(self):
        miner = PatternMiner()
        miner.add(jobs_at([0, DAY, 2 * DAY], start_id=1))
        with pytest.raises(ValueError):
            miner.add(jobs_at([DAY / 2], start_id=10))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            mine_patterns([])

    @pytest.mark.parametrize("max_layer", [0, -1])
    def test_max_layer_below_one_rejected(self, max_layer):
        with pytest.raises(ValueError, match="max_layer must be >= 1"):
            PatternMiner(max_layer=max_layer)
        with pytest.raises(ValueError, match="max_layer must be >= 1"):
            mine_patterns(jobs_at([0, DAY, 2 * DAY]), max_layer=max_layer)


def reference_chains(cluster, params=SimilarityParams(), layer=1, start_id=0, span_of=None):
    """Reference greedy chaining, from scratch: it rebuilds the unclaimed
    members for every attempt and reads every median with statistics."""
    jobs = sorted(cluster, key=lambda j: (j.submit_time, j.job_id))
    claimed: set[int] = set()
    dead: set[int] = set()
    patterns: list[Pattern] = []
    next_id = start_id

    def gap_ok(gap, tail):
        if gap <= 0:
            return False
        if span_of is not None and gap <= span_of.get(tail.job_id, 0.0):
            return False
        return True

    while True:
        avail = [j for j in jobs if j.job_id not in claimed and j.job_id not in dead]
        if len(avail) < 2:
            break
        anchor = avail[0]
        partner_idx = next(
            (i for i in range(1, len(avail))
             if gap_ok(avail[i].submit_time - anchor.submit_time, anchor)),
            None,
        )
        if partner_idx is None:
            dead.add(anchor.job_id)
            continue
        chain = [anchor, avail[partner_idx]]
        gaps = [avail[partner_idx].submit_time - anchor.submit_time]
        for j in avail[partner_idx + 1 :]:
            gap = j.submit_time - chain[-1].submit_time
            p_med = statistics.median(gaps)
            if not gap_ok(gap, chain[-1]) or abs(gap - p_med) > params.period_jitter * p_med:
                break
            chain.append(j)
            gaps.append(gap)
        if len(chain) >= params.min_occurrences:
            patterns.append(
                Pattern(
                    pattern_id=next_id,
                    layer=layer,
                    user_id=anchor.user_id,
                    rep_cpus=int(statistics.median_low(j.cpus for j in chain)),
                    rep_runtime=float(statistics.median(j.runtime for j in chain)),
                    period=float(statistics.median(gaps)),
                    occurrences=tuple((j.job_id, j.submit_time) for j in chain),
                )
            )
            next_id += 1
            claimed.update(j.job_id for j in chain)
        else:
            dead.add(anchor.job_id)
    return patterns


def reference_clusters(jobs, params=SimilarityParams()):
    """Reference requirement clustering: in (submit_time, job_id) order a job
    joins the first cluster of its key (its user, or everyone when not
    same_user) whose member medians, read with statistics.median, are within
    tolerance of its cpus and runtime; otherwise it opens a new cluster.
    Clusters come by key ascending, then in creation order."""
    by_key: dict[int, list[list]] = {}
    for job in sorted(jobs, key=lambda j: (j.submit_time, j.job_id)):
        clusters = by_key.setdefault(job.user_id if params.same_user else 0, [])
        for members in clusters:
            med_cpus = statistics.median(m.cpus for m in members)
            med_runtime = statistics.median(m.runtime for m in members)
            if (
                abs(job.cpus - med_cpus) <= params.cpu_tol * max(job.cpus, med_cpus)
                and abs(job.runtime - med_runtime)
                <= params.runtime_tol * max(job.runtime, med_runtime)
            ):
                members.append(job)
                break
        else:
            clusters.append([job])
    return [members for key in sorted(by_key) for members in by_key[key]]


def reference_mining(jobs, params):
    """Every cluster built and chained from scratch by the reference loops,
    then the higher layers built with the reference loops too."""
    layer1 = []
    for cluster in reference_clusters(jobs, params):
        layer1.extend(reference_chains(cluster, params, start_id=len(layer1)))
    with mock.patch.object(patterns_module, "detect_patterns", reference_chains), \
            mock.patch.object(patterns_module, "group_similar_jobs", reference_clusters):
        return build_layers(layer1, params)


@st.composite
def requirement_streams(draw):
    """Jobs whose cpus and runtimes sit on and around the tolerance edges
    (3 vs 4 cpus at cpu_tol 0.25, 750 vs 1000 s at runtime_tol 0.25), with
    even-sized clusters whose medians fall between two members, random batch
    cuts and both values of same_user."""
    params = SimilarityParams(
        cpu_tol=draw(st.sampled_from([0.0, 0.2, 0.25, 0.5])),
        runtime_tol=draw(st.sampled_from([0.0, 0.2, 0.25, 0.5])),
        same_user=draw(st.booleans()),
    )
    n = draw(st.integers(1, 30))
    times = sorted(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)))
    jobs = [
        make_job(
            i + 1, t * 3600.0,
            draw(st.sampled_from([600, 750, 800, 1000, 1200, 1250, 1500, 2000])),
            draw(st.sampled_from([2, 3, 4, 5, 6, 8])),
            user=draw(st.integers(0, 2)),
        )
        for i, t in enumerate(times)
    ]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    bounds = [0, *cuts, n]
    return [jobs[a:b] for a, b in zip(bounds, bounds[1:])], params


class TestClusteringEqualsReference:
    @settings(max_examples=400, deadline=None)
    @given(requirement_streams())
    def test_clusters_equal_reference(self, case):
        batches, params = case
        jobs = [j for batch in batches for j in batch]
        expected = reference_clusters(jobs, params)
        assert group_similar_jobs(jobs, params) == expected
        miner = PatternMiner(params)
        for batch in batches:
            miner.add(batch)
        assert miner.clusters() == expected

    def test_tolerance_edges_join(self):
        # |3 - 4| = 0.25 * 4 and |750 - 1000| = 0.25 * 1000: both on the edge
        jobs = [make_job(1, 0, 1000, 4), make_job(2, 1, 750, 3)]
        params = SimilarityParams(cpu_tol=0.25)
        assert group_similar_jobs(jobs, params) == reference_clusters(jobs, params)
        assert len(reference_clusters(jobs, params)) == 1


@st.composite
def _beats(draw, max_jobs):
    # mostly one period, with same-instant ties, jitter inside and outside
    # the 10 % bound, and noise gaps that break chains after a few beats
    t = draw(st.integers(0, 6)) * 3600.0
    period = draw(st.sampled_from([3600.0, DAY, 7 * DAY]))
    times = []
    for _ in range(draw(st.integers(0, max_jobs))):
        step = draw(st.sampled_from(["beat", "beat", "beat", "tie", "jitter", "noise"]))
        if step == "beat":
            t += period
        elif step == "jitter":
            t += period * draw(st.sampled_from([0.85, 0.93, 1.04, 1.08, 1.3]))
        elif step == "noise":
            t += draw(st.integers(1, 3 * int(period)))
        times.append(t)
    return times


@st.composite
def _progressions(draw, max_jobs):
    # a few beats at different periods from nearby starts: they share
    # instants, and a tie skipped by one chain can anchor a later one
    times = []
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, 3)) * 3600.0
        period = draw(st.sampled_from([1, 2, 3, 10])) * 3600.0
        times.extend(start + k * period for k in range(draw(st.integers(0, 8))))
    return times[:max_jobs]


@st.composite
def job_streams(draw, max_users=3, max_jobs=24):
    """Jobs of a few users in (submit_time, job_id) order."""
    jobs = []
    for user in range(draw(st.integers(1, max_users))):
        for t in draw(st.one_of(_beats(max_jobs), _progressions(max_jobs))):
            jobs.append(make_job(
                len(jobs) + 1, t,
                draw(st.sampled_from([3600, 3600, 3900, 9000])),
                draw(st.sampled_from([4, 4, 4, 8])),
                user=user,
            ))
    return sorted(jobs, key=lambda j: (j.submit_time, j.job_id))


@st.composite
def split_streams(draw):
    jobs = draw(job_streams())
    cuts = sorted(draw(st.lists(st.integers(0, len(jobs)), max_size=8)))
    bounds = [0, *cuts, len(jobs)]
    batches = [jobs[a:b] for a, b in zip(bounds, bounds[1:])]
    params = SimilarityParams(
        min_occurrences=draw(st.sampled_from([3, 4])),
        same_user=draw(st.booleans()),
    )
    return batches, params


def checked_group_add(reqs_of):
    """Patch _Group.add to check, after every call, that the cached medians
    equal statistics.median over the members' own (cpus, runtime)."""
    original = patterns_module._Group.add

    def add(group, member, cpus, runtime):
        original(group, member, cpus, runtime)
        reqs = [reqs_of(m) for m in group.members]
        assert group.med_cpus == statistics.median(c for c, _ in reqs)
        assert group.med_runtime == statistics.median(r for _, r in reqs)

    return mock.patch.object(patterns_module._Group, "add", add)


class TestCachedMedians:
    @settings(max_examples=200, deadline=None)
    @given(requirement_streams())
    def test_cluster_medians_after_every_add(self, case):
        batches, params = case
        miner = PatternMiner(params)
        with checked_group_add(lambda job: (job.cpus, job.runtime)):
            for batch in batches:
                miner.add(batch)
        for cluster in miner._clusters():
            assert cluster.med_cpus == statistics.median(j.cpus for j in cluster.members)
            assert cluster.med_runtime == statistics.median(j.runtime for j in cluster.members)

    @settings(max_examples=200, deadline=None)
    @given(job_streams(max_users=1, max_jobs=30))
    def test_chain_medians_after_every_add(self, jobs):
        by_id = {j.job_id: j for j in jobs}
        chainer = patterns_module._Chainer(SimilarityParams())
        with checked_group_add(lambda row: (by_id[row[0]].cpus, by_id[row[0]].runtime)):
            for job in jobs:
                chainer.feed([job])
            chainer.patterns(0)


class TestResumableChaining:
    @settings(max_examples=300, deadline=None)
    @given(split_streams())
    def test_miner_equals_from_scratch_after_every_batch(self, case):
        batches, params = case
        miner = PatternMiner(params)
        prefix = []
        for batch in batches:
            miner.add(batch)
            prefix.extend(batch)
            if prefix:
                assert miner.patterns() == reference_mining(prefix, params)

    @settings(max_examples=300, deadline=None)
    @given(
        job_streams(max_users=1, max_jobs=30),
        st.sampled_from([3, 4]),
        st.lists(st.sampled_from([0.0, 1800.0, 3600.0, DAY, 3 * DAY, 8 * DAY]), max_size=30),
        st.integers(0, 5),
    )
    def test_layer2_span_of_equals_reference(self, jobs, min_occurrences, spans, start_id):
        params = SimilarityParams(min_occurrences=min_occurrences)
        span_of = {j.job_id: s for j, s in zip(jobs, spans)}
        assert detect_patterns(
            jobs, params, layer=2, start_id=start_id, span_of=span_of
        ) == reference_chains(jobs, params, layer=2, start_id=start_id, span_of=span_of)

    def test_weekly_history_reaches_layer_2_and_equals_reference(self):
        jobs = list(weekly_workload())
        for same_user in (True, False):
            params = SimilarityParams(same_user=same_user)
            expected = reference_mining(jobs, params)
            assert mine_patterns(jobs, params) == expected
            assert any(p.layer == 2 for p in expected)

    def test_skipped_tie_anchors_a_later_chain(self):
        # the tie at 0 is skipped by the daily chain and later anchors the
        # ten-day chain, which then comes first in the history
        jobs = jobs_at([0, 0, DAY, 2 * DAY, 3 * DAY, 10 * DAY, 20 * DAY, 30 * DAY])
        pats = detect_patterns(jobs)
        assert [[t / DAY for _, t in p.occurrences] for p in pats] == [
            [0, 1, 2, 3], [0, 10, 20, 30]
        ]
        assert pats == reference_chains(jobs)

    def test_waiting_chain_resumes_across_batches(self):
        # a daily chain split at every job: each snapshot closes the waiting
        # attempt as it stands, and the next batch extends the same chain
        jobs = jobs_at([k * DAY for k in range(6)])
        miner = PatternMiner()
        lengths = []
        for job in jobs:
            miner.add([job])
            lengths.append([p.length for p in miner.patterns()])
        assert lengths == [[], [], [3], [4], [5], [6]]


def test_predictions_csv_layout():
    (pat,) = detect_patterns(jobs_at([0, DAY, 2 * DAY]))
    preds = prolong([pat], now=2 * DAY, horizon=2 * DAY)
    text = predictions_to_csv(preds, [pat])
    lines = text.strip().splitlines()
    assert lines[0] == "pattern_id,layer,predicted_submit,cpus,runtime,confidence"
    assert len(lines) == 3
    assert lines[1].startswith("0,1,259200")
