"""Pattern mining, layering, prolongation, and reserve decisions
================================================================

Walks the full forecasting pipeline on a workload with nested periodic
structure: a user who runs multi-day course blocks that restart weekly
(two finished blocks of 5 days, one block 3 days in), plus a second user
submitting every 12 hours like clockwork.
"""

from dataclasses import replace

from predictsched import (
    Decision,
    SimilarityParams,
    ThresholdState,
    confidence_factor,
    decide,
    group_patterns,
    group_similar_jobs,
    mine_patterns,
    predictions_to_csv,
    prolong,
)
from predictsched.confidence import groups_by_pattern
from predictsched.workload import Job

DAY = 86400.0


def job(jid, user, submit, runtime=3600.0, cpus=4):
    return Job(jid, user, 0, submit, runtime, runtime, cpus)


# ---------------------------------------------------------------------------
# user 1: weekly course blocks of daily jobs; the current block is 3 days in
jobs = []
jid = 1
for week, block_days in enumerate((5, 5, 3)):
    for day in range(block_days):
        jobs.append(job(jid, 1, week * 7 * DAY + day * DAY))
        jid += 1
# user 2: a 12-hour heartbeat with no higher-level structure
for k in range(34):
    jobs.append(job(jid, 2, 1000 + k * DAY / 2, runtime=1800, cpus=2))
    jid += 1
jobs.sort(key=lambda j: j.submit_time)

# block lengths differ, so pseudo-job runtimes span a 5:3 ratio; widen the
# runtime tolerance enough for all three blocks to land in one cohort
params = SimilarityParams(runtime_tol=0.5)

clusters = group_similar_jobs(jobs, params)
print(f"requirement clusters: {len(clusters)} (sizes {[len(c) for c in clusters]})")

patterns = mine_patterns(jobs, params, max_layer=3)
for p in patterns:
    kind = "super " if p.layer > 1 else ""
    print(f"  {kind}pattern {p.pattern_id}: layer {p.layer}, user {p.user_id}, "
          f"period {p.period / 3600:5.1f} h, length {p.length}")

# ---------------------------------------------------------------------------
# prolong past the end of the observed window
now = max(j.submit_time for j in jobs)
preds = prolong(patterns, now=now, horizon=4 * DAY)
print(f"\n{len(preds)} predicted submissions in the next 4 days")

# confidence: where does each chain sit against its cohort's typical length?
groups = group_patterns(patterns, req_params=params)
for g in groups:
    print(f"  cohort {set(g.member_pattern_ids)}: lengths {list(g.lengths)} "
          f"(mean {g.mean_len:.2f}, std {g.std_len:.2f})")

state = ThresholdState()  # borders 0.33 / 0.66, adaptive in a live run
cohort_of = groups_by_pattern(groups)
scored = []
for pred in preds:
    pattern = next(p for p in patterns if p.pattern_id == pred.pattern_id)
    cohort = cohort_of[pred.pattern_id]
    c = confidence_factor(pattern.length + pred.steps_ahead, cohort)
    scored.append(replace(pred, confidence=c))

print()
for pred in scored:
    action = decide(pred.confidence, state)
    print(f"  t={pred.predicted_submit / DAY:7.3f} d  pattern {pred.pattern_id}  "
          f"confidence {pred.confidence:.3f}  -> {action.value}")

# the ongoing block sits below its cohort mean, so extending it one more day
# earns a reservation; pushing a chain past everything seen before does not,
# and a cohort of one (the heartbeat) cannot justify holding capacity at all
held = sum(1 for p in scored if decide(p.confidence, state) is not Decision.IGNORE)
print(f"\n{held} of {len(scored)} predictions would hold capacity")
print("\npredictions CSV head:")
print("\n".join(predictions_to_csv(scored, patterns).splitlines()[:4]))
