//! Queue-ordering policies.
//!
//! The production machines in the paper run **WFP** plus backfilling; the
//! paper also names **FCFS** as the common alternative whose
//! priority-increases-with-time property guarantees yield-yield liveness
//! (§IV-D2). Both scores grow with waiting time, so under either policy
//! every job eventually reaches the head of its queue.
//!
//! A policy maps a queued job's observable state to a score; the scheduler
//! considers jobs in descending score order. Ties break by submission order
//! (then id), keeping iterations deterministic.

use cosched_sim::SimTime;
use cosched_workload::{Job, JobId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Selectable queue policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// First-come first-served: score is time in queue.
    Fcfs,
    /// The WFP utility used on Intrepid: `(wait / walltime)³ × size`.
    /// Favours jobs that have waited long relative to their requested
    /// walltime, weighted toward bigger jobs.
    Wfp,
}

/// Observable state the policy scores.
#[derive(Debug, Clone, Copy)]
pub struct QueuedView<'a> {
    /// The job being scored.
    pub job: &'a Job,
    /// Current time.
    pub now: SimTime,
    /// Additive priority boost (the per-yield boost enhancement of §IV-E2;
    /// zero when the enhancement is off).
    pub boost: f64,
}

impl PolicyKind {
    /// Score a queued job; higher runs earlier.
    pub fn score(self, view: QueuedView<'_>) -> f64 {
        let wait = (view.now - view.job.submit).as_secs() as f64;
        let base = match self {
            PolicyKind::Fcfs => wait,
            PolicyKind::Wfp => {
                let walltime = view.job.walltime.as_secs().max(1) as f64;
                let r = wait / walltime;
                r * r * r * view.job.size as f64
            }
        };
        base + view.boost
    }
}

/// A queued job's place in the scheduling order at one instant, packed so
/// the comparator reads no job state: demotion flag, policy score and the
/// `(submit, id)` tiebreak. `slot` is the caller's index of the job; it is
/// carried along and never compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderKey {
    /// Demoted by the deadlock breaker at this instant (§IV-E1): sorts after
    /// every other job.
    pub demoted: bool,
    /// Policy score; higher sorts first.
    pub score: f64,
    /// Submission instant, the first tiebreak.
    pub submit: SimTime,
    /// Job id, the last tiebreak. Ids are unique, so the order is total.
    pub id: JobId,
    /// The caller's index of the job.
    pub slot: u32,
}

impl OrderKey {
    /// Score `job` under `policy` at `now`.
    pub fn new(
        policy: PolicyKind,
        now: SimTime,
        job: &Job,
        boost: f64,
        demoted: bool,
        slot: u32,
    ) -> Self {
        OrderKey {
            demoted,
            score: policy.score(QueuedView { job, now, boost }),
            submit: job.submit,
            id: job.id,
            slot,
        }
    }

    /// The scheduling comparator: undemoted first, then descending score,
    /// then `(submit, id)`. A total order over distinct jobs, pinned by
    /// `comparator_is_a_total_order` below.
    pub fn compare(&self, other: &Self) -> Ordering {
        self.demoted
            .cmp(&other.demoted)
            .then_with(|| {
                other
                    .score
                    .partial_cmp(&self.score)
                    .expect("scores are finite")
            })
            .then_with(|| (self.submit, self.id).cmp(&(other.submit, other.id)))
    }
}

/// Put `keys` into scheduling order, in place and without allocating. A
/// queue kept in the order of its previous iteration is usually still
/// sorted after rescoring, so the sort runs only when scores crossed or a
/// demotion, yield or arrival moved a job. The result does not depend on
/// the starting order: the comparator is total, so exactly one sorted
/// permutation exists and the unstable sort finds it.
pub fn sort_keys(keys: &mut [OrderKey]) {
    if !keys.is_sorted_by(|a, b| a.compare(b).is_lt()) {
        keys.sort_unstable_by(OrderKey::compare);
    }
}

/// Sort `jobs` (with their boosts) into scheduling order under `policy`:
/// the indices of `jobs`, first to last. `demoted` ids sort after
/// everything else (the deadlock-breaker demotion of §IV-E1). The
/// allocating reference for the scheduler's persisted order, on the same
/// keys.
pub fn order_queue(
    policy: PolicyKind,
    now: SimTime,
    jobs: &[(&Job, f64)],
    demoted: &dyn Fn(&Job) -> bool,
) -> Vec<usize> {
    let mut keys: Vec<OrderKey> = jobs
        .iter()
        .enumerate()
        .map(|(i, &(job, boost))| {
            let slot = u32::try_from(i).expect("queue index fits u32");
            OrderKey::new(policy, now, job, boost, demoted(job), slot)
        })
        .collect();
    sort_keys(&mut keys);
    keys.iter().map(|k| k.slot as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosched_sim::SimDuration;
    use cosched_workload::{JobId, MachineId};

    fn job(id: u64, submit: u64, size: u64, walltime: u64) -> Job {
        Job::new(
            JobId(id),
            MachineId(0),
            SimTime::from_secs(submit),
            size,
            SimDuration::from_secs(walltime.max(1)),
            SimDuration::from_secs(walltime.max(1)),
        )
    }

    #[test]
    fn fcfs_orders_by_submission() {
        let a = job(1, 100, 1, 600);
        let b = job(2, 50, 1, 600);
        let now = SimTime::from_secs(1_000);
        let jobs = [(&a, 0.0), (&b, 0.0)];
        let order = order_queue(PolicyKind::Fcfs, now, &jobs, &|_| false);
        assert_eq!(order, vec![1, 0]); // b submitted earlier → first
    }

    #[test]
    fn wfp_favours_large_jobs_at_equal_relative_wait() {
        let small = job(1, 0, 512, 3_600);
        let large = job(2, 0, 8_192, 3_600);
        let now = SimTime::from_secs(1_800);
        let jobs = [(&small, 0.0), (&large, 0.0)];
        let order = order_queue(PolicyKind::Wfp, now, &jobs, &|_| false);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn wfp_favours_relative_wait_over_absolute() {
        // Short-walltime job waiting as long as a long-walltime job has a
        // much larger (wait/walltime)³.
        let short = job(1, 0, 512, 600);
        let long = job(2, 0, 512, 36_000);
        let now = SimTime::from_secs(600);
        let jobs = [(&long, 0.0), (&short, 0.0)];
        let order = order_queue(PolicyKind::Wfp, now, &jobs, &|_| false);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn wfp_score_matches_formula() {
        let j = job(1, 0, 1_024, 3_600);
        let s = PolicyKind::Wfp.score(QueuedView {
            job: &j,
            now: SimTime::from_secs(1_800),
            boost: 0.0,
        });
        assert!((s - 0.125 * 1_024.0).abs() < 1e-9);
    }

    #[test]
    fn boost_lifts_priority() {
        let a = job(1, 0, 1, 600);
        let b = job(2, 0, 1, 600);
        let now = SimTime::from_secs(300);
        // Without boost, tie breaks to lower id (a). With boost on b, b wins.
        let order = order_queue(PolicyKind::Fcfs, now, &[(&a, 0.0), (&b, 0.0)], &|_| false);
        assert_eq!(order, vec![0, 1]);
        let order = order_queue(PolicyKind::Fcfs, now, &[(&a, 0.0), (&b, 1e6)], &|_| false);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn demoted_jobs_sort_last_regardless_of_score() {
        let old = job(1, 0, 1, 600); // huge wait → top score
        let new = job(2, 990, 1, 600);
        let now = SimTime::from_secs(1_000);
        let jobs = [(&old, 0.0), (&new, 0.0)];
        let order = order_queue(PolicyKind::Fcfs, now, &jobs, &|j| j.id == JobId(1));
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn zero_wait_scores_are_stable() {
        let a = job(1, 500, 4, 600);
        let b = job(2, 500, 4, 600);
        let now = SimTime::from_secs(500);
        let order = order_queue(PolicyKind::Wfp, now, &[(&b, 0.0), (&a, 0.0)], &|_| false);
        // Equal scores: ties by (submit, id) → a (id 1) first.
        assert_eq!(order, vec![1, 0]);
    }

    /// Pins the property that makes `sort_unstable_by` a safe swap for the
    /// stable sort: the comparator is a *total* order. Distinct jobs never
    /// compare `Equal` (the `(submit, id)` tiebreak resolves every tie,
    /// ids being unique), so no permutation of equal elements exists for
    /// instability to expose.
    #[test]
    fn comparator_is_a_total_order() {
        // A pile of deliberately colliding jobs: equal scores (same submit,
        // size, walltime), equal submits with different ids, demotions.
        let jobs_owned: Vec<Job> = (0..16u64)
            .map(|i| job(i, (i / 4) * 100, 4 + (i % 2) * 4, 600))
            .collect();
        let views: Vec<(&Job, f64)> = jobs_owned.iter().map(|j| (j, 0.0)).collect();
        let now = SimTime::from_secs(2_000);
        let demoted = |j: &Job| j.id.0.is_multiple_of(5);
        for policy in [PolicyKind::Fcfs, PolicyKind::Wfp] {
            let order = order_queue(policy, now, &views, &demoted);
            // Total order ⇒ the permutation is unique ⇒ stable and unstable
            // sorts agree. Verify antisymmetry + totality pairwise against
            // the sorted order: every adjacent pair must be strictly less.
            for w in order.windows(2) {
                let (a, b) = (views[w[0]].0, views[w[1]].0);
                assert_ne!(
                    (a.submit, a.id),
                    (b.submit, b.id),
                    "tiebreak key must be unique per job"
                );
            }
            // Distinct jobs with identical scores resolve by (submit, id):
            // re-running on a reversed slice yields the same job sequence.
            let rev_views: Vec<(&Job, f64)> = views.iter().rev().copied().collect();
            let rev_order = order_queue(policy, now, &rev_views, &demoted);
            let seq: Vec<_> = order.iter().map(|&i| views[i].0.id).collect();
            let rev_seq: Vec<_> = rev_order.iter().map(|&i| rev_views[i].0.id).collect();
            assert_eq!(
                seq, rev_seq,
                "{policy:?}: order independent of input layout"
            );
        }
    }

    /// What makes the scheduler's persisted order exact: sorting keys
    /// from any earlier order (here, the order of an earlier instant, and
    /// its reverse) gives the permutation a from-scratch sort gives.
    #[test]
    fn resorting_an_earlier_order_matches_sorting_from_scratch() {
        let jobs: Vec<Job> = (0..24u64)
            .map(|i| {
                job(
                    i,
                    (i * 397) % 3_000,
                    1 + (i * 7) % 64,
                    60 + (i * 131) % 7_200,
                )
            })
            .collect();
        let keys_at = |now: u64| -> Vec<OrderKey> {
            (0u32..)
                .zip(&jobs)
                .map(|(slot, j)| {
                    let demoted = slot % 11 == 3;
                    OrderKey::new(
                        PolicyKind::Wfp,
                        SimTime::from_secs(now),
                        j,
                        0.0,
                        demoted,
                        slot,
                    )
                })
                .collect()
        };
        let mut persisted = keys_at(3_000);
        sort_keys(&mut persisted);
        let first: Vec<u32> = persisted.iter().map(|k| k.slot).collect();
        for now in [3_060, 3_600, 7_200, 86_400] {
            let mut scratch = keys_at(now);
            scratch.sort_by(OrderKey::compare);
            let slots: Vec<u32> = scratch.iter().map(|k| k.slot).collect();
            assert_ne!(slots, first, "scores must cross by {now}");
            let mut reversed: Vec<OrderKey> = persisted.iter().rev().copied().collect();
            for key in persisted.iter_mut().chain(reversed.iter_mut()) {
                *key = keys_at(now)[key.slot as usize];
            }
            sort_keys(&mut persisted);
            sort_keys(&mut reversed);
            assert_eq!(persisted, scratch, "at {now}");
            assert_eq!(reversed, scratch, "at {now}");
        }
    }
}
