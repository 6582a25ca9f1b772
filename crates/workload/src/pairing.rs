//! Associating jobs across the two machines ("mates").
//!
//! The paper's evaluation builds paired workloads two ways:
//!
//! * **Window rule** (§V-D): "we associated the two jobs on different
//!   machines if their submission times were within 2 minutes", yielding a
//!   pair proportion between 5 % and 10 % on the production traces.
//!   [`pair_by_window`] reproduces this with a greedy, order-preserving,
//!   one-to-one matching.
//! * **Exact proportion** (§V-E): a synthetic Eureka workload with the same
//!   job count and span as the Intrepid trace, letting the pair proportion
//!   be "conveniently tuned" to 2.5 / 5 / 10 / 20 / 33 %.
//!   [`pair_exact_proportion`] picks a uniform random subset of that size
//!   and aligns each mate's submission within the window.
//!
//! Pairing is always *mutual*: if `a` references `b` then `b` references
//! `a`. [`validate_pairing`] checks that invariant; the mate registry runs
//! it (as [`validate_pairing_with`]) in every coupled simulation's setup.

use crate::job::{Job, JobId, MachineId, MateRef};
use crate::trace::Trace;
use cosched_sim::{IdHashMap, IdHashSet, SimDuration, SimRng};

/// Greedily associate unpaired jobs whose submissions fall within `window`
/// of each other, one-to-one and in submission order. Returns the number of
/// pairs created.
pub fn pair_by_window(a: &mut Trace, b: &mut Trace, window: SimDuration) -> usize {
    let mut pairs = Vec::new();
    {
        let aj = a.jobs();
        let bj = b.jobs();
        let mut bi = 0usize;
        let mut b_taken = vec![false; bj.len()];
        for ja in aj.iter().filter(|j| !j.is_paired()) {
            // Advance past b-jobs that are too early to ever match again.
            while bi < bj.len() && bj[bi].submit + window < ja.submit {
                bi += 1;
            }
            // Scan the candidate window for the first free, unpaired b-job.
            let mut k = bi;
            while k < bj.len() && bj[k].submit <= ja.submit + window {
                if !b_taken[k] && !bj[k].is_paired() {
                    b_taken[k] = true;
                    pairs.push((ja.id, bj[k].id));
                    break;
                }
                k += 1;
            }
        }
    }
    apply_pairs(a, b, &pairs);
    pairs.len()
}

/// Pair an exact proportion of jobs. `proportion` is interpreted against the
/// smaller trace; the subset is sampled uniformly at random. Each chosen
/// `b`-mate's submission is moved to within `window` of its `a`-mate
/// (uniform jitter), mimicking the two-minute co-submission behaviour the
/// window rule would observe. Returns the number of pairs created.
///
/// # Panics
/// Panics if `proportion` is outside `[0, 1]`.
pub fn pair_exact_proportion(
    a: &mut Trace,
    b: &mut Trace,
    proportion: f64,
    window: SimDuration,
    rng: &mut SimRng,
) -> usize {
    assert!(
        (0.0..=1.0).contains(&proportion),
        "pair proportion {proportion} outside [0,1]"
    );
    let n_max = a.len().min(b.len());
    let want = (proportion * n_max as f64).round() as usize;
    if want == 0 {
        return 0;
    }

    // Sample `want` distinct ranks via a partial Fisher–Yates over indices.
    let mut ranks: Vec<usize> = (0..n_max).collect();
    for i in 0..want {
        let j = rng.int_in(i as u64, (n_max - 1) as u64) as usize;
        ranks.swap(i, j);
    }
    let mut chosen: Vec<usize> = ranks[..want].to_vec();
    chosen.sort_unstable();

    let mut pairs = Vec::with_capacity(want);
    for &rank in &chosen {
        let ja = &a.jobs()[rank];
        let jb = &b.jobs()[rank];
        pairs.push((ja.id, jb.id));
    }
    // Move each chosen b-job's submission next to its mate, then restore
    // order. Done before apply_pairs so that id-based mate refs stay valid
    // regardless of resorting.
    {
        let submit_of_a: Vec<_> = chosen.iter().map(|&r| a.jobs()[r].submit).collect();
        let ids_of_b: Vec<_> = chosen.iter().map(|&r| b.jobs()[r].id).collect();
        let jitters: Vec<u64> = (0..chosen.len())
            .map(|_| rng.int_in(0, window.as_secs()))
            .collect();
        // Each id's first position, as a scan of `ids_of_b` would find it.
        let mut pos_of: IdHashMap<JobId, usize> = IdHashMap::default();
        pos_of.reserve(ids_of_b.len());
        for (pos, &id) in ids_of_b.iter().enumerate() {
            pos_of.entry(id).or_insert(pos);
        }
        for j in b.jobs_mut() {
            if let Some(&pos) = pos_of.get(&j.id) {
                j.submit = submit_of_a[pos] + SimDuration::from_secs(jitters[pos]);
            }
        }
        b.resort();
    }
    apply_pairs(a, b, &pairs);
    pairs.len()
}

/// Reduce pairing density to `target_share` (paired jobs as a fraction of
/// all jobs on both machines) by unpairing uniformly random pairs. Used by
/// the load-sweep harness: with dense Poisson arrivals the 2-minute window
/// matches far more submissions than the paper's production traces did, so
/// after matching we thin down to the published 5–10 % share. Returns the
/// number of pairs remaining.
///
/// # Panics
/// Panics if `target_share` is outside `[0, 1]`.
pub fn thin_pairs_to_share(
    a: &mut Trace,
    b: &mut Trace,
    target_share: f64,
    rng: &mut SimRng,
) -> usize {
    assert!(
        (0.0..=1.0).contains(&target_share),
        "share {target_share} outside [0,1]"
    );
    let total_jobs = a.len() + b.len();
    let current: Vec<(JobId, JobId)> = a
        .jobs()
        .iter()
        .filter_map(|j| j.mate.map(|m| (j.id, m.job)))
        .collect();
    let target_pairs = ((target_share * total_jobs as f64) / 2.0).round() as usize;
    if current.len() <= target_pairs {
        return current.len();
    }
    // Partial Fisher–Yates to pick the pairs to KEEP.
    let mut idx: Vec<usize> = (0..current.len()).collect();
    for i in 0..target_pairs {
        let j = rng.int_in(i as u64, (current.len() - 1) as u64) as usize;
        idx.swap(i, j);
    }
    // Unpair every job of a dropped pair (the ranks past the kept ones):
    // one set of ids per trace, one pass over each trace.
    let mut dropped: [IdHashSet<JobId>; 2] = Default::default();
    for &i in &idx[target_pairs..] {
        let (ida, idb) = current[i];
        dropped[0].insert(ida);
        dropped[1].insert(idb);
    }
    for (t, ids) in [a, b].into_iter().zip(&dropped) {
        for j in t.jobs_mut().iter_mut().filter(|j| ids.contains(&j.id)) {
            j.mate = None;
        }
    }
    target_pairs
}

/// Point both members of every `(a id, b id)` pair at each other. Every job
/// carrying a paired id is updated; when an id appears in several pairs,
/// the last pair wins.
fn apply_pairs(a: &mut Trace, b: &mut Trace, pairs: &[(JobId, JobId)]) {
    let (ma, mb) = (a.machine(), b.machine());
    let mut mate_of: [IdHashMap<JobId, MateRef>; 2] = Default::default();
    for &(ida, idb) in pairs {
        mate_of[0].insert(
            ida,
            MateRef {
                machine: mb,
                job: idb,
            },
        );
        mate_of[1].insert(
            idb,
            MateRef {
                machine: ma,
                job: ida,
            },
        );
    }
    for (t, mates) in [a, b].into_iter().zip(&mate_of) {
        for j in t.jobs_mut() {
            if let Some(&mate) = mates.get(&j.id) {
                j.mate = Some(mate);
            }
        }
    }
}

/// Verify that every mate reference resolves to a job on the other trace and
/// that pairing is mutual and one-to-one.
pub fn validate_pairing(a: &Trace, b: &Trace) -> Result<(), String> {
    validate_pairing_with(a, b, |_, _, _| {})
}

/// [`validate_pairing`], handing each paired job's `(machine, id, mate)` to
/// `visit` once it checks out — so a caller that indexes the pairs (the
/// mate registry) builds its index in the validating pass. Runs in time
/// linear in the traces: each trace's ids are indexed once.
pub fn validate_pairing_with(
    a: &Trace,
    b: &Trace,
    mut visit: impl FnMut(MachineId, JobId, MateRef),
) -> Result<(), String> {
    // First occurrence wins, as with `Trace::get`.
    let index = [a, b].map(|t| {
        let mut ids: IdHashMap<JobId, &Job> = IdHashMap::default();
        ids.reserve(t.len());
        for j in t.jobs() {
            ids.entry(j.id).or_insert(j);
        }
        ids
    });
    for (x, y, y_ids) in [(a, b, &index[1]), (b, a, &index[0])] {
        for j in x.jobs().iter().filter(|j| j.is_paired()) {
            let m = j.mate.expect("filtered to paired");
            if m.machine != y.machine() {
                return Err(format!(
                    "{}/{} points at machine {}",
                    x.machine(),
                    j.id,
                    m.machine
                ));
            }
            let Some(mate) = y_ids.get(&m.job) else {
                return Err(format!(
                    "{}/{} points at missing job {}",
                    x.machine(),
                    j.id,
                    m.job
                ));
            };
            let back = mate
                .mate
                .ok_or_else(|| format!("{}/{} is not mutual", y.machine(), mate.id))?;
            if back.job != j.id || back.machine != x.machine() {
                return Err(format!(
                    "{}/{} ↔ {}/{} mate refs are not symmetric",
                    x.machine(),
                    j.id,
                    y.machine(),
                    mate.id
                ));
            }
            visit(x.machine(), j.id, m);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobId, MachineId};
    use cosched_sim::SimTime;

    fn mk(machine: usize, id: u64, submit: u64) -> Job {
        Job::new(
            JobId(id),
            MachineId(machine),
            SimTime::from_secs(submit),
            4,
            SimDuration::from_secs(600),
            SimDuration::from_secs(1200),
        )
    }

    fn traces(a_submits: &[u64], b_submits: &[u64]) -> (Trace, Trace) {
        let a = Trace::from_jobs(
            MachineId(0),
            a_submits
                .iter()
                .enumerate()
                .map(|(i, &s)| mk(0, i as u64, s))
                .collect(),
        );
        let b = Trace::from_jobs(
            MachineId(1),
            b_submits
                .iter()
                .enumerate()
                .map(|(i, &s)| mk(1, i as u64, s))
                .collect(),
        );
        (a, b)
    }

    #[test]
    fn window_rule_pairs_close_submissions() {
        let (mut a, mut b) = traces(&[0, 1_000, 5_000], &[60, 4_000, 5_100]);
        let n = pair_by_window(&mut a, &mut b, SimDuration::from_mins(2));
        // a0↔b0 (diff 60), a1 has no b within 120, a2↔b2 (diff 100).
        assert_eq!(n, 2);
        assert_eq!(a.paired_count(), 2);
        assert_eq!(b.paired_count(), 2);
        assert!(a.get(JobId(1)).unwrap().mate.is_none());
        assert!(b.get(JobId(1)).unwrap().mate.is_none());
        validate_pairing(&a, &b).unwrap();
    }

    #[test]
    fn window_rule_is_one_to_one() {
        // Three a-jobs cluster around one b-job: only one pair may form.
        let (mut a, mut b) = traces(&[0, 10, 20], &[15]);
        let n = pair_by_window(&mut a, &mut b, SimDuration::from_mins(2));
        assert_eq!(n, 1);
        assert_eq!(b.paired_count(), 1);
        validate_pairing(&a, &b).unwrap();
    }

    #[test]
    fn window_rule_skips_already_paired() {
        let (mut a, mut b) = traces(&[0], &[30]);
        a.jobs_mut()[0].mate = Some(MateRef {
            machine: MachineId(1),
            job: JobId(0),
        });
        b.jobs_mut()[0].mate = Some(MateRef {
            machine: MachineId(0),
            job: JobId(0),
        });
        let n = pair_by_window(&mut a, &mut b, SimDuration::from_mins(2));
        assert_eq!(n, 0);
    }

    #[test]
    fn window_boundary_is_inclusive() {
        let (mut a, mut b) = traces(&[0], &[120]);
        assert_eq!(pair_by_window(&mut a, &mut b, SimDuration::from_mins(2)), 1);
        let (mut a, mut b) = traces(&[0], &[121]);
        assert_eq!(pair_by_window(&mut a, &mut b, SimDuration::from_mins(2)), 0);
    }

    #[test]
    fn exact_proportion_hits_requested_count() {
        let submits: Vec<u64> = (0..200).map(|i| i * 300).collect();
        let (mut a, mut b) = traces(&submits, &submits);
        let mut rng = SimRng::seed_from_u64(1);
        let n = pair_exact_proportion(&mut a, &mut b, 0.2, SimDuration::from_mins(2), &mut rng);
        assert_eq!(n, 40);
        assert_eq!(a.paired_count(), 40);
        assert_eq!(b.paired_count(), 40);
        assert!((a.paired_proportion() - 0.2).abs() < 1e-9);
        validate_pairing(&a, &b).unwrap();
    }

    #[test]
    fn exact_proportion_mates_within_window() {
        let submits: Vec<u64> = (0..100).map(|i| i * 500).collect();
        let (mut a, mut b) = traces(&submits, &submits);
        let mut rng = SimRng::seed_from_u64(2);
        let window = SimDuration::from_mins(2);
        pair_exact_proportion(&mut a, &mut b, 0.33, window, &mut rng);
        for ja in a.jobs().iter().filter(|j| j.is_paired()) {
            let mate = b.get(ja.mate.unwrap().job).unwrap();
            assert!(
                mate.submit.abs_diff(ja.submit) <= window,
                "mate submitted {} apart",
                mate.submit.abs_diff(ja.submit)
            );
        }
    }

    #[test]
    fn exact_proportion_zero_and_full() {
        let submits: Vec<u64> = (0..50).map(|i| i * 100).collect();
        let (mut a, mut b) = traces(&submits, &submits);
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(
            pair_exact_proportion(&mut a, &mut b, 0.0, SimDuration::from_mins(2), &mut rng),
            0
        );
        assert_eq!(
            pair_exact_proportion(&mut a, &mut b, 1.0, SimDuration::from_mins(2), &mut rng),
            50
        );
        assert_eq!(a.paired_count(), 50);
        validate_pairing(&a, &b).unwrap();
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn exact_proportion_rejects_bad_fraction() {
        let (mut a, mut b) = traces(&[0, 1], &[0, 1]);
        let mut rng = SimRng::seed_from_u64(4);
        pair_exact_proportion(&mut a, &mut b, 1.5, SimDuration::from_mins(2), &mut rng);
    }

    #[test]
    fn thinning_hits_target_share() {
        let submits: Vec<u64> = (0..100).map(|i| i * 60).collect();
        let (mut a, mut b) = traces(&submits, &submits);
        let mut rng = SimRng::seed_from_u64(9);
        pair_exact_proportion(&mut a, &mut b, 1.0, SimDuration::from_mins(2), &mut rng);
        assert_eq!(a.paired_count(), 100);
        let kept = thin_pairs_to_share(&mut a, &mut b, 0.10, &mut rng);
        // 10 % of 200 jobs = 20 paired jobs = 10 pairs.
        assert_eq!(kept, 10);
        assert_eq!(a.paired_count(), 10);
        assert_eq!(b.paired_count(), 10);
        validate_pairing(&a, &b).unwrap();
    }

    #[test]
    fn thinning_below_target_is_noop() {
        let submits: Vec<u64> = (0..100).map(|i| i * 60).collect();
        let (mut a, mut b) = traces(&submits, &submits);
        let mut rng = SimRng::seed_from_u64(10);
        pair_exact_proportion(&mut a, &mut b, 0.05, SimDuration::from_mins(2), &mut rng);
        let before = a.paired_count();
        let kept = thin_pairs_to_share(&mut a, &mut b, 0.5, &mut rng);
        assert_eq!(kept, before);
        assert_eq!(a.paired_count(), before);
    }

    /// The quadratic definitions the linear passes replaced, kept as the
    /// reference model they must agree with.
    mod reference {
        use super::*;

        pub fn apply_pairs(a: &mut Trace, b: &mut Trace, pairs: &[(JobId, JobId)]) {
            let (ma, mb) = (a.machine(), b.machine());
            for &(ida, idb) in pairs {
                for j in a.jobs_mut() {
                    if j.id == ida {
                        j.mate = Some(MateRef {
                            machine: mb,
                            job: idb,
                        });
                    }
                }
                for j in b.jobs_mut() {
                    if j.id == idb {
                        j.mate = Some(MateRef {
                            machine: ma,
                            job: ida,
                        });
                    }
                }
            }
        }

        pub fn pair_exact_proportion(
            a: &mut Trace,
            b: &mut Trace,
            proportion: f64,
            window: SimDuration,
            rng: &mut SimRng,
        ) -> usize {
            let n_max = a.len().min(b.len());
            let want = (proportion * n_max as f64).round() as usize;
            if want == 0 {
                return 0;
            }
            let mut ranks: Vec<usize> = (0..n_max).collect();
            for i in 0..want {
                let j = rng.int_in(i as u64, (n_max - 1) as u64) as usize;
                ranks.swap(i, j);
            }
            let mut chosen: Vec<usize> = ranks[..want].to_vec();
            chosen.sort_unstable();
            let pairs: Vec<_> = chosen
                .iter()
                .map(|&r| (a.jobs()[r].id, b.jobs()[r].id))
                .collect();
            let submit_of_a: Vec<_> = chosen.iter().map(|&r| a.jobs()[r].submit).collect();
            let ids_of_b: Vec<_> = chosen.iter().map(|&r| b.jobs()[r].id).collect();
            let jitters: Vec<u64> = (0..chosen.len())
                .map(|_| rng.int_in(0, window.as_secs()))
                .collect();
            for j in b.jobs_mut() {
                if let Some(pos) = ids_of_b.iter().position(|&id| id == j.id) {
                    j.submit = submit_of_a[pos] + SimDuration::from_secs(jitters[pos]);
                }
            }
            b.resort();
            apply_pairs(a, b, &pairs);
            pairs.len()
        }

        pub fn thin_pairs_to_share(
            a: &mut Trace,
            b: &mut Trace,
            target_share: f64,
            rng: &mut SimRng,
        ) -> usize {
            let total_jobs = a.len() + b.len();
            let current: Vec<(JobId, JobId)> = a
                .jobs()
                .iter()
                .filter_map(|j| j.mate.map(|m| (j.id, m.job)))
                .collect();
            let target_pairs = ((target_share * total_jobs as f64) / 2.0).round() as usize;
            if current.len() <= target_pairs {
                return current.len();
            }
            let mut idx: Vec<usize> = (0..current.len()).collect();
            for i in 0..target_pairs {
                let j = rng.int_in(i as u64, (current.len() - 1) as u64) as usize;
                idx.swap(i, j);
            }
            let keep: std::collections::HashSet<usize> =
                idx[..target_pairs].iter().copied().collect();
            for (pos, &(ida, idb)) in current.iter().enumerate() {
                if keep.contains(&pos) {
                    continue;
                }
                for j in a.jobs_mut() {
                    if j.id == ida {
                        j.mate = None;
                    }
                }
                for j in b.jobs_mut() {
                    if j.id == idb {
                        j.mate = None;
                    }
                }
            }
            target_pairs
        }
    }

    /// A trace appended job by job from `(id, submit)` draws: ids may repeat
    /// (which `Trace::push` allows), so "every job carrying the id" matters.
    fn pushed(machine: usize, draws: &[(u64, u64)]) -> Trace {
        let mut t = Trace::new(MachineId(machine));
        for &(id, submit) in draws {
            t.push(mk(machine, id, submit));
        }
        t.resort();
        t
    }

    fn draws() -> impl proptest::prelude::Strategy<Value = Vec<(u64, u64)>> {
        proptest::collection::vec((0u64..40, 0u64..3_000), 0..60)
    }

    proptest::proptest! {
        #[test]
        fn linear_pairing_matches_the_quadratic_reference(
            da in draws(),
            db in draws(),
            pairs in proptest::collection::vec((0u64..45, 0u64..45), 0..30),
            proportion in 0.0f64..1.0,
            share in 0.0f64..0.6,
            seed in 0u64..1_000,
        ) {
            let (a0, b0) = (pushed(0, &da), pushed(1, &db));
            let pairs: Vec<(JobId, JobId)> =
                pairs.iter().map(|&(x, y)| (JobId(x), JobId(y))).collect();
            let (mut a, mut b) = (a0.clone(), b0.clone());
            let (mut ra, mut rb) = (a0.clone(), b0.clone());
            apply_pairs(&mut a, &mut b, &pairs);
            reference::apply_pairs(&mut ra, &mut rb, &pairs);
            proptest::prop_assert_eq!((&a, &b), (&ra, &rb));

            // Exact proportion, then thinning, each on one RNG stream: the
            // traces, the counts and the RNG's next draw must all agree.
            let window = SimDuration::from_mins(2);
            let (mut rng, mut rrng) = (SimRng::seed_from_u64(seed), SimRng::seed_from_u64(seed));
            let (mut a, mut b) = (a0.clone(), b0.clone());
            let (mut ra, mut rb) = (a0, b0);
            let n = pair_exact_proportion(&mut a, &mut b, proportion, window, &mut rng);
            let rn = reference::pair_exact_proportion(&mut ra, &mut rb, proportion, window, &mut rrng);
            proptest::prop_assert_eq!(n, rn);
            proptest::prop_assert_eq!((&a, &b), (&ra, &rb));
            let k = thin_pairs_to_share(&mut a, &mut b, share, &mut rng);
            let rk = reference::thin_pairs_to_share(&mut ra, &mut rb, share, &mut rrng);
            proptest::prop_assert_eq!(k, rk);
            proptest::prop_assert_eq!((&a, &b), (&ra, &rb));
            proptest::prop_assert_eq!(rng.int_in(0, u64::MAX - 1), rrng.int_in(0, u64::MAX - 1));
        }
    }

    #[test]
    fn validate_detects_asymmetry() {
        let (mut a, b) = traces(&[0], &[0]);
        a.jobs_mut()[0].mate = Some(MateRef {
            machine: MachineId(1),
            job: JobId(0),
        });
        let err = validate_pairing(&a, &b).unwrap_err();
        assert!(err.contains("not mutual"), "{err}");
    }

    #[test]
    fn validate_detects_dangling_ref() {
        let (mut a, b) = traces(&[0], &[0]);
        a.jobs_mut()[0].mate = Some(MateRef {
            machine: MachineId(1),
            job: JobId(99),
        });
        let err = validate_pairing(&a, &b).unwrap_err();
        assert!(err.contains("missing job"), "{err}");
    }
}
