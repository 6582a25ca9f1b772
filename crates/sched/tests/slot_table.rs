//! Model test of `Machine`'s job table: random submit / pick / start /
//! hold / yield / start_held / release_held / try_start_direct / finish
//! sequences on a flat and on a buddy machine, checked after every step
//! against a plain model of each job's lifecycle stage, start and yields.
//! Finished jobs have left the live table, so their answers come from
//! their records.
//!
//! The machine frees a finished job's slot but reuses it only from the
//! next iteration on. A job submitted after an iteration's first pick is
//! not in that iteration's order, so it must not be picked before the
//! next iteration begins; a slot reused at once would break that.
//!
//! It is also the oracle for the queue order the machine keeps between
//! iterations: at the first pick of every iteration whose head, by a
//! from-scratch [`order_queue`], fits, `pick_next` must return that head.

use cosched_sched::policy::order_queue;
use cosched_sched::{AllocatorKind, Candidate, JobStatus, Machine, MachineConfig, PolicyKind};
use cosched_sim::{SimDuration, SimTime};
use cosched_workload::{Job, JobId, MachineId};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Submit a job of `size` nodes (scaled to the machine) and runtime.
    Submit(u64, u64),
    /// Start a fresh scheduling iteration.
    Begin,
    /// Pick the next candidate and commit it: 0 = start, 1 = hold,
    /// 2 = yield.
    Pick(u8),
    /// Start the `i`-th held job in place.
    StartHeld(usize),
    /// Force the `i`-th held job back to the queue.
    ReleaseHeld(usize),
    /// Direct-start the `i`-th queued job (the `try_start_mate` path).
    TryDirect(usize),
    /// Finish the `i`-th running job.
    Finish(usize),
    /// Advance the clock by up to an hour, far enough that the WFP scores
    /// of jobs queued at different instants cross.
    Advance(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..=100, 1u64..5_000).prop_map(|(s, r)| Op::Submit(s, r)),
            Just(Op::Begin),
            (0u8..3).prop_map(Op::Pick),
            (0usize..8).prop_map(Op::StartHeld),
            (0usize..8).prop_map(Op::ReleaseHeld),
            (0usize..8).prop_map(Op::TryDirect),
            (0usize..8).prop_map(Op::Finish),
            (0u64..3_600).prop_map(Op::Advance),
        ],
        1..150,
    )
}

/// What the model knows of one job.
#[derive(Debug, Clone, Copy)]
struct Modeled {
    status: JobStatus,
    /// Nodes charged while held (what `held_nodes` must sum).
    charged: u64,
    /// When the job started, once it has.
    start: Option<SimTime>,
    /// Yields so far.
    yields: u32,
}

/// The plain model: every job's stage, plus the held and running lists in
/// the order the machine keeps them.
#[derive(Default)]
struct Model {
    jobs: BTreeMap<JobId, Modeled>,
    held: Vec<JobId>,
    running: Vec<JobId>,
    /// When each job was last forced out of a hold (its demotion instant).
    released_at: BTreeMap<JobId, SimTime>,
    /// Jobs submitted since the current iteration's first pick: outside
    /// its order, so not pickable until the next iteration.
    late: Vec<JobId>,
}

impl Model {
    /// `id` was submitted; `late` if after the iteration's first pick.
    fn submit(&mut self, id: JobId, late: bool) {
        let job = Modeled {
            status: JobStatus::Queued,
            charged: 0,
            start: None,
            yields: 0,
        };
        self.jobs.insert(id, job);
        if late {
            self.late.push(id);
        }
    }

    fn set(&mut self, id: JobId, status: JobStatus, charged: u64) {
        let job = self.jobs.get_mut(&id).expect("submitted");
        (job.status, job.charged) = (status, charged);
    }

    /// `id` started at `now`.
    fn start(&mut self, id: JobId, now: SimTime) {
        self.set(id, JobStatus::Running, 0);
        self.jobs.get_mut(&id).expect("submitted").start = Some(now);
        self.running.push(id);
    }

    /// The queued job a from-scratch policy sort at `now` puts first.
    fn policy_head(&self, m: &Machine, now: SimTime) -> Option<JobId> {
        let boost = m.config().yield_priority_boost;
        let ids: Vec<JobId> = m.queued_jobs().collect();
        let jobs: Vec<_> = ids.iter().map(|&id| m.job(id).expect("queued")).collect();
        let views: Vec<_> = (jobs.iter().zip(&ids))
            .map(|(&job, &id)| (job, m.yields_of(id) as f64 * boost))
            .collect();
        let demoted = |job: &Job| self.released_at.get(&job.id) == Some(&now);
        let order = order_queue(m.config().policy, now, &views, &demoted);
        order.first().map(|&i| ids[i])
    }

    fn check(&self, m: &Machine, pending: Option<&Candidate>) {
        let held: u64 = self.held.iter().map(|id| self.jobs[id].charged).sum();
        assert_eq!(m.held_nodes(), held, "held nodes");
        assert_eq!(m.held_jobs(), self.held.as_slice(), "held list");
        assert_eq!(m.running_jobs(), self.running.as_slice(), "running list");
        for (&id, j) in &self.jobs {
            assert_eq!(m.status(id), j.status, "status of {id}");
            assert_eq!(m.start_of(id), j.start, "start of {id}");
            assert_eq!(m.yields_of(id), j.yields, "yields of {id}");
            let live = j.status != JobStatus::Finished;
            assert_eq!(m.job(id).is_some(), live, "job() of {id}");
        }
        // An outstanding candidate is still `Queued` but out of the queue.
        let mut queued: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(&id, j)| {
                j.status == JobStatus::Queued && pending.is_none_or(|c| c.job_id != id)
            })
            .map(|(&id, _)| id)
            .collect();
        let listed = m.queued_jobs();
        assert_eq!(listed.len(), queued.len(), "queued count");
        let mut listed: Vec<JobId> = listed.collect();
        listed.sort();
        queued.sort();
        assert_eq!(listed, queued, "queued set");
    }
}

fn run(config: MachineConfig, scale: u64, ops: &[Op]) {
    let mut m = Machine::new(config);
    let mut model = Model::default();
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    // Whether the next pick is the first of its iteration.
    let mut first_pick = true;
    for op in ops {
        match *op {
            Op::Submit(size, secs) => {
                let id = JobId(next_id);
                next_id += 1;
                let [runtime, walltime] = [secs, 2 * secs].map(SimDuration::from_secs);
                let job = Job::new(id, MachineId(0), now, size * scale, runtime, walltime);
                m.submit(job, now);
                model.submit(id, !first_pick);
            }
            Op::Begin => {
                m.begin_iteration();
                first_pick = true;
                model.late.clear();
            }
            Op::Pick(commit) => {
                let head = model.policy_head(&m, now);
                let head = head.filter(|&id| first_pick && m.can_fit(m.job(id).unwrap().size));
                first_pick = false;
                let picked = m.pick_next(now);
                if let Some(head) = head {
                    let picked = picked.as_ref().map(|c| c.job_id);
                    assert_eq!(
                        picked,
                        Some(head),
                        "first pick at {now:?} is the policy head"
                    );
                }
                let Some(cand) = picked else {
                    continue;
                };
                let id = cand.job_id;
                assert!(
                    !model.late.contains(&id),
                    "job {id}, submitted after this iteration's first pick, was picked in it"
                );
                assert_eq!(m.status(id), JobStatus::Queued);
                model.check(&m, Some(&cand));
                let charged = cand.charged;
                assert!(charged >= cand.size);
                match commit {
                    0 => {
                        let _ = m.start(cand, now);
                        model.start(id, now);
                    }
                    1 => {
                        m.hold(cand, now);
                        model.set(id, JobStatus::Held, charged);
                        model.held.push(id);
                    }
                    _ => {
                        m.yield_job(cand, now);
                        model.jobs.get_mut(&id).expect("submitted").yields += 1;
                    }
                }
            }
            Op::StartHeld(i) if !model.held.is_empty() => {
                let id = model.held.remove(i % model.held.len());
                assert!(m.start_held(id, now).is_some());
                model.start(id, now);
            }
            Op::ReleaseHeld(i) if !model.held.is_empty() => {
                let id = model.held.remove(i % model.held.len());
                assert!(m.release_held(id, now));
                model.set(id, JobStatus::Queued, 0);
                model.released_at.insert(id, now);
            }
            Op::TryDirect(i) => {
                let queued: Vec<JobId> = m.queued_jobs().collect();
                if queued.is_empty() {
                    continue;
                }
                let id = queued[i % queued.len()];
                if m.try_start_direct(id, now).is_some() {
                    model.start(id, now);
                }
            }
            Op::Finish(i) if !model.running.is_empty() => {
                let id = model.running.remove(i % model.running.len());
                m.finish(id, now);
                model.set(id, JobStatus::Finished, 0);
            }
            Op::Advance(secs) => now += SimDuration::from_secs(secs),
            Op::StartHeld(_) | Op::ReleaseHeld(_) | Op::Finish(_) => {}
        }
        model.check(&m, None);
    }
    let finished = model.jobs.values();
    let finished = finished.filter(|j| j.status == JobStatus::Finished);
    assert_eq!(m.records().len(), finished.count(), "one record per finish");
}

fn flat_wfp() -> MachineConfig {
    let mut config = MachineConfig::flat("flat", MachineId(0), 100);
    config.policy = PolicyKind::Wfp;
    config
}

/// Job 1 is direct-started from ahead of the walk's cursor and finishes
/// between two picks of one iteration; job 2 is submitted then. Job 1's
/// slot is still in the iteration's order, so if job 2 took it at once,
/// the second pick would reach job 2 through it.
#[test]
fn a_job_submitted_mid_iteration_waits_for_the_next_one() {
    use Op::*;
    let ops = [
        Submit(10, 100),
        Submit(10, 100),
        Begin,
        Pick(0),
        TryDirect(0),
        Finish(1),
        Submit(10, 100),
        Pick(0),
        Begin,
        Pick(0),
    ];
    run(flat_wfp(), 1, &ops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flat_machine_job_table_matches_the_model(ops in ops()) {
        run(flat_wfp(), 1, &ops);
    }

    #[test]
    fn buddy_machine_job_table_matches_the_model(ops in ops()) {
        // Intrepid: buddy partitions of 512-node midplanes, WFP.
        let config = MachineConfig::intrepid(MachineId(0));
        assert_eq!(config.allocator, AllocatorKind::Buddy { unit: 512 });
        run(config, 40, &ops);
    }
}

// The same properties at 4,096 cases each; CI runs them in release with
// `--ignored`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_096))]

    #[test]
    #[ignore = "4,096 cases; run in release with --ignored"]
    fn flat_machine_job_table_matches_the_model_at_length(ops in ops()) {
        run(flat_wfp(), 1, &ops);
    }

    #[test]
    #[ignore = "4,096 cases; run in release with --ignored"]
    fn buddy_machine_job_table_matches_the_model_at_length(ops in ops()) {
        run(MachineConfig::intrepid(MachineId(0)), 40, &ops);
    }
}
