//! Inter-job temporal constraints — the paper's §VI future work:
//! "we plan to extend our coscheduling mechanism to support more
//! sophisticated inter-job temporal constraints."
//!
//! Besides the exact co-start the paper implements, coupled workflows want:
//!
//! * [`TemporalConstraint::CoStart`] — start simultaneously (the base
//!   mechanism, delegated to the hold/yield rendezvous);
//! * [`TemporalConstraint::StartWithin`] — a *soft* co-start: the pair
//!   should start within a window of each other. The first-ready job does
//!   not block on the rendezvous — if the mate cannot start now, the job
//!   runs and the mate inherits a deadline;
//! * [`TemporalConstraint::StartAfter`] — ordered execution: the successor
//!   may start no earlier than `min_delay` after the predecessor starts and
//!   should start within `max_delay` (e.g. an analysis job that must begin
//!   once the simulation has produced its first checkpoint, but soon enough
//!   to co-execute).
//!
//! Constraints are *monitored* as well as enforced: the report grades every
//! constraint instance, because `StartWithin`/`StartAfter` upper bounds are
//! best-effort under load (the lower bound of `StartAfter` is hard — the
//! driver simply does not release the successor earlier).

use crate::config::{CoschedConfig, Scheme};
use cosched_metrics::{JobRecord, MachineSummary};
use cosched_sched::{JobStatus, Machine, MachineConfig};
use cosched_sim::{EventQueue, IdHashMap, IdHashSet, SimDuration, SimTime};
use cosched_workload::{Job, JobId, Trace};

/// A temporal relation between two jobs on opposite machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalConstraint {
    /// Start at exactly the same instant.
    CoStart,
    /// Start within `window` of each other (soft co-start).
    StartWithin {
        /// Maximum allowed |start(a) − start(b)|.
        window: SimDuration,
    },
    /// `b` starts within `[start(a) + min_delay, start(a) + max_delay]`.
    /// The lower bound is enforced (the successor is withheld); the upper
    /// bound is monitored.
    StartAfter {
        /// Earliest allowed successor start, relative to the predecessor.
        min_delay: SimDuration,
        /// Latest desired successor start, relative to the predecessor.
        max_delay: SimDuration,
    },
}

/// One constraint instance binding job `a` on machine 0 and job `b` on
/// machine 1 (for `StartAfter`, `a` is the predecessor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintInstance {
    /// Job on machine 0.
    pub a: JobId,
    /// Job on machine 1.
    pub b: JobId,
    /// The relation.
    pub constraint: TemporalConstraint,
}

/// Outcome of one constraint instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintOutcome {
    /// The instance.
    pub instance: ConstraintInstance,
    /// Observed `start(b) − start(a)` (saturating for CoStart/Within where
    /// order is irrelevant, signedness is reported via `b_before_a`).
    pub offset: SimDuration,
    /// Whether `b` started before `a`.
    pub b_before_a: bool,
    /// Whether the constraint held.
    pub satisfied: bool,
}

/// Events of the temporal simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival {
        m: usize,
        idx: usize,
    },
    JobEnd {
        m: usize,
        job: JobId,
    },
    ReleaseSweep {
        m: usize,
    },
    /// A gated successor becomes eligible for submission.
    ReleaseSuccessor {
        job: JobId,
    },
}

/// Report of a temporal-constraint run.
#[derive(Debug, Clone)]
pub struct TemporalReport {
    /// Per-machine job records.
    pub records: [Vec<JobRecord>; 2],
    /// Per-machine summaries.
    pub summaries: [MachineSummary; 2],
    /// One outcome per constraint instance (only for instances whose jobs
    /// both completed).
    pub outcomes: Vec<ConstraintOutcome>,
    /// Whether the run wedged.
    pub deadlocked: bool,
    /// Events dispatched.
    pub events: u64,
}

impl TemporalReport {
    /// All constraints satisfied.
    pub fn all_satisfied(&self) -> bool {
        self.outcomes.iter().all(|o| o.satisfied)
    }

    /// Count of violated constraints.
    pub fn violations(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.satisfied).count()
    }
}

/// Two-machine simulator with temporal constraints between jobs.
pub struct TemporalSimulation {
    machines: [Machine; 2],
    cosched: [CoschedConfig; 2],
    capacities: [u64; 2],
    names: [String; 2],
    jobs: [Vec<Job>; 2],
    constraints: Vec<ConstraintInstance>,
    /// (machine, job) → indices of constraints the job participates in. A
    /// job may anchor several `StartAfter` successors, but at most one
    /// *decision-driving* role (CoStart / StartWithin on either side, or
    /// being a StartAfter successor).
    by_job: IdHashMap<(usize, JobId), Vec<usize>>,
    /// Successors gated by an unstarted predecessor: b-job → trace index.
    gated: IdHashMap<JobId, usize>,
    queue: EventQueue<Event>,
    now: SimTime,
    events: u64,
    sweep_armed: [bool; 2],
    max_events: u64,
}

impl TemporalSimulation {
    /// Build from machine configs, the per-machine coscheduling settings
    /// (used for CoStart waits), traces, and constraint instances.
    ///
    /// # Panics
    /// Panics if a constraint references a missing job or a job carries two
    /// constraints.
    pub fn new(
        machines: [MachineConfig; 2],
        cosched: [CoschedConfig; 2],
        traces: [Trace; 2],
        constraints: Vec<ConstraintInstance>,
    ) -> Self {
        let mut by_job: IdHashMap<(usize, JobId), Vec<usize>> = IdHashMap::default();
        let mut driving: IdHashSet<(usize, JobId)> = IdHashSet::default();
        for (i, c) in constraints.iter().enumerate() {
            assert!(
                traces[0].get(c.a).is_some(),
                "constraint references missing job {} on machine 0",
                c.a
            );
            assert!(
                traces[1].get(c.b).is_some(),
                "constraint references missing job {} on machine 1",
                c.b
            );
            by_job.entry((0, c.a)).or_default().push(i);
            by_job.entry((1, c.b)).or_default().push(i);
            // At most one decision-driving role per job.
            let drivers: Vec<(usize, JobId)> = match c.constraint {
                TemporalConstraint::CoStart | TemporalConstraint::StartWithin { .. } => {
                    vec![(0, c.a), (1, c.b)]
                }
                TemporalConstraint::StartAfter { .. } => vec![(1, c.b)],
            };
            for d in drivers {
                assert!(
                    driving.insert(d),
                    "job {} on machine {} has two decision-driving constraints",
                    d.1,
                    d.0
                );
            }
        }
        let capacities = [machines[0].capacity, machines[1].capacity];
        let names = [machines[0].name.clone(), machines[1].name.clone()];
        let [ta, tb] = traces;
        TemporalSimulation {
            machines: [
                Machine::new(machines[0].clone()),
                Machine::new(machines[1].clone()),
            ],
            cosched,
            capacities,
            names,
            jobs: [ta.into_jobs(), tb.into_jobs()],
            constraints,
            by_job,
            gated: IdHashMap::default(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            events: 0,
            sweep_armed: [false, false],
            max_events: 10_000_000,
        }
    }

    /// All constraints `job` on machine `m` participates in.
    fn constraints_of(&self, m: usize, job: JobId) -> impl Iterator<Item = &ConstraintInstance> {
        self.by_job
            .get(&(m, job))
            .into_iter()
            .flatten()
            .map(|&i| &self.constraints[i])
    }

    /// The decision-driving constraint of `job` on `m`, if any: CoStart /
    /// StartWithin (either side) or StartAfter (successor side only).
    fn driving_constraint(&self, m: usize, job: JobId) -> Option<ConstraintInstance> {
        self.constraints_of(m, job)
            .find(|c| match c.constraint {
                TemporalConstraint::CoStart | TemporalConstraint::StartWithin { .. } => true,
                TemporalConstraint::StartAfter { .. } => m == 1 && c.b == job,
            })
            .copied()
    }

    /// Run to completion.
    pub fn run(mut self) -> TemporalReport {
        for m in 0..2 {
            for idx in 0..self.jobs[m].len() {
                let t = self.jobs[m][idx].submit;
                self.queue.push(t, Event::Arrival { m, idx });
            }
        }
        let mut aborted = false;
        while let Some(ev) = self.queue.pop() {
            if self.events >= self.max_events {
                aborted = true;
                break;
            }
            self.now = ev.time;
            self.events += 1;
            match ev.event {
                Event::Arrival { m, idx } => self.arrive(m, idx),
                Event::JobEnd { m, job } => {
                    self.machines[m].finish(job, self.now);
                    self.iterate(m);
                }
                Event::ReleaseSweep { m } => self.sweep(m),
                Event::ReleaseSuccessor { job } => {
                    if let Some(idx) = self.gated.remove(&job) {
                        let j = self.jobs[1][idx].clone();
                        self.machines[1].submit(j, self.now);
                        self.iterate(1);
                    }
                }
            }
        }
        self.report(aborted)
    }

    fn arrive(&mut self, m: usize, idx: usize) {
        let job = self.jobs[m][idx].clone();
        // Successors of StartAfter constraints are gated until the
        // predecessor starts (plus min_delay).
        if m == 1 {
            let gate = self
                .driving_constraint(1, job.id)
                .and_then(|c| match c.constraint {
                    TemporalConstraint::StartAfter { min_delay, .. } => Some((c.a, min_delay)),
                    _ => None,
                });
            if let Some((pred, min_delay)) = gate {
                match self.machines[0].status(pred) {
                    JobStatus::Running | JobStatus::Finished => {
                        let pred_start = self.machines[0]
                            .start_of(pred)
                            .expect("running/finished job has a start");
                        let eligible = pred_start + min_delay;
                        if eligible > self.now {
                            self.gated.insert(job.id, idx);
                            self.queue
                                .push(eligible, Event::ReleaseSuccessor { job: job.id });
                            return;
                        }
                    }
                    _ => {
                        // Predecessor not started yet: park until its
                        // start (handled in `on_started`).
                        self.gated.insert(job.id, idx);
                        return;
                    }
                }
            }
        }
        self.machines[m].submit(job, self.now);
        self.iterate(m);
    }

    /// Called whenever a machine-0 job starts: release gated successors.
    fn on_started(&mut self, m: usize, job: JobId) {
        if m != 0 {
            return;
        }
        let releases: Vec<(JobId, SimDuration)> = self
            .constraints_of(0, job)
            .filter_map(|c| match c.constraint {
                TemporalConstraint::StartAfter { min_delay, .. } => Some((c.b, min_delay)),
                _ => None,
            })
            .collect();
        for (succ, min_delay) in releases {
            if self.gated.contains_key(&succ) {
                self.queue
                    .push(self.now + min_delay, Event::ReleaseSuccessor { job: succ });
            }
        }
    }

    fn iterate(&mut self, m: usize) {
        self.machines[m].begin_iteration();
        while let Some(cand) = self.machines[m].pick_next(self.now) {
            let job_id = cand.job_id;
            let decision = self.decide(m, job_id, cand.charged);
            match decision {
                TDecision::Start => {
                    let end = self.machines[m].start(cand, self.now);
                    self.queue.push(end, Event::JobEnd { m, job: job_id });
                    self.on_started(m, job_id);
                }
                TDecision::Wait(Scheme::Hold) => self.machines[m].hold(cand, self.now),
                TDecision::Wait(Scheme::Yield) => self.machines[m].yield_job(cand, self.now),
            }
        }
        self.arm_sweep_if_needed(m);
    }

    fn decide(&mut self, m: usize, job: JobId, charged: u64) -> TDecision {
        let Some(c) = self.driving_constraint(m, job) else {
            return TDecision::Start;
        };
        let other_m = 1 - m;
        let other_id = if m == 0 { c.b } else { c.a };
        match c.constraint {
            TemporalConstraint::CoStart => {
                // The 2-way rendezvous, inline: mate holding → start both;
                // mate queued and startable → start both; else wait.
                match self.machines[other_m].status(other_id) {
                    JobStatus::Held => {
                        if let Some(end) = self.machines[other_m].start_held(other_id, self.now) {
                            self.queue.push(
                                end,
                                Event::JobEnd {
                                    m: other_m,
                                    job: other_id,
                                },
                            );
                            self.on_started(other_m, other_id);
                        }
                        TDecision::Start
                    }
                    JobStatus::Queued | JobStatus::Unsubmitted => {
                        if let Some(end) =
                            self.machines[other_m].try_start_direct(other_id, self.now)
                        {
                            self.queue.push(
                                end,
                                Event::JobEnd {
                                    m: other_m,
                                    job: other_id,
                                },
                            );
                            self.on_started(other_m, other_id);
                            TDecision::Start
                        } else {
                            TDecision::Wait(self.effective_scheme(m, job, charged))
                        }
                    }
                    JobStatus::Running | JobStatus::Finished => TDecision::Start,
                }
            }
            TemporalConstraint::StartWithin { .. } => {
                // Soft co-start: try to bring the mate along, but never
                // block — the window gives slack, and the report grades it.
                if self.machines[other_m].status(other_id) == JobStatus::Held {
                    if let Some(end) = self.machines[other_m].start_held(other_id, self.now) {
                        self.queue.push(
                            end,
                            Event::JobEnd {
                                m: other_m,
                                job: other_id,
                            },
                        );
                        self.on_started(other_m, other_id);
                    }
                } else if let Some(end) =
                    self.machines[other_m].try_start_direct(other_id, self.now)
                {
                    self.queue.push(
                        end,
                        Event::JobEnd {
                            m: other_m,
                            job: other_id,
                        },
                    );
                    self.on_started(other_m, other_id);
                }
                TDecision::Start
            }
            TemporalConstraint::StartAfter { .. } => {
                // The lower bound was enforced by gating; at this point the
                // job just runs.
                TDecision::Start
            }
        }
    }

    fn effective_scheme(&self, m: usize, job: JobId, charged: u64) -> Scheme {
        let cfg = &self.cosched[m];
        match cfg.scheme {
            Scheme::Hold => {
                if let Some(cap) = cfg.max_held_fraction {
                    let would = (self.machines[m].held_nodes() + charged) as f64
                        / self.capacities[m] as f64;
                    if would > cap {
                        return Scheme::Yield;
                    }
                }
                Scheme::Hold
            }
            Scheme::Yield => {
                if let Some(max) = cfg.max_yields_before_hold {
                    if self.machines[m].yields_of(job) >= max {
                        return Scheme::Hold;
                    }
                }
                Scheme::Yield
            }
        }
    }

    fn sweep(&mut self, m: usize) {
        self.sweep_armed[m] = false;
        let Some(period) = self.cosched[m].release_period else {
            return;
        };
        let matured: Vec<JobId> = self.machines[m]
            .held_jobs()
            .iter()
            .filter(|&&job| {
                self.machines[m]
                    .hold_since(job)
                    .is_some_and(|since| since + period <= self.now)
            })
            .copied()
            .collect();
        for job in matured {
            self.machines[m].release_held(job, self.now);
        }
        self.iterate(m);
        self.arm_sweep_if_needed(m);
    }

    fn arm_sweep_if_needed(&mut self, m: usize) {
        if self.sweep_armed[m] {
            return;
        }
        let Some(period) = self.cosched[m].release_period else {
            return;
        };
        let oldest = self.machines[m]
            .held_jobs()
            .iter()
            .filter_map(|&job| self.machines[m].hold_since(job))
            .min();
        if let Some(since) = oldest {
            let at = (since + period).max(self.now);
            self.queue.push(at, Event::ReleaseSweep { m });
            self.sweep_armed[m] = true;
        }
    }

    fn report(mut self, aborted: bool) -> TemporalReport {
        let horizon = self.now.max(SimTime::from_secs(1));
        let held = [
            self.machines[0].held_node_seconds(horizon),
            self.machines[1].held_node_seconds(horizon),
        ];
        let unfinished = self.jobs[0].len() + self.jobs[1].len()
            - self.machines[0].records().len()
            - self.machines[1].records().len();
        let records = [
            self.machines[0].take_records(),
            self.machines[1].take_records(),
        ];
        let summaries = [
            MachineSummary::from_records(
                self.names[0].clone(),
                &records[0],
                self.capacities[0],
                horizon,
                held[0],
            ),
            MachineSummary::from_records(
                self.names[1].clone(),
                &records[1],
                self.capacities[1],
                horizon,
                held[1],
            ),
        ];
        let starts: [IdHashMap<JobId, SimTime>; 2] = [
            records[0].iter().map(|r| (r.id, r.start)).collect(),
            records[1].iter().map(|r| (r.id, r.start)).collect(),
        ];
        let mut outcomes = Vec::new();
        for c in &self.constraints {
            let (Some(&sa), Some(&sb)) = (starts[0].get(&c.a), starts[1].get(&c.b)) else {
                continue;
            };
            let offset = sa.abs_diff(sb);
            let b_before_a = sb < sa;
            let satisfied = match c.constraint {
                TemporalConstraint::CoStart => offset.is_zero(),
                TemporalConstraint::StartWithin { window } => offset <= window,
                TemporalConstraint::StartAfter {
                    min_delay,
                    max_delay,
                } => !b_before_a && offset >= min_delay && offset <= max_delay,
            };
            outcomes.push(ConstraintOutcome {
                instance: *c,
                offset,
                b_before_a,
                satisfied,
            });
        }
        TemporalReport {
            records,
            summaries,
            outcomes,
            deadlocked: !aborted && unfinished > 0,
            events: self.events,
        }
    }
}

/// Internal decision for the temporal driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TDecision {
    Start,
    Wait(Scheme),
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosched_workload::MachineId;

    fn job(machine: usize, id: u64, submit: u64, size: u64, runtime: u64) -> Job {
        Job::new(
            JobId(id),
            MachineId(machine),
            SimTime::from_secs(submit),
            size,
            SimDuration::from_secs(runtime),
            SimDuration::from_secs(runtime * 2),
        )
    }

    fn machines() -> [MachineConfig; 2] {
        [
            MachineConfig::flat("A", MachineId(0), 100),
            MachineConfig::flat("B", MachineId(1), 100),
        ]
    }

    fn cosched() -> [CoschedConfig; 2] {
        [
            CoschedConfig::paper(Scheme::Hold),
            CoschedConfig::paper(Scheme::Yield),
        ]
    }

    #[test]
    fn costart_constraint_behaves_like_coscheduling() {
        let traces = [
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 600)]),
            Trace::from_jobs(
                MachineId(1),
                vec![job(1, 9, 0, 100, 300), job(1, 1, 30, 40, 600)],
            ),
        ];
        let report = TemporalSimulation::new(
            machines(),
            cosched(),
            traces,
            vec![ConstraintInstance {
                a: JobId(1),
                b: JobId(1),
                constraint: TemporalConstraint::CoStart,
            }],
        )
        .run();
        assert!(!report.deadlocked);
        assert!(report.all_satisfied(), "outcomes {:?}", report.outcomes);
        assert_eq!(report.outcomes[0].offset, SimDuration::ZERO);
    }

    #[test]
    fn start_within_lets_first_job_run_and_grades_the_window() {
        // B is blocked for 300 s; A's job starts immediately. Window 600 s
        // covers the gap ⇒ satisfied; window 100 s would not.
        let traces = || {
            [
                Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 600)]),
                Trace::from_jobs(
                    MachineId(1),
                    vec![job(1, 9, 0, 100, 300), job(1, 1, 10, 40, 600)],
                ),
            ]
        };
        let run = |window| {
            TemporalSimulation::new(
                machines(),
                cosched(),
                traces(),
                vec![ConstraintInstance {
                    a: JobId(1),
                    b: JobId(1),
                    constraint: TemporalConstraint::StartWithin { window },
                }],
            )
            .run()
        };
        let wide = run(SimDuration::from_secs(600));
        assert!(!wide.deadlocked);
        assert_eq!(wide.records[0][0].start, SimTime::ZERO, "A does not block");
        assert!(wide.all_satisfied(), "{:?}", wide.outcomes);
        assert_eq!(wide.outcomes[0].offset, SimDuration::from_secs(300));

        let narrow = run(SimDuration::from_secs(100));
        assert_eq!(
            narrow.violations(),
            1,
            "window too small must be graded violated"
        );
    }

    #[test]
    fn start_after_enforces_lower_bound_and_grades_upper() {
        // A starts at 0 (free machine); B submitted immediately but must
        // wait min_delay = 500 s after A's start.
        let traces = [
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 2_000)]),
            Trace::from_jobs(MachineId(1), vec![job(1, 1, 5, 40, 600)]),
        ];
        let report = TemporalSimulation::new(
            machines(),
            cosched(),
            traces,
            vec![ConstraintInstance {
                a: JobId(1),
                b: JobId(1),
                constraint: TemporalConstraint::StartAfter {
                    min_delay: SimDuration::from_secs(500),
                    max_delay: SimDuration::from_secs(1_000),
                },
            }],
        )
        .run();
        assert!(!report.deadlocked);
        let sb = report.records[1][0].start;
        assert_eq!(
            sb,
            SimTime::from_secs(500),
            "successor gated to start+min_delay"
        );
        assert!(report.all_satisfied(), "{:?}", report.outcomes);
        assert!(!report.outcomes[0].b_before_a);
    }

    #[test]
    fn start_after_with_busy_successor_machine_grades_upper_bound() {
        // Successor machine blocked for 2000 s ⇒ b starts at 2000, beyond
        // max_delay 1000 ⇒ violation (monitored, not fatal).
        let traces = [
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 3_000)]),
            Trace::from_jobs(
                MachineId(1),
                vec![job(1, 9, 0, 100, 2_000), job(1, 1, 5, 40, 600)],
            ),
        ];
        let report = TemporalSimulation::new(
            machines(),
            cosched(),
            traces,
            vec![ConstraintInstance {
                a: JobId(1),
                b: JobId(1),
                constraint: TemporalConstraint::StartAfter {
                    min_delay: SimDuration::from_secs(100),
                    max_delay: SimDuration::from_secs(1_000),
                },
            }],
        )
        .run();
        assert!(!report.deadlocked);
        assert_eq!(report.violations(), 1);
        assert_eq!(
            report.records[1]
                .iter()
                .find(|r| r.id == JobId(1))
                .unwrap()
                .start,
            SimTime::from_secs(2_000)
        );
    }

    #[test]
    fn successor_arriving_after_predecessor_started_is_gated_correctly() {
        // A starts at 0; B arrives at t=800 with min_delay 500 — already
        // past the threshold, so B runs immediately.
        let traces = [
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 3_000)]),
            Trace::from_jobs(MachineId(1), vec![job(1, 1, 800, 40, 600)]),
        ];
        let report = TemporalSimulation::new(
            machines(),
            cosched(),
            traces,
            vec![ConstraintInstance {
                a: JobId(1),
                b: JobId(1),
                constraint: TemporalConstraint::StartAfter {
                    min_delay: SimDuration::from_secs(500),
                    max_delay: SimDuration::from_secs(2_000),
                },
            }],
        )
        .run();
        assert_eq!(report.records[1][0].start, SimTime::from_secs(800));
        assert!(report.all_satisfied());
    }

    #[test]
    #[should_panic(expected = "missing job")]
    fn constraint_on_missing_job_is_rejected() {
        let traces = [
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 10, 100)]),
            Trace::from_jobs(MachineId(1), vec![job(1, 1, 0, 10, 100)]),
        ];
        TemporalSimulation::new(
            machines(),
            cosched(),
            traces,
            vec![ConstraintInstance {
                a: JobId(99),
                b: JobId(1),
                constraint: TemporalConstraint::CoStart,
            }],
        );
    }

    #[test]
    fn unconstrained_jobs_flow_through() {
        let traces = [
            Trace::from_jobs(
                MachineId(0),
                vec![job(0, 1, 0, 10, 100), job(0, 2, 5, 10, 100)],
            ),
            Trace::from_jobs(MachineId(1), vec![job(1, 1, 0, 10, 100)]),
        ];
        let report = TemporalSimulation::new(machines(), cosched(), traces, vec![]).run();
        assert!(!report.deadlocked);
        assert_eq!(report.records[0].len(), 2);
        assert_eq!(report.records[1].len(), 1);
        assert!(report.outcomes.is_empty());
    }
}
