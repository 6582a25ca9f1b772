//! N-way coscheduling — the paper's §VI future work, realized.
//!
//! "Further, we will examine the possibility of extending our algorithm to
//! support N-way coscheduling on more than two scheduling domains." The
//! motivating NASA hurricane-forecasting workflow runs several coupled
//! models concurrently across heterogeneous machines; a *group* of k jobs
//! on k domains must start simultaneously.
//!
//! The 2-way algorithm generalizes with one addition to the protocol: a
//! non-committing `CanStart` probe ([`cosched_proto::Request::CanStart`]).
//! When a group member becomes
//! ready it queries every other member:
//!
//! * any status unknown / domain unreachable → start normally (the same
//!   fault-tolerance rule as 2-way);
//! * any member already running or finished → the rendezvous is missed,
//!   start normally;
//! * otherwise, if **every** other member is either *holding* or *queued
//!   and startable right now* (`CanStart`), commit the rendezvous: start
//!   the held ones in place, direct-start the queued ones, start locally —
//!   all at the same instant;
//! * otherwise hold or yield per the locally configured scheme, with the
//!   same enhancements and deadlock breaker as the 2-way driver.
//!
//! The check-then-commit sequence is sound because a group has at most one
//! member per machine (enforced by [`GroupRegistry::insert_group`]), so
//! committing one member cannot invalidate another's admission; within the
//! simulator an event dispatch is atomic. Two-phase behaviour in a live
//! deployment degrades to a retry, exactly like the 2-way pump.

use crate::config::{CoschedConfig, Scheme};
use cosched_metrics::{JobRecord, MachineSummary};
use cosched_sched::{JobStatus, Machine, MachineConfig};
use cosched_sim::{EventQueue, IdHashMap, IdHashSet, SimDuration, SimTime};
use cosched_workload::{Job, JobId, MachineId, MateRef, Trace};

/// Identifies a co-start group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u64);

/// Registry of N-way co-start groups.
#[derive(Debug, Clone, Default)]
pub struct GroupRegistry {
    member_of: IdHashMap<(MachineId, JobId), GroupId>,
    groups: IdHashMap<GroupId, Vec<(MachineId, JobId)>>,
}

impl GroupRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a co-start group.
    ///
    /// # Panics
    /// Panics if the group has fewer than two members, two members on the
    /// same machine, or a member already in another group.
    pub fn insert_group(&mut self, id: GroupId, members: Vec<(MachineId, JobId)>) {
        assert!(members.len() >= 2, "a group needs at least two members");
        let mut machines = IdHashSet::default();
        for &(m, j) in &members {
            assert!(machines.insert(m), "group {id:?} has two members on {m}");
            let prev = self.member_of.insert((m, j), id);
            assert!(prev.is_none(), "{m}/{j} is already in a group");
        }
        self.groups.insert(id, members);
    }

    /// The group a job belongs to, if any.
    pub fn group_of(&self, machine: MachineId, job: JobId) -> Option<GroupId> {
        self.member_of.get(&(machine, job)).copied()
    }

    /// A group's members.
    pub fn members(&self, id: GroupId) -> &[(MachineId, JobId)] {
        self.groups.get(&id).map_or(&[], |v| v.as_slice())
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if no groups are registered.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Stamp ring mate references onto the traces so per-job records carry
    /// the `paired` flag (each member points at the next member in the
    /// group, cyclically). Purely for metrics; the driver consults the
    /// registry, not the rings.
    ///
    /// # Panics
    /// Panics if a member is missing from its trace.
    pub fn stamp_rings(&self, traces: &mut [Trace]) {
        let index: IdHashMap<MachineId, usize> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| (t.machine(), i))
            .collect();
        for members in self.groups.values() {
            for (k, &(m, j)) in members.iter().enumerate() {
                let (nm, nj) = members[(k + 1) % members.len()];
                let t = &mut traces[index[&m]];
                let job = t
                    .jobs_mut()
                    .iter_mut()
                    .find(|job| job.id == j)
                    .unwrap_or_else(|| panic!("group member {m}/{j} missing from trace"));
                job.mate = Some(MateRef {
                    machine: nm,
                    job: nj,
                });
            }
        }
    }
}

/// Configuration of an N-machine coupled system.
#[derive(Debug, Clone)]
pub struct NwayConfig {
    /// One resource-manager configuration per machine.
    pub machines: Vec<MachineConfig>,
    /// One local coscheduling configuration per machine.
    pub cosched: Vec<CoschedConfig>,
    /// Event-loop safety valve.
    pub max_events: u64,
}

/// What to do with a ready group member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NDecision {
    /// Start now (rendezvous committed, missed, or job is ungrouped).
    Start,
    /// Wait under the given scheme.
    Wait(Scheme),
}

/// Events of the N-way simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival { m: usize, idx: usize },
    JobEnd { m: usize, job: JobId },
    ReleaseSweep { m: usize },
}

/// Outcome of an N-way run.
#[derive(Debug, Clone)]
pub struct NwayReport {
    /// Per-machine records.
    pub records: Vec<Vec<JobRecord>>,
    /// Per-machine summaries.
    pub summaries: Vec<MachineSummary>,
    /// Per-group spread: latest start − earliest start among members.
    pub group_spreads: Vec<SimDuration>,
    /// True if the queue drained with jobs stuck.
    pub deadlocked: bool,
    /// True if `max_events` tripped.
    pub aborted: bool,
    /// Forced hold releases.
    pub forced_releases: u64,
    /// Events dispatched.
    pub events: u64,
    /// Final instant.
    pub horizon: SimTime,
}

impl NwayReport {
    /// Every group started simultaneously.
    pub fn all_groups_synchronized(&self) -> bool {
        self.group_spreads.iter().all(|d| d.is_zero())
    }
}

/// The N-machine coupled simulator.
pub struct NwaySimulation {
    config: NwayConfig,
    machines: Vec<Machine>,
    jobs: Vec<Vec<Job>>,
    registry: GroupRegistry,
    queue: EventQueue<Event>,
    now: SimTime,
    events: u64,
    forced_releases: u64,
    sweep_armed: Vec<bool>,
    /// Machine-id → index.
    index: IdHashMap<MachineId, usize>,
}

impl NwaySimulation {
    /// Build from config, traces (one per machine, same order), and groups.
    /// Ring mate references are stamped automatically for metrics.
    ///
    /// # Panics
    /// Panics on config/trace arity mismatch or invalid group membership.
    pub fn new(config: NwayConfig, mut traces: Vec<Trace>, registry: GroupRegistry) -> Self {
        assert_eq!(config.machines.len(), traces.len(), "one trace per machine");
        assert_eq!(
            config.machines.len(),
            config.cosched.len(),
            "one cosched config per machine"
        );
        assert!(
            config.machines.len() >= 2,
            "an N-way system needs at least two machines"
        );
        for (cfg, t) in config.machines.iter().zip(&traces) {
            assert_eq!(
                cfg.machine,
                t.machine(),
                "trace order must match machine order"
            );
        }
        registry.stamp_rings(&mut traces);
        let machines: Vec<Machine> = config
            .machines
            .iter()
            .map(|c| Machine::new(c.clone()))
            .collect();
        let index = config
            .machines
            .iter()
            .enumerate()
            .map(|(i, c)| (c.machine, i))
            .collect();
        let n = machines.len();
        NwaySimulation {
            config,
            machines,
            jobs: traces.into_iter().map(Trace::into_jobs).collect(),
            registry,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            events: 0,
            forced_releases: 0,
            sweep_armed: vec![false; n],
            index,
        }
    }

    /// Run to completion.
    pub fn run(mut self) -> NwayReport {
        for m in 0..self.jobs.len() {
            for idx in 0..self.jobs[m].len() {
                let t = self.jobs[m][idx].submit;
                self.queue.push(t, Event::Arrival { m, idx });
            }
        }
        let mut aborted = false;
        while let Some(ev) = self.queue.pop() {
            if self.events >= self.config.max_events {
                aborted = true;
                break;
            }
            self.now = ev.time;
            self.events += 1;
            match ev.event {
                Event::Arrival { m, idx } => {
                    let job = self.jobs[m][idx].clone();
                    self.machines[m].submit(job, self.now);
                    self.iterate(m);
                }
                Event::JobEnd { m, job } => {
                    self.machines[m].finish(job, self.now);
                    self.iterate(m);
                }
                Event::ReleaseSweep { m } => self.sweep(m),
            }
        }
        self.report(aborted)
    }

    fn iterate(&mut self, m: usize) {
        self.machines[m].begin_iteration();
        while let Some(cand) = self.machines[m].pick_next(self.now) {
            let job_id = cand.job_id;
            match self.decide(m, job_id, cand.charged) {
                NDecision::Start => {
                    let end = self.machines[m].start(cand, self.now);
                    self.queue.push(end, Event::JobEnd { m, job: job_id });
                }
                NDecision::Wait(Scheme::Hold) => self.machines[m].hold(cand, self.now),
                NDecision::Wait(Scheme::Yield) => self.machines[m].yield_job(cand, self.now),
            }
        }
        self.arm_sweep_if_needed(m);
    }

    /// Decide the fate of ready job `job` on machine `m`. Starting the
    /// *remote* group members is a side effect of a committed rendezvous;
    /// the local start is the caller's (it owns the candidate).
    fn decide(&mut self, m: usize, job: JobId, charged: u64) -> NDecision {
        let cfg = &self.config.cosched[m];
        if !cfg.enabled {
            return NDecision::Start;
        }
        let Some(gid) = self.registry.group_of(self.config.machines[m].machine, job) else {
            return NDecision::Start;
        };
        let my_machine = self.config.machines[m].machine;
        let others: Vec<(usize, JobId)> = self
            .registry
            .members(gid)
            .iter()
            .filter(|&&(mm, _)| mm != my_machine)
            .map(|&(mm, jj)| (self.index[&mm], jj))
            .collect();

        // Phase 1: check.
        let mut held = Vec::new();
        let mut startable = Vec::new();
        for &(om, oj) in &others {
            match self.machines[om].status(oj) {
                JobStatus::Held => held.push((om, oj)),
                JobStatus::Queued if self.machines[om].can_start_direct(oj, self.now) => {
                    startable.push((om, oj));
                }
                JobStatus::Queued | JobStatus::Unsubmitted => {
                    // Someone is not ready: wait per local scheme (with the
                    // §IV-E2 modifications).
                    return NDecision::Wait(self.effective_scheme(m, job, charged));
                }
                JobStatus::Running | JobStatus::Finished => {
                    // Missed rendezvous: run.
                    return NDecision::Start;
                }
            }
        }
        // Phase 2: commit — every other member is held or startable.
        for (om, oj) in held {
            if let Some(end) = self.machines[om].start_held(oj, self.now) {
                self.queue.push(end, Event::JobEnd { m: om, job: oj });
            }
        }
        for (om, oj) in startable {
            if let Some(end) = self.machines[om].try_start_direct(oj, self.now) {
                self.queue.push(end, Event::JobEnd { m: om, job: oj });
            }
        }
        NDecision::Start
    }

    fn effective_scheme(&self, m: usize, job: JobId, charged: u64) -> Scheme {
        let cfg = &self.config.cosched[m];
        match cfg.scheme {
            Scheme::Hold => {
                if let Some(cap) = cfg.max_held_fraction {
                    let would = (self.machines[m].held_nodes() + charged) as f64
                        / self.config.machines[m].capacity as f64;
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
        let Some(period) = self.config.cosched[m].release_period else {
            return;
        };
        let held = self.machines[m].held_nodes();
        let free = self.machines[m].free_nodes();
        let blocked = held > 0
            && self.machines[m].queued_jobs().any(|id| {
                let size = self.machines[m].job(id).map_or(0, |j| j.size);
                size <= free + held && !self.machines[m].can_fit(size)
            });
        if !blocked {
            if !self.machines[m].held_jobs().is_empty() {
                self.queue
                    .push(self.now + period, Event::ReleaseSweep { m });
                self.sweep_armed[m] = true;
            }
            return;
        }
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
            self.forced_releases += 1;
        }
        self.iterate(m);
        self.arm_sweep_if_needed(m);
    }

    fn arm_sweep_if_needed(&mut self, m: usize) {
        if self.sweep_armed[m] {
            return;
        }
        let Some(period) = self.config.cosched[m].release_period else {
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

    fn report(mut self, aborted: bool) -> NwayReport {
        let horizon = self.now.max(SimTime::from_secs(1));
        let n = self.machines.len();
        let mut records = Vec::with_capacity(n);
        let mut summaries = Vec::with_capacity(n);
        let mut unfinished = 0usize;
        for m in 0..n {
            let held_ns = self.machines[m].held_node_seconds(horizon);
            unfinished += self.jobs[m].len() - self.machines[m].records().len();
            let recs = self.machines[m].take_records();
            summaries.push(MachineSummary::from_records(
                self.config.machines[m].name.clone(),
                &recs,
                self.config.machines[m].capacity,
                horizon,
                held_ns,
            ));
            records.push(recs);
        }
        let mut starts: IdHashMap<(MachineId, JobId), SimTime> = IdHashMap::default();
        for (m, recs) in records.iter().enumerate() {
            for r in recs {
                starts.insert((self.config.machines[m].machine, r.id), r.start);
            }
        }
        let mut group_spreads = Vec::new();
        for gid in self.registry.groups.keys() {
            let member_starts: Vec<SimTime> = self
                .registry
                .members(*gid)
                .iter()
                .filter_map(|&(mm, jj)| starts.get(&(mm, jj)).copied())
                .collect();
            if member_starts.len() == self.registry.members(*gid).len() {
                let min = member_starts.iter().min().copied().unwrap_or(SimTime::ZERO);
                let max = member_starts.iter().max().copied().unwrap_or(SimTime::ZERO);
                group_spreads.push(max - min);
            }
        }
        group_spreads.sort();
        NwayReport {
            records,
            summaries,
            group_spreads,
            deadlocked: !aborted && unfinished > 0,
            aborted,
            forced_releases: self.forced_releases,
            events: self.events,
            horizon: self.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosched_workload::Trace;

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

    fn config(n: usize, scheme: Scheme) -> NwayConfig {
        NwayConfig {
            machines: (0..n)
                .map(|m| MachineConfig::flat(format!("M{m}"), MachineId(m), 100))
                .collect(),
            cosched: (0..n)
                .map(|_| CoschedConfig::paper(scheme).with_max_held_fraction(None))
                .collect(),
            max_events: 1_000_000,
        }
    }

    /// Three machines; a 3-way group plus a filler that delays machine 2.
    fn three_way_traces() -> (Vec<Trace>, GroupRegistry) {
        let mut reg = GroupRegistry::new();
        reg.insert_group(
            GroupId(1),
            vec![
                (MachineId(0), JobId(1)),
                (MachineId(1), JobId(1)),
                (MachineId(2), JobId(1)),
            ],
        );
        let traces = vec![
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, 600)]),
            Trace::from_jobs(MachineId(1), vec![job(1, 1, 30, 40, 600)]),
            Trace::from_jobs(
                MachineId(2),
                vec![job(2, 9, 0, 100, 300), job(2, 1, 60, 40, 600)],
            ),
        ];
        (traces, reg)
    }

    #[test]
    fn three_way_group_starts_simultaneously_hold() {
        let (traces, reg) = three_way_traces();
        let report = NwaySimulation::new(config(3, Scheme::Hold), traces, reg).run();
        assert!(!report.deadlocked);
        assert_eq!(report.group_spreads.len(), 1);
        assert!(
            report.all_groups_synchronized(),
            "spread {:?}",
            report.group_spreads
        );
        // Rendezvous gated by machine 2's filler: start at t=300.
        let s0 = report.records[0][0].start;
        assert_eq!(s0, SimTime::from_secs(300));
    }

    #[test]
    fn three_way_group_starts_simultaneously_yield() {
        let (traces, reg) = three_way_traces();
        let report = NwaySimulation::new(config(3, Scheme::Yield), traces, reg).run();
        assert!(!report.deadlocked);
        assert!(
            report.all_groups_synchronized(),
            "spread {:?}",
            report.group_spreads
        );
        assert_eq!(
            report.summaries.iter().map(|s| s.total_holds).sum::<u64>(),
            0
        );
    }

    #[test]
    fn five_way_rendezvous() {
        let n = 5;
        let mut reg = GroupRegistry::new();
        reg.insert_group(
            GroupId(1),
            (0..n).map(|m| (MachineId(m), JobId(1))).collect(),
        );
        let traces: Vec<Trace> = (0..n)
            .map(|m| {
                let mut jobs = vec![job(m, 1, (m as u64) * 40, 30, 500)];
                if m == n - 1 {
                    // Last machine is blocked the longest.
                    jobs.push(job(m, 9, 0, 100, 777));
                }
                Trace::from_jobs(MachineId(m), jobs)
            })
            .collect();
        let report = NwaySimulation::new(config(n, Scheme::Hold), traces, reg).run();
        assert!(!report.deadlocked);
        assert!(
            report.all_groups_synchronized(),
            "spread {:?}",
            report.group_spreads
        );
        for recs in &report.records {
            let r = recs.iter().find(|r| r.id == JobId(1)).unwrap();
            assert_eq!(r.start, SimTime::from_secs(777));
            assert!(r.paired, "ring stamping marks members paired");
        }
    }

    #[test]
    fn ungrouped_jobs_run_normally() {
        let mut reg = GroupRegistry::new();
        reg.insert_group(
            GroupId(1),
            vec![(MachineId(0), JobId(1)), (MachineId(1), JobId(1))],
        );
        let traces = vec![
            Trace::from_jobs(
                MachineId(0),
                vec![job(0, 1, 0, 40, 600), job(0, 2, 5, 10, 100)],
            ),
            Trace::from_jobs(
                MachineId(1),
                vec![job(1, 1, 0, 40, 600), job(1, 2, 5, 10, 100)],
            ),
        ];
        let report = NwaySimulation::new(config(2, Scheme::Hold), traces, reg).run();
        assert!(!report.deadlocked);
        // Ungrouped job 2 on each machine starts at its submit (room free).
        for m in 0..2 {
            let r = report.records[m].iter().find(|r| r.id == JobId(2)).unwrap();
            assert_eq!(r.start, SimTime::from_secs(5));
            assert!(!r.paired);
        }
        assert!(report.all_groups_synchronized());
    }

    #[test]
    fn circular_three_way_deadlock_is_broken_by_sweeps() {
        // Machine i holds for group i whose other member on machine (i+1)%3
        // cannot fit — a 3-cycle of waits.
        let mut reg = GroupRegistry::new();
        for g in 0..3u64 {
            let m0 = g as usize;
            let m1 = (g as usize + 1) % 3;
            reg.insert_group(
                GroupId(g),
                vec![(MachineId(m0), JobId(g)), (MachineId(m1), JobId(g + 10))],
            );
        }
        let traces: Vec<Trace> = (0..3)
            .map(|m| {
                let g_here = m as u64; // holder job of group m
                let g_prev = ((m + 2) % 3) as u64; // waiting member of group m-1
                Trace::from_jobs(
                    MachineId(m),
                    vec![job(m, g_here, 0, 60, 500), job(m, g_prev + 10, 10, 60, 500)],
                )
            })
            .collect();
        // Without the breaker: deadlock.
        let mut cfg = config(3, Scheme::Hold);
        for c in &mut cfg.cosched {
            c.release_period = None;
        }
        let report = NwaySimulation::new(cfg, traces.clone(), reg.clone()).run();
        assert!(
            report.deadlocked,
            "3-cycle must deadlock without the breaker"
        );
        // With it: completes and synchronizes.
        let report = NwaySimulation::new(config(3, Scheme::Hold), traces, reg).run();
        assert!(!report.deadlocked);
        assert!(report.forced_releases > 0);
        assert!(
            report.all_groups_synchronized(),
            "spreads {:?}",
            report.group_spreads
        );
    }

    #[test]
    #[should_panic(expected = "two members on")]
    fn group_rejects_two_members_on_one_machine() {
        let mut reg = GroupRegistry::new();
        reg.insert_group(
            GroupId(1),
            vec![(MachineId(0), JobId(1)), (MachineId(0), JobId(2))],
        );
    }

    #[test]
    #[should_panic(expected = "already in a group")]
    fn group_rejects_double_membership() {
        let mut reg = GroupRegistry::new();
        reg.insert_group(
            GroupId(1),
            vec![(MachineId(0), JobId(1)), (MachineId(1), JobId(1))],
        );
        reg.insert_group(
            GroupId(2),
            vec![(MachineId(0), JobId(1)), (MachineId(2), JobId(1))],
        );
    }

    #[test]
    fn registry_queries() {
        let mut reg = GroupRegistry::new();
        assert!(reg.is_empty());
        reg.insert_group(
            GroupId(7),
            vec![(MachineId(0), JobId(1)), (MachineId(1), JobId(2))],
        );
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.group_of(MachineId(0), JobId(1)), Some(GroupId(7)));
        assert_eq!(reg.group_of(MachineId(1), JobId(2)), Some(GroupId(7)));
        assert_eq!(reg.group_of(MachineId(1), JobId(1)), None);
        assert_eq!(reg.members(GroupId(7)).len(), 2);
        assert!(reg.members(GroupId(99)).is_empty());
    }
}
