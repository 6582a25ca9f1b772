//! N-way coscheduling and inter-job temporal constraints, the paper's §VI
//! future work ("extending our algorithm to support N-way coscheduling on
//! more than two scheduling domains", "more sophisticated inter-job
//! temporal constraints").
//!
//! [`NwaySimulation`] runs k domains on the event loop of [`crate::driver`],
//! the one [`crate::CoupledSimulation`] runs two on. Only the decision for a
//! ready job differs: a ready job reads and starts its partners through
//! their domains' protocol handlers, over one [`GroupRegistry`] that holds
//! every relation:
//!
//! * [`Constraint::CoStart`] groups of k ≥ 2 jobs on k machines start at one
//!   instant. A ready member asks each partner's domain for its status
//!   (`GetMateStatus`) and, if queued, whether it could start now
//!   (`CanStart`). A partner already running or finished means the
//!   rendezvous is missed: start alone. A partner queued and not startable,
//!   or not submitted, means hold or yield per the local scheme. Otherwise
//!   commit: `StartJob` each held partner, `TryStartMate` each startable
//!   one, and start locally, all at this instant. With two members this is
//!   Algorithm 1, and a run reproduces [`crate::CoupledSimulation`] job for
//!   job.
//! * [`Constraint::StartWithin`] groups are soft: the ready member commits
//!   every partner that is held or startable and never waits.
//! * [`Constraint::StartAfter`] edges order two jobs on any two machines:
//!   the successor is not submitted before its predecessor's start plus
//!   `min_delay` (the engine's gate at arrival and at start).
//!
//! Jobs in no relation start without a protocol call. Check-then-commit is
//! sound because a relation has at most one member per machine, so
//! committing one member cannot invalidate another's admission.

use crate::algorithm::Decision;
use crate::config::CoschedConfig;
use crate::domain::{Outcome, Ready};
use crate::driver::{Engine, Root};
use crate::registry::MateRegistry;
use cosched_metrics::{JobRecord, MachineSummary};
use cosched_obs::{NoopObserver, Observer};
use cosched_proto::{MateStatus, ProtoError, Request, Response};
use cosched_sched::MachineConfig;
use cosched_sim::{IdHashMap, IdHashSet, SimDuration, SimTime};
use cosched_workload::{JobId, MachineId, MateRef, Trace};
use std::fmt;
use std::sync::Arc;

/// A job on a machine.
pub type Member = (MachineId, JobId);

/// Identifies a relation in a [`GroupRegistry`]: its insertion index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u64);

/// A relation between the starts of jobs on distinct machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// Every member starts at the same instant (hard).
    CoStart,
    /// Members should start within `window` of each other (soft).
    StartWithin {
        /// Largest allowed spread of the member starts.
        window: SimDuration,
    },
    /// The successor (second member) starts within `[start + min_delay,
    /// start + max_delay]` of the predecessor (first member). The lower
    /// bound is enforced; the upper bound is graded.
    StartAfter {
        /// Earliest successor start, relative to the predecessor's.
        min_delay: SimDuration,
        /// Latest desired successor start, relative to the predecessor's.
        max_delay: SimDuration,
    },
}

/// Why a relation or a simulation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupError {
    /// A group needs at least two members, a `StartAfter` edge exactly two
    /// (the count given).
    MemberCount(usize),
    /// Two members of one relation are on this machine.
    SameMachine(MachineId),
    /// The job is already in a `CoStart` or `StartWithin` group.
    AlreadyGrouped(MachineId, JobId),
    /// The job would have two decision-driving roles: group member and
    /// `StartAfter` successor exclude each other, and a job succeeds at
    /// most one predecessor.
    TwoDrivingRoles(MachineId, JobId),
    /// The config has this many machines, but not as many coscheduling
    /// configs and traces.
    Arity(usize),
    /// The trace in this slot is not for the machine the config puts there.
    TraceOrder(usize),
    /// A relation member is not in its machine's trace.
    MissingMember(MachineId, JobId),
    /// A relation member is larger than its machine's capacity, so its
    /// relation could never start.
    Oversize(MachineId, JobId),
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MemberCount(n) => write!(f, "a relation cannot have {n} members"),
            Self::SameMachine(m) => write!(f, "a relation has two members on {m}"),
            Self::AlreadyGrouped(m, j) => write!(f, "{m}/{j} is already in a group"),
            Self::TwoDrivingRoles(m, j) => write!(f, "{m}/{j} has two decision-driving roles"),
            Self::Arity(n) => write!(f, "{n} machines need as many cosched configs and traces"),
            Self::TraceOrder(slot) => write!(f, "trace {slot} is not for machine {slot}'s config"),
            Self::MissingMember(m, j) => write!(f, "member {m}/{j} is missing from its trace"),
            Self::Oversize(m, j) => write!(f, "member {m}/{j} is larger than its machine"),
        }
    }
}

impl std::error::Error for GroupError {}

/// Every relation of a k-way run.
#[derive(Debug, Clone, Default)]
pub struct GroupRegistry {
    relations: Vec<(Constraint, Vec<Member>)>,
    /// The relation deciding each job's start: its group, or the edge it is
    /// the successor of.
    driving: IdHashMap<Member, GroupId>,
    /// `StartAfter` successors and their `min_delay`, by predecessor.
    pub(crate) after: IdHashMap<Member, Vec<(Member, SimDuration)>>,
}

impl GroupRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a relation: a group of two or more members, or a
    /// `StartAfter` edge `[predecessor, successor]`. Members must be on
    /// distinct machines. Nothing is registered on error.
    pub fn insert(
        &mut self,
        constraint: Constraint,
        members: Vec<Member>,
    ) -> Result<GroupId, GroupError> {
        let edge = matches!(constraint, Constraint::StartAfter { .. });
        if members.len() < 2 || (edge && members.len() != 2) {
            return Err(GroupError::MemberCount(members.len()));
        }
        let mut machines = IdHashSet::default();
        if let Some(&(m, _)) = members.iter().find(|&&(m, _)| !machines.insert(m)) {
            return Err(GroupError::SameMachine(m));
        }
        // A group drives every member's start, an edge only its successor's.
        let drives = if edge { &members[1..] } else { &members[..] };
        for &(m, j) in drives {
            if let Some(&id) = self.driving.get(&(m, j)) {
                let grouped = !edge && !self.is_edge(id);
                return Err(if grouped {
                    GroupError::AlreadyGrouped(m, j)
                } else {
                    GroupError::TwoDrivingRoles(m, j)
                });
            }
        }
        let id = GroupId(self.relations.len() as u64);
        for &member in drives {
            self.driving.insert(member, id);
        }
        if let Constraint::StartAfter { min_delay, .. } = constraint {
            let successors = self.after.entry(members[0]).or_default();
            successors.push((members[1], min_delay));
        }
        self.relations.push((constraint, members));
        Ok(id)
    }

    /// The relation deciding `job`'s start: its group, or the `StartAfter`
    /// edge it is the successor of.
    pub fn group_of(&self, machine: MachineId, job: JobId) -> Option<GroupId> {
        self.driving.get(&(machine, job)).copied()
    }

    /// A relation's members (an edge lists its predecessor first); empty
    /// for an unknown id.
    pub fn members(&self, id: GroupId) -> &[Member] {
        self.get(id).map_or(&[], |(_, members)| members)
    }

    /// A relation's constraint.
    pub fn constraint(&self, id: GroupId) -> Option<Constraint> {
        self.get(id).map(|&(c, _)| c)
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if no relations are registered.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    fn get(&self, id: GroupId) -> Option<&(Constraint, Vec<Member>)> {
        self.relations.get(id.0 as usize)
    }

    fn is_edge(&self, id: GroupId) -> bool {
        matches!(self.constraint(id), Some(Constraint::StartAfter { .. }))
    }

    /// The relation deciding `member`'s start.
    pub(crate) fn driving(&self, member: Member) -> Option<&(Constraint, Vec<Member>)> {
        self.get(*self.driving.get(&member)?)
    }

    /// The member after `member` in its group, cyclically: the mate its
    /// domain reports. Edge endpoints have no mate.
    fn ring_mate(&self, member: Member) -> Option<Member> {
        let id = *self.driving.get(&member)?;
        if self.is_edge(id) {
            return None;
        }
        let members = self.members(id);
        let i = members.iter().position(|&x| x == member)?;
        Some(members[(i + 1) % members.len()])
    }
}

/// Configuration of a k-machine coupled system.
#[derive(Debug, Clone)]
pub struct NwayConfig {
    /// One resource-manager configuration per machine.
    pub machines: Vec<MachineConfig>,
    /// One local coscheduling configuration per machine.
    pub cosched: Vec<CoschedConfig>,
    /// Event-loop safety valve: the run stops, `aborted`, after this many
    /// events.
    pub max_events: u64,
}

/// How one relation turned out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grade {
    /// The relation.
    pub id: GroupId,
    /// Its constraint.
    pub constraint: Constraint,
    /// Latest minus earliest member start. For an edge this is the
    /// successor's start minus the predecessor's: the gate keeps the
    /// successor from starting first.
    pub offset: SimDuration,
    /// Whether the constraint held.
    pub satisfied: bool,
}

/// Outcome of a k-way run.
#[derive(Debug, Clone)]
pub struct NwayReport {
    /// Per-machine records.
    pub records: Vec<Vec<JobRecord>>,
    /// Per-machine summaries.
    pub summaries: Vec<MachineSummary>,
    /// One grade per relation whose members all finished, in id order.
    pub grades: Vec<Grade>,
    /// True if the queue drained with jobs stuck.
    pub deadlocked: bool,
    /// True if `max_events` tripped.
    pub aborted: bool,
    /// Holds the release sweeps force-released.
    pub forced_releases: u64,
    /// Events dispatched.
    pub events: u64,
    /// Final instant.
    pub horizon: SimTime,
}

impl NwayReport {
    /// Every graded relation held.
    pub fn all_satisfied(&self) -> bool {
        self.grades.iter().all(|g| g.satisfied)
    }
}

/// The k-way relations as the engine consults them: the registry, and each
/// domain's machine id and its inverse.
pub(crate) struct Groups {
    pub(crate) registry: GroupRegistry,
    /// Domain index → machine id.
    pub(crate) machines: Vec<MachineId>,
    /// Machine id → domain index.
    index: IdHashMap<MachineId, usize>,
}

impl Groups {
    /// The root span of `job` on domain `m`: its group's, keyed by the first
    /// member. Ungrouped jobs and edge successors have none.
    pub(crate) fn root(&self, m: usize, job: JobId) -> Option<Root> {
        let id = self.registry.group_of(self.machines[m], job)?;
        let members = (!self.registry.is_edge(id)).then(|| self.registry.members(id))?;
        let ((first, a), (_, b)) = (members[0], members[1]);
        Some(((self.index[&first], a.0), (a.0, b.0), members.len()))
    }

    /// Decide the fate of `ready`, a job on domain `m`, calling its group
    /// partners' domains through `call` and starting them on a committed
    /// rendezvous. A job without a group, or behind an edge whose gate
    /// already held it back, starts without a call.
    pub(crate) fn decide<C>(&self, m: usize, ready: &Ready, mut call: C) -> Outcome
    where
        C: FnMut(usize, &Request) -> Result<Response, ProtoError>,
    {
        let me = (self.machines[m], ready.job.id);
        let relation = (self.registry.driving(me)).filter(|_| ready.cfg.enabled);
        let (hard, others): (bool, Vec<(usize, JobId)>) = match relation {
            None | Some((Constraint::StartAfter { .. }, _)) => (false, Vec::new()),
            Some((c, members)) => (
                *c == Constraint::CoStart,
                (members.iter().filter(|&&x| x != me))
                    .map(|&(machine, job)| (self.index[&machine], job))
                    .collect(),
            ),
        };
        let mut commits = Vec::new();
        for (om, job) in others {
            let status = call(om, &Request::GetMateStatus { job });
            let req = match status.map_or(MateStatus::Unknown, |r| r.status()) {
                MateStatus::Holding => Request::StartJob { job },
                MateStatus::Queuing
                    if matches!(
                        call(om, &Request::CanStart { job }),
                        Ok(Response::CanStart(true))
                    ) =>
                {
                    Request::TryStartMate { job }
                }
                MateStatus::Queuing | MateStatus::Unsubmitted if hard => return ready.wait(),
                // Running or finished: the rendezvous is missed; start alone.
                _ if hard => {
                    commits.clear();
                    break;
                }
                _ => continue,
            };
            commits.push((om, job, req));
        }
        let (mut mate_started, mut anchored) = (None, false);
        for (om, job, req) in commits {
            if call(om, &req).is_ok_and(|r| r.started()) {
                mate_started = mate_started.or(Some(job));
                anchored |= matches!(req, Request::StartJob { .. });
            }
        }
        Outcome {
            decision: Decision::Start { mate_started },
            anchored,
            shift: None,
        }
    }
}

/// The k-machine coupled simulator, generic over an [`Observer`] of the
/// trace-event stream like [`crate::CoupledSimulation`], on the same event
/// loop.
pub struct NwaySimulation<O: Observer = NoopObserver> {
    config: NwayConfig,
    groups: Arc<Groups>,
    engine: Engine<O>,
}

impl NwaySimulation {
    /// Build from config, traces (one per machine, in config order), and
    /// relations.
    pub fn new(
        config: NwayConfig,
        traces: Vec<Trace>,
        registry: GroupRegistry,
    ) -> Result<Self, GroupError> {
        Self::with_observer(config, traces, registry, NoopObserver)
    }
}

impl<O: Observer> NwaySimulation<O> {
    /// [`NwaySimulation::new`] with the trace-event stream fed to
    /// `observer`. The registry is the only source of mates: each group
    /// member is mated to the next one in its ring, so records and events
    /// flag it paired, and every other job is unpaired.
    pub fn with_observer(
        config: NwayConfig,
        mut traces: Vec<Trace>,
        registry: GroupRegistry,
        observer: O,
    ) -> Result<Self, GroupError> {
        let k = config.machines.len();
        if config.cosched.len() != k || traces.len() != k {
            return Err(GroupError::Arity(k));
        }
        let order = config.machines.iter().zip(&traces);
        if let Some(slot) = order.map(|(c, t)| c.machine != t.machine()).position(|x| x) {
            return Err(GroupError::TraceOrder(slot));
        }
        let mut mates = MateRegistry::new();
        // Every job, and whether it is larger than its machine.
        let mut oversize = IdHashMap::default();
        for (t, machine) in traces.iter_mut().zip(&config.machines) {
            for job in t.jobs_mut() {
                let me = (machine.machine, job.id);
                let mate = registry.ring_mate(me);
                if let Some(mate) = mate {
                    mates.link(me, mate);
                }
                job.mate = mate.map(|(machine, job)| MateRef { machine, job });
                oversize.insert(me, job.size > machine.capacity);
            }
        }
        for &(m, j) in registry.relations.iter().flat_map(|(_, m)| m) {
            match oversize.get(&(m, j)) {
                None => return Err(GroupError::MissingMember(m, j)),
                Some(true) => return Err(GroupError::Oversize(m, j)),
                Some(false) => {}
            }
        }
        let machines: Vec<MachineId> = config.machines.iter().map(|c| c.machine).collect();
        let groups = Arc::new(Groups {
            index: machines.iter().enumerate().map(|(i, &m)| (m, i)).collect(),
            machines,
            registry,
        });
        let engine = Engine::new(
            (&config.machines, &config.cosched),
            mates,
            traces,
            Some(Arc::clone(&groups)),
            config.max_events,
            observer,
        );
        Ok(NwaySimulation {
            config,
            groups,
            engine,
        })
    }

    /// Run to completion.
    pub fn run(self) -> NwayReport {
        self.run_observed().0
    }

    /// Run to completion; also return the observer (to read back a sink).
    pub fn run_observed(mut self) -> (NwayReport, O) {
        let (aborted, _) = self.engine.execute();
        let (records, summaries, unfinished) = self.engine.take_records(&self.config.machines);
        let starts: IdHashMap<Member, SimTime> = (records.iter().flatten())
            .map(|r| ((r.machine, r.id), r.start))
            .collect();
        let mut grades = Vec::new();
        for (i, &(constraint, ref members)) in self.groups.registry.relations.iter().enumerate() {
            let finished = members.iter().map(|m| starts.get(m).copied());
            let Some(starts) = finished.collect::<Option<Vec<_>>>() else {
                continue;
            };
            let (lo, hi) = (starts.iter().min(), starts.iter().max());
            let offset = hi.zip(lo).map_or(SimDuration::ZERO, |(hi, lo)| *hi - *lo);
            let satisfied = match constraint {
                Constraint::CoStart => offset.is_zero(),
                Constraint::StartWithin { window } => offset <= window,
                Constraint::StartAfter {
                    min_delay,
                    max_delay,
                } => (starts[0] + min_delay..=starts[0] + max_delay).contains(&starts[1]),
            };
            grades.push(Grade {
                id: GroupId(i as u64),
                constraint,
                offset,
                satisfied,
            });
        }
        let report = NwayReport {
            records,
            summaries,
            grades,
            deadlocked: !aborted && unfinished.iter().any(|&n| n > 0),
            aborted,
            forced_releases: self.engine.forced_releases,
            events: self.engine.events,
            horizon: self.engine.now,
        };
        (report, self.engine.into_observer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use cosched_workload::{Job, Trace};

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

    fn members(list: &[(usize, u64)]) -> Vec<Member> {
        list.iter()
            .map(|&(m, j)| (MachineId(m), JobId(j)))
            .collect()
    }

    fn run(cfg: NwayConfig, traces: Vec<Trace>, reg: GroupRegistry) -> NwayReport {
        NwaySimulation::new(cfg, traces, reg)
            .expect("valid run")
            .run()
    }

    /// Three machines; a 3-way group plus a filler that delays machine 2.
    fn three_way_traces() -> (Vec<Trace>, GroupRegistry) {
        let mut reg = GroupRegistry::new();
        reg.insert(Constraint::CoStart, members(&[(0, 1), (1, 1), (2, 1)]))
            .unwrap();
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
        let report = run(config(3, Scheme::Hold), traces, reg);
        assert!(!report.deadlocked);
        assert_eq!(report.grades.len(), 1);
        assert!(report.all_satisfied(), "grades {:?}", report.grades);
        // Rendezvous gated by machine 2's filler: start at t=300.
        let s0 = report.records[0][0].start;
        assert_eq!(s0, SimTime::from_secs(300));
    }

    #[test]
    fn three_way_group_starts_simultaneously_yield() {
        let (traces, reg) = three_way_traces();
        let report = run(config(3, Scheme::Yield), traces, reg);
        assert!(!report.deadlocked);
        assert!(report.all_satisfied(), "grades {:?}", report.grades);
        assert_eq!(
            report.summaries.iter().map(|s| s.total_holds).sum::<u64>(),
            0
        );
    }

    #[test]
    fn five_way_rendezvous() {
        let n = 5;
        let mut reg = GroupRegistry::new();
        let group = (0..n).map(|m| (MachineId(m), JobId(1))).collect();
        reg.insert(Constraint::CoStart, group).unwrap();
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
        let report = run(config(n, Scheme::Hold), traces, reg);
        assert!(!report.deadlocked);
        assert!(report.all_satisfied(), "grades {:?}", report.grades);
        for recs in &report.records {
            let r = recs.iter().find(|r| r.id == JobId(1)).unwrap();
            assert_eq!(r.start, SimTime::from_secs(777));
            assert!(r.paired, "ring mates mark members paired");
        }
    }

    #[test]
    fn ungrouped_jobs_run_normally() {
        let mut reg = GroupRegistry::new();
        reg.insert(Constraint::CoStart, members(&[(0, 1), (1, 1)]))
            .unwrap();
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
        let report = run(config(2, Scheme::Hold), traces, reg);
        assert!(!report.deadlocked);
        // Ungrouped job 2 on each machine starts at its submit (room free).
        for m in 0..2 {
            let r = report.records[m].iter().find(|r| r.id == JobId(2)).unwrap();
            assert_eq!(r.start, SimTime::from_secs(5));
            assert!(!r.paired);
        }
        assert!(report.all_satisfied());
    }

    /// Machine i holds for group i whose other member on machine (i+1)%3
    /// cannot fit — a 3-cycle of waits only the release sweeps break.
    fn circular_three_way() -> (Vec<Trace>, GroupRegistry) {
        let mut reg = GroupRegistry::new();
        for g in 0..3u64 {
            let (m0, m1) = (g as usize, (g as usize + 1) % 3);
            reg.insert(Constraint::CoStart, members(&[(m0, g), (m1, g + 10)]))
                .unwrap();
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
        (traces, reg)
    }

    #[test]
    fn circular_three_way_deadlock_is_broken_by_sweeps() {
        let (traces, reg) = circular_three_way();
        // Without the breaker: deadlock.
        let mut cfg = config(3, Scheme::Hold);
        for c in &mut cfg.cosched {
            c.release_period = None;
        }
        let report = run(cfg, traces.clone(), reg.clone());
        assert!(
            report.deadlocked,
            "3-cycle must deadlock without the breaker"
        );
        // With it: completes and synchronizes.
        let report = run(config(3, Scheme::Hold), traces, reg);
        assert!(!report.deadlocked);
        assert!(report.forced_releases > 0);
        assert!(report.all_satisfied(), "grades {:?}", report.grades);
    }

    /// The k-way engine feeds the wall-clock profiler like the 2-way one:
    /// its call counts match the trace, release sweeps included.
    #[test]
    fn profiler_counts_every_phase_of_a_three_way_run() {
        let (traces, reg) = circular_three_way();
        let [iterations, sweeps, rpcs] = crate::driver::tests::check_profile(|observer| {
            NwaySimulation::with_observer(
                config(3, Scheme::Hold),
                traces.clone(),
                reg.clone(),
                observer,
            )
            .expect("valid run")
            .run_observed()
            .1
        });
        assert!(iterations > 0 && sweeps > 0 && rpcs > 0);
    }

    #[test]
    fn registry_queries() {
        let mut reg = GroupRegistry::new();
        assert!(reg.is_empty());
        let id = reg
            .insert(Constraint::CoStart, members(&[(0, 1), (1, 2)]))
            .unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.group_of(MachineId(0), JobId(1)), Some(id));
        assert_eq!(reg.group_of(MachineId(1), JobId(2)), Some(id));
        assert_eq!(reg.group_of(MachineId(1), JobId(1)), None);
        assert_eq!(reg.members(id).len(), 2);
        assert_eq!(reg.constraint(id), Some(Constraint::CoStart));
        assert!(reg.members(GroupId(99)).is_empty());
        // An edge drives only its successor; the predecessor may anchor
        // more edges and belong to a group.
        let after = Constraint::StartAfter {
            min_delay: SimDuration::ZERO,
            max_delay: SimDuration::from_secs(60),
        };
        let edge = reg.insert(after, members(&[(0, 1), (2, 5)])).unwrap();
        reg.insert(after, members(&[(0, 1), (1, 6)])).unwrap();
        assert_eq!(reg.group_of(MachineId(0), JobId(1)), Some(id));
        assert_eq!(reg.group_of(MachineId(2), JobId(5)), Some(edge));
    }

    #[test]
    fn invalid_relations_and_traces_are_typed_errors() {
        let mut reg = GroupRegistry::new();
        let after = Constraint::StartAfter {
            min_delay: SimDuration::ZERO,
            max_delay: SimDuration::ZERO,
        };
        reg.insert(Constraint::CoStart, members(&[(0, 1), (1, 1)]))
            .unwrap();
        reg.insert(after, members(&[(0, 1), (1, 2)])).unwrap();
        assert_eq!(
            reg.insert(Constraint::CoStart, members(&[(0, 3)])),
            Err(GroupError::MemberCount(1))
        );
        assert_eq!(
            reg.insert(after, members(&[(0, 3), (1, 3), (2, 3)])),
            Err(GroupError::MemberCount(3))
        );
        assert_eq!(
            reg.insert(Constraint::CoStart, members(&[(0, 3), (0, 4)])),
            Err(GroupError::SameMachine(MachineId(0)))
        );
        assert_eq!(
            reg.insert(Constraint::CoStart, members(&[(2, 1), (0, 1)])),
            Err(GroupError::AlreadyGrouped(MachineId(0), JobId(1)))
        );
        for (constraint, list) in [
            (Constraint::CoStart, [(2, 1), (1, 2)]),
            (after, [(2, 1), (1, 2)]),
            (after, [(2, 1), (1, 1)]),
        ] {
            assert_eq!(
                reg.insert(constraint, members(&list)),
                Err(GroupError::TwoDrivingRoles(MachineId(1), JobId(list[1].1)))
            );
        }
        assert_eq!(reg.len(), 2, "rejected relations register nothing");

        let traces = || {
            vec![
                Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 10, 100)]),
                Trace::from_jobs(MachineId(1), vec![job(1, 1, 0, 10, 100)]),
            ]
        };
        let err = |cfg, traces, reg| NwaySimulation::new(cfg, traces, reg).err();
        let mut short = traces();
        short.pop();
        assert_eq!(
            err(config(2, Scheme::Hold), short, GroupRegistry::new()),
            Some(GroupError::Arity(2))
        );
        let mut swapped = traces();
        swapped.reverse();
        assert_eq!(
            err(config(2, Scheme::Hold), swapped, GroupRegistry::new()),
            Some(GroupError::TraceOrder(0))
        );
        // Job 2 on machine 1 is an edge successor but not in the trace.
        assert_eq!(
            err(config(2, Scheme::Hold), traces(), reg),
            Some(GroupError::MissingMember(MachineId(1), JobId(2)))
        );
        // A 200-node member on a 100-node machine: its group could never
        // start, whatever its partner on the free machine does.
        let mut pair = GroupRegistry::new();
        pair.insert(Constraint::CoStart, members(&[(0, 1), (1, 1)]))
            .unwrap();
        let mut oversize = traces();
        oversize[0] = Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 200, 100)]);
        assert_eq!(
            err(config(2, Scheme::Yield), oversize, pair),
            Some(GroupError::Oversize(MachineId(0), JobId(1)))
        );
    }

    /// At one instant, arrivals dispatch in machine order, ahead of a
    /// completion at that instant, and a trace pushed out of submit order
    /// replays exactly like its sorted copy. Mirrors the coupled driver's
    /// `same_instant_arrivals_precede_completions_machine_zero_first`.
    #[test]
    fn same_instant_arrivals_precede_completions_in_machine_order() {
        use cosched_obs::{SinkObserver, TraceEvent, VecSink};
        // Job 0 on machine 0 runs [0, 100); job 1 on every machine arrives
        // at t = 100, a 3-way group that can start only once job 0 ends.
        let mut reg = GroupRegistry::new();
        reg.insert(Constraint::CoStart, members(&[(0, 1), (1, 1), (2, 1)]))
            .unwrap();
        let run = |traces| {
            let sink = SinkObserver::new(VecSink::default());
            let sim =
                NwaySimulation::with_observer(config(3, Scheme::Yield), traces, reg.clone(), sink);
            sim.expect("valid run").run_observed()
        };
        let sorted = vec![
            Trace::from_jobs(
                MachineId(0),
                vec![job(0, 0, 0, 60, 100), job(0, 1, 100, 60, 50)],
            ),
            Trace::from_jobs(MachineId(1), vec![job(1, 1, 100, 10, 50)]),
            Trace::from_jobs(MachineId(2), vec![job(2, 1, 100, 10, 50)]),
        ];
        let (report, sink) = run(sorted.clone());
        let at_100: Vec<(usize, u64, bool)> = (sink.sink().records.iter())
            .filter(|r| r.time == 100)
            .filter_map(|r| match r.event {
                TraceEvent::JobSubmitted { job, .. } => Some((r.machine, job, true)),
                TraceEvent::JobEnded { job } => Some((r.machine, job, false)),
                _ => None,
            })
            .collect();
        assert_eq!(
            at_100,
            [(0, 1, true), (1, 1, true), (2, 1, true), (0, 0, false)]
        );
        assert!(report.all_satisfied(), "grades {:?}", report.grades);
        assert_eq!(report.records[0][1].start, SimTime::from_secs(100));

        let mut pushed = Trace::new(MachineId(0));
        pushed.push(job(0, 1, 100, 60, 50));
        pushed.push(job(0, 0, 0, 60, 100));
        let mut unsorted = sorted;
        unsorted[0] = pushed;
        let (replayed, _) = run(unsorted);
        assert_eq!(format!("{replayed:?}"), format!("{report:?}"));
    }

    fn pair_traces(b_jobs: Vec<Job>, a_runtime: u64) -> Vec<Trace> {
        vec![
            Trace::from_jobs(MachineId(0), vec![job(0, 1, 0, 40, a_runtime)]),
            Trace::from_jobs(MachineId(1), b_jobs),
        ]
    }

    /// Machine 0 holds and machine 1 yields, as the constrained pipelines
    /// run; one relation between job 1 on machine 0 and `b` on machine 1.
    fn run_pair(traces: Vec<Trace>, constraint: Constraint, b: u64) -> NwayReport {
        let mut cfg = config(2, Scheme::Hold);
        cfg.cosched = vec![
            CoschedConfig::paper(Scheme::Hold),
            CoschedConfig::paper(Scheme::Yield),
        ];
        let mut reg = GroupRegistry::new();
        reg.insert(constraint, members(&[(0, 1), (1, b)])).unwrap();
        run(cfg, traces, reg)
    }

    fn after(min: u64, max: u64) -> Constraint {
        Constraint::StartAfter {
            min_delay: SimDuration::from_secs(min),
            max_delay: SimDuration::from_secs(max),
        }
    }

    #[test]
    fn costart_constraint_behaves_like_coscheduling() {
        let b = vec![job(1, 9, 0, 100, 300), job(1, 1, 30, 40, 600)];
        let report = run_pair(pair_traces(b, 600), Constraint::CoStart, 1);
        assert!(!report.deadlocked);
        assert!(report.all_satisfied(), "grades {:?}", report.grades);
        assert_eq!(report.grades[0].offset, SimDuration::ZERO);
    }

    #[test]
    fn start_within_lets_first_job_run_and_grades_the_window() {
        // B is blocked for 300 s; A's job starts immediately. Window 600 s
        // covers the gap ⇒ satisfied; window 100 s would not.
        let within = |secs| {
            let b = vec![job(1, 9, 0, 100, 300), job(1, 1, 10, 40, 600)];
            let window = SimDuration::from_secs(secs);
            run_pair(pair_traces(b, 600), Constraint::StartWithin { window }, 1)
        };
        let wide = within(600);
        assert!(!wide.deadlocked);
        assert_eq!(wide.records[0][0].start, SimTime::ZERO, "A does not block");
        assert!(wide.all_satisfied(), "{:?}", wide.grades);
        assert_eq!(wide.grades[0].offset, SimDuration::from_secs(300));

        let narrow = within(100);
        let violated = narrow.grades.iter().filter(|g| !g.satisfied).count();
        assert_eq!(violated, 1, "window too small must be graded violated");
    }

    #[test]
    fn start_after_enforces_lower_bound_and_grades_upper() {
        // A starts at 0 (free machine); B submitted immediately but must
        // wait min_delay = 500 s after A's start.
        let traces = pair_traces(vec![job(1, 1, 5, 40, 600)], 2_000);
        let report = run_pair(traces, after(500, 1_000), 1);
        assert!(!report.deadlocked);
        let (sa, sb) = (report.records[0][0].start, report.records[1][0].start);
        assert_eq!(
            sb,
            SimTime::from_secs(500),
            "successor gated to start+min_delay"
        );
        assert!(report.all_satisfied(), "{:?}", report.grades);
        assert!(sb >= sa, "the successor never starts first");
    }

    #[test]
    fn start_after_with_busy_successor_machine_grades_upper_bound() {
        // Successor machine blocked for 2000 s ⇒ b starts at 2000, beyond
        // max_delay 1000 ⇒ violation (monitored, not fatal).
        let b = vec![job(1, 9, 0, 100, 2_000), job(1, 1, 5, 40, 600)];
        let report = run_pair(pair_traces(b, 3_000), after(100, 1_000), 1);
        assert!(!report.deadlocked);
        assert_eq!(report.grades.iter().filter(|g| !g.satisfied).count(), 1);
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
        let traces = pair_traces(vec![job(1, 1, 800, 40, 600)], 3_000);
        let report = run_pair(traces, after(500, 2_000), 1);
        assert_eq!(report.records[1][0].start, SimTime::from_secs(800));
        assert!(report.all_satisfied());
    }

    #[test]
    fn start_after_runs_from_machine_one_to_machine_zero() {
        // Edges are not tied to machine order: machine 1's job 1 precedes
        // machine 0's job 1 by at least 200 s.
        let traces = pair_traces(vec![job(1, 1, 100, 40, 600)], 3_000);
        let mut reg = GroupRegistry::new();
        reg.insert(after(200, 400), members(&[(1, 1), (0, 1)]))
            .unwrap();
        let report = run(config(2, Scheme::Hold), traces, reg);
        assert_eq!(report.records[1][0].start, SimTime::from_secs(100));
        assert_eq!(report.records[0][0].start, SimTime::from_secs(300));
        assert!(report.all_satisfied());
    }

    #[test]
    fn unconstrained_jobs_flow_through() {
        let traces = vec![
            Trace::from_jobs(
                MachineId(0),
                vec![job(0, 1, 0, 10, 100), job(0, 2, 5, 10, 100)],
            ),
            Trace::from_jobs(MachineId(1), vec![job(1, 1, 0, 10, 100)]),
        ];
        let report = run(config(2, Scheme::Hold), traces, GroupRegistry::new());
        assert!(!report.deadlocked);
        assert_eq!(report.records[0].len(), 2);
        assert_eq!(report.records[1].len(), 1);
        assert!(report.grades.is_empty());
    }
}
