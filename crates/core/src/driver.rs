//! The coupled event-driven simulator: the one event loop of this crate.
//!
//! Reproduces the evaluation vehicle of §V-A: Qsim (the event-driven
//! simulator shipped with Cobalt) "extended … to support multi-domain
//! coscheduling simulation". Each machine runs inside one deterministic
//! event loop as a `Domain` — the same domain core the live daemon
//! ([`crate::live`]) wraps — so the simulator exercises the deployment's
//! protocol handler, decision commit, and release policy, not copies of
//! them. Coordination between the domains goes through the protocol
//! vocabulary of `cosched-proto` over an in-process "wire".
//!
//! The loop runs k domains. [`CoupledSimulation`] is the paper's k = 2
//! case, deciding each ready job by Algorithm 1 over the mate registry;
//! [`crate::nway::NwaySimulation`] decides by its §VI relations instead and
//! adds the `StartAfter` gate, a hook at arrival and at start. What lives
//! here is what only a simulation has: the event queue, transport-level
//! fault injection (a down peer, status timeouts, unknown statuses), causal
//! spans (relation roots cross machines), and the 2-way report.
//!
//! Events are job arrivals, job completions, and release sweeps (the
//! deadlock breaker). Arrivals stream from the stable-sorted traces through
//! one cursor per machine; only completions, sweeps and gated arrivals go
//! through the event queue. Every event triggers a scheduling iteration on
//! its machine, whose decisions may make protocol calls that start jobs on
//! *other* machines (the simultaneous start).
//!
//! Termination: the loop ends when the arrivals and the event queue drain.
//! If jobs remain unfinished at that point, the run **deadlocked** —
//! exactly the observable the paper reports for hold-hold without the
//! release enhancement ("the job queues on both machines keep growing, but
//! no job can start").

use crate::algorithm::Decision;
use crate::config::{CoschedConfig, CoupledConfig};
use crate::domain::{Domain, Sweep};
use crate::nway::{Constraint, Groups, Member};
use crate::registry::MateRegistry;
use cosched_metrics::{JobRecord, MachineSummary};
use cosched_obs::{
    MetricsRegistry, MetricsSnapshot, NoopObserver, Observer, SpanKind, TraceEvent, GLOBAL, NO_JOB,
    NO_SPAN,
};
use cosched_proto::{MateStatus, ProtoError, Request, Response};
use cosched_sched::{JobStatus, Machine, MachineConfig, SchedStats};
use cosched_sim::{EventQueue, IdHashMap, IdHashSet, SimDuration, SimTime};
use cosched_workload::{Job, JobId, Trace};
use std::sync::Arc;

/// Events driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Trace job `idx` arrives at machine `m`. Read off the traces in order,
    /// never queued, except when the `StartAfter` gate re-queues it.
    Arrival { m: usize, idx: usize },
    /// A running job completes.
    JobEnd { m: usize, job: JobId },
    /// Machine `m`'s armed release sweep falls due (§IV-E1; the policy is
    /// `Domain::sweep`).
    ReleaseSweep { m: usize },
}

/// How the pairs that did synchronize committed their rendezvous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RendezvousCounts {
    /// The second-ready job found its mate *holding* and started it in
    /// place (Algorithm 1, lines 6–9) — the hold scheme's anchor working
    /// as designed.
    pub anchored: usize,
    /// The ready job direct-started its queued mate via `try_start_mate`
    /// (lines 10–15) — the yield scheme's (and unsubmitted-mate) path.
    pub direct: usize,
    /// Pair members started independently (fault tolerance, missed
    /// rendezvous); such pairs are typically not synchronized.
    pub independent: usize,
}

/// Deterministic activity counters for one coupled run: protocol traffic
/// plus Algorithm 1 transitions that do not already have a dedicated report
/// field. Collected unconditionally (no observer needed), so reports are
/// identical whether or not tracing is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RunStats {
    /// Holds placed (Algorithm 1 lines 16–23, hold scheme).
    pub holds: u64,
    /// Yields taken (yield scheme).
    pub yields: u64,
    /// Hold→yield degradations forced by the held-capacity cap (§IV-E2).
    pub degradations: u64,
    /// Yield→hold escalations forced by the yield cap (§IV-E2).
    pub escalations: u64,
    /// Release sweeps that actually force-released holds (§IV-E1).
    pub release_sweeps: u64,
    /// Protocol requests issued between the two domains.
    pub rpc_calls: u64,
    /// Requests that failed with a transport error (down peer or injected
    /// timeout); the caller falls back to start-normally fault tolerance.
    pub rpc_timeouts: u64,
}

/// Everything a run produces: the deterministic report and the observer
/// (to read back a sink or a wall-clock profiler).
pub struct RunArtifacts<O> {
    /// The deterministic simulation outcome.
    pub report: SimulationReport,
    /// The observer handed to [`CoupledSimulation::with_observer`].
    pub observer: O,
}

/// Outcome of a coupled simulation run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Completed-job records per machine.
    pub records: [Vec<JobRecord>; 2],
    /// Aggregated metrics per machine.
    pub summaries: [MachineSummary; 2],
    /// Final simulation instant (metrics horizon).
    pub horizon: SimTime,
    /// True if the event queue drained with jobs still stuck (the hold-hold
    /// circular wait).
    pub deadlocked: bool,
    /// True if the run hit the `max_events` safety valve.
    pub aborted: bool,
    /// Jobs left unfinished per machine (non-zero only when deadlocked or
    /// aborted).
    pub unfinished: [usize; 2],
    /// How many holds the deadlock breaker force-released.
    pub forced_releases: u64,
    /// |start(a) − start(b)| for every pair in which both jobs completed.
    pub pair_offsets: Vec<SimDuration>,
    /// How the completed pairs committed their rendezvous.
    pub rendezvous: RendezvousCounts,
    /// Total events dispatched.
    pub events: u64,
    /// Largest number of events simultaneously pending: queued completions
    /// and sweeps plus arrivals not yet dispatched.
    pub queue_high_water: usize,
    /// Always 0: the simulators never cancel a queued event. Kept so the
    /// report's shape (and its `Debug` text) stays stable for consumers.
    pub events_cancelled: u64,
    /// Deterministic run activity counters.
    pub stats: RunStats,
    /// Per-machine scheduler activity counters.
    pub sched_stats: [SchedStats; 2],
    /// The counters above plus derived histograms (pair offsets, waits) in
    /// registry form, ready for serialization.
    pub metrics: MetricsSnapshot,
}

impl SimulationReport {
    /// The paper's capability claim: "all the paired jobs start at the same
    /// time with their own mate jobs no matter which one gets ready first".
    pub fn all_pairs_synchronized(&self) -> bool {
        self.pair_offsets.iter().all(|d| d.is_zero())
    }

    /// Largest observed pair start offset (zero when synchronized).
    pub fn max_pair_offset(&self) -> SimDuration {
        self.pair_offsets
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// A relation root span's key: its first member as (machine, job id) —
/// for a mate pair, the machine-0 member.
type RootKey = (usize, u64);

/// The relation root a job belongs to: its key, the root span's subject
/// (the first two members' job ids), and how many members it has.
pub(crate) type Root = (RootKey, (u64, u64), usize);

/// Open-span bookkeeping for causal tracing. Span ids are dense and
/// assigned in emission order from deterministic state only, so same-seed
/// runs produce byte-identical span records. Populated only while the
/// observer is active; with the no-op observer every map stays empty.
#[derive(Debug, Default)]
struct SpanBook {
    /// Last span id handed out (ids start at 1; 0 is [`NO_SPAN`]).
    next: u64,
    /// Open relation root spans and how many of their members have yet to
    /// start.
    roots: IdHashMap<RootKey, (u64, usize)>,
    /// Open hold spans keyed by (machine, job).
    hold: IdHashMap<(usize, u64), u64>,
    /// Open yield-episode spans keyed by (machine, job).
    yielding: IdHashMap<(usize, u64), u64>,
}

/// The (job, mate) a span concerns when it concerns none.
const NO_SUBJECT: (u64, u64) = (NO_JOB, NO_JOB);

/// The root of a paired job on machine `m` of a coupled pair, about
/// (machine-0 member id, machine-1 member id).
fn pair_root(m: usize, job: &Job) -> Option<Root> {
    let (id, mate) = (job.id.0, job.mate.as_ref()?.job.0);
    let pair = if m == 0 { (id, mate) } else { (mate, id) };
    Some(((0, pair.0), pair, 2))
}

impl SpanBook {
    /// Open a span about `(job, mate)` on `machine` and return its id —
    /// [`NO_SPAN`], with nothing recorded, when the observer is inactive.
    fn open<O: Observer>(
        &mut self,
        obs: &mut O,
        now: u64,
        machine: usize,
        parent: u64,
        kind: SpanKind,
        (job, mate): (u64, u64),
    ) -> u64 {
        if !obs.active() {
            return NO_SPAN;
        }
        self.next += 1;
        let span = self.next;
        let event = TraceEvent::SpanOpen {
            span,
            parent,
            kind,
            job,
            mate,
        };
        obs.record(now, machine, event);
        span
    }

    /// Close `span` (no-op for [`NO_SPAN`]).
    fn close<O: Observer>(obs: &mut O, now: u64, machine: usize, span: u64) {
        if span != NO_SPAN {
            obs.record(now, machine, TraceEvent::SpanClose { span });
        }
    }

    /// Open a relation's root span at the first submit of any member. The
    /// span belongs to no single machine ([`GLOBAL`]): the rendezvous is a
    /// cross-machine lifetime, closed only when every member has started.
    fn open_root<O: Observer>(&mut self, obs: &mut O, now: u64, root: Option<Root>) {
        if let Some((key, subject, members)) = root.filter(|(k, ..)| !self.roots.contains_key(k)) {
            let id = self.open(obs, now, GLOBAL, NO_SPAN, SpanKind::PairRendezvous, subject);
            self.roots.insert(key, (id, members));
        }
    }

    /// The open root span id of `root` ([`NO_SPAN`] when untraced, without
    /// a relation, or already closed).
    fn root(&self, root: Option<Root>) -> u64 {
        root.and_then(|(key, ..)| self.roots.get(&key))
            .map_or(NO_SPAN, |&(id, _)| id)
    }

    /// A hold or yield decision opens the job's wait span under its
    /// relation root `parent`. A yield episode spans from the first yield
    /// to the job's eventual start; repeated yields stay inside it.
    fn open_wait<O: Observer>(
        &mut self,
        obs: &mut O,
        now: u64,
        (m, job, parent): (usize, &Job, u64),
        decision: Decision,
    ) {
        let key = (m, job.id.0);
        let kind = match decision {
            Decision::Hold => SpanKind::Hold,
            Decision::Yield if !self.yielding.contains_key(&key) => SpanKind::YieldWait,
            _ => return,
        };
        let mate = job.mate.as_ref().map_or(NO_JOB, |r| r.job.0);
        let id = self.open(obs, now, m, parent, kind, (job.id.0, mate));
        if id != NO_SPAN {
            let book = match kind {
                SpanKind::Hold => &mut self.hold,
                _ => &mut self.yielding,
            };
            book.insert(key, id);
        }
    }

    /// The release sweep demoted `job`: its hold interval ends.
    fn close_hold<O: Observer>(&mut self, obs: &mut O, now: u64, m: usize, job: JobId) {
        if let Some(id) = self.hold.remove(&(m, job.0)) {
            Self::close(obs, now, m, id);
        }
    }

    /// `job` started on machine `m`: close its open yield/hold spans, count
    /// it started in its relation `root`, and close the root span once
    /// every member runs.
    fn started<O: Observer>(
        &mut self,
        obs: &mut O,
        now: u64,
        m: usize,
        job: JobId,
        root: Option<Root>,
    ) {
        if let Some(id) = self.yielding.remove(&(m, job.0)) {
            Self::close(obs, now, m, id);
        }
        self.close_hold(obs, now, m, job);
        let Some((key, ..)) = root else {
            return;
        };
        if let Some((id, left)) = self.roots.get_mut(&key) {
            *left -= 1;
            if *left == 0 {
                Self::close(obs, now, GLOBAL, *id);
                self.roots.remove(&key);
            }
        }
    }
}

/// The event loop over k domains that both simulators run: streamed
/// arrivals, the event queue, fault injection, spans and the run counters.
pub(crate) struct Engine<O: Observer> {
    domains: Vec<Domain>,
    /// Each machine's jobs, stable-sorted by submit: the arrival streams.
    jobs: Vec<Vec<Job>>,
    /// The k-way relations deciding ready jobs; `None` runs Algorithm 1
    /// over the mate registry.
    groups: Option<Arc<Groups>>,
    /// `StartAfter` gate: when each successor may be submitted, known once
    /// its predecessor started.
    opens: IdHashMap<Member, SimTime>,
    /// `StartAfter` gate: successors that arrived before their predecessor
    /// started, as (machine, trace position).
    parked: IdHashMap<Member, (usize, usize)>,
    /// Completions, release sweeps and gated arrivals.
    queue: EventQueue<Event>,
    pub(crate) now: SimTime,
    pub(crate) events: u64,
    max_events: u64,
    pub(crate) forced_releases: u64,
    /// Fault injection: when false, protocol calls *to* machine `m` fail
    /// with a transport error.
    reachable: Vec<bool>,
    /// Fault injection: jobs whose status reads back as `Unknown`
    /// ("the mate job fails alone").
    unknown_status: IdHashSet<(usize, JobId)>,
    /// Rendezvous audit: jobs a peer started, keyed by `(machine, id)`;
    /// `true` for a hold anchor (`StartJob` on a held mate), `false` for
    /// `TryStartMate`.
    peer_started: IdHashMap<(usize, JobId), bool>,
    /// Fault injection: `GetMateStatus` calls to machine `m` time out, so
    /// the caller sees `MateStatus::Unknown` and starts normally.
    status_timeout: Vec<bool>,
    /// Deterministic run counters (always on).
    stats: RunStats,
    /// Causal-span bookkeeping; empty unless the observer is active.
    spans: SpanBook,
    observer: O,
}

impl<O: Observer> Engine<O> {
    /// One domain per machine of `machines` (with its `cosched` config),
    /// all sharing `mates`, fed by `traces` in machine order. `groups`
    /// makes the k-way relations decide instead of Algorithm 1.
    pub(crate) fn new(
        (machines, cosched): (&[MachineConfig], &[CoschedConfig]),
        mates: MateRegistry,
        traces: Vec<Trace>,
        groups: Option<Arc<Groups>>,
        max_events: u64,
        observer: O,
    ) -> Self {
        let (k, mates) = (machines.len(), Arc::new(mates));
        let domains = (0..k)
            .map(|m| {
                let mut machine = Machine::new(machines[m].clone());
                machine.reserve(traces[m].len());
                machine.set_tracing(observer.active());
                // Partners of k-way relations come from the group registry,
                // never from `GetMateJob`, so there the peer is nominal.
                let peer = machines[(m + 1) % k].machine;
                Domain::new(machine, cosched[m].clone(), Arc::clone(&mates), peer, m)
            })
            .collect();
        // A stable sort keeps same-instant arrivals in trace order; on the
        // sorted traces every builder makes it is a linear no-op pass.
        let jobs = (traces.into_iter())
            .map(|t| {
                let mut jobs = t.into_jobs();
                jobs.sort_by_key(|j| j.submit);
                jobs
            })
            .collect();
        Engine {
            domains,
            jobs,
            groups,
            opens: IdHashMap::default(),
            parked: IdHashMap::default(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            events: 0,
            max_events,
            forced_releases: 0,
            reachable: vec![true; k],
            unknown_status: IdHashSet::default(),
            peer_started: IdHashMap::default(),
            status_timeout: vec![false; k],
            stats: RunStats::default(),
            spans: SpanBook::default(),
            observer,
        }
    }

    /// Forward trace events the scheduler logged during its last calls,
    /// stamped with the current instant.
    fn drain_machine_trace(&mut self, m: usize) {
        if !self.observer.active() {
            return;
        }
        for ev in self.domains[m].machine_mut().take_trace() {
            self.observer.record(self.now.as_secs(), m, ev);
        }
    }

    /// The relation root of `job` on machine `m`, if it has one.
    fn root_of(&self, m: usize, job: &Job) -> Option<Root> {
        match &self.groups {
            None => pair_root(m, job),
            Some(groups) => groups.root(m, job.id),
        }
    }

    /// Job `id` started on machine `m`: settle its spans, and open the
    /// `StartAfter` gates of its successors.
    fn started(&mut self, m: usize, id: JobId) {
        if self.observer.active() {
            let job = self.domains[m].machine().job(id).expect("started job");
            let root = self.root_of(m, job);
            (self.spans).started(&mut self.observer, self.now.as_secs(), m, id, root);
        }
        let Some(groups) = &self.groups else {
            return;
        };
        let me = (groups.machines[m], id);
        for &(successor, min_delay) in groups.registry.after.get(&me).into_iter().flatten() {
            let at = self.now + min_delay;
            self.opens.insert(successor, at);
            if let Some((m, idx)) = self.parked.remove(&successor) {
                self.queue.push(at, Event::Arrival { m, idx });
            }
        }
    }

    /// The `StartAfter` gate at arrival: whether trace job `idx` of machine
    /// `m` is submitted now. A successor held back is queued again for its
    /// gate's opening, or parked until its predecessor starts.
    fn admit(&mut self, m: usize, idx: usize) -> bool {
        let Some(groups) = &self.groups else {
            return true;
        };
        let me = (groups.machines[m], self.jobs[m][idx].id);
        let edge = groups.registry.driving(me);
        if !matches!(edge, Some((Constraint::StartAfter { .. }, _))) {
            return true;
        }
        match self.opens.get(&me) {
            Some(&at) if at > self.now => {
                self.queue.push(at, Event::Arrival { m, idx });
            }
            Some(_) => return true,
            None => {
                self.parked.insert(me, (m, idx));
            }
        }
        false
    }

    /// Run to the end. Each step dispatches the earliest of every machine's
    /// next arrival and the queue's top; ties go to arrivals, in machine
    /// order. That is the `(time, seq)` order of a queue seeded with every
    /// arrival up front, machine by machine, and the high-water mark counts
    /// undispatched arrivals as pending to match it. Returns whether the
    /// `max_events` valve aborted the run, and the high-water mark.
    pub(crate) fn execute(&mut self) -> (bool, usize) {
        let mut next = vec![0usize; self.jobs.len()];
        let mut unarrived: usize = self.jobs.iter().map(Vec::len).sum();
        let mut high_water = unarrived;
        loop {
            let arrival = (self.jobs.iter().zip(&next).enumerate())
                .filter_map(|(m, (jobs, &i))| Some((jobs.get(i)?.submit, m)))
                .min();
            let queued = self.queue.peek_time();
            let (time, event) = match arrival {
                Some((at, m)) if queued.is_none_or(|q| at <= q) => {
                    let idx = next[m];
                    next[m] += 1;
                    unarrived -= 1;
                    (at, Event::Arrival { m, idx })
                }
                _ => match self.queue.pop() {
                    Some(ev) => (ev.time, ev.event),
                    None => return (false, high_water),
                },
            };
            if self.events >= self.max_events {
                return (true, high_water);
            }
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            self.events += 1;
            self.dispatch(event);
            high_water = high_water.max(self.queue.len() + unarrived);
        }
    }

    fn dispatch(&mut self, event: Event) {
        let now = self.now;
        match event {
            Event::Arrival { m, idx } => {
                if !self.admit(m, idx) {
                    return;
                }
                let job = self.jobs[m][idx].clone();
                if self.observer.active() {
                    let root = self.root_of(m, &job);
                    (self.spans).open_root(&mut self.observer, now.as_secs(), root);
                }
                self.domains[m]
                    .submit(job, now, &mut self.observer)
                    .expect("traces are validated at construction");
                self.iterate(m);
            }
            Event::JobEnd { m, job } => {
                self.domains[m].finish(job, now, &mut self.observer);
                self.iterate(m);
            }
            Event::ReleaseSweep { m } => match self.domains[m].sweep(now) {
                Sweep::Idle => {}
                Sweep::Rearmed(at) => {
                    self.queue.push(at, Event::ReleaseSweep { m });
                }
                Sweep::Release => {
                    let t = now.as_secs();
                    let sweep_span = self.spans.open(
                        &mut self.observer,
                        t,
                        m,
                        NO_SPAN,
                        SpanKind::ReleaseSweep,
                        NO_SUBJECT,
                    );
                    let spans = &mut self.spans;
                    let released =
                        self.domains[m].release_holds(now, &mut self.observer, |obs, job| {
                            spans.close_hold(obs, t, m, job)
                        });
                    self.forced_releases += released as u64;
                    self.stats.release_sweeps += 1;
                    SpanBook::close(&mut self.observer, t, m, sweep_span);
                    self.iterate(m);
                }
            },
        }
    }

    /// One scheduling iteration on machine `m`: drain ready candidates
    /// through the decision — Algorithm 1, or the k-way relations.
    fn iterate(&mut self, m: usize) {
        let (now, t) = (self.now, self.now.as_secs());
        let machine = self.domains[m].machine();
        self.observer
            .emit_with(t, m, || TraceEvent::SchedIterationStart {
                queued: machine.queued_jobs().len(),
                running: machine.running_jobs().len(),
                free_nodes: machine.free_nodes(),
            });
        self.domains[m].machine_mut().begin_iteration();
        let mut started = 0usize;
        // Lazily opened at the first mated pick: "a scheduler iteration
        // that touches a mated job" gets its own span.
        let mut iter_span = NO_SPAN;
        while let Some(ready) = self.domains[m].pick(now) {
            self.drain_machine_trace(m);
            let cand = &ready.cand;
            if cand.paired && iter_span == NO_SPAN {
                let kind = SpanKind::SchedIteration;
                iter_span = self
                    .spans
                    .open(&mut self.observer, t, m, NO_SPAN, kind, NO_SUBJECT);
            }
            self.observer.emit_with(t, m, || TraceEvent::SchedPick {
                job: cand.job_id.0,
                size: cand.size,
                via_backfill: cand.via_backfill,
            });
            // The decision's RPC and wait spans parent under the relation
            // root (the span context a live transport would carry in its
            // frames).
            let root = if self.observer.active() {
                self.spans.root(self.root_of(m, &ready.job))
            } else {
                NO_SPAN
            };
            let outcome = match self.groups.clone() {
                None => ready.decide(|req| self.remote_call((m, 1 - m), req, root)),
                Some(groups) => {
                    groups.decide(m, &ready, |to, req| self.remote_call((m, to), req, root))
                }
            };
            match outcome.shift {
                Some(TraceEvent::CoschedHeldCapDegradation { .. }) => self.stats.degradations += 1,
                Some(TraceEvent::CoschedYieldCapEscalation { .. }) => self.stats.escalations += 1,
                _ => {}
            }
            match outcome.decision {
                Decision::Start { .. } => started += 1,
                Decision::Hold => self.stats.holds += 1,
                Decision::Yield => self.stats.yields += 1,
            }
            let id = ready.job.id;
            let spans = &mut self.spans;
            let end = self.domains[m].commit(
                ready,
                outcome,
                now,
                &mut self.observer,
                |obs, job, decision| spans.open_wait(obs, t, (m, job, root), decision),
            );
            if let Some(end) = end {
                self.queue.push(end, Event::JobEnd { m, job: id });
                self.started(m, id);
            }
        }
        self.drain_machine_trace(m);
        SpanBook::close(&mut self.observer, t, m, iter_span);
        self.observer
            .emit_with(t, m, || TraceEvent::SchedIterationEnd { started });
        if let Some(at) = self.domains[m].arm_sweep(now) {
            self.queue.push(at, Event::ReleaseSweep { m });
        }
    }

    /// Issue one protocol request from machine `from` to machine `to` —
    /// the simulator's in-process "wire". `parent` is the caller-side span
    /// the RPC parents under (the relation root; [`NO_SPAN`] when untraced
    /// or unrelated) — the same context a live transport carries in its
    /// `TracedRequest` frames.
    fn remote_call(
        &mut self,
        (from, to): (usize, usize),
        req: &Request,
        parent: u64,
    ) -> Result<Response, ProtoError> {
        let t = self.now.as_secs();
        let kind = req.trace_kind();
        self.stats.rpc_calls += 1;
        let subject = (req_job(req), NO_JOB);
        let rpc_kind = SpanKind::Rpc(kind);
        let rpc_span = (self.spans).open(&mut self.observer, t, from, parent, rpc_kind, subject);
        let result = self.deliver(to, req, rpc_span);
        if result.is_err() {
            self.stats.rpc_timeouts += 1;
            self.observer
                .emit_with(t, to, || TraceEvent::RpcTimeout { kind });
        } else {
            self.observer
                .emit_with(t, to, || TraceEvent::RpcCall { kind, ok: true });
        }
        SpanBook::close(&mut self.observer, t, from, rpc_span);
        result
    }

    /// Deliver a request through the fault-injection layer to machine `m`'s
    /// protocol handler and schedule the end of any job it started.
    /// `ctx_span` is the caller's RPC span id, as it would arrive in a
    /// `TracedRequest` envelope; the handler's work parents under it.
    fn deliver(&mut self, m: usize, req: &Request, ctx_span: u64) -> Result<Response, ProtoError> {
        if !self.reachable[m] {
            return Err(ProtoError::Disconnected(format!(
                "machine {m} is down (fault injection)"
            )));
        }
        if self.status_timeout[m] && matches!(req, Request::GetMateStatus { .. }) {
            return Err(ProtoError::Timeout);
        }
        let t = self.now.as_secs();
        let kind = SpanKind::RpcHandler(req.trace_kind());
        let subject = (req_job(req), NO_JOB);
        let handler_span = self
            .spans
            .open(&mut self.observer, t, m, ctx_span, kind, subject);
        let response = match *req {
            Request::GetMateStatus { job }
                if !self.unknown_status.is_empty() && self.unknown_status.contains(&(m, job)) =>
            {
                Response::MateStatus(MateStatus::Unknown)
            }
            _ => {
                let (response, started) = self.domains[m].handle(req, self.now, &mut self.observer);
                if let Some((job, end)) = started {
                    self.queue.push(end, Event::JobEnd { m, job });
                    let anchored = matches!(req, Request::StartJob { .. });
                    self.peer_started.insert((m, job), anchored);
                    self.started(m, job);
                }
                response
            }
        };
        SpanBook::close(&mut self.observer, t, m, handler_span);
        Ok(response)
    }

    /// Take every machine's records and summarize them over `machines`;
    /// also counts each machine's jobs left unfinished.
    pub(crate) fn take_records(
        &mut self,
        machines: &[MachineConfig],
    ) -> (Vec<Vec<JobRecord>>, Vec<MachineSummary>, Vec<usize>) {
        let (horizon, mut out) = (self.now, (Vec::new(), Vec::new(), Vec::new()));
        for ((domain, jobs), machine) in self.domains.iter_mut().zip(&self.jobs).zip(machines) {
            out.2.push(jobs.len() - domain.machine().records().len());
            let records = domain.machine_mut().take_records();
            out.1.push(MachineSummary::from_records(
                machine.name.clone(),
                &records,
                machine.capacity,
                horizon.max(SimTime::from_secs(1)),
                domain.machine().held_node_seconds(horizon),
            ));
            out.0.push(records);
        }
        out
    }

    /// The observer, flushed.
    pub(crate) fn into_observer(self) -> O {
        let mut observer = self.observer;
        observer.flush();
        observer
    }
}

/// The coupled simulator: two domains, one event loop, protocol-mediated
/// coordination.
///
/// Generic over an [`Observer`] receiving the structured trace-event stream;
/// the default [`NoopObserver`] is zero-sized and compiles every tracing
/// path away. Observers are pure consumers: attaching one cannot change the
/// simulation outcome.
pub struct CoupledSimulation<O: Observer = NoopObserver> {
    config: CoupledConfig,
    engine: Engine<O>,
}

impl CoupledSimulation {
    /// Build a simulation from a coupled configuration and the two traces.
    ///
    /// # Panics
    /// Panics if a trace's machine id does not match its config slot or the
    /// pairing between the traces is invalid.
    pub fn new(config: CoupledConfig, traces: [Trace; 2]) -> Self {
        Self::with_observer(config, traces, NoopObserver)
    }
}

impl<O: Observer> CoupledSimulation<O> {
    /// Build a simulation whose trace-event stream feeds `observer`.
    ///
    /// # Panics
    /// Panics if a trace's machine id does not match its config slot or the
    /// pairing between the traces is invalid.
    pub fn with_observer(config: CoupledConfig, traces: [Trace; 2], observer: O) -> Self {
        for (i, t) in traces.iter().enumerate() {
            let (got, want) = (t.machine(), config.machines[i].machine);
            assert_eq!(got, want, "trace {i} targets {got}, config expects {want}");
        }
        let mates = MateRegistry::from_traces(&traces[0], &traces[1]);
        let engine = Engine::new(
            (&config.machines, &config.cosched),
            mates,
            traces.into(),
            None,
            config.max_events,
            observer,
        );
        CoupledSimulation { config, engine }
    }

    /// Fault injection: make protocol calls to machine `m` fail (simulates
    /// the remote system being down).
    pub fn set_reachable(&mut self, m: usize, up: bool) {
        self.engine.reachable[m] = up;
    }

    /// Fault injection: make `GetMateStatus` calls to machine `m` time out.
    /// Per Algorithm 1 lines 25–26 the caller treats the status as
    /// `Unknown` and starts the ready job normally.
    pub fn inject_status_timeout(&mut self, m: usize, on: bool) {
        self.engine.status_timeout[m] = on;
    }

    /// Fault injection: make machine `m` report `Unknown` for `job`'s
    /// status (simulates the mate job failing alone).
    pub fn mark_status_unknown(&mut self, m: usize, job: JobId) {
        self.engine.unknown_status.insert((m, job));
    }

    /// Direct access to a machine (tests and examples).
    pub fn machine(&self, m: usize) -> &Machine {
        self.engine.domains[m].machine()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.engine.now
    }

    /// Run to completion and build the report.
    pub fn run(self) -> SimulationReport {
        self.run_traced().report
    }

    /// Run to completion, returning the report together with the observer
    /// (to read back an attached sink or wall-clock profiler).
    pub fn run_traced(self) -> RunArtifacts<O> {
        let CoupledSimulation { config, mut engine } = self;
        let (aborted, queue_high_water) = engine.execute();
        let horizon = engine.now;
        // Pair start offsets, over pairs whose jobs both finished. A machine
        // answers a finished job's start from its record, so this runs
        // before the records are taken.
        let mid = |machine| usize::from(machine == config.machines[1].machine);
        let finished_start = |m: usize, job| {
            let machine = engine.domains[m].machine();
            let finished = machine.status(job) == JobStatus::Finished;
            finished.then(|| machine.start_of(job)).flatten()
        };
        let mut pair_offsets = Vec::new();
        let mut rendezvous = RendezvousCounts::default();
        for ((ma, ja), mate) in engine.domains[0].registry().pairs() {
            if let (Some(sa), Some(sb)) = (
                finished_start(mid(ma), ja),
                finished_start(mid(mate.machine), mate.job),
            ) {
                pair_offsets.push(sa.abs_diff(sb));
                let keys = [(mid(ma), ja), (mid(mate.machine), mate.job)];
                match keys.iter().filter_map(|k| engine.peer_started.get(k)).max() {
                    Some(true) => rendezvous.anchored += 1,
                    Some(false) => rendezvous.direct += 1,
                    None => rendezvous.independent += 1,
                }
            }
        }
        pair_offsets.sort();
        let (records, summaries, unfinished) = engine.take_records(&config.machines);
        let two = "a coupled run has two machines";
        let unfinished: [usize; 2] = unfinished.try_into().expect(two);
        let mut report = SimulationReport {
            records: records.try_into().expect(two),
            summaries: summaries.try_into().expect(two),
            horizon,
            deadlocked: !aborted && unfinished.iter().any(|&n| n > 0),
            aborted,
            unfinished,
            forced_releases: engine.forced_releases,
            pair_offsets,
            rendezvous,
            events: engine.events,
            queue_high_water,
            events_cancelled: 0,
            stats: engine.stats,
            sched_stats: [0, 1].map(|m| engine.domains[m].machine().stats()),
            metrics: MetricsSnapshot::default(),
        };
        report.metrics = build_metrics(&report);
        RunArtifacts {
            report,
            observer: engine.into_observer(),
        }
    }
}

/// The job a request concerns, for span records ([`NO_JOB`] for probes).
fn req_job(req: &Request) -> u64 {
    match req {
        Request::GetMateJob { for_job } => for_job.0,
        Request::GetMateStatus { job }
        | Request::TryStartMate { job }
        | Request::StartJob { job }
        | Request::CanStart { job } => job.0,
        Request::Ping => NO_JOB,
    }
}

/// Fold the report's deterministic counters and derived distributions
/// into a [`MetricsSnapshot`]. Everything here is a pure function of
/// simulation state — no wall clock — so identical seeds yield identical
/// snapshots.
fn build_metrics(report: &SimulationReport) -> MetricsSnapshot {
    let (stats, sched) = (&report.stats, &report.sched_stats);
    let mut reg = MetricsRegistry::new();
    reg.set("engine.events_dispatched", report.events);
    reg.set("engine.queue_high_water", report.queue_high_water as u64);
    reg.set("engine.events_cancelled", report.events_cancelled);
    reg.set("cosched.holds", stats.holds);
    reg.set("cosched.yields", stats.yields);
    reg.set("cosched.degradations", stats.degradations);
    reg.set("cosched.escalations", stats.escalations);
    reg.set("cosched.release_sweeps", stats.release_sweeps);
    reg.set("cosched.forced_releases", report.forced_releases);
    reg.set("rpc.calls", stats.rpc_calls);
    reg.set("rpc.timeouts", stats.rpc_timeouts);
    let agg = |f: fn(&SchedStats) -> u64| f(&sched[0]) + f(&sched[1]);
    reg.set("sched.iterations", agg(|s| s.iterations));
    reg.set("sched.picks", agg(|s| s.picks));
    reg.set("sched.backfill_hits", agg(|s| s.backfill_hits));
    reg.set("sched.drains_engaged", agg(|s| s.drains_engaged));
    reg.set("sched.alloc_fail_capacity", agg(|s| s.alloc_fail_capacity));
    reg.set(
        "sched.alloc_fail_fragmentation",
        agg(|s| s.alloc_fail_fragmentation),
    );
    for d in &report.pair_offsets {
        reg.observe("pair.start_offset_secs", d.as_secs());
    }
    for r in report.records.iter().flatten() {
        reg.observe("job.wait_secs", r.wait().as_secs());
    }
    reg.snapshot()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{CoschedConfig, SchemeCombo};
    use cosched_obs::{PhaseProfiler, SinkObserver, TeeObserver, VecSink};
    use cosched_sched::MachineConfig;
    use cosched_sim::SimRng;
    use cosched_workload::{pairing, MachineId};

    fn mk(machine: usize, id: u64, submit: u64, size: u64, runtime: u64) -> Job {
        Job::new(
            JobId(id),
            MachineId(machine),
            SimTime::from_secs(submit),
            size,
            SimDuration::from_secs(runtime),
            SimDuration::from_secs(runtime * 2),
        )
    }

    /// Two tiny flat machines with FCFS.
    fn small_config(combo: SchemeCombo) -> CoupledConfig {
        CoupledConfig {
            machines: [
                MachineConfig::flat("A", MachineId(0), 100),
                MachineConfig::flat("B", MachineId(1), 100),
            ],
            cosched: [
                // The held-fraction cap is cleared: these scenarios hold
                // more than half the machine on purpose (they exercise the
                // breaker, not the cap).
                CoschedConfig::paper(combo.of(0)).with_max_held_fraction(None),
                CoschedConfig::paper(combo.of(1)).with_max_held_fraction(None),
            ],
            max_events: 1_000_000,
        }
    }

    fn paired_traces() -> [Trace; 2] {
        // One pair (job 1 on each machine, submitted 60 s apart) plus an
        // unpaired filler job on each side that keeps the mate busy briefly.
        let mut a = Trace::from_jobs(
            MachineId(0),
            vec![mk(0, 0, 0, 100, 400), mk(0, 1, 50, 30, 300)],
        );
        let mut b = Trace::from_jobs(
            MachineId(1),
            vec![mk(1, 0, 0, 100, 600), mk(1, 1, 110, 30, 300)],
        );
        let n = pairing::pair_by_window(&mut a, &mut b, SimDuration::from_mins(2));
        assert_eq!(n, 2); // (a0,b0) and (a1,b1)
        [a, b]
    }

    #[test]
    fn baseline_runs_all_jobs() {
        let mut cfg = small_config(SchemeCombo::YY);
        cfg.cosched = [CoschedConfig::disabled(), CoschedConfig::disabled()];
        let report = CoupledSimulation::new(cfg, paired_traces()).run();
        assert!(!report.deadlocked);
        assert_eq!(report.records[0].len(), 2);
        assert_eq!(report.records[1].len(), 2);
        // Without coscheduling pairs are NOT generally synchronized.
        assert_eq!(report.pair_offsets.len(), 2);
    }

    #[test]
    fn all_combos_synchronize_pairs() {
        for combo in SchemeCombo::ALL {
            let report = CoupledSimulation::new(small_config(combo), paired_traces()).run();
            assert!(!report.deadlocked, "{} deadlocked", combo.label());
            assert_eq!(report.unfinished, [0, 0], "{} left jobs", combo.label());
            assert_eq!(report.pair_offsets.len(), 2, "{}", combo.label());
            assert!(
                report.all_pairs_synchronized(),
                "{}: offsets {:?}",
                combo.label(),
                report.pair_offsets
            );
        }
    }

    #[test]
    fn hold_scheme_accrues_service_unit_loss() {
        // Machine A holds: its paired job 1 becomes ready while b1 is not
        // yet submitted, so it holds nodes.
        let report = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces()).run();
        let lost: f64 = report.summaries[0].lost_node_hours + report.summaries[1].lost_node_hours;
        assert!(lost > 0.0, "expected some held node-hours, got {lost}");
        assert!(report.summaries[0].total_holds + report.summaries[1].total_holds > 0);
    }

    #[test]
    fn yield_scheme_loses_no_service_units() {
        let report = CoupledSimulation::new(small_config(SchemeCombo::YY), paired_traces()).run();
        assert_eq!(report.summaries[0].lost_node_hours, 0.0);
        assert_eq!(report.summaries[1].lost_node_hours, 0.0);
        assert_eq!(
            report.summaries[0].total_holds + report.summaries[1].total_holds,
            0
        );
    }

    /// The Fig. 2 scenario: a1 holds 60 nodes on A waiting for b1; b2 holds
    /// 60 nodes on B waiting for a2; neither mate can ever fit. Without the
    /// release enhancement this deadlocks.
    fn deadlock_traces() -> [Trace; 2] {
        let mut a = Trace::from_jobs(
            MachineId(0),
            vec![mk(0, 1, 0, 60, 1_000), mk(0, 2, 10, 60, 1_000)],
        );
        let mut b = Trace::from_jobs(
            MachineId(1),
            vec![mk(1, 2, 0, 60, 1_000), mk(1, 1, 10, 60, 1_000)],
        );
        // Pair a1↔b1 and a2↔b2 explicitly.
        use cosched_workload::MateRef;
        a.jobs_mut()[0].mate = Some(MateRef {
            machine: MachineId(1),
            job: JobId(1),
        });
        b.jobs_mut()[1].mate = Some(MateRef {
            machine: MachineId(0),
            job: JobId(1),
        });
        a.jobs_mut()[1].mate = Some(MateRef {
            machine: MachineId(1),
            job: JobId(2),
        });
        b.jobs_mut()[0].mate = Some(MateRef {
            machine: MachineId(0),
            job: JobId(2),
        });
        [a, b]
    }

    #[test]
    fn hold_hold_without_breaker_deadlocks() {
        let mut cfg = small_config(SchemeCombo::HH);
        cfg.cosched[0].release_period = None;
        cfg.cosched[1].release_period = None;
        let report = CoupledSimulation::new(cfg, deadlock_traces()).run();
        assert!(report.deadlocked, "expected deadlock");
        assert!(report.unfinished[0] > 0 && report.unfinished[1] > 0);
        assert_eq!(report.forced_releases, 0);
    }

    #[test]
    fn hold_hold_with_breaker_completes() {
        let report = CoupledSimulation::new(small_config(SchemeCombo::HH), deadlock_traces()).run();
        assert!(
            !report.deadlocked,
            "breaker should resolve the circular wait"
        );
        assert_eq!(report.unfinished, [0, 0]);
        assert!(report.forced_releases > 0, "breaker must have fired");
        assert!(report.all_pairs_synchronized());
    }

    #[test]
    fn remote_down_starts_jobs_normally() {
        let mut sim = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces());
        sim.set_reachable(1, false);
        let report = sim.run();
        assert!(!report.deadlocked);
        assert_eq!(
            report.records[0].len(),
            2,
            "machine 0 proceeds despite dead peer"
        );
        // Pairs cannot be synchronized with a dead peer — but nothing hangs.
        assert_eq!(report.unfinished[0], 0);
    }

    #[test]
    fn unknown_mate_status_starts_normally() {
        let mut sim = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces());
        sim.mark_status_unknown(1, JobId(0));
        sim.mark_status_unknown(1, JobId(1));
        let report = sim.run();
        assert!(!report.deadlocked);
        assert_eq!(report.unfinished, [0, 0]);
        assert_eq!(
            report.summaries[0].total_holds, 0,
            "unknown status must not cause holding"
        );
    }

    #[test]
    fn rendezvous_audit_classifies_paths() {
        // HH on the paired_traces scenario: pair (a0,b0) resolves through
        // b0 finding a0 HOLDING (anchored); pair (a1,b1) likewise. See the
        // trace walk in `all_combos_synchronize_pairs`.
        let report = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces()).run();
        assert_eq!(report.rendezvous.anchored, 2, "{:?}", report.rendezvous);
        assert_eq!(report.rendezvous.independent, 0);

        // YY: a0 yields, then b0 direct-starts it (TryStartMate) — every
        // pair commits through the direct path.
        let report = CoupledSimulation::new(small_config(SchemeCombo::YY), paired_traces()).run();
        assert_eq!(report.rendezvous.direct, 2, "{:?}", report.rendezvous);
        assert_eq!(report.rendezvous.anchored, 0);

        // Dead remote: machine-0 pairs start independently.
        let mut sim = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces());
        sim.set_reachable(1, false);
        let report = sim.run();
        assert_eq!(report.rendezvous.anchored, 0, "{:?}", report.rendezvous);
    }

    #[test]
    fn determinism_same_input_same_report() {
        let r1 = CoupledSimulation::new(small_config(SchemeCombo::HY), paired_traces()).run();
        let r2 = CoupledSimulation::new(small_config(SchemeCombo::HY), paired_traces()).run();
        assert_eq!(r1.records, r2.records);
        assert_eq!(r1.events, r2.events);
        assert_eq!(r1.pair_offsets, r2.pair_offsets);
        assert_eq!(r1.metrics, r2.metrics);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn traced_run_is_pure_observation() {
        let plain = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces()).run();
        let arts = CoupledSimulation::with_observer(
            small_config(SchemeCombo::HH),
            paired_traces(),
            SinkObserver::new(VecSink::default()),
        )
        .run_traced();
        // Attaching an observer must not change any deterministic output.
        assert_eq!(arts.report.records, plain.records);
        assert_eq!(arts.report.events, plain.events);
        assert_eq!(arts.report.stats, plain.stats);
        assert_eq!(arts.report.sched_stats, plain.sched_stats);
        assert_eq!(arts.report.metrics, plain.metrics);
        assert!(plain.stats.holds > 0, "HH scenario places holds");
        assert!(plain.stats.rpc_calls > 0);
        assert_eq!(plain.metrics.counter("cosched.holds"), plain.stats.holds);

        let kinds: IdHashSet<&str> = arts
            .observer
            .sink()
            .records
            .iter()
            .map(|r| r.event.kind())
            .collect();
        for expected in [
            "sched-iteration-start",
            "sched-iteration-end",
            "sched-pick",
            "cosched-hold-placed",
            "cosched-rendezvous-commit",
            "cosched-start",
            "rpc-call",
        ] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }
        // Records arrive in nondecreasing sim time.
        let times: Vec<u64> = arts
            .observer
            .sink()
            .records
            .iter()
            .map(|r| r.time)
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "trace times out of order"
        );
    }

    /// A sink with a wall-clock profiler optionally teed in behind it.
    pub(crate) type Profiled = TeeObserver<SinkObserver<VecSink>, Option<PhaseProfiler>>;

    /// Run `run` with and without the profiler teed in behind a sink, and
    /// check that the sink's records are identical (the profiler is a pure
    /// consumer) and that the profile's call counts equal the trace's
    /// iteration starts, release-sweep spans, and RPC outcomes. Returns
    /// those three counts.
    pub(crate) fn check_profile(run: impl Fn(Profiled) -> Profiled) -> [u64; 3] {
        let observer = |on: bool| {
            let sink = SinkObserver::new(VecSink::default());
            TeeObserver::new(sink, on.then(PhaseProfiler::default))
        };
        let plain = run(observer(false)).first.into_sink().records;
        let profiled = run(observer(true));
        let records = &profiled.first.sink().records;
        assert_eq!(records, &plain, "teeing the profiler in changed the trace");
        let count = |pick: fn(&TraceEvent) -> bool| {
            records.iter().filter(|r| pick(&r.event)).count() as u64
        };
        let expected = [
            (
                "scheduler-iteration",
                count(|e| matches!(e, TraceEvent::SchedIterationStart { .. })),
            ),
            (
                "release-sweep",
                count(|e| {
                    matches!(
                        e,
                        TraceEvent::SpanOpen {
                            kind: SpanKind::ReleaseSweep,
                            ..
                        }
                    )
                }),
            ),
            (
                "rpc-call",
                count(|e| {
                    matches!(
                        e,
                        TraceEvent::RpcCall { .. } | TraceEvent::RpcTimeout { .. }
                    )
                }),
            ),
        ];
        let profile = profiled.second.expect("profiler teed in").snapshot();
        for (phase, n) in expected {
            let calls = profile.iter().find(|p| p.phase == phase);
            assert_eq!(calls.map_or(0, |p| p.calls), n, "{phase} calls");
        }
        expected.map(|(_, n)| n)
    }

    #[test]
    fn profiler_counts_every_phase_of_a_pair_run() {
        // The deadlock scenario adds release sweeps to the pair scenario.
        for (traces, sweeps) in [(paired_traces(), false), (deadlock_traces(), true)] {
            let [iterations, released, rpcs] = check_profile(|observer| {
                let config = small_config(SchemeCombo::HH);
                CoupledSimulation::with_observer(config, traces.clone(), observer)
                    .run_traced()
                    .observer
            });
            assert!(iterations > 0 && rpcs > 0);
            assert_eq!(released > 0, sweeps);
        }
    }

    #[test]
    fn injected_status_timeout_starts_normally_and_counts() {
        let mut sim = CoupledSimulation::new(small_config(SchemeCombo::HH), paired_traces());
        sim.inject_status_timeout(1, true);
        let report = sim.run();
        assert!(!report.deadlocked);
        assert_eq!(report.unfinished[0], 0, "timeouts must not wedge machine 0");
        assert!(
            report.stats.rpc_timeouts > 0,
            "timeouts counted: {:?}",
            report.stats
        );
        assert_eq!(
            report.metrics.counter("rpc.timeouts"),
            report.stats.rpc_timeouts
        );
    }

    /// At one instant, arrivals dispatch before queued completions, and
    /// machine 0's arrival before machine 1's: the `(time, seq)` order of a
    /// queue seeded with every arrival up front, machine 0's first.
    #[test]
    fn same_instant_arrivals_precede_completions_machine_zero_first() {
        use cosched_obs::TraceRecord;
        // a0 runs [0, 100); a1, b1 and a0's end all fall at t = 100.
        let a = Trace::from_jobs(
            MachineId(0),
            vec![mk(0, 0, 0, 60, 100), mk(0, 1, 100, 60, 50)],
        );
        let b = Trace::from_jobs(MachineId(1), vec![mk(1, 1, 100, 10, 50)]);
        let run = |traces| {
            CoupledSimulation::with_observer(
                small_config(SchemeCombo::YY),
                traces,
                SinkObserver::new(VecSink::default()),
            )
            .run_traced()
        };
        let arts = run([a.clone(), b.clone()]);
        let at_100: Vec<(usize, u64, bool)> = arts
            .observer
            .sink()
            .records
            .iter()
            .filter(|r: &&TraceRecord| r.time == 100)
            .filter_map(|r| match r.event {
                TraceEvent::JobSubmitted { job, .. } => Some((r.machine, job, true)),
                TraceEvent::JobEnded { job } => Some((r.machine, job, false)),
                _ => None,
            })
            .collect();
        assert_eq!(at_100, [(0, 1, true), (1, 1, true), (0, 0, false)]);
        assert_eq!(arts.report.queue_high_water, 3, "one pending event per job");

        // A trace appended out of submit order and never resorted replays
        // exactly like its sorted copy.
        let mut pushed = Trace::new(MachineId(0));
        pushed.push(mk(0, 1, 100, 60, 50));
        pushed.push(mk(0, 0, 0, 60, 100));
        let unsorted = run([pushed, b]).report;
        assert_eq!(format!("{unsorted:?}"), format!("{:?}", arts.report));
    }

    #[test]
    fn max_events_aborts_cleanly() {
        let mut cfg = small_config(SchemeCombo::YY);
        cfg.max_events = 3;
        let report = CoupledSimulation::new(cfg, paired_traces()).run();
        assert!(report.aborted);
        assert!(
            !report.deadlocked,
            "aborted runs are not reported as deadlock"
        );
    }

    #[test]
    fn larger_random_workload_all_combos_synchronize() {
        use cosched_workload::{MachineModel, TraceGenerator};
        let rng = SimRng::seed_from_u64(42);
        for combo in SchemeCombo::ALL {
            let mut a = TraceGenerator::new(
                MachineModel::eureka().with_runtime(1_200.0, 1.0),
                MachineId(0),
            )
            .span(SimDuration::from_days(2))
            .target_utilization(0.6)
            .generate(&mut rng.fork(1));
            let mut b = TraceGenerator::new(
                MachineModel::eureka().with_runtime(1_200.0, 1.0),
                MachineId(1),
            )
            .span(SimDuration::from_days(2))
            .target_utilization(0.6)
            .generate(&mut rng.fork(2));
            let pairs = pairing::pair_exact_proportion(
                &mut a,
                &mut b,
                0.2,
                SimDuration::from_mins(2),
                &mut rng.fork(3),
            );
            assert!(pairs > 5, "workload too small: {pairs} pairs");
            let mut cfg = small_config(combo);
            cfg.machines[0] = MachineConfig::eureka(MachineId(0));
            cfg.machines[0].name = "A".into();
            cfg.machines[1] = MachineConfig::eureka(MachineId(1));
            cfg.machines[1].name = "B".into();
            let report = CoupledSimulation::new(cfg, [a, b]).run();
            assert!(!report.deadlocked, "{} deadlocked", combo.label());
            assert_eq!(report.unfinished, [0, 0], "{}", combo.label());
            assert!(
                report.all_pairs_synchronized(),
                "{}: max offset {}",
                combo.label(),
                report.max_pair_offset()
            );
        }
    }
}
