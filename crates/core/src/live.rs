//! Live (wall-clock) deployment wrapper.
//!
//! The simulator validates the mechanism; this module is the shape a real
//! deployment takes — what the paper means by "implemented it in an
//! existing resource manager". A [`LiveDomain`] is a mutex around the same
//! `Domain` the coupled simulator drives — protocol handler, decision
//! commit, and batch release policy included — plus what a daemon needs:
//! pending completions, span contexts seen on incoming frames, an optional
//! telemetry monitor, and a pump running Algorithm 1 across a real
//! [`Transport`]. Serve the protocol by plugging [`LiveDomain::service`]
//! into [`cosched_proto::tcp::serve`] or an in-proc pair.
//!
//! Time is passed in explicitly (any monotonic `SimTime` source), keeping
//! the domain testable and letting examples compress wall-clock time.

use crate::config::CoschedConfig;
use crate::domain::{Domain, SubmitError, Sweep};
use crate::registry::MateRegistry;
use cosched_metrics::JobRecord;
use cosched_obs::monitor::StreamingMonitor;
use cosched_obs::{Observer, TraceEvent};
use cosched_proto::{DomainService, Request, Response, SpanContext, Transport};
use cosched_sched::Machine;
use cosched_sim::SimTime;
use cosched_workload::{Job, JobId, MachineId};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

struct Inner {
    domain: Domain,
    /// Completion deadlines of started jobs, processed by `complete_due`.
    ends: Vec<(JobId, SimTime)>,
    /// Caller span ids seen on incoming requests (context propagated
    /// through the transport's `TracedRequest` frames) — lets operators
    /// correlate this domain's handler work with the peer's causal spans.
    peer_spans: Vec<u64>,
    /// Attached streaming monitor ([`LiveDomain::attach_telemetry`]); the
    /// domain reports its events into it so `/metrics`, `/state`, and
    /// alert rules see live domains exactly as they see simulated ones.
    monitor: Option<StreamingMonitor>,
}

/// One scheduling domain of a live coupled system. Cheap to clone (shared
/// state behind a mutex); clones are handles to the same domain.
#[derive(Clone)]
pub struct LiveDomain {
    inner: Arc<Mutex<Inner>>,
}

impl LiveDomain {
    /// Wrap a machine with its local coscheduling config and the pairing
    /// registry. `peer` is the other domain's machine id (used to resolve
    /// incoming `get_mate_job` calls).
    pub fn new(
        machine: Machine,
        cfg: CoschedConfig,
        registry: MateRegistry,
        peer: MachineId,
    ) -> Self {
        let index = machine.config().machine.0;
        LiveDomain {
            inner: Arc::new(Mutex::new(Inner {
                domain: Domain::new(machine, cfg, Arc::new(registry), peer, index),
                ends: Vec::new(),
                peer_spans: Vec::new(),
                monitor: None,
            })),
        }
    }

    /// Lock the shared state. Poisoning is ignored: a panic on a thread
    /// that held the lock does not turn every later call into a panic.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attach a streaming monitor: the domain reports submits, Algorithm 1
    /// transitions (start/hold/yield, scheme shifts, rendezvous commits,
    /// forced releases), its protocol calls and their timeouts, and
    /// completions into it, and registers its capacity under its machine
    /// index. Serve the same monitor via `cosched_telemetry` to expose the
    /// daemon's `/metrics`, `/healthz`, and `/state`.
    pub fn attach_telemetry(&self, monitor: StreamingMonitor) {
        let mut g = self.lock();
        let config = g.domain.machine().config();
        monitor.set_capacity(config.machine.0, config.capacity);
        g.monitor = Some(monitor);
    }

    /// Submit a job locally. Refuses, without changing anything, a job
    /// addressed to another machine, one whose submit time is later than
    /// `now`, and a duplicate id.
    pub fn submit(&self, job: Job, now: SimTime) -> Result<(), SubmitError> {
        let mut g = self.lock();
        let g = &mut *g;
        g.domain.submit(job, now, &mut g.monitor)
    }

    /// Answer one incoming protocol request at local time `now`.
    pub fn handle(&self, req: Request, now: SimTime) -> Response {
        let mut g = self.lock();
        let g = &mut *g;
        let (response, started) = g.domain.handle(&req, now, &mut g.monitor);
        g.ends.extend(started);
        response
    }

    /// Build a [`DomainService`] for the protocol server, reading time from
    /// `clock` at each request. The service is span-aware: caller span
    /// contexts arriving in request frames are recorded (see
    /// [`LiveDomain::peer_spans`]) before the request is answered.
    pub fn service<C>(&self, clock: C) -> impl DomainService + Send + 'static
    where
        C: Fn() -> SimTime + Send + 'static,
    {
        LiveService {
            domain: self.clone(),
            clock,
        }
    }

    /// Caller span ids observed on incoming requests so far, in arrival
    /// order (non-empty contexts only).
    pub fn peer_spans(&self) -> Vec<u64> {
        self.lock().peer_spans.clone()
    }

    /// Run one local scheduling iteration at `now`, coordinating over
    /// `remote`. Fires a due release sweep first.
    ///
    /// The domain lock is **not** held across protocol calls, so two
    /// mutually coupled domains may pump concurrently without deadlocking
    /// the process. A candidate picked but not yet committed reads back as
    /// `Queuing` and rejects `try_start_mate` (fail-closed), so a
    /// simultaneous decision on both sides degrades to a retry — both jobs
    /// hold or yield and re-align at the next iteration — never to a
    /// missed or double start. Call `pump` from one thread per domain.
    pub fn pump<T: Transport>(&self, now: SimTime, remote: &mut T) {
        {
            let mut g = self.lock();
            let g = &mut *g;
            if g.domain.sweep(now) == Sweep::Release {
                g.domain.release_holds(now, &mut g.monitor, |_, _| {});
            }
            g.domain.machine_mut().begin_iteration();
        }
        // Each protocol call's kind and outcome, noted only while a monitor
        // is attached.
        let mut calls = Vec::new();
        loop {
            // Phase 1: pick a candidate and snapshot its context under the
            // lock.
            let (ready, watched) = {
                let mut g = self.lock();
                let Some(ready) = g.domain.pick(now) else {
                    break;
                };
                (ready, g.monitor.is_some())
            };
            // Phase 2: run Algorithm 1 with the lock released.
            let outcome = ready.decide(|req| {
                let response = remote.call(req);
                if watched {
                    calls.push((req.trace_kind(), response.is_ok()));
                }
                response
            });
            // Phase 3: record the calls as the simulator does, under the
            // peer's machine index, then commit under the lock.
            let mut g = self.lock();
            let g = &mut *g;
            let peer = g.domain.peer().0;
            for (kind, ok) in calls.drain(..) {
                let event = if ok {
                    TraceEvent::RpcCall { kind, ok: true }
                } else {
                    TraceEvent::RpcTimeout { kind }
                };
                g.monitor.record(now.as_secs(), peer, event);
            }
            let id = ready.job.id;
            if let Some(end) = g
                .domain
                .commit(ready, outcome, now, &mut g.monitor, |_, _, _| {})
            {
                g.ends.push((id, end));
            }
        }
        self.lock().domain.arm_sweep(now);
    }

    /// Complete all started jobs whose end time has passed. Returns how many
    /// finished.
    pub fn complete_due(&self, now: SimTime) -> usize {
        let mut g = self.lock();
        let g = &mut *g;
        let mut due: Vec<_> = g.ends.extract_if(.., |&mut (_, end)| end <= now).collect();
        due.sort_by_key(|&(_, end)| end);
        let n = due.len();
        for (id, end) in due {
            g.domain.finish(id, end, &mut g.monitor);
        }
        n
    }

    /// Completed-job records so far.
    pub fn records(&self) -> Vec<JobRecord> {
        self.lock().domain.machine().records().to_vec()
    }

    /// True when no queued, held, or running jobs remain.
    pub fn drained(&self) -> bool {
        self.lock().domain.machine().drained()
    }

    /// Jobs currently held (for observability).
    pub fn held(&self) -> Vec<JobId> {
        self.lock().domain.machine().held_jobs().to_vec()
    }
}

/// The [`DomainService`] returned by [`LiveDomain::service`]: records
/// incoming span contexts, then answers at the clock's current time.
struct LiveService<C> {
    domain: LiveDomain,
    clock: C,
}

impl<C> DomainService for LiveService<C>
where
    C: Fn() -> SimTime + Send + 'static,
{
    fn handle(&mut self, req: Request) -> Response {
        self.domain.handle(req, (self.clock)())
    }

    fn handle_traced(&mut self, req: Request, ctx: SpanContext) -> Response {
        if !ctx.is_none() {
            self.domain.lock().peer_spans.push(ctx.span);
        }
        self.handle(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use cosched_proto::inproc;
    use cosched_sched::MachineConfig;
    use cosched_sim::SimDuration;
    use std::time::Duration;

    fn job(machine: usize, id: u64, size: u64, runtime: u64) -> Job {
        Job::new(
            JobId(id),
            MachineId(machine),
            SimTime::ZERO,
            size,
            SimDuration::from_secs(runtime),
            SimDuration::from_secs(runtime * 2),
        )
    }

    fn registry_with_pair() -> MateRegistry {
        let mut reg = MateRegistry::new();
        reg.insert_pair((MachineId(0), JobId(1)), (MachineId(1), JobId(1)));
        reg
    }

    /// Span contexts carried in request frames reach the domain service.
    #[test]
    fn service_records_peer_span_contexts() {
        let a = LiveDomain::new(
            Machine::new(MachineConfig::flat("A", MachineId(0), 10)),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(1),
        );
        let (mut client, server) = inproc::pair(Duration::from_secs(1));
        let svc_domain = a.clone();
        let t = std::thread::spawn(move || {
            let mut svc = svc_domain.service(|| SimTime::ZERO);
            server.serve(&mut svc);
        });
        client
            .call_with(&Request::Ping, SpanContext::new(17))
            .unwrap();
        client.call(&Request::Ping).unwrap(); // empty context: not recorded
        client
            .call_with(
                &Request::GetMateStatus { job: JobId(1) },
                SpanContext::new(21),
            )
            .unwrap();
        drop(client);
        t.join().unwrap();
        assert_eq!(a.peer_spans(), vec![17, 21]);
    }

    /// Two live domains wired over in-proc transports, pumped manually.
    #[test]
    fn live_pair_synchronizes_over_inproc_transport() {
        let a = LiveDomain::new(
            Machine::new(MachineConfig::flat("A", MachineId(0), 10)),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(1),
        );
        let b = LiveDomain::new(
            Machine::new(MachineConfig::flat("B", MachineId(1), 10)),
            CoschedConfig::paper(Scheme::Yield),
            registry_with_pair(),
            MachineId(0),
        );

        // Transport A→B.
        let (mut to_b, server_b) = inproc::pair(Duration::from_secs(1));
        let b_svc = b.clone();
        let t_b = std::thread::spawn(move || {
            let mut svc = b_svc.service(|| SimTime::from_secs(0));
            // Serve a handful of calls then exit when client drops.
            server_b.serve(&mut svc);
        });
        // Transport B→A.
        let (mut to_a, server_a) = inproc::pair(Duration::from_secs(1));
        let a_svc = a.clone();
        let t_a = std::thread::spawn(move || {
            let mut svc = a_svc.service(|| SimTime::from_secs(0));
            server_a.serve(&mut svc);
        });

        // Submit the pair: job 1 on A first; A pumps and holds (mate not
        // submitted yet).
        a.submit(job(0, 1, 4, 60), SimTime::ZERO).unwrap();
        a.pump(SimTime::ZERO, &mut to_b);
        assert_eq!(a.held(), vec![JobId(1)]);

        // Now the mate arrives on B; B pumps, sees A holding, both start.
        b.submit(job(1, 1, 4, 60), SimTime::ZERO).unwrap();
        b.pump(SimTime::ZERO, &mut to_a);
        assert!(b.held().is_empty());

        // Complete both at t=60.
        let t60 = SimTime::from_secs(60);
        assert_eq!(a.complete_due(t60), 1);
        assert_eq!(b.complete_due(t60), 1);
        let ra = a.records();
        let rb = b.records();
        assert_eq!(ra[0].start, rb[0].start, "pair started simultaneously");
        assert!(a.drained() && b.drained());

        drop(to_b);
        drop(to_a);
        t_a.join().unwrap();
        t_b.join().unwrap();
    }

    /// A monitor attached to live domains sees the same lifecycle the
    /// domains execute: submits, the hold, the synchronized start, ends.
    #[test]
    fn attached_monitor_tracks_live_pair() {
        let monitor = StreamingMonitor::new();
        let a = LiveDomain::new(
            Machine::new(MachineConfig::flat("A", MachineId(0), 10)),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(1),
        );
        let b = LiveDomain::new(
            Machine::new(MachineConfig::flat("B", MachineId(1), 10)),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(0),
        );
        a.attach_telemetry(monitor.clone());
        b.attach_telemetry(monitor.clone());
        let snap = monitor.snapshot();
        assert_eq!(snap.machines.len(), 2, "capacities registered");
        assert_eq!(snap.machines[0].capacity, 10);

        let (mut to_b, server_b) = inproc::pair(Duration::from_secs(1));
        let b_svc = b.clone();
        let t_b = std::thread::spawn(move || {
            let mut svc = b_svc.service(|| SimTime::ZERO);
            server_b.serve(&mut svc);
        });
        a.submit(job(0, 1, 4, 60), SimTime::ZERO).unwrap();
        a.pump(SimTime::ZERO, &mut to_b);
        let snap = monitor.snapshot();
        assert_eq!((snap.held, snap.holds_placed), (1, 1), "A holds for mate");

        b.submit(job(1, 1, 4, 60), SimTime::ZERO).unwrap();
        b.pump(SimTime::ZERO, &mut direct(&a));
        let snap = monitor.snapshot();
        assert_eq!(snap.running, 2, "pair started on both machines");
        assert_eq!(snap.held, 0);

        let t60 = SimTime::from_secs(60);
        a.complete_due(t60);
        b.complete_due(t60);
        monitor.finish(false);
        let snap = monitor.snapshot();
        assert_eq!(snap.finished, 2);
        assert!(snap.drained() && snap.done && !snap.deadlocked);
        // 4 nodes × 60 s on each machine.
        assert_eq!(snap.machines[0].used_node_seconds, 240);
        assert_eq!(snap.machines[1].used_node_seconds, 240);
        // Algorithm 1 makes three protocol calls in each of the two pumps.
        assert_eq!((snap.rpc_calls, snap.rpc_timeouts), (6, 0));

        drop(to_b);
        t_b.join().unwrap();
    }

    /// Direct (no thread) transport into domain `a` for tests.
    fn direct(a: &LiveDomain) -> impl Transport + '_ {
        struct Direct<'d>(&'d LiveDomain);
        impl Transport for Direct<'_> {
            fn call(&mut self, req: &Request) -> Result<Response, cosched_proto::ProtoError> {
                Ok(self.0.handle(req.clone(), SimTime::ZERO))
            }
        }
        Direct(a)
    }

    /// The release sweep is the simulator's batch policy: a due sweep
    /// keeps holds that block nobody and re-arms one period later; once a
    /// queued job is blocked by held nodes, it releases every hold and the
    /// blocked job starts ahead of the demoted ones.
    #[test]
    fn release_timer_fires_in_pump() {
        let a = LiveDomain::new(
            Machine::new(MachineConfig::flat("A", MachineId(0), 10)),
            CoschedConfig::paper(Scheme::Hold)
                .with_release_period(Some(SimDuration::from_mins(20))),
            registry_with_pair(),
            MachineId(1),
        );
        // On B a long filler takes every node, so job 1's mate stays queued
        // and cannot be started.
        let b = LiveDomain::new(
            Machine::new(MachineConfig::flat("B", MachineId(1), 10)),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(0),
        );
        b.submit(job(1, 9, 10, 100_000), SimTime::ZERO).unwrap();
        b.pump(SimTime::ZERO, &mut direct(&a));
        b.submit(job(1, 1, 4, 60), SimTime::ZERO).unwrap();
        let hold_since = |a: &LiveDomain| a.lock().domain.machine().hold_since(JobId(1));
        a.submit(job(0, 1, 4, 60), SimTime::ZERO).unwrap();
        a.pump(SimTime::ZERO, &mut direct(&b));
        assert_eq!(a.held(), vec![JobId(1)]);
        // Before the period: still held.
        a.pump(SimTime::from_secs(600), &mut direct(&b));
        assert_eq!(hold_since(&a), Some(SimTime::ZERO));
        // Due, but the hold blocks nobody: it stays, and the sweep re-arms
        // for t = 1300 + 1200.
        a.pump(SimTime::from_secs(1_300), &mut direct(&b));
        assert_eq!(hold_since(&a), Some(SimTime::ZERO));
        // An 8-node job cannot fit beside the 4 held nodes.
        let t = SimTime::from_secs(1_400);
        let mut blocked = job(0, 2, 8, 60);
        blocked.submit = t;
        a.submit(blocked, t).unwrap();
        a.pump(t, &mut direct(&b));
        assert_eq!(hold_since(&a), Some(SimTime::ZERO));
        // The re-armed sweep releases the hold; job 2 takes the nodes and
        // the demoted job 1 no longer fits.
        let t = SimTime::from_secs(2_500);
        a.pump(t, &mut direct(&b));
        assert!(a.held().is_empty());
        assert_eq!(a.complete_due(t + SimDuration::from_secs(60)), 1);
        assert_eq!(a.records()[0].id, JobId(2));
        assert_eq!(a.records()[0].start, t);
    }

    /// Outside input a daemon cannot trust is refused with a typed error,
    /// not a panic, and leaves the domain unchanged.
    fn submit_refusal(bad: Job, now: SimTime) -> SubmitError {
        let a = LiveDomain::new(
            Machine::new(MachineConfig::flat("A", MachineId(0), 10)),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(1),
        );
        a.submit(job(0, 7, 4, 60), SimTime::ZERO).unwrap();
        let refused = a.submit(bad, now).unwrap_err();
        a.pump(now, &mut Dead);
        assert_eq!(a.complete_due(now + SimDuration::from_secs(60)), 1);
        assert!(a.drained(), "only the accepted job ran");
        refused
    }

    /// A peer that is always down: every job starts normally.
    struct Dead;
    impl Transport for Dead {
        fn call(&mut self, _req: &Request) -> Result<Response, cosched_proto::ProtoError> {
            Err(cosched_proto::ProtoError::Timeout)
        }
    }

    #[test]
    fn submit_refuses_a_job_for_another_machine() {
        let err = submit_refusal(job(1, 1, 4, 60), SimTime::ZERO);
        assert_eq!(err, SubmitError::WrongMachine(JobId(1), MachineId(1)));
    }

    #[test]
    fn submit_refuses_a_job_from_the_future() {
        let mut early = job(0, 1, 4, 60);
        early.submit = SimTime::from_secs(30);
        let err = submit_refusal(early, SimTime::from_secs(10));
        assert_eq!(err, SubmitError::Early(JobId(1), SimTime::from_secs(30)));
    }

    #[test]
    fn submit_refuses_a_duplicate_id() {
        let err = submit_refusal(job(0, 7, 4, 60), SimTime::ZERO);
        assert_eq!(err, SubmitError::Duplicate(JobId(7)));
    }

    #[test]
    fn dead_remote_starts_job_normally() {
        let a = LiveDomain::new(
            Machine::new(MachineConfig::flat("A", MachineId(0), 10)),
            CoschedConfig::paper(Scheme::Hold),
            registry_with_pair(),
            MachineId(1),
        );
        let monitor = StreamingMonitor::new();
        a.attach_telemetry(monitor.clone());
        a.submit(job(0, 1, 4, 60), SimTime::ZERO).unwrap();
        a.pump(SimTime::ZERO, &mut Dead);
        assert!(
            a.held().is_empty(),
            "fault tolerance: no waiting on a dead peer"
        );
        // The failed call is recorded as a timeout, which counts as a call.
        let snap = monitor.snapshot();
        assert_eq!((snap.rpc_calls, snap.rpc_timeouts), (1, 1));
        assert_eq!(a.complete_due(SimTime::from_secs(60)), 1);
        assert!(a.drained());
    }
}
