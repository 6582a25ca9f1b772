//! The live daemon and the simulator run one domain core: the same
//! protocol handler, decision commit, and batch release policy. These
//! tests drive two `LiveDomain`s over a direct, thread-free transport and
//! hold them to the simulator's behaviour: a hold-hold replay drains
//! (the per-job age release it once used livelocked), a workload stepped
//! through the simulator's event instants starts every job at the same
//! instant as `CoupledSimulation`, and holds report allocator-charged
//! nodes.

use cosched_bench::harness;
use coupled_cosched::cosched::live::LiveDomain;
use coupled_cosched::cosched::{CoschedConfig, MateRegistry};
use coupled_cosched::prelude::*;
use coupled_cosched::proto::{MateStatus, ProtoError, Request, Response, Transport};
use coupled_cosched::sched::{AllocatorKind, Machine};
use coupled_cosched::sim::SimRng;
use coupled_cosched::workload::{pairing, MachineModel, MateRef, TraceGenerator};
use std::collections::HashMap;

/// A thread-free transport: each call is answered by the peer domain's
/// handler at the instant the caller is pumping.
struct Direct<'d> {
    peer: &'d LiveDomain,
    now: SimTime,
}

impl Transport for Direct<'_> {
    fn call(&mut self, req: &Request) -> Result<Response, ProtoError> {
        Ok(self.peer.handle(req.clone(), self.now))
    }
}

/// Two live domains configured like `config`, sharing the traces' pairing.
fn live_pair(config: &CoupledConfig, traces: &[Trace; 2]) -> [LiveDomain; 2] {
    let registry = MateRegistry::from_traces(&traces[0], &traces[1]);
    [0, 1].map(|m| {
        LiveDomain::new(
            Machine::new(config.machines[m].clone()),
            config.cosched[m].clone(),
            registry.clone(),
            config.machines[1 - m].machine,
        )
    })
}

/// Start instant of every completed job, keyed by (machine slot, job).
fn live_starts(domains: &[LiveDomain; 2]) -> HashMap<(usize, JobId), SimTime> {
    let mut starts = HashMap::new();
    for (m, domain) in domains.iter().enumerate() {
        for r in domain.records() {
            starts.insert((m, r.id), r.start);
        }
    }
    starts
}

/// Every pair of `traces` started at one instant in `starts`.
fn assert_pairs_in_sync(traces: &[Trace; 2], starts: &HashMap<(usize, JobId), SimTime>) {
    for job in traces[0].jobs() {
        let Some(mate) = job.mate else { continue };
        let (a, b) = (starts.get(&(0, job.id)), starts.get(&(1, mate.job)));
        assert!(
            a.is_some() && a == b,
            "pair {} ↔ {} started at {a:?} and {b:?}",
            job.id,
            mate.job
        );
    }
}

/// The replay loop the benchmark's live layer uses, on hold-hold: every
/// 60 s tick runs `complete_due`, then `submit`, then `pump` on A and on
/// B. The per-job age release the daemon once used freed a hold the
/// moment it aged past the period, and the job re-held at once with a
/// fresh age — large jobs blocked behind staggered holds never saw the
/// capacity coalesce, and the replay never drained. The shared batch
/// release (DESIGN.md §7 note 2) drains it.
#[test]
fn live_hold_hold_replay_drains_without_livelock() {
    const TICK: u64 = 60;
    let traces = harness::anl_proportion_traces(1, 3, 0.33);
    let domains = live_pair(&CoupledConfig::anl(SchemeCombo::HH), &traces);
    let [a, b] = &domains;
    let last_submit = traces
        .iter()
        .filter_map(|t| t.jobs().last())
        .map(|j| j.submit.as_secs())
        .max()
        .unwrap();
    let limit = last_submit + SimDuration::from_days(30).as_secs();
    let mut queues = traces.clone().map(|t| t.into_jobs().into_iter().peekable());
    let mut tick = 0;
    loop {
        let now = SimTime::from_secs(tick * TICK);
        a.complete_due(now);
        b.complete_due(now);
        for (domain, queue) in domains.iter().zip(queues.iter_mut()) {
            while let Some(job) = queue.next_if(|j| j.submit <= now) {
                domain.submit(job, now).expect("trace job");
            }
        }
        a.pump(now, &mut Direct { peer: b, now });
        b.pump(now, &mut Direct { peer: a, now });
        if queues.iter_mut().all(|q| q.peek().is_none()) && a.drained() && b.drained() {
            break;
        }
        assert!(
            now.as_secs() <= limit,
            "live HH replay did not drain within 30 days of the last submit: \
             {}/{} and {}/{} jobs finished, {} and {} held",
            a.records().len(),
            traces[0].len(),
            b.records().len(),
            traces[1].len(),
            a.held().len(),
            b.held().len(),
        );
        tick += 1;
    }
    assert_eq!(a.records().len(), traces[0].len());
    assert_eq!(b.records().len(), traces[1].len());
    assert_pairs_in_sync(&traces, &live_starts(&domains));
}

/// A one-day paired Eureka workload. The stepping below replays one
/// simulator event per live step, so it needs every arrival and job end at
/// its own instant; seed 5 at this size has no two sharing one, and the
/// test asserts so rather than trusting it.
fn differential_workload() -> [Trace; 2] {
    let rng = SimRng::seed_from_u64(5);
    let model = MachineModel::eureka();
    let mut a = TraceGenerator::new(model.clone(), MachineId(0))
        .span(SimDuration::from_days(1))
        .target_utilization(0.4)
        .generate(&mut rng.fork(0));
    let mut b = TraceGenerator::new(model, MachineId(1))
        .span(SimDuration::from_days(1))
        .target_utilization(0.4)
        .generate(&mut rng.fork(1));
    pairing::pair_exact_proportion(
        &mut a,
        &mut b,
        0.3,
        SimDuration::from_mins(2),
        &mut rng.fork(2),
    );
    [a, b]
}

/// One workload through `CoupledSimulation` and through two `LiveDomain`s
/// stepped through the simulator's event instants in the simulator's
/// order: at an arrival, `submit` then `pump` on that domain; at a job
/// end, `complete_due` then `pump` on that domain. Without release
/// sweeps those are all the events there are, so the two must agree on
/// every job's start and on the monitored lifecycle and protocol-call
/// counts.
#[test]
fn live_domains_match_the_simulator_step_for_step() {
    let traces = differential_workload();
    for combo in [SchemeCombo::YY, SchemeCombo::HY, SchemeCombo::YH] {
        let mut config = CoupledConfig {
            machines: [
                MachineConfig::eureka(MachineId(0)),
                MachineConfig::eureka(MachineId(1)),
            ],
            cosched: [
                CoschedConfig::paper(combo.of(0)),
                CoschedConfig::paper(combo.of(1)),
            ],
            max_events: 1_000_000,
        };
        for c in &mut config.cosched {
            c.release_period = None;
        }
        let label = combo.label();

        let sim_monitor = StreamingMonitor::new();
        let arts = CoupledSimulation::with_observer(
            config.clone(),
            traces.clone(),
            TeeObserver::new(SinkObserver::new(VecSink::default()), sim_monitor.clone()),
        )
        .run_traced();
        let report = arts.report;
        assert_eq!(report.unfinished, [0, 0], "{label}: simulator left jobs");
        let records = arts.observer.first.into_sink().records;
        // The simulator's dispatched events, in dispatch order.
        let steps: Vec<(u64, usize, TraceEvent)> = records
            .into_iter()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::JobSubmitted { .. } | TraceEvent::JobEnded { .. }
                )
            })
            .map(|r| (r.time, r.machine, r.event))
            .collect();
        assert!(
            steps.windows(2).all(|w| w[0].0 < w[1].0),
            "{label}: two events share an instant; stepping needs distinct instants"
        );

        let live_monitor = StreamingMonitor::new();
        let domains = live_pair(&config, &traces);
        for domain in &domains {
            domain.attach_telemetry(live_monitor.clone());
        }
        let mut jobs: HashMap<(usize, JobId), Job> = HashMap::new();
        for (m, trace) in traces.iter().enumerate() {
            for job in trace.jobs() {
                jobs.insert((m, job.id), job.clone());
            }
        }
        for (time, m, event) in steps {
            let now = SimTime::from_secs(time);
            match event {
                TraceEvent::JobSubmitted { job, .. } => {
                    let job = jobs.remove(&(m, JobId(job))).expect("trace job");
                    domains[m].submit(job, now).expect("trace job");
                }
                _ => assert_eq!(domains[m].complete_due(now), 1, "{label} at {now}"),
            }
            domains[m].pump(
                now,
                &mut Direct {
                    peer: &domains[1 - m],
                    now,
                },
            );
        }
        assert!(domains.iter().all(LiveDomain::drained), "{label}");

        let mut sim_starts = HashMap::new();
        for (m, recs) in report.records.iter().enumerate() {
            for r in recs {
                sim_starts.insert((m, r.id), r.start);
            }
        }
        assert_eq!(live_starts(&domains), sim_starts, "{label}: start times");

        let (s, l) = (sim_monitor.snapshot(), live_monitor.snapshot());
        let counts = |t: &TelemetrySnapshot| {
            [
                t.submitted,
                t.started,
                t.finished,
                t.holds_placed,
                t.yields,
                t.rendezvous_commits,
                t.rpc_calls,
                t.rpc_timeouts,
            ]
        };
        assert_eq!(counts(&l), counts(&s), "{label}: monitored counts");
        assert_eq!(
            (s.rejected_records, l.rejected_records),
            (0, 0),
            "{label}: the job state machine rejected records"
        );
        assert!(s.rendezvous_commits > 0, "{label}: pairs rendezvoused");
        assert!(s.rpc_calls > 0, "{label}: protocol calls recorded");
    }
}

/// On a buddy-allocated machine a hold blocks the whole partition the
/// allocator charged, not the requested node count, and the live monitor
/// must say so: a 600-node job on 512-node units holds 1024 nodes.
#[test]
fn live_hold_reports_charged_nodes_on_buddy_machine() {
    let mut machine = MachineConfig::flat("Buddy", MachineId(0), 4_096);
    machine.allocator = AllocatorKind::Buddy { unit: 512 };
    let mut registry = MateRegistry::new();
    registry.insert_pair((MachineId(0), JobId(1)), (MachineId(1), JobId(1)));
    let domain = LiveDomain::new(
        Machine::new(machine),
        CoschedConfig::paper(Scheme::Hold),
        registry,
        MachineId(1),
    );
    let monitor = StreamingMonitor::new();
    domain.attach_telemetry(monitor.clone());

    /// A peer whose mate is queued and cannot start: the ready job holds.
    struct QueuedMate;
    impl Transport for QueuedMate {
        fn call(&mut self, req: &Request) -> Result<Response, ProtoError> {
            Ok(match req {
                Request::GetMateJob { .. } => Response::MateJob(Some(MateRef {
                    machine: MachineId(1),
                    job: JobId(1),
                })),
                Request::GetMateStatus { .. } => Response::MateStatus(MateStatus::Queuing),
                _ => Response::Started(false),
            })
        }
    }
    let job = Job::new(
        JobId(1),
        MachineId(0),
        SimTime::ZERO,
        600,
        SimDuration::from_secs(60),
        SimDuration::from_secs(120),
    );
    domain.submit(job, SimTime::ZERO).unwrap();
    domain.pump(SimTime::ZERO, &mut QueuedMate);
    assert_eq!(domain.held(), vec![JobId(1)]);

    let snap = monitor.snapshot();
    assert_eq!(snap.holds_placed, 1);
    assert_eq!(snap.machines[0].held_nodes, 1_024, "charged, not requested");
    assert_eq!(snap.held_node_proportion(), 1_024.0 / 4_096.0);
}
