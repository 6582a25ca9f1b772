//! Live telemetry plane, end to end: the streaming monitor is a pure
//! consumer (teeing it changes neither the primary trace bytes nor the
//! report), its online aggregates agree with offline trace reconstruction,
//! alert rules fire and resolve over real runs, and the embedded HTTP
//! endpoints serve what the monitor saw.

use coupled_cosched::cosched::{CoschedConfig, CoupledConfig, CoupledSimulation, SchemeCombo};
use coupled_cosched::prelude::*;
use coupled_cosched::sim::{SimDuration, SimRng};
use coupled_cosched::telemetry::{http_get, MonitorProvider, TelemetryServer};
use coupled_cosched::workload::{pairing, MachineModel, TraceGenerator};
use std::time::Duration;

fn workload(seed: u64) -> [Trace; 2] {
    let rng = SimRng::seed_from_u64(seed);
    let model = MachineModel::eureka();
    let mut a = TraceGenerator::new(model.clone(), MachineId(0))
        .span(SimDuration::from_days(2))
        .target_utilization(0.6)
        .generate(&mut rng.fork(0));
    let mut b = TraceGenerator::new(model, MachineId(1))
        .span(SimDuration::from_days(2))
        .target_utilization(0.6)
        .generate(&mut rng.fork(1));
    pairing::pair_exact_proportion(
        &mut a,
        &mut b,
        0.15,
        SimDuration::from_mins(2),
        &mut rng.fork(2),
    );
    [a, b]
}

fn config(combo: SchemeCombo) -> CoupledConfig {
    CoupledConfig {
        machines: [
            MachineConfig::eureka(MachineId(0)),
            MachineConfig::eureka(MachineId(1)),
        ],
        cosched: [
            CoschedConfig::paper(combo.of(0)),
            CoschedConfig::paper(combo.of(1)),
        ],
        max_events: 1_000_000,
    }
}

fn capacities(cfg: &CoupledConfig) -> [u64; 2] {
    [cfg.machines[0].capacity, cfg.machines[1].capacity]
}

/// The acceptance-criterion determinism guard: attaching a streaming
/// monitor through a tee must leave the JSONL trace byte-identical and the
/// simulation report unchanged.
#[test]
fn teed_monitor_keeps_trace_and_report_identical() {
    let cfg = config(SchemeCombo::HY);

    let plain = CoupledSimulation::with_observer(
        cfg.clone(),
        workload(13),
        SinkObserver::new(JsonlSink::new(Vec::new())),
    )
    .run_traced();
    let plain_bytes = plain.observer.into_sink().into_inner();

    let caps = capacities(&cfg);
    let monitor = StreamingMonitor::with_rules(default_rules()).with_capacities(&caps);
    let teed = CoupledSimulation::with_observer(
        cfg,
        workload(13),
        TeeObserver::new(
            SinkObserver::new(JsonlSink::new(Vec::new())),
            monitor.clone(),
        ),
    )
    .run_traced();
    let teed_bytes = teed.observer.first.into_sink().into_inner();

    assert!(!plain_bytes.is_empty());
    assert_eq!(
        plain_bytes, teed_bytes,
        "teeing the monitor must not perturb the primary trace"
    );
    assert_eq!(plain.report.records, teed.report.records);
    assert_eq!(plain.report.stats, teed.report.stats);
    assert_eq!(plain.report.metrics, teed.report.metrics);
    assert_eq!(plain.report.events, teed.report.events);
    assert_eq!(plain.report.pair_offsets, teed.report.pair_offsets);

    // The monitor did consume the stream while staying invisible.
    let snap = monitor.snapshot();
    assert!(snap.events > 0);
    assert_eq!(snap.finished, snap.submitted);
}

/// Online aggregates must agree with what the offline analyzers derive
/// from the recorded trace — same stream, same answers.
#[test]
fn online_snapshot_matches_offline_reconstruction() {
    let cfg = config(SchemeCombo::HY);
    let caps = capacities(&cfg);
    let monitor = StreamingMonitor::new().with_capacities(&caps);
    let arts = CoupledSimulation::with_observer(
        cfg,
        workload(13),
        TeeObserver::new(SinkObserver::new(VecSink::default()), monitor.clone()),
    )
    .run_traced();
    let report = arts.report;
    assert!(!report.deadlocked);
    monitor.finish(report.deadlocked);
    let snap = monitor.snapshot();
    let records = arts.observer.first.into_sink().records;
    let offline = LifecycleSet::from_records(&records).expect("trace reconstructs");
    assert_eq!(snap.rejected_records, 0, "the online fold rejected records");

    // Job population and terminal states.
    assert_eq!(snap.submitted as usize, offline.jobs.len());
    let offline_finished = offline.jobs.values().filter(|j| j.end.is_some()).count();
    assert_eq!(snap.finished as usize, offline_finished);
    assert_eq!(snap.running, 0);
    assert_eq!(snap.queued, 0);
    assert_eq!(snap.held, 0);
    assert!(snap.drained());

    // Node-seconds integrated online equal Σ size × runtime offline.
    for m in 0..2 {
        let offline_node_secs: u64 = offline
            .jobs
            .values()
            .filter(|j| j.machine == m)
            .map(|j| j.size * (j.end.unwrap() - j.start.unwrap()))
            .sum();
        assert_eq!(
            snap.machines[m].used_node_seconds, offline_node_secs,
            "machine {m} node-seconds"
        );
    }

    // Protocol and scheme counters match the deterministic report.
    assert_eq!(snap.rpc_calls, report.stats.rpc_calls);
    assert_eq!(snap.rpc_timeouts, report.stats.rpc_timeouts);
    assert_eq!(snap.holds_placed, report.stats.holds);
    assert_eq!(snap.yields, report.stats.yields);
    assert_eq!(snap.forced_releases, report.forced_releases);

    // Paired jobs rendezvoused, so the latency histogram is populated.
    assert!(snap.rendezvous_latency.count > 0);
}

/// An alert rule demonstrably fires during a run and resolves once the
/// condition clears — with the transitions kept in monitor-private history,
/// never in the primary trace.
#[test]
fn alert_fires_and_resolves_over_a_real_run() {
    let cfg = config(SchemeCombo::HY);
    let caps = capacities(&cfg);
    let rule = AlertRule::parse("busy: running > 0").expect("rule parses");
    let monitor = StreamingMonitor::with_rules(vec![rule]).with_capacities(&caps);
    let arts = CoupledSimulation::with_observer(cfg, workload(13), monitor.clone()).run_traced();
    monitor.finish(arts.report.deadlocked);

    let snap = monitor.snapshot();
    assert!(snap.alerts_raised_total >= 1, "alert never fired");
    assert!(snap.alerts_resolved_total >= 1, "alert never resolved");
    assert!(
        snap.active_alerts.is_empty(),
        "drained run must end with no active alerts: {:?}",
        snap.active_alerts
    );

    let history = monitor.alert_history();
    let raised = history
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::AlertRaised { .. }))
        .count();
    let resolved = history
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::AlertResolved { .. }))
        .count();
    assert!(raised >= 1 && resolved >= 1, "{history:?}");
    // Raise precedes resolve in history order.
    let first_raise = history
        .iter()
        .position(|r| matches!(r.event, TraceEvent::AlertRaised { .. }))
        .unwrap();
    let first_resolve = history
        .iter()
        .position(|r| matches!(r.event, TraceEvent::AlertResolved { .. }))
        .unwrap();
    assert!(first_raise < first_resolve);
}

/// The embedded endpoints serve the monitor's view: Prometheus families on
/// `/metrics`, liveness on `/healthz`, and a round-trippable snapshot on
/// `/state`.
#[test]
fn telemetry_endpoints_serve_simulation_state() {
    let cfg = config(SchemeCombo::HY);
    let caps = capacities(&cfg);
    let monitor = StreamingMonitor::with_rules(default_rules()).with_capacities(&caps);
    let arts = CoupledSimulation::with_observer(cfg, workload(13), monitor.clone()).run_traced();
    monitor.finish(arts.report.deadlocked);

    let mut server =
        TelemetryServer::spawn("127.0.0.1:0", MonitorProvider::new(monitor.clone())).unwrap();
    let addr = server.addr().to_string();
    let timeout = Duration::from_secs(5);

    let (code, metrics) = http_get(&addr, "/metrics", timeout).unwrap();
    assert_eq!(code, 200);
    assert!(
        metrics.contains("# TYPE cosched_utilization gauge"),
        "{metrics}"
    );
    assert!(
        metrics.contains("cosched_held_node_proportion"),
        "{metrics}"
    );
    assert!(
        metrics.contains("cosched_rendezvous_latency_seconds_bucket"),
        "{metrics}"
    );
    assert!(
        metrics.contains("cosched_rendezvous_latency_seconds_bucket{le=\"+Inf\"}"),
        "{metrics}"
    );

    let (code, health) = http_get(&addr, "/healthz", timeout).unwrap();
    assert_eq!(code, 200);
    assert!(health.contains("\"status\":\"drained\""), "{health}");

    let (code, state) = http_get(&addr, "/state", timeout).unwrap();
    assert_eq!(code, 200);
    let roundtrip: TelemetrySnapshot = serde_json::from_str(&state).unwrap();
    assert_eq!(roundtrip, monitor.snapshot());

    server.shutdown();
}
