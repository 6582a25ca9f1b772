//! Determinism guarantees: identical inputs produce byte-identical outputs,
//! the foundation of the harness's seed-paired (common-random-numbers)
//! comparisons between baseline and coscheduled runs.

use coupled_cosched::cosched::{CoschedConfig, CoupledConfig, CoupledSimulation, SchemeCombo};
use coupled_cosched::prelude::*;
use coupled_cosched::sim::{SimDuration, SimRng};
use coupled_cosched::workload::{pairing, MachineModel, TraceGenerator};

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

#[test]
fn trace_generation_is_reproducible() {
    assert_eq!(workload(11), workload(11));
    assert_ne!(workload(11), workload(12));
}

#[test]
fn simulation_reports_are_identical_across_runs() {
    for combo in SchemeCombo::ALL {
        let r1 = CoupledSimulation::new(config(combo), workload(13)).run();
        let r2 = CoupledSimulation::new(config(combo), workload(13)).run();
        assert_eq!(r1.records, r2.records, "{}", combo.label());
        assert_eq!(r1.events, r2.events, "{}", combo.label());
        assert_eq!(r1.pair_offsets, r2.pair_offsets, "{}", combo.label());
        assert_eq!(r1.forced_releases, r2.forced_releases, "{}", combo.label());
        assert_eq!(r1.horizon, r2.horizon, "{}", combo.label());
    }
}

#[test]
fn traces_are_byte_identical_across_runs() {
    // The observability tentpole's invariant, end to end: two same-seed runs
    // with a JSONL sink write byte-identical trace streams, and the report
    // matches an untraced (no-op observer) run exactly.
    let traced = || {
        let sink = JsonlSink::new(Vec::new());
        let arts = CoupledSimulation::with_observer(
            config(SchemeCombo::HY),
            workload(13),
            SinkObserver::new(sink),
        )
        .run_traced();
        let bytes = arts.observer.into_sink().into_inner();
        (arts.report, bytes)
    };
    let (r1, bytes1) = traced();
    let (r2, bytes2) = traced();
    assert!(!bytes1.is_empty());
    assert_eq!(
        bytes1, bytes2,
        "same seed must write byte-identical JSONL traces"
    );

    let untraced = CoupledSimulation::new(config(SchemeCombo::HY), workload(13)).run();
    assert_eq!(r1.records, untraced.records);
    assert_eq!(r1.stats, untraced.stats);
    assert_eq!(r1.sched_stats, untraced.sched_stats);
    assert_eq!(r1.metrics, untraced.metrics);
    assert_eq!(r2.events, untraced.events);

    // Every line is a self-describing JSON record with nondecreasing time.
    let text = String::from_utf8(bytes1).unwrap();
    let mut last = 0u64;
    for line in text.lines() {
        let rec: serde_json::Value = serde_json::from_str(line).unwrap();
        let t = rec["time"].as_u64().unwrap();
        assert!(t >= last, "trace times must be nondecreasing");
        last = t;
    }
}

#[test]
fn metrics_snapshots_are_identical_across_runs() {
    for combo in SchemeCombo::ALL {
        let r1 = CoupledSimulation::new(config(combo), workload(17)).run();
        let r2 = CoupledSimulation::new(config(combo), workload(17)).run();
        assert_eq!(r1.metrics, r2.metrics, "{}", combo.label());
        assert_eq!(r1.stats, r2.stats, "{}", combo.label());
        assert_eq!(
            r1.queue_high_water,
            r2.queue_high_water,
            "{}",
            combo.label()
        );
    }
}

#[test]
fn seeds_change_outcomes() {
    let r1 = CoupledSimulation::new(config(SchemeCombo::HY), workload(14)).run();
    let r2 = CoupledSimulation::new(config(SchemeCombo::HY), workload(15)).run();
    assert_ne!(r1.records, r2.records);
}

#[test]
fn baseline_is_independent_of_scheme_configuration() {
    // With coscheduling disabled, the configured scheme must not matter.
    let mut cfg_h = config(SchemeCombo::HH);
    cfg_h.cosched = [CoschedConfig::disabled(), CoschedConfig::disabled()];
    let mut cfg_y = config(SchemeCombo::YY);
    cfg_y.cosched = [CoschedConfig::disabled(), CoschedConfig::disabled()];
    let r1 = CoupledSimulation::new(cfg_h, workload(16)).run();
    let r2 = CoupledSimulation::new(cfg_y, workload(16)).run();
    assert_eq!(r1.records, r2.records);
}

#[test]
fn rng_forks_are_stream_independent() {
    // Consuming one substream must not change another — the property that
    // lets the harness add consumers without perturbing existing draws.
    let root = SimRng::seed_from_u64(99);
    let mut probe1 = root.fork(5);
    let first: Vec<u64> = (0..8).map(|_| probe1.next_u64()).collect();
    // Interleave heavy use of other forks.
    for s in 0..64 {
        let mut other = root.fork(s + 100);
        for _ in 0..100 {
            other.next_u64();
        }
    }
    let mut probe2 = root.fork(5);
    let second: Vec<u64> = (0..8).map(|_| probe2.next_u64()).collect();
    assert_eq!(first, second);
}
