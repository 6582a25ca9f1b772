//! Trace-analysis acceptance tests: the differ proves determinism (two
//! same-seed runs diff to zero for every job), attribution localizes hold
//! time to hold-side machines, and the committed golden fixture round-trips
//! byte-identically through the reader, reconstructor, and writer.

use coupled_cosched::cosched::{CoschedConfig, CoupledConfig, CoupledSimulation, SchemeCombo};
use coupled_cosched::obs::{read_trace_str, write_trace_string, TraceRecord};
use coupled_cosched::prelude::*;
use coupled_cosched::sim::{SimDuration, SimRng};
use coupled_cosched::trace::SchemeGuess;
use coupled_cosched::workload::{pairing, MachineModel, TraceGenerator};

#[path = "support/golden.rs"]
mod golden;

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

/// Run one traced simulation and return its full record stream.
fn traced_records(combo: SchemeCombo, seed: u64) -> Vec<TraceRecord> {
    let arts = CoupledSimulation::with_observer(
        config(combo),
        workload(seed),
        SinkObserver::new(VecSink::default()),
    )
    .run_traced();
    arts.observer.into_sink().records
}

#[test]
fn same_seed_traces_diff_to_zero_for_every_job() {
    let a = LifecycleSet::from_records(&traced_records(SchemeCombo::HY, 13)).unwrap();
    let b = LifecycleSet::from_records(&traced_records(SchemeCombo::HY, 13)).unwrap();
    let diff = DiffReport::compare(&a, &b);
    assert_eq!((diff.only_in_a, diff.only_in_b), (0, 0));
    assert_eq!(
        diff.compared, diff.unchanged,
        "every job delta must be zero"
    );
    assert!(diff.is_identical(), "{diff}");
    assert_eq!(diff.max_abs_wait_delta, 0);
    assert_eq!(diff.max_abs_start_skew, 0);
}

#[test]
fn different_seeds_do_not_diff_to_zero() {
    // Guard against a differ that vacuously reports "identical".
    let a = LifecycleSet::from_records(&traced_records(SchemeCombo::HY, 13)).unwrap();
    let b = LifecycleSet::from_records(&traced_records(SchemeCombo::HY, 14)).unwrap();
    assert!(!DiffReport::compare(&a, &b).is_identical());
}

#[test]
fn hold_time_attribution_localizes_to_hold_side_machines() {
    // HH: both machines hold, so each may accumulate hold time. YY: neither
    // ever holds, so hold-time attribution must be exactly zero everywhere.
    let hh = LifecycleSet::from_records(&traced_records(SchemeCombo::HH, 13)).unwrap();
    let yy = LifecycleSet::from_records(&traced_records(SchemeCombo::YY, 13)).unwrap();
    let hh_rep = AttributionReport::from_lifecycles(&hh);
    let yy_rep = AttributionReport::from_lifecycles(&yy);

    assert_eq!(hh_rep.scheme_label(), "HH");
    assert_eq!(yy_rep.scheme_label(), "YY");
    let hh_hold: u64 = hh_rep.machines.iter().map(|m| m.hold_secs).sum();
    assert!(hh_hold > 0, "HH run must accumulate hold time");
    for m in &yy_rep.machines {
        assert_eq!(m.scheme, SchemeGuess::Yield, "machine {}", m.machine);
        assert_eq!(
            m.hold_secs, 0,
            "yield-side machine {} must attribute zero hold time",
            m.machine
        );
        assert!(m.yields > 0, "machine {}", m.machine);
    }

    // Mixed combo: hold time only on the hold side.
    let hy = LifecycleSet::from_records(&traced_records(SchemeCombo::HY, 13)).unwrap();
    let hy_rep = AttributionReport::from_lifecycles(&hy);
    assert_eq!(hy_rep.scheme_label(), "HY");
    assert_eq!(hy_rep.machine(1).unwrap().hold_secs, 0);
}

#[test]
fn golden_fixture_round_trips_byte_identically() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/hy_seed13.jsonl"
    );
    let text = std::fs::read_to_string(path).expect("committed golden fixture");
    let records = read_trace_str(&text).expect("fixture parses cleanly");
    assert!(!records.is_empty());

    // Reconstruction must accept the committed stream without complaint…
    let set = LifecycleSet::from_records(&records).expect("fixture is a consistent lifecycle");
    assert!(set.jobs.values().any(|j| j.paired));
    assert!(set.jobs.values().all(|j| j.start.is_some()));

    // …and re-serialization must reproduce the file byte for byte.
    assert_eq!(
        write_trace_string(&records),
        text,
        "reader + writer must round-trip the golden trace exactly"
    );
}

#[test]
fn golden_fixture_matches_regenerated_trace() {
    // Each fixture was produced by a committed run (`tests/support/
    // golden.rs`); regenerating must reproduce it, pinning workload
    // determinism, the on-disk trace schema, and — for `hh_sweep.jsonl` —
    // the event order inside a release sweep. Regenerate with `cargo run
    // --example regen_fixture` (or see tests/fixtures/README.md) after
    // intentional schema changes.
    for (name, records) in golden::fixtures() {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("committed golden fixture");
        assert_eq!(
            write_trace_string(&records),
            text,
            "regenerated trace diverged from the committed golden fixture {name}"
        );
    }
}
