//! Span-layer acceptance tests: the causal span records preserve the PR-1
//! determinism invariant (same seed ⇒ byte-identical trace, traced report
//! == untraced report), every completed mate pair reconstructs a gap-free
//! critical path whose timed segments sum to the pair's total wait, and
//! the Perfetto export carries a cross-machine flow pair for every RPC
//! span that reached its remote handler.

use coupled_cosched::cosched::{CoschedConfig, CoupledConfig, CoupledSimulation, SchemeCombo};
use coupled_cosched::obs::trace::SpanKind;
use coupled_cosched::obs::{read_trace_str, write_trace_string, TraceRecord};
use coupled_cosched::prelude::*;
use coupled_cosched::sim::{SimDuration, SimRng};
use coupled_cosched::trace::{CriticalPathReport, SegmentClass, SpanTree};
use coupled_cosched::workload::{pairing, MachineModel, TraceGenerator};

/// The committed HY golden fixture's record stream.
fn fixture_records() -> Vec<TraceRecord> {
    named_fixture_records("hy_seed13.jsonl")
}

/// The record stream of committed fixture `name` under `tests/fixtures`.
fn named_fixture_records(name: &str) -> Vec<TraceRecord> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed golden fixture");
    read_trace_str(&text).expect("fixture parses cleanly")
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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

fn workload(seed: u64) -> [Trace; 2] {
    let rng = SimRng::seed_from_u64(seed);
    let model = MachineModel::eureka();
    let mut a = TraceGenerator::new(model.clone(), MachineId(0))
        .span(SimDuration::from_days(2))
        .target_utilization(0.5)
        .generate(&mut rng.fork(0));
    let mut b = TraceGenerator::new(model, MachineId(1))
        .span(SimDuration::from_days(2))
        .target_utilization(0.5)
        .generate(&mut rng.fork(1));
    pairing::pair_exact_proportion(
        &mut a,
        &mut b,
        0.2,
        SimDuration::from_mins(2),
        &mut rng.fork(2),
    );
    [a, b]
}

#[test]
fn traced_report_with_spans_equals_untraced_report() {
    // Span emission is gated on an active observer; the simulation outcome
    // must not depend on whether anyone is watching.
    let untraced = CoupledSimulation::new(config(SchemeCombo::HY), workload(13)).run();
    let arts = CoupledSimulation::with_observer(
        config(SchemeCombo::HY),
        workload(13),
        SinkObserver::new(VecSink::default()),
    )
    .run_traced();
    assert_eq!(arts.report.records, untraced.records);
    assert_eq!(arts.report.stats, untraced.stats);
    assert_eq!(arts.report.sched_stats, untraced.sched_stats);
    assert_eq!(arts.report.metrics, untraced.metrics);
    assert_eq!(arts.report.events, untraced.events);
    assert_eq!(arts.report.pair_offsets, untraced.pair_offsets);
    // And the trace did actually carry span records.
    let tree = SpanTree::from_records(&arts.observer.sink().records).unwrap();
    assert!(!tree.is_empty(), "traced run must emit spans");
}

#[test]
fn fixture_span_forest_is_well_formed() {
    let records = fixture_records();
    let tree = SpanTree::from_records(&records).expect("fixture spans are well-nested");
    assert!(tree.pair_roots().count() > 0, "fixture has mate pairs");
    // Every RPC span parents under a pair root or sweep, and every
    // RpcHandler parents under an Rpc on the *other* machine.
    for node in tree.spans() {
        if let SpanKind::RpcHandler(_) = node.kind {
            let parent = tree.get(node.parent).expect("handler has a parent");
            assert!(matches!(parent.kind, SpanKind::Rpc(_)), "{node:?}");
            assert_ne!(parent.machine, node.machine, "RPC edges cross machines");
        }
    }
}

#[test]
fn every_completed_fixture_pair_has_a_gap_free_critical_path() {
    let records = fixture_records();
    let report = CriticalPathReport::from_records(&records).unwrap();
    assert!(
        !report.pairs.is_empty(),
        "fixture must contain completed pairs"
    );
    for path in &report.pairs {
        // Gap-free chain from first submit to synchronized start…
        path.check().unwrap_or_else(|e| {
            panic!("pair ({}, {}): {e}", path.job0, path.job1);
        });
        // …whose timed segment durations sum to the pair's total wait.
        assert_eq!(
            path.timed_secs(),
            path.total_wait(),
            "pair ({}, {})",
            path.job0,
            path.job1
        );
    }
    // The HY fixture's aggregates carry the HY combo with nonzero wait.
    let hy = report.combos.iter().find(|c| c.combo == "HY");
    let total: u64 = report.combos.iter().map(|c| c.total_wait).sum();
    assert!(
        hy.is_some() || total > 0,
        "fixture aggregates must be non-trivial: {report}"
    );
    // Every pair that waited at all attributes its wait somewhere.
    for agg in &report.combos {
        let classed: u64 = agg.class_secs.iter().sum();
        assert_eq!(classed, agg.total_wait, "combo {}", agg.combo);
    }
}

/// Pins `analyze critical-path` on both committed fixtures: the rendered
/// per-combo table, and every pair's full segment chain (links included, in
/// their spliced order), each as an FNV-1a 64 digest.
#[test]
fn critical_path_output_of_both_fixtures_is_pinned() {
    let pinned = [
        (
            "hy_seed13.jsonl",
            0x7589_9538_acc1_9f54,
            0xd058_9747_f473_c92a,
        ),
        (
            "hh_sweep.jsonl",
            0x3f29_5ec0_057f_de58,
            0x2675_ac88_7de8_285f,
        ),
    ];
    for (name, rendered_fnv, pairs_fnv) in pinned {
        let report = CriticalPathReport::from_records(&named_fixture_records(name)).unwrap();
        assert!(!report.pairs.is_empty(), "{name} has completed pairs");
        let rendered = format!("{report}");
        let pairs = format!("{:?}", report.pairs);
        assert_eq!(
            (fnv1a64(rendered.as_bytes()), fnv1a64(pairs.as_bytes())),
            (rendered_fnv, pairs_fnv),
            "{name}: critical-path output moved (digests are rendered, pairs):\n{rendered}"
        );
    }
}

#[test]
fn fixture_critical_paths_thread_rpc_links() {
    let records = fixture_records();
    let report = CriticalPathReport::from_records(&records).unwrap();
    let rpc_links: usize = report
        .pairs
        .iter()
        .map(|p| p.link_count(SegmentClass::Rpc))
        .sum();
    assert!(
        rpc_links > 0,
        "rendezvous requires RPCs, so paths must carry rpc links"
    );
}

#[test]
fn perfetto_export_of_fixture_carries_flow_for_every_handled_rpc() {
    let records = fixture_records();
    let tree = SpanTree::from_records(&records).unwrap();
    let handled_rpcs = tree
        .spans()
        .filter(|n| {
            matches!(n.kind, SpanKind::Rpc(_))
                && n.children
                    .iter()
                    .filter_map(|&c| tree.get(c))
                    .any(|c| matches!(c.kind, SpanKind::RpcHandler(_)))
        })
        .count();
    assert!(handled_rpcs > 0);

    let json = coupled_cosched::trace::render_perfetto(&records).unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).expect("export is valid JSON");
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(serde_json::Value::as_str) == Some(ph))
            .count()
    };
    assert_eq!(count("s"), handled_rpcs, "one flow start per handled RPC");
    assert_eq!(count("f"), handled_rpcs, "one flow finish per handled RPC");
    // Deterministic: a second render is byte-identical.
    assert_eq!(
        coupled_cosched::trace::render_perfetto(&records).unwrap(),
        json
    );
}

#[test]
fn every_event_variant_round_trips_through_the_reader() {
    // Satellite (c): writer + reader cover the full TraceEvent surface,
    // including the span variants, at assorted times and machines.
    let samples = coupled_cosched::obs::TraceEvent::samples();
    let records: Vec<TraceRecord> = samples
        .into_iter()
        .enumerate()
        .map(|(i, event)| TraceRecord {
            time: i as u64 * 7,
            machine: i % 3,
            event,
        })
        .collect();
    let text = write_trace_string(&records);
    let back = read_trace_str(&text).expect("every variant parses back");
    assert_eq!(back, records);
    // And a second serialization is byte-stable.
    assert_eq!(write_trace_string(&back), text);
}
