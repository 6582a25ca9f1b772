//! The runs that produce the committed golden trace fixtures under
//! `tests/fixtures/`. Shared by `examples/regen_fixture.rs`, which writes
//! them, and `tests/trace_analysis.rs`, which asserts the committed files
//! match a regenerated run byte for byte.

use coupled_cosched::cosched::{CoschedConfig, CoupledConfig, CoupledSimulation, SchemeCombo};
use coupled_cosched::obs::TraceRecord;
use coupled_cosched::prelude::*;
use coupled_cosched::sim::{SimDuration, SimRng};
use coupled_cosched::workload::{pairing, MachineModel, MateRef, TraceGenerator};

/// Every golden fixture: its file name under `tests/fixtures/` and the
/// record stream that regenerates it.
pub fn fixtures() -> [(&'static str, Vec<TraceRecord>); 2] {
    [
        ("hy_seed13.jsonl", hy_seed13()),
        ("hh_sweep.jsonl", hh_sweep()),
    ]
}

fn traced(cfg: CoupledConfig, traces: [Trace; 2]) -> Vec<TraceRecord> {
    CoupledSimulation::with_observer(cfg, traces, SinkObserver::new(VecSink::default()))
        .run_traced()
        .observer
        .into_sink()
        .records
}

/// A short HY simulation over a half-day seed-13 Eureka workload.
fn hy_seed13() -> Vec<TraceRecord> {
    let rng = SimRng::seed_from_u64(13);
    let model = MachineModel::eureka();
    let mut a = TraceGenerator::new(model.clone(), MachineId(0))
        .span(SimDuration::from_hours(12))
        .target_utilization(0.4)
        .generate(&mut rng.fork(0));
    let mut b = TraceGenerator::new(model, MachineId(1))
        .span(SimDuration::from_hours(12))
        .target_utilization(0.4)
        .generate(&mut rng.fork(1));
    pairing::pair_exact_proportion(
        &mut a,
        &mut b,
        0.25,
        SimDuration::from_mins(2),
        &mut rng.fork(2),
    );
    let cfg = CoupledConfig {
        machines: [
            MachineConfig::eureka(MachineId(0)),
            MachineConfig::eureka(MachineId(1)),
        ],
        cosched: [
            CoschedConfig::paper(SchemeCombo::HY.of(0)),
            CoschedConfig::paper(SchemeCombo::HY.of(1)),
        ],
        max_events: 1_000_000,
    };
    traced(cfg, [a, b])
}

/// A hand-built HH run whose one release sweep demotes two holds.
///
/// On two 100-node machines: `a1` and `a2` (30 nodes each) hold on A at
/// t = 0 for mates `b1` and `b2`, which queue behind the full-machine `b0`
/// on B. The unpaired 60-node `a3` arrives at t = 10 and cannot fit beside
/// the 60 held nodes, so the sweep at t = 1200 releases both holds; `a3`
/// starts first, `a1` re-holds, `a2` re-holds once `a3` ends, and both
/// pairs start together when `b0` ends at t = 2000.
fn hh_sweep() -> Vec<TraceRecord> {
    let job = |m: usize, id: u64, submit: u64, size: u64, runtime: u64, mate: Option<u64>| {
        let mut job = Job::new(
            JobId(id),
            MachineId(m),
            SimTime::from_secs(submit),
            size,
            SimDuration::from_secs(runtime),
            SimDuration::from_secs(runtime * 2),
        );
        job.mate = mate.map(|k| MateRef {
            machine: MachineId(1 - m),
            job: JobId(k),
        });
        job
    };
    let a = Trace::from_jobs(
        MachineId(0),
        vec![
            job(0, 1, 0, 30, 3_000, Some(1)),
            job(0, 2, 0, 30, 3_000, Some(2)),
            job(0, 3, 10, 60, 600, None),
        ],
    );
    let b = Trace::from_jobs(
        MachineId(1),
        vec![
            job(1, 0, 0, 100, 2_000, None),
            job(1, 1, 5, 50, 3_000, Some(1)),
            job(1, 2, 5, 50, 3_000, Some(2)),
        ],
    );
    let cfg = CoupledConfig {
        machines: [
            MachineConfig::flat("A", MachineId(0), 100),
            MachineConfig::flat("B", MachineId(1), 100),
        ],
        cosched: [
            CoschedConfig::paper(Scheme::Hold).with_max_held_fraction(None),
            CoschedConfig::paper(Scheme::Hold).with_max_held_fraction(None),
        ],
        max_events: 1_000_000,
    };
    traced(cfg, [a, b])
}
