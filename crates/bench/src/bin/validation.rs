//! §V-B capability validation: every scheme combination, load, and paired
//! proportion must (1) start all pairs simultaneously and (2) never
//! deadlock with the release enhancement on. Also demonstrates that
//! hold-hold *does* deadlock with the enhancement off.
use cosched_bench::figures::{self, case_points};
use cosched_bench::{sweep, Scale, SweepKind};
use cosched_core::{CoupledSimulation, SchemeCombo};
use cosched_obs::{PhaseProfiler, SinkObserver, TeeObserver, VecSink};
use cosched_trace::{AttributionReport, CriticalPathReport, LifecycleSet};

fn main() -> Result<(), String> {
    let scale = Scale::from_env()?;
    eprintln!("running validation sweeps at {scale:?}…");
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let load = sweep(SweepKind::Load, scale, threads);
    let prop = sweep(SweepKind::Proportion, scale, threads);
    print!(
        "{}",
        figures::validation_table(
            &case_points(SweepKind::Load, &load),
            "Validation — load sweep (Eureka util.)"
        )
    );
    print!(
        "{}",
        figures::validation_table(
            &case_points(SweepKind::Proportion, &prop),
            "Validation — proportion sweep (paired share)"
        )
    );

    // Deadlock demonstration: HH without the release enhancement.
    let report = figures::hh_without_release(scale.days);
    println!();
    println!(
        "HH without release enhancement: deadlocked = {}, unfinished jobs = {:?} (paper: \"deadlocks are highly likely … when the simulation time span [is] more than 10 days\")",
        report.deadlocked, report.unfinished
    );
    // Same run with the release enhancement on, fully traced so the trace
    // analysis layer can attribute wait time afterwards (the report must be
    // identical to an untraced run), and profiled by the wall clock.
    let cfg = cosched_core::CoupledConfig::anl(SchemeCombo::HH);
    let observer = TeeObserver::new(
        SinkObserver::new(VecSink::default()),
        PhaseProfiler::default(),
    );
    let arts =
        CoupledSimulation::with_observer(cfg, figures::deadlock_traces(scale.days), observer)
            .run_traced();
    let report = &arts.report;
    println!(
        "HH with 20-minute release enhancement: deadlocked = {}, unfinished jobs = {:?}",
        report.deadlocked, report.unfinished
    );
    println!();
    let records = &arts.observer.first.sink().records;
    println!(
        "observability: {} trace records, {} rpc calls, {} release sweeps",
        records.len(),
        report.stats.rpc_calls,
        report.stats.release_sweeps,
    );
    match LifecycleSet::from_records(records) {
        Ok(set) => print!("\n{}", AttributionReport::from_lifecycles(&set)),
        Err(e) => eprintln!("trace reconstruction failed: {e}"),
    }
    match CriticalPathReport::from_records(records) {
        Ok(cp) => {
            println!("rendezvous critical paths (per scheme combo):");
            print!("{cp}");
            println!();
        }
        Err(e) => eprintln!("critical-path reconstruction failed: {e}"),
    }
    println!("wall-clock profile:");
    for ph in arts.observer.second.snapshot() {
        println!(
            "  {:<22} calls {:>8}  total {:>9}us  mean {:>7}ns  max {:>9}ns",
            ph.phase,
            ph.calls,
            ph.total_ns / 1_000,
            ph.mean_ns,
            ph.max_ns
        );
    }
    Ok(())
}
