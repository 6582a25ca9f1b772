//! Parallel simulation campaign runner.
//!
//! Every paper figure (Figs. 3–10) is a sweep of (scheme combo × grid
//! point × seed) cases, and each *cell* of that grid is an independent
//! simulation — it owns its RNG seed, its traces, and its machines, and
//! shares nothing with any other cell. The campaign exploits exactly that:
//! cells are enumerated in a fixed **submission order**, fanned out over a
//! pool of scoped worker threads (each claims the next cell index from one
//! shared counter), and their outcomes are reassembled by submission index
//! before folding.
//!
//! [`sweep_cells`] is the repository's only definition of a sweep: the
//! figure tables and the validation binary (through [`sweep`]), `bench
//! campaign` and the campaign goldens all run these cells, and
//! [`assemble_points`] is the only fold into [`SweepPoint`]s.
//!
//! # Determinism invariant
//!
//! A campaign on N workers is **byte-identical** to the 1-thread run. Two
//! things make this hold, and both are load-bearing:
//!
//! * each cell's [`SeedOutcome`] is a pure function of `(combo, traces)` —
//!   no shared mutable state, no wall-clock input;
//! * [`fold_outcomes`] accumulates floats in seed order, and the campaign
//!   always folds outcomes in submission order regardless of completion
//!   order.
//!
//! The invariant is pinned by a tier-1 integration test
//! (`tests/campaign.rs`) comparing serialized bytes of 1-thread and
//! 4-thread sweeps.

use crate::harness::{
    anl_config, anl_load_traces, anl_proportion_traces, fold_outcomes, run_seed, Scale,
    SeedOutcome, SweepPoint, EUREKA_UTILS, PROPORTIONS,
};
use cosched_core::{CoupledSimulation, SchemeCombo};
use cosched_obs::{PhaseProfiler, PhaseSnapshot};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Which sweep a campaign covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// Eureka-utilization load sweep (Figs. 3–6).
    Load,
    /// Paired-proportion sweep (Figs. 7–10).
    Proportion,
}

impl SweepKind {
    /// The sweep's x-axis grid.
    pub fn grid(self) -> &'static [f64] {
        match self {
            SweepKind::Load => &EUREKA_UTILS,
            SweepKind::Proportion => &PROPORTIONS,
        }
    }

    /// Stable machine-readable name.
    pub fn label(self) -> &'static str {
        match self {
            SweepKind::Load => "load",
            SweepKind::Proportion => "prop",
        }
    }

    /// How a grid point reads in a table's case column: a utilization as
    /// `0.25`, a proportion as `2.5%`.
    pub fn case_label(self, x: f64) -> String {
        match self {
            SweepKind::Load => format!("{x:.2}"),
            SweepKind::Proportion => format!("{:.1}%", x * 100.0),
        }
    }
}

/// One independent unit of campaign work: a `(grid point, combo, seed)`
/// triple, self-describing enough to build its traces and run.
#[derive(Debug, Clone, Copy)]
pub struct CampaignCell {
    /// Which sweep the cell belongs to.
    pub kind: SweepKind,
    /// Grid-point value (Eureka utilization or paired proportion).
    pub x: f64,
    /// Scheme combination; `None` is the no-coscheduling baseline.
    pub combo: Option<SchemeCombo>,
    /// Trace seed (1-based).
    pub seed: u64,
    /// Trace span in days.
    pub days: u64,
}

impl CampaignCell {
    /// Build this cell's traces.
    pub fn traces(&self) -> [cosched_workload::Trace; 2] {
        match self.kind {
            SweepKind::Load => anl_load_traces(self.seed, self.days, self.x),
            SweepKind::Proportion => anl_proportion_traces(self.seed, self.days, self.x),
        }
    }

    /// Run the cell to its outcome.
    pub fn run(&self) -> SeedOutcome {
        run_seed(self.combo, self.traces())
    }
}

/// Enumerate a sweep's cells in submission order: for each grid point, the
/// baseline then the four combos (the order [`SchemeCombo::ALL`] lists
/// them), each across all seeds — the order [`assemble_points`] folds.
pub fn sweep_cells(kind: SweepKind, scale: Scale) -> Vec<CampaignCell> {
    let mut cells = Vec::new();
    for &x in kind.grid() {
        let combos = std::iter::once(None).chain(SchemeCombo::ALL.iter().copied().map(Some));
        for combo in combos {
            for seed in 0..scale.seeds {
                cells.push(CampaignCell {
                    kind,
                    x,
                    combo,
                    seed: seed + 1,
                    days: scale.days,
                });
            }
        }
    }
    cells
}

/// Run `cells` on a pool of `threads` workers, returning outcomes in
/// submission order.
///
/// Each scoped worker claims the next unclaimed cell index from one shared
/// counter until none are left, and returns its `(index, outcome)` pairs
/// when it joins; the pairs are then sorted back into submission order.
///
/// # Panics
/// Panics if any worker panics (a cell failure is a simulation bug, not a
/// recoverable condition) or if `threads` is zero.
pub fn run_cells(cells: &[CampaignCell], threads: usize) -> Vec<SeedOutcome> {
    assert!(threads > 0, "campaign needs at least one worker");
    if threads == 1 || cells.len() <= 1 {
        // The serial reference path: no pool, same fold order.
        return cells.iter().map(CampaignCell::run).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, SeedOutcome)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.min(cells.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else {
                            return done;
                        };
                        done.push((i, cell.run()));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("campaign worker panicked"))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Fold submission-ordered outcomes back into sweep points. Consumes the
/// outcomes in the same nested order [`sweep_cells`] emitted them.
pub fn assemble_points(kind: SweepKind, scale: Scale, outcomes: &[SeedOutcome]) -> Vec<SweepPoint> {
    let seeds = scale.seeds as usize;
    assert_eq!(
        outcomes.len(),
        kind.grid().len() * (1 + SchemeCombo::ALL.len()) * seeds,
        "outcome count must match the sweep grid"
    );
    let mut chunks = outcomes.chunks_exact(seeds);
    kind.grid()
        .iter()
        .map(|&x| {
            let base = fold_outcomes(chunks.next().expect("sized above"));
            let combos = SchemeCombo::ALL
                .iter()
                .map(|&c| (c, fold_outcomes(chunks.next().expect("sized above"))))
                .collect();
            (x, base, combos)
        })
        .collect()
}

/// Run every cell of a sweep on `threads` workers and fold them into its
/// grid points. The points are the same at any worker count.
pub fn sweep(kind: SweepKind, scale: Scale, threads: usize) -> Vec<SweepPoint> {
    let cells = sweep_cells(kind, scale);
    assemble_points(kind, scale, &run_cells(&cells, threads))
}

/// One timed execution of the cell set at a given worker count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignTiming {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock for the whole cell set, seconds.
    pub wall_clock_secs: f64,
    /// Throughput in cells per second.
    pub cells_per_sec: f64,
    /// Serial (1-thread) wall-clock divided by this run's.
    pub speedup_vs_serial: f64,
}

/// Machine-readable benchmark record of one campaign — the unit committed
/// to `BENCH_sim.json` so later changes have a perf trajectory to regress
/// against.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Sweep name (`"load"` / `"prop"`).
    pub sweep: String,
    /// Trace span in days.
    pub days: u64,
    /// Seeds per case.
    pub seeds: u64,
    /// Total cells in the campaign.
    pub cells: usize,
    /// Wall-clock timings, serial first.
    pub timings: Vec<CampaignTiming>,
    /// Every parallel run's outcomes equalled the serial run's.
    pub deterministic: bool,
    /// Wall-clock phase profile (scheduler iteration, release sweep, RPC)
    /// of the sweep's first hold-hold cell run under a `PhaseProfiler` —
    /// the serial hot-path breakdown parallelism cannot hide.
    pub phase_profile: Vec<PhaseSnapshot>,
}

/// Run a campaign once untimed, then at 1 thread (the reference) and at
/// each requested worker count, timing each timed pass, verifying parallel
/// outcomes equal serial ones, and profiling the first hold-hold cell.
pub fn bench_campaign(kind: SweepKind, scale: Scale, thread_counts: &[usize]) -> CampaignReport {
    let cells = sweep_cells(kind, scale);
    // One untimed pass first, so the serial timing is not the only one
    // paying for cold caches and page faults.
    run_cells(&cells, 1);
    let started = Instant::now();
    let serial = run_cells(&cells, 1);
    let serial_secs = started.elapsed().as_secs_f64();
    let mut timings = vec![CampaignTiming {
        threads: 1,
        wall_clock_secs: serial_secs,
        cells_per_sec: cells.len() as f64 / serial_secs.max(1e-9),
        speedup_vs_serial: 1.0,
    }];
    let mut deterministic = true;
    for &threads in thread_counts {
        if threads <= 1 {
            continue;
        }
        let started = Instant::now();
        let parallel = run_cells(&cells, threads);
        let secs = started.elapsed().as_secs_f64();
        deterministic &= parallel == serial;
        timings.push(CampaignTiming {
            threads,
            wall_clock_secs: secs,
            cells_per_sec: cells.len() as f64 / secs.max(1e-9),
            speedup_vs_serial: serial_secs / secs.max(1e-9),
        });
    }
    CampaignReport {
        sweep: kind.label().to_string(),
        days: scale.days,
        seeds: scale.seeds,
        cells: cells.len(),
        timings,
        deterministic,
        phase_profile: phase_profile_of(first_hh_cell(&cells)),
    }
}

/// Compare a freshly measured campaign against a committed baseline.
///
/// Hard failures:
/// * the current run was **not deterministic** (a parallel pass diverged
///   from serial) — never tolerated, whatever the timing;
/// * the sweeps are not comparable (different sweep name or cell count);
/// * either report lacks a serial (1-thread) timing;
/// * the serial wall-clock regressed beyond `tolerance` × baseline.
///
/// On success returns the serial wall-clock ratio (current / baseline) for
/// reporting. Wall-clock is compared with a generous tolerance because CI
/// hosts are noisy and heterogeneous; determinism is compared exactly.
pub fn check_campaign(
    baseline: &CampaignReport,
    current: &CampaignReport,
    tolerance: f64,
) -> Result<f64, String> {
    if !current.deterministic {
        return Err(format!(
            "campaign {}: parallel outcomes diverged from serial (determinism regression)",
            current.sweep
        ));
    }
    if baseline.sweep != current.sweep {
        return Err(format!(
            "sweep mismatch: baseline is {:?}, current is {:?}",
            baseline.sweep, current.sweep
        ));
    }
    if baseline.cells != current.cells {
        return Err(format!(
            "campaign {}: cell count changed ({} baseline vs {} current) — \
             regenerate the baseline at this scale",
            current.sweep, baseline.cells, current.cells
        ));
    }
    let serial_secs = |r: &CampaignReport| {
        r.timings
            .iter()
            .find(|t| t.threads == 1)
            .map(|t| t.wall_clock_secs)
            .ok_or_else(|| format!("campaign {}: no serial (1-thread) timing", r.sweep))
    };
    let base = serial_secs(baseline)?;
    let cur = serial_secs(current)?;
    let ratio = cur / base.max(1e-9);
    if ratio > tolerance {
        return Err(format!(
            "campaign {}: serial wall-clock regressed {ratio:.2}x over baseline \
             ({cur:.2}s vs {base:.2}s, tolerance {tolerance:.1}x)",
            current.sweep
        ));
    }
    Ok(ratio)
}

/// The sweep's first hold-hold cell: coscheduled, so its profile has the
/// `rpc-call` and `release-sweep` phases a baseline cell never reaches.
fn first_hh_cell(cells: &[CampaignCell]) -> &CampaignCell {
    cells
        .iter()
        .find(|c| c.combo == Some(SchemeCombo::HH))
        .expect("every sweep grid point has HH cells")
}

/// Wall-clock phase profile of one cell, run under the profiler.
fn phase_profile_of(cell: &CampaignCell) -> Vec<PhaseSnapshot> {
    let profiler = PhaseProfiler::default();
    CoupledSimulation::with_observer(anl_config(cell.combo), cell.traces(), profiler)
        .run_traced()
        .observer
        .snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale { days: 2, seeds: 2 }
    }

    #[test]
    fn cells_enumerate_in_serial_sweep_order() {
        let cells = sweep_cells(SweepKind::Load, tiny());
        assert_eq!(cells.len(), EUREKA_UTILS.len() * 5 * 2);
        // First grid point: baseline seeds 1..=2, then HH seeds 1..=2.
        assert_eq!(cells[0].x, EUREKA_UTILS[0]);
        assert_eq!(cells[0].combo, None);
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[1].seed, 2);
        assert_eq!(cells[2].combo, Some(SchemeCombo::HH));
        // Last cell: last grid point, YY, last seed.
        let last = cells.last().unwrap();
        assert_eq!(last.x, *EUREKA_UTILS.last().unwrap());
        assert_eq!(last.combo, Some(SchemeCombo::YY));
        assert_eq!(last.seed, 2);
    }

    #[test]
    fn parallel_outcomes_equal_serial() {
        // Small real slices of the proportion sweep, 1 vs N workers: an even
        // and an uneven split, and more workers than cells.
        let all = sweep_cells(SweepKind::Proportion, tiny());
        for (len, threads) in [(6, 3), (5, 3), (6, 8)] {
            let cells = &all[..len];
            let serial = run_cells(cells, 1);
            let parallel = run_cells(cells, threads);
            assert_eq!(
                serial, parallel,
                "fan-out of {len} cells on {threads} workers must not change outcomes"
            );
        }
    }

    #[test]
    fn phase_profile_covers_the_coscheduling_phases() {
        let report = bench_campaign(SweepKind::Load, Scale { days: 2, seeds: 1 }, &[1]);
        let phases: Vec<&str> = report
            .phase_profile
            .iter()
            .map(|p| p.phase.as_str())
            .collect();
        assert!(phases.contains(&"rpc-call"), "{phases:?}");
    }

    #[test]
    fn assemble_points_matches_grid_shape() {
        let scale = tiny();
        let cells = sweep_cells(SweepKind::Load, scale);
        // Synthesize outcomes cheaply: run only the first cell and clone it
        // into every slot (assembly only cares about order and shape).
        let one = cells[0].run();
        let outcomes = vec![one; cells.len()];
        let points = assemble_points(SweepKind::Load, scale, &outcomes);
        assert_eq!(points.len(), EUREKA_UTILS.len());
        for (x, _base, combos) in &points {
            assert!(EUREKA_UTILS.contains(x));
            assert_eq!(combos.len(), SchemeCombo::ALL.len());
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let cells = sweep_cells(SweepKind::Load, tiny());
        let _ = run_cells(&cells, 0);
    }

    fn report(sweep: &str, cells: usize, serial_secs: f64, deterministic: bool) -> CampaignReport {
        CampaignReport {
            sweep: sweep.to_string(),
            days: 2,
            seeds: 2,
            cells,
            timings: vec![CampaignTiming {
                threads: 1,
                wall_clock_secs: serial_secs,
                cells_per_sec: cells as f64 / serial_secs.max(1e-9),
                speedup_vs_serial: 1.0,
            }],
            deterministic,
            phase_profile: Vec::new(),
        }
    }

    #[test]
    fn check_passes_within_tolerance_and_reports_ratio() {
        let base = report("load", 10, 2.0, true);
        let cur = report("load", 10, 4.0, true);
        let ratio = check_campaign(&base, &cur, 3.0).unwrap();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn check_fails_on_wall_clock_regression() {
        let base = report("load", 10, 1.0, true);
        let cur = report("load", 10, 5.0, true);
        let err = check_campaign(&base, &cur, 3.0).unwrap_err();
        assert!(err.contains("regressed 5.00x"), "{err}");
    }

    #[test]
    fn check_hard_fails_on_determinism_even_when_fast() {
        let base = report("load", 10, 2.0, true);
        let cur = report("load", 10, 0.5, false);
        let err = check_campaign(&base, &cur, 3.0).unwrap_err();
        assert!(err.contains("determinism regression"), "{err}");
    }

    #[test]
    fn check_rejects_incomparable_reports() {
        let base = report("load", 10, 2.0, true);
        let err = check_campaign(&base, &report("prop", 10, 2.0, true), 3.0).unwrap_err();
        assert!(err.contains("sweep mismatch"), "{err}");
        let err = check_campaign(&base, &report("load", 20, 2.0, true), 3.0).unwrap_err();
        assert!(err.contains("cell count changed"), "{err}");
    }

    #[test]
    fn campaign_report_roundtrips_through_json() {
        let base = report("load", 10, 2.0, true);
        let json = serde_json::to_string(&base).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.sweep, "load");
        assert_eq!(back.cells, 10);
        assert_eq!(back.timings.len(), 1);
        assert!(back.deterministic);
    }
}
