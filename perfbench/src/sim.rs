//! The simulation workloads. `load-sweep` runs the Figs. 3–6 cells: Eureka
//! utilization 0.25/0.50/0.75 × {baseline, HH, HY, YH, YY} × seeds, the
//! cells of the `load` campaign in `BENCH_sim.json`, where the scheduler
//! does most of the work. `pair-heavy` runs the Figs. 7–10 proportion sweep
//! at its 0.33 grid point only, where Algorithm 1 and its protocol calls
//! dominate. Every cell runs serially through `harness::run_seed`, that is
//! `CoupledSimulation::new(..).run()` on the cell's traces.

use crate::inputs::{jobs_of, trace_seeds};
use crate::reference;
use crate::report::{median, millis, run_for, Report};
use cosched_bench::harness::{run_seed, EUREKA_UTILS, PROPORTIONS};
use cosched_bench::{CampaignCell, SeedOutcome, SweepKind};
use cosched_core::{CoupledConfig, SchemeCombo};
use cosched_workload::Trace;
use std::time::{Duration, Instant};

/// Trace span of a cell in days, as in the campaign's quick scale.
const DAYS: u64 = 10;

/// The grid point `pair-heavy` runs: proportion 0.33.
const PAIR_HEAVY_GRID: [f64; 1] = [PROPORTIONS[4]];

/// A grid point's configurations in the campaign's order: the
/// no-coscheduling baseline, then the four scheme combinations.
pub const COMBOS: [Option<SchemeCombo>; 5] = [
    None,
    Some(SchemeCombo::HH),
    Some(SchemeCombo::HY),
    Some(SchemeCombo::YH),
    Some(SchemeCombo::YY),
];

/// The configuration a cell runs under.
pub fn config(combo: Option<SchemeCombo>) -> CoupledConfig {
    match combo {
        Some(c) => CoupledConfig::anl(c),
        None => CoupledConfig::anl_baseline(),
    }
}

/// A workload: the sweep whose cells a run times.
#[derive(Debug, Clone, Copy)]
pub enum Sweep {
    Load,
    PairHeavy,
}

impl Sweep {
    fn kind(self) -> SweepKind {
        match self {
            Sweep::Load => SweepKind::Load,
            Sweep::PairHeavy => SweepKind::Proportion,
        }
    }

    fn grid(self) -> &'static [f64] {
        match self {
            Sweep::Load => &EUREKA_UTILS,
            Sweep::PairHeavy => &PAIR_HEAVY_GRID,
        }
    }

    /// Trace seeds per run: enough distinct cells that a run's median and
    /// tail hold steady from one benchmark seed to the next.
    fn seeds(self) -> u64 {
        match self {
            Sweep::Load => 24,
            Sweep::PairHeavy => 64,
        }
    }

    /// The trace-building cells of a run, one per grid point and trace seed.
    pub fn trace_cells(self, seed: u64) -> Vec<CampaignCell> {
        self.grid()
            .iter()
            .flat_map(|&x| {
                trace_seeds(seed, self.seeds()).map(move |trace_seed| CampaignCell {
                    kind: self.kind(),
                    x,
                    combo: None,
                    seed: trace_seed,
                    days: DAYS,
                })
            })
            .collect()
    }
}

/// Why a cell's outcome fails its checks, if it does.
fn outcome_failure(cell: &CampaignCell, outcome: &SeedOutcome, jobs: u64) -> Option<&'static str> {
    let finished = (outcome.intrepid.jobs + outcome.eureka.jobs) as u64;
    if outcome.deadlocked {
        Some("it deadlocked")
    } else if finished != jobs {
        Some("jobs were left unfinished (the run aborted)")
    } else if cell.combo.is_some() && !outcome.sync_ok {
        Some("a pair started out of sync")
    } else {
        None
    }
}

fn describe(cell: &CampaignCell) -> String {
    let config = cell
        .combo
        .map_or_else(|| "baseline".to_string(), |c| c.label());
    format!("cell x={} {config} seed {}", cell.x, cell.seed)
}

/// One trace seed's inputs and its build times.
struct Set {
    cell: CampaignCell,
    traces: [Trace; 2],
    /// Each pass's build time in milliseconds, as measured.
    build_ms: Vec<f64>,
    /// Each pass's reference sample: the one taken after the set's cells.
    reference_at: Vec<usize>,
}

/// One cell's outcomes and times across repetitions.
#[derive(Default)]
struct Repeats {
    first: Option<String>,
    runs: u64,
    failed: u64,
    /// Each repetition's wall time in milliseconds, as measured.
    raw_ms: Vec<f64>,
}

/// Reference samples on each side of the one a set is scaled by.
const REFERENCE_WINDOW: usize = 8;

/// For each reference sample, the factor that scales the times measured
/// next to it to the reference speed: [`reference::REFERENCE_MS`] over the
/// median of the samples within [`REFERENCE_WINDOW`] of it. One sample is
/// noisy; the median of a few seconds of them follows the machine's phases.
fn reference_scales(samples: &[f64]) -> Vec<f64> {
    (0..samples.len())
        .map(|i| {
            let lo = i.saturating_sub(REFERENCE_WINDOW);
            let hi = (i + REFERENCE_WINDOW + 1).min(samples.len());
            reference::REFERENCE_MS / median(&samples[lo..hi])
        })
        .collect()
}

/// Median of `raw_ms` after scaling each by its reference sample's factor.
fn scaled_median(raw_ms: &[f64], reference_at: &[usize], scales: &[f64]) -> f64 {
    let scaled: Vec<f64> = raw_ms
        .iter()
        .zip(reference_at)
        .map(|(&ms, &at)| ms * scales[at])
        .collect();
    median(&scaled)
}

/// The untraced run: pass after pass, each trace seed's traces are built
/// again and its cells run, each checked. The reference simulation runs
/// after each trace seed's cells, and every build and cell time is scaled
/// to the reference speed by the samples around it (see `reference.rs`).
/// A build's or a cell's time is the median of its scaled repetitions.
pub fn run(sweep: Sweep, seed: u64, budget: Duration) -> Report {
    let mut sets: Vec<Set> = sweep
        .trace_cells(seed)
        .into_iter()
        .map(|cell| Set {
            cell,
            traces: cell.traces(),
            build_ms: Vec::new(),
            reference_at: Vec::new(),
        })
        .collect();
    let mut repeats: Vec<Repeats> = (0..sets.len() * COMBOS.len())
        .map(|_| Repeats::default())
        .collect();
    let mut unstable_builds = 0;
    let mut reference_ms = Vec::new();
    // Two passes at least, so that every cell repeats.
    let passes = run_for(budget, 2, || {
        let first_pass = reference_ms.is_empty();
        for (set, reps) in sets.iter_mut().zip(repeats.chunks_mut(COMBOS.len())) {
            let t0 = Instant::now();
            let traces = set.cell.traces();
            set.build_ms.push(millis(t0.elapsed()));
            if traces != set.traces {
                unstable_builds += 1;
            }
            let total = jobs_of(&set.traces);
            for (combo, rep) in COMBOS.into_iter().zip(reps.iter_mut()) {
                let cell = CampaignCell { combo, ..set.cell };
                let input = set.traces.clone();
                let t0 = Instant::now();
                let outcome = run_seed(combo, input);
                rep.raw_ms.push(millis(t0.elapsed()));
                let json = serde_json::to_string(&outcome).expect("outcomes serialize");
                let changed = rep.first.as_ref().is_some_and(|first| *first != json);
                rep.first.get_or_insert(json);
                rep.runs += 1;
                let failure = outcome_failure(&cell, &outcome, total)
                    .or(changed.then_some("its outcome changed between repetitions"));
                if let Some(why) = failure {
                    rep.failed += 1;
                    eprintln!("{} failed: {why}", describe(&cell));
                }
            }
            set.reference_at.push(reference_ms.len());
            reference_ms.push(reference::run_ms());
            // Every cell must produce exactly the campaign runner's
            // outcome; checked once, outside the timed intervals.
            if first_pass {
                for (combo, rep) in COMBOS.into_iter().zip(reps.iter_mut()) {
                    let cell = CampaignCell { combo, ..set.cell };
                    let reference = serde_json::to_string(&cell.run()).expect("outcomes serialize");
                    if rep.first.as_deref() != Some(reference.as_str()) {
                        eprintln!("{} differs from CampaignCell::run()", describe(&cell));
                        rep.failed += 1;
                    }
                }
            }
        }
    });
    let scales = reference_scales(&reference_ms);
    let mut timed = Vec::with_capacity(repeats.len());
    for (set, reps) in sets.iter().zip(repeats.chunks(COMBOS.len())) {
        for rep in reps {
            let ms = scaled_median(&rep.raw_ms, &set.reference_at, &scales);
            timed.push((jobs_of(&set.traces), ms));
        }
    }
    let jobs: u64 = timed.iter().map(|&(jobs, _)| jobs).sum();
    let raw_ms: f64 = repeats.iter().map(|rep| median(&rep.raw_ms)).sum();
    let mut out = Report::default();
    out.notes.push(format!(
        "{} cells: {} grid points x 5 configurations x {} trace seeds of {DAYS} days; {passes} passes; every build and cell timed by the median of its repetitions",
        repeats.len(),
        sweep.grid().len(),
        sweep.seeds()
    ));
    out.notes.push(format!(
        "reference simulation: median {:.3} ms, so times are scaled by {:.3} to its {} ms; unscaled, {:.0} jobs/s",
        median(&reference_ms),
        reference::REFERENCE_MS / median(&reference_ms),
        reference::REFERENCE_MS,
        jobs as f64 / (raw_ms / 1e3)
    ));
    if unstable_builds > 0 {
        out.problem(format!(
            "{unstable_builds} trace builds differed from the first build of their seed"
        ));
    }
    let setup_ms: f64 = sets
        .iter()
        .map(|set| scaled_median(&set.build_ms, &set.reference_at, &scales))
        .sum();
    out.end_to_end(setup_ms / 1e3, &timed);
    out.attempted = repeats.iter().map(|r| r.runs).sum();
    out.failed = repeats.iter().map(|r| r.failed).sum();
    out
}
