//! Experiment harnesses reproducing the paper's evaluation (§V).
//!
//! Every figure is read from one pipeline: [`campaign`] enumerates a
//! sweep's (grid point × combo × seed) cells, runs them on a worker pool
//! and folds them into sweep points, and [`figures`] turns those points
//! into the tables that `cosched figures` prints. The scenario builders
//! live in [`harness`]. The `validation`, `ablate`, `cohorts` and
//! `compare_reservation` binaries in `src/bin/` cover §V-B and the
//! design studies; Criterion benches (in `benches/`) measure the
//! simulator's own performance and the cost of design alternatives.
//!
//! Scale control: the full paper-scale runs (one month, 10 seeds per case)
//! take minutes; pass `--scale full` to `cosched figures`, or set
//! `COSCHED_SCALE=full` for the binaries. The default `quick` scale (10
//! days, 3 seeds) preserves every qualitative shape the paper reports;
//! `smoke` (3 days, 1 seed) is for CI.

pub mod campaign;
pub mod figures;
pub mod harness;

pub use campaign::{
    bench_campaign, check_campaign, sweep, CampaignCell, CampaignReport, CampaignTiming, SweepKind,
};
pub use harness::{CaseResult, Scale, SeedOutcome};
