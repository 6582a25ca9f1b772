//! Scenario builders and the per-seed run shared by the campaign, the
//! figure tables and the ablation binaries.
//!
//! Experimental design, following §V:
//!
//! * **Load sweep** (Figs. 3–6): Intrepid replays a month-like trace at its
//!   production (high, stable) load; Eureka's trace is packed to offered
//!   utilization 0.25 / 0.50 / 0.75. Jobs submitted within 2 minutes across
//!   machines are associated (yielding a mid-single-digit pair share).
//!   Each utilization × {baseline, HH, HY, YH, YY} case runs over several
//!   seeds and averages.
//! * **Proportion sweep** (Figs. 7–10): Eureka gets a workload with the
//!   same job count and span as Intrepid's, calibrated to utilization
//!   ≈ 0.5; the paired proportion is set exactly to
//!   2.5 / 5 / 10 / 20 / 33 %.

use cosched_core::{
    CoschedConfig, CoupledConfig, CoupledSimulation, SchemeCombo, SimulationReport,
};
use cosched_metrics::MachineSummary;
use cosched_sim::{SimDuration, SimRng};
use cosched_workload::{pairing, MachineId, MachineModel, Trace, TraceGenerator};

/// Intrepid's production load in the paper's period: "high and stable".
pub const INTREPID_UTIL: f64 = 0.55;

/// The Eureka system-utilization grid of Figs. 3–6.
pub const EUREKA_UTILS: [f64; 3] = [0.25, 0.50, 0.75];

/// The paired-job proportion grid of Figs. 7–10.
pub const PROPORTIONS: [f64; 5] = [0.025, 0.05, 0.10, 0.20, 0.33];

/// The 2-minute association window of §V-D.
pub const PAIR_WINDOW: SimDuration = SimDuration(120);

/// Overall paired-job share targeted by the load sweep. The paper's window
/// rule on production traces yielded 5–10 %; with synthetic Poisson
/// arrivals the raw rule over-matches, so matched pairs are thinned to the
/// middle of the published range.
pub const LOAD_SWEEP_PAIR_SHARE: f64 = 0.075;

/// Experiment scale: trace length and seed count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Trace span in days (paper: 30).
    pub days: u64,
    /// Seeds per case (paper: 10).
    pub seeds: u64,
}

impl Scale {
    /// Paper scale: one month, 10 repetitions.
    pub fn full() -> Self {
        Scale {
            days: 30,
            seeds: 10,
        }
    }

    /// Default: 10 days, 3 repetitions — same shapes, minutes not hours.
    pub fn quick() -> Self {
        Scale { days: 10, seeds: 3 }
    }

    /// CI smoke scale.
    pub fn smoke() -> Self {
        Scale { days: 3, seeds: 1 }
    }

    /// The scale named `smoke`, `quick` or `full`; `None` for any other
    /// label.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "smoke" => Some(Self::smoke()),
            "quick" => Some(Self::quick()),
            "full" => Some(Self::full()),
            _ => None,
        }
    }

    /// Read `COSCHED_SCALE`, defaulting to quick when it is unset.
    ///
    /// # Errors
    /// Names the accepted labels when the variable holds any other value.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("COSCHED_SCALE") {
            Err(std::env::VarError::NotPresent) => Ok(Self::quick()),
            Ok(label) => Self::from_label(&label)
                .ok_or_else(|| format!("COSCHED_SCALE={label} is not a scale (smoke|quick|full)")),
            Err(e) => Err(format!(
                "COSCHED_SCALE is not a scale (smoke|quick|full): {e}"
            )),
        }
    }
}

/// Build the load-sweep traces for one seed: Intrepid at production load,
/// Eureka packed to `eureka_util`, paired by the 2-minute window rule.
pub fn anl_load_traces(seed: u64, days: u64, eureka_util: f64) -> [Trace; 2] {
    let rng = SimRng::seed_from_u64(seed);
    let mut intrepid = TraceGenerator::new(MachineModel::intrepid(), MachineId(0))
        .span(SimDuration::from_days(days))
        .target_utilization(INTREPID_UTIL)
        .generate(&mut rng.fork(0));
    let mut eureka = TraceGenerator::new(MachineModel::eureka(), MachineId(1))
        .span(SimDuration::from_days(days))
        .target_utilization(eureka_util)
        .generate(&mut rng.fork(1));
    pairing::pair_by_window(&mut intrepid, &mut eureka, PAIR_WINDOW);
    pairing::thin_pairs_to_share(
        &mut intrepid,
        &mut eureka,
        LOAD_SWEEP_PAIR_SHARE,
        &mut rng.fork(2),
    );
    [intrepid, eureka]
}

/// Build the proportion-sweep traces for one seed: Eureka gets the same job
/// count and span as Intrepid at utilization ≈ 0.5 (runtime mean calibrated
/// for that), then exactly `proportion` of jobs are paired.
pub fn anl_proportion_traces(seed: u64, days: u64, proportion: f64) -> [Trace; 2] {
    let rng = SimRng::seed_from_u64(seed);
    let intrepid = TraceGenerator::new(MachineModel::intrepid(), MachineId(0))
        .span(SimDuration::from_days(days))
        .target_utilization(INTREPID_UTIL)
        .generate(&mut rng.fork(0));
    // Work per job for util 0.5 at Intrepid's job count:
    // interarrival × capacity × util / mean_size.
    let span_secs = SimDuration::from_days(days).as_secs() as f64;
    let interarrival = span_secs / intrepid.len() as f64;
    let base = MachineModel::eureka();
    let runtime_mean = interarrival * 100.0 * 0.5 / base.mean_size();
    let mut eureka = TraceGenerator::new(base.with_runtime(runtime_mean, 1.5), MachineId(1))
        .span(SimDuration::from_days(days))
        .job_count(intrepid.len())
        .generate(&mut rng.fork(1));
    let mut intrepid = intrepid;
    pairing::pair_exact_proportion(
        &mut intrepid,
        &mut eureka,
        proportion,
        PAIR_WINDOW,
        &mut rng.fork(2),
    );
    [intrepid, eureka]
}

/// Averaged outcome of one experimental case.
///
/// `PartialEq` + `Serialize` let the campaign runner's determinism
/// invariant be checked exactly: a parallel campaign must produce results
/// that are equal — and serialize byte-identically — to the 1-thread run's.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CaseResult {
    /// Intrepid's averaged summary.
    pub intrepid: MachineSummary,
    /// Eureka's averaged summary.
    pub eureka: MachineSummary,
    /// All paired jobs started simultaneously in every seed.
    pub sync_ok: bool,
    /// Any seed deadlocked.
    pub deadlocked: bool,
    /// Deadlock-breaker activations, summed over seeds.
    pub forced_releases: u64,
    /// Achieved paired proportion (of total jobs across both machines).
    pub paired_share: f64,
    /// Rendezvous paths `(anchored, direct, independent)`, summed over
    /// seeds.
    pub rendezvous: (usize, usize, usize),
}

/// The ANL configuration for `combo`; `None` is the no-coscheduling
/// baseline.
pub fn anl_config(combo: Option<SchemeCombo>) -> CoupledConfig {
    combo.map_or_else(CoupledConfig::anl_baseline, CoupledConfig::anl)
}

/// Run one configuration over one set of traces.
pub fn run_one(combo: Option<SchemeCombo>, traces: [Trace; 2]) -> SimulationReport {
    CoupledSimulation::new(anl_config(combo), traces).run()
}

/// What one seed of a case contributes to the average — the unit of work a
/// campaign worker produces. Every field is an independent function of
/// `(combo, traces)` alone, which is what makes the campaign's fan-out
/// deterministic: outcomes can be computed in any order and folded in seed
/// order, reproducing a 1-thread run bit for bit (f64 accumulation order
/// included).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SeedOutcome {
    /// Intrepid's summary for this seed.
    pub intrepid: MachineSummary,
    /// Eureka's summary for this seed.
    pub eureka: MachineSummary,
    /// All paired jobs started simultaneously.
    pub sync_ok: bool,
    /// The seed deadlocked.
    pub deadlocked: bool,
    /// Deadlock-breaker activations.
    pub forced_releases: u64,
    /// Achieved paired proportion for this seed's traces.
    pub paired_share: f64,
    /// Rendezvous paths `(anchored, direct, independent)`.
    pub rendezvous: (usize, usize, usize),
}

/// Run one seed of a case: the independent cell the campaign parallelises
/// over.
pub fn run_seed(combo: Option<SchemeCombo>, traces: [Trace; 2]) -> SeedOutcome {
    run_seed_with_report(combo, traces).0
}

/// [`run_seed`], also returning the full report the outcome was taken from
/// (event counts and the like, which the outcome does not carry).
pub fn run_seed_with_report(
    combo: Option<SchemeCombo>,
    traces: [Trace; 2],
) -> (SeedOutcome, SimulationReport) {
    let total_jobs = traces[0].len() + traces[1].len();
    let paired = traces[0].paired_count() + traces[1].paired_count();
    let paired_share = paired as f64 / total_jobs.max(1) as f64;
    let report = run_one(combo, traces);
    let outcome = SeedOutcome {
        intrepid: report.summaries[0].clone(),
        eureka: report.summaries[1].clone(),
        sync_ok: report.all_pairs_synchronized(),
        deadlocked: report.deadlocked,
        forced_releases: report.forced_releases,
        paired_share,
        rendezvous: (
            report.rendezvous.anchored,
            report.rendezvous.direct,
            report.rendezvous.independent,
        ),
    };
    (outcome, report)
}

/// Fold per-seed outcomes (in seed order) into a [`CaseResult`]. The fold
/// accumulates in slice order, so outcomes fed in seed order yield the
/// same bits whichever worker computed them.
pub fn fold_outcomes(outcomes: &[SeedOutcome]) -> CaseResult {
    assert!(!outcomes.is_empty(), "a case needs at least one seed");
    let mut intrepid = Vec::with_capacity(outcomes.len());
    let mut eureka = Vec::with_capacity(outcomes.len());
    let mut sync_ok = true;
    let mut deadlocked = false;
    let mut forced = 0;
    let mut paired_share = 0.0;
    let mut rendezvous = (0usize, 0usize, 0usize);
    for o in outcomes {
        paired_share += o.paired_share;
        sync_ok &= o.sync_ok;
        deadlocked |= o.deadlocked;
        forced += o.forced_releases;
        rendezvous.0 += o.rendezvous.0;
        rendezvous.1 += o.rendezvous.1;
        rendezvous.2 += o.rendezvous.2;
        intrepid.push(o.intrepid.clone());
        eureka.push(o.eureka.clone());
    }
    CaseResult {
        intrepid: MachineSummary::average(&intrepid),
        eureka: MachineSummary::average(&eureka),
        sync_ok,
        deadlocked,
        forced_releases: forced,
        paired_share: paired_share / outcomes.len() as f64,
        rendezvous,
    }
}

/// One sweep grid point: the x-axis value (utilization or proportion), the
/// no-coscheduling baseline, and the four scheme-combination results.
pub type SweepPoint = (f64, CaseResult, Vec<(SchemeCombo, CaseResult)>);

/// A paper-faithful ANL configuration with the coscheduling settings
/// overridden — used by the ablation harness.
pub fn anl_with(combo: SchemeCombo, edit: impl Fn(&mut CoschedConfig)) -> CoupledConfig {
    let mut cfg = CoupledConfig::anl(combo);
    for c in &mut cfg.cosched {
        edit(c);
    }
    cfg
}

/// One smoke-scale load-sweep case at Eureka utilization `util`,
/// folded from its campaign cells.
#[cfg(test)]
pub(crate) fn smoke_case(combo: Option<SchemeCombo>, util: f64) -> CaseResult {
    let scale = Scale::smoke();
    let outcomes: Vec<SeedOutcome> = (1..=scale.seeds)
        .map(|seed| {
            let cell = crate::campaign::CampaignCell {
                kind: crate::campaign::SweepKind::Load,
                x: util,
                combo,
                seed,
                days: scale.days,
            };
            cell.run()
        })
        .collect();
    fold_outcomes(&outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_labels_parse_and_unknown_ones_do_not() {
        assert_eq!(Scale::from_label("smoke"), Some(Scale::smoke()));
        assert_eq!(Scale::from_label("quick"), Some(Scale::quick()));
        assert_eq!(Scale::from_label("full"), Some(Scale::full()));
        assert_eq!(Scale::from_label("ful"), None);
        assert_eq!(Scale::from_label(""), None);
    }

    #[test]
    fn load_traces_have_expected_shape() {
        let [i, e] = anl_load_traces(1, 5, 0.5);
        assert_eq!(i.machine(), MachineId(0));
        assert_eq!(e.machine(), MachineId(1));
        assert!(i.len() > 100, "intrepid jobs {}", i.len());
        assert!((e.offered_utilization(100) - 0.5).abs() < 0.05);
        let share = (i.paired_count() + e.paired_count()) as f64 / (i.len() + e.len()) as f64;
        assert!(share > 0.01 && share < 0.4, "paired share {share}");
        pairing::validate_pairing(&i, &e).unwrap();
    }

    #[test]
    fn proportion_traces_hit_exact_proportion() {
        let [i, e] = anl_proportion_traces(2, 5, 0.20);
        assert_eq!(i.len(), e.len());
        let expect = (0.20 * i.len() as f64).round() as usize;
        assert_eq!(i.paired_count(), expect);
        assert_eq!(e.paired_count(), expect);
        // Eureka util should land near 0.5.
        let util = e.offered_utilization(100);
        assert!((util - 0.5).abs() < 0.15, "eureka util {util}");
        pairing::validate_pairing(&i, &e).unwrap();
    }

    #[test]
    fn smoke_case_runs_and_synchronizes() {
        let case = smoke_case(Some(SchemeCombo::YY), 0.5);
        assert!(case.sync_ok);
        assert!(!case.deadlocked);
        assert!(case.intrepid.jobs > 50);
    }

    #[test]
    fn baseline_case_has_no_holds() {
        let case = smoke_case(None, 0.25);
        assert_eq!(case.intrepid.total_holds, 0);
        assert_eq!(case.eureka.total_holds, 0);
        assert_eq!(case.intrepid.lost_node_hours, 0.0);
    }
}
