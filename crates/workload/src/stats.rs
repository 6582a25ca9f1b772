//! Workload characterization: the summary statistics used to sanity-check
//! synthetic traces against published machine descriptions (and to inspect
//! real SWF logs before plugging them in).

use crate::trace::Trace;
use cosched_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Five-number-ish summary of a sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleSummary {
    /// Sample size.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl SampleSummary {
    /// Summarise a sample; all-zero for an empty one.
    pub fn of(mut xs: Vec<f64>) -> Self {
        if xs.is_empty() {
            return SampleSummary {
                count: 0,
                min: 0.0,
                mean: 0.0,
                median: 0.0,
                p95: 0.0,
                max: 0.0,
            };
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in workload stats"));
        let count = xs.len();
        let mean = xs.iter().sum::<f64>() / count as f64;
        let q = |p: f64| {
            let pos = p * (count - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                xs[lo]
            } else {
                xs[lo] * (hi as f64 - pos) + xs[hi] * (pos - lo as f64)
            }
        };
        SampleSummary {
            count,
            min: xs[0],
            mean,
            median: q(0.5),
            p95: q(0.95),
            max: xs[count - 1],
        }
    }
}

/// Characterization of one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of jobs.
    pub jobs: usize,
    /// Span of submissions, seconds.
    pub span_secs: u64,
    /// Job sizes (nodes).
    pub sizes: SampleSummary,
    /// Runtimes (seconds).
    pub runtimes: SampleSummary,
    /// Requested walltimes (seconds).
    pub walltimes: SampleSummary,
    /// Walltime / runtime overestimation factors.
    pub overestimate: SampleSummary,
    /// Interarrival gaps (seconds).
    pub interarrivals: SampleSummary,
    /// Jobs submitted per hour-of-day bucket (UTC-like, from t=0), length 24.
    pub hourly_arrivals: Vec<usize>,
    /// Fraction of jobs carrying a mate reference.
    pub paired_fraction: f64,
}

/// Compute [`TraceStats`] for a trace.
pub fn trace_stats(trace: &Trace) -> TraceStats {
    let jobs = trace.jobs();
    let sizes = SampleSummary::of(jobs.iter().map(|j| j.size as f64).collect());
    let runtimes = SampleSummary::of(jobs.iter().map(|j| j.runtime.as_secs() as f64).collect());
    let walltimes = SampleSummary::of(jobs.iter().map(|j| j.walltime.as_secs() as f64).collect());
    let overestimate = SampleSummary::of(
        jobs.iter()
            .map(|j| j.walltime.as_secs() as f64 / j.runtime.as_secs().max(1) as f64)
            .collect(),
    );
    let interarrivals = SampleSummary::of(
        jobs.windows(2)
            .map(|w| (w[1].submit - w[0].submit).as_secs() as f64)
            .collect(),
    );
    let mut hourly = vec![0usize; 24];
    for j in jobs {
        let hour = (j.submit.as_secs() / 3_600) % 24;
        hourly[hour as usize] += 1;
    }
    TraceStats {
        jobs: jobs.len(),
        span_secs: trace.span().as_secs(),
        sizes,
        runtimes,
        walltimes,
        overestimate,
        interarrivals,
        hourly_arrivals: hourly,
        paired_fraction: trace.paired_proportion(),
    }
}

/// Offered load per day (node-seconds demanded by jobs submitted that day),
/// a quick stability check across the trace span.
pub fn daily_offered_node_seconds(trace: &Trace) -> Vec<u64> {
    let Some(last) = trace.last_submit() else {
        return Vec::new();
    };
    let days = (last.as_secs() / 86_400 + 1) as usize;
    let mut out = vec![0u64; days];
    for j in trace.jobs() {
        out[(j.submit.as_secs() / 86_400) as usize] += j.node_seconds();
    }
    out
}

/// Mean absolute deviation of daily offered load relative to its mean —
/// 0 for perfectly even load, larger for burstier traces.
pub fn daily_load_unevenness(trace: &Trace) -> f64 {
    let daily = daily_offered_node_seconds(trace);
    if daily.is_empty() {
        return 0.0;
    }
    let mean = daily.iter().sum::<u64>() as f64 / daily.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    daily.iter().map(|&d| (d as f64 - mean).abs()).sum::<f64>() / daily.len() as f64 / mean
}

/// Human-readable rendering of [`TraceStats`].
pub fn render_stats(name: &str, s: &TraceStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let dur = |secs: f64| SimDuration::from_secs(secs.round() as u64).to_string();
    let _ = writeln!(
        out,
        "{name}: {} jobs over {}",
        s.jobs,
        SimDuration::from_secs(s.span_secs)
    );
    let _ = writeln!(
        out,
        "  sizes (nodes):  min {:.0}  mean {:.1}  median {:.0}  p95 {:.0}  max {:.0}",
        s.sizes.min, s.sizes.mean, s.sizes.median, s.sizes.p95, s.sizes.max
    );
    let _ = writeln!(
        out,
        "  runtimes:       min {}  mean {}  median {}  p95 {}  max {}",
        dur(s.runtimes.min),
        dur(s.runtimes.mean),
        dur(s.runtimes.median),
        dur(s.runtimes.p95),
        dur(s.runtimes.max)
    );
    let _ = writeln!(
        out,
        "  walltime overestimate: mean {:.2}×  median {:.2}×  p95 {:.2}×",
        s.overestimate.mean, s.overestimate.median, s.overestimate.p95
    );
    let _ = writeln!(
        out,
        "  interarrival:   mean {}  median {}",
        dur(s.interarrivals.mean),
        dur(s.interarrivals.median)
    );
    let _ = writeln!(out, "  paired fraction: {:.1}%", s.paired_fraction * 100.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobId, MachineId};
    use cosched_sim::SimTime;

    fn mk(id: u64, submit: u64, size: u64, runtime: u64, walltime: u64) -> Job {
        Job::new(
            JobId(id),
            MachineId(0),
            SimTime::from_secs(submit),
            size,
            SimDuration::from_secs(runtime),
            SimDuration::from_secs(walltime),
        )
    }

    fn trace(jobs: Vec<Job>) -> Trace {
        Trace::from_jobs(MachineId(0), jobs)
    }

    #[test]
    fn sample_summary_known_values() {
        let s = SampleSummary::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn sample_summary_empty_is_zero() {
        let s = SampleSummary::of(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn trace_stats_basics() {
        let t = trace(vec![
            mk(1, 0, 10, 600, 1_200),
            mk(2, 3_600, 20, 600, 600),
            mk(3, 7_200, 30, 1_200, 2_400),
        ]);
        let s = trace_stats(&t);
        assert_eq!(s.jobs, 3);
        assert_eq!(s.span_secs, 7_200);
        assert_eq!(s.sizes.mean, 20.0);
        assert_eq!(s.interarrivals.mean, 3_600.0);
        assert_eq!(s.hourly_arrivals[0], 1);
        assert_eq!(s.hourly_arrivals[1], 1);
        assert_eq!(s.hourly_arrivals[2], 1);
        assert_eq!(s.paired_fraction, 0.0);
        // Overestimate: 2.0, 1.0, 2.0 → mean 5/3.
        assert!((s.overestimate.mean - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn daily_load_profile() {
        let t = trace(vec![
            mk(1, 0, 10, 3_600, 3_600),          // day 0: 36_000
            mk(2, 86_400 + 5, 20, 3_600, 3_600), // day 1: 72_000
        ]);
        assert_eq!(daily_offered_node_seconds(&t), vec![36_000, 72_000]);
        let unevenness = daily_load_unevenness(&t);
        assert!((unevenness - (18_000.0 / 54_000.0)).abs() < 1e-12);
    }

    #[test]
    fn unevenness_zero_for_flat_load() {
        let t = trace(vec![
            mk(1, 0, 10, 3_600, 3_600),
            mk(2, 86_400, 10, 3_600, 3_600),
        ]);
        assert_eq!(daily_load_unevenness(&t), 0.0);
    }

    #[test]
    fn render_contains_key_lines() {
        let t = trace(vec![mk(1, 0, 10, 600, 1_200), mk(2, 60, 10, 600, 1_200)]);
        let out = render_stats("Test", &trace_stats(&t));
        assert!(out.contains("Test: 2 jobs"));
        assert!(out.contains("sizes (nodes)"));
        assert!(out.contains("paired fraction: 0.0%"));
    }

    #[test]
    fn generated_traces_match_published_shape() {
        use crate::generator::{MachineModel, TraceGenerator};
        use cosched_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(1);
        let t = TraceGenerator::new(MachineModel::intrepid(), MachineId(0))
            .span(SimDuration::from_days(7))
            .target_utilization(0.55)
            .generate(&mut rng);
        let s = trace_stats(&t);
        assert!(s.sizes.min >= 512.0);
        assert!(s.sizes.max <= 32_768.0);
        assert!(s.overestimate.mean > 1.0 && s.overestimate.mean < 3.5);
        // Poisson arrivals: daily load unevenness stays moderate.
        assert!(
            daily_load_unevenness(&t) < 0.5,
            "unevenness {}",
            daily_load_unevenness(&t)
        );
    }
}
