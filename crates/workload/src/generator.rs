//! Synthetic workload models for the coupled Argonne machines.
//!
//! The paper's traces (production Intrepid and Eureka logs from 2010) are not
//! public, so we synthesise statistically similar workloads. The published
//! characteristics we calibrate against:
//!
//! * Intrepid: 40,960 nodes; job sizes 512–32,768 nodes (Blue Gene/P
//!   partition sizes, heavily skewed toward 512); a month-long trace holds
//!   9,219 jobs; load is "high and stable".
//! * Eureka: 100 nodes; job sizes 1–100; load is "low and unstable", and the
//!   evaluation repacks it to offered utilizations 0.25 / 0.50 / 0.75 by
//!   scaling arrival intervals.
//!
//! Job sizes come from an empirical discrete histogram, runtimes from a
//! log-normal (the standard parallel-workload runtime model), walltime
//! estimates from runtime times a uniform user-overestimate factor, and
//! arrivals from a Poisson process whose rate is derived from the target
//! utilization. After generation the trace is optionally re-scaled with
//! [`Trace::scale_to_utilization`], exactly like the paper's half-synthetic
//! traces, to nail the target despite clamping effects.

use crate::job::{Job, JobId, MachineId};
use crate::trace::Trace;
use cosched_sim::dist::{
    sample_clamped_u64, DiscreteWeighted, Distribution, Exponential, LogNormal,
};
use cosched_sim::{SimDuration, SimRng, SimTime};

/// Statistical description of one machine's workload.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Human-readable machine name (also used in reports).
    pub name: String,
    /// Number of schedulable nodes.
    pub nodes: u64,
    /// Job-size histogram (values are node counts).
    pub size_dist: DiscreteWeighted,
    /// Runtime distribution, seconds.
    pub runtime_dist: LogNormal,
    /// Runtime clamp, seconds.
    pub runtime_bounds: (u64, u64),
    /// Walltime = runtime × Uniform[lo, hi] overestimate factor.
    pub walltime_factor: (f64, f64),
    /// Hard cap on requested walltime, seconds.
    pub max_walltime: u64,
}

impl MachineModel {
    /// The Intrepid (Blue Gene/P) workload model. Size histogram follows the
    /// power-of-two partition sizes with mass concentrated at 512 nodes;
    /// runtime calibrated so a month at the default utilization holds
    /// roughly the paper's 9,219 jobs.
    pub fn intrepid() -> Self {
        MachineModel {
            name: "Intrepid".to_string(),
            nodes: 40_960,
            size_dist: DiscreteWeighted::new(&[
                (512.0, 40.0),
                (1_024.0, 24.0),
                (2_048.0, 14.0),
                (4_096.0, 10.0),
                (8_192.0, 7.0),
                (16_384.0, 4.0),
                (32_768.0, 1.0),
            ]),
            runtime_dist: LogNormal::from_mean_cv(3_000.0, 1.6),
            runtime_bounds: (300, 12 * 3_600),
            walltime_factor: (1.2, 3.0),
            max_walltime: 24 * 3_600,
        }
    }

    /// The Eureka (analysis cluster) workload model: 100 nodes, small jobs
    /// (the paper: sizes range 1–100), shorter runtimes.
    pub fn eureka() -> Self {
        MachineModel {
            name: "Eureka".to_string(),
            nodes: 100,
            size_dist: DiscreteWeighted::new(&[
                (1.0, 30.0),
                (2.0, 12.0),
                (4.0, 14.0),
                (8.0, 14.0),
                (16.0, 12.0),
                (32.0, 10.0),
                (64.0, 6.0),
                (100.0, 2.0),
            ]),
            runtime_dist: LogNormal::from_mean_cv(2_400.0, 1.5),
            runtime_bounds: (60, 8 * 3_600),
            walltime_factor: (1.2, 3.0),
            max_walltime: 12 * 3_600,
        }
    }

    /// Replace the runtime distribution (used by harnesses that need a
    /// specific work-per-job to hit a utilization target at a fixed job
    /// count, as in the paired-proportion experiments).
    pub fn with_runtime(mut self, mean_secs: f64, cv: f64) -> Self {
        self.runtime_dist = LogNormal::from_mean_cv(mean_secs, cv);
        self
    }

    /// Mean job size implied by the histogram, in nodes.
    pub fn mean_size(&self) -> f64 {
        self.size_dist.mean()
    }

    /// Mean runtime implied by the (unclamped) distribution, seconds.
    pub fn mean_runtime(&self) -> f64 {
        self.runtime_dist.mean()
    }

    /// Mean arrival interval (seconds) that offers `utilization` on this
    /// machine: `mean_size × mean_runtime / (nodes × utilization)`.
    pub fn interarrival_for_utilization(&self, utilization: f64) -> f64 {
        assert!(utilization > 0.0, "utilization must be positive");
        self.mean_size() * self.mean_runtime() / (self.nodes as f64 * utilization)
    }
}

/// Builder that synthesises a [`Trace`] from a [`MachineModel`].
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    model: MachineModel,
    machine: MachineId,
    span: SimDuration,
    target_utilization: Option<f64>,
    job_count: Option<usize>,
}

impl TraceGenerator {
    /// Start building a trace for `machine` using `model`. Defaults: 30-day
    /// span, utilization 0.5, arrival rate derived from utilization.
    pub fn new(model: MachineModel, machine: MachineId) -> Self {
        TraceGenerator {
            model,
            machine,
            span: SimDuration::from_days(30),
            target_utilization: Some(0.5),
            job_count: None,
        }
    }

    /// Set the submission span.
    pub fn span(mut self, span: SimDuration) -> Self {
        assert!(!span.is_zero(), "span must be positive");
        self.span = span;
        self
    }

    /// Target offered utilization; the generated trace's arrival intervals
    /// are post-scaled to hit it within 0.5 %.
    pub fn target_utilization(mut self, u: f64) -> Self {
        assert!(u > 0.0 && u <= 1.5, "unreasonable utilization target {u}");
        self.target_utilization = Some(u);
        self
    }

    /// Fix the number of jobs instead of deriving it from the utilization
    /// target (paper §V-E generates an Eureka workload "that has the same
    /// number of jobs and is within the same time span as the Intrepid
    /// trace"). Disables post-scaling so the span is preserved.
    pub fn job_count(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least two jobs");
        self.job_count = Some(n);
        self.target_utilization = None;
        self
    }

    /// Access the underlying model.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// Synthesise the trace. Deterministic in `rng`.
    pub fn generate(&self, rng: &mut SimRng) -> Trace {
        // Arrival instants. With a fixed job count we draw exactly n uniform
        // points over the span (the order statistics of a Poisson process
        // conditioned on its count — still "Poisson-shaped", but the count
        // is exact, which §V-E's same-count construction requires).
        // Otherwise, a Poisson process at the utilization-derived rate.
        let submits: Vec<u64> = match self.job_count {
            Some(n) => {
                let mut s: Vec<u64> = (0..n)
                    .map(|_| (rng.uniform() * self.span.as_secs() as f64).round() as u64)
                    .collect();
                s.sort_unstable();
                s
            }
            None => {
                let u = self.target_utilization.unwrap_or(0.5);
                let mean = self.model.interarrival_for_utilization(u).max(1.0);
                let interarrival = Exponential::new(mean);
                let mut s = Vec::new();
                let mut clock = 0.0_f64;
                loop {
                    clock += interarrival.sample(rng);
                    let submit = clock.round() as u64;
                    if submit > self.span.as_secs() {
                        break;
                    }
                    s.push(submit);
                }
                s
            }
        };
        let mut trace = self.build_jobs(submits, rng);
        if let Some(u) = self.target_utilization {
            if trace.len() >= 2 {
                // The paper's interval scaling.
                trace.scale_to_utilization(self.model.nodes, u);
            }
        }
        trace
    }

    /// Attach sizes, runtimes, and walltimes to arrival instants.
    fn build_jobs(&self, submits: Vec<u64>, rng: &mut SimRng) -> Trace {
        let m = &self.model;
        let max_size = m.size_dist.values().iter().fold(0.0f64, |a, &b| a.max(b)) as u64;
        let mut jobs = Vec::new();
        for (next_id, submit) in submits.into_iter().enumerate() {
            let next_id = next_id as u64;
            let size = sample_clamped_u64(&m.size_dist, rng, 1, max_size.min(m.nodes));
            let runtime =
                sample_clamped_u64(&m.runtime_dist, rng, m.runtime_bounds.0, m.runtime_bounds.1);
            let (flo, fhi) = m.walltime_factor;
            let factor = flo + (fhi - flo) * rng.uniform();
            let walltime = ((runtime as f64 * factor).round() as u64).min(m.max_walltime);
            jobs.push(Job::new(
                JobId(next_id),
                self.machine,
                SimTime::from_secs(submit),
                size,
                SimDuration::from_secs(runtime),
                SimDuration::from_secs(walltime),
            ));
        }
        Trace::from_jobs(self.machine, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> SimRng {
        SimRng::seed_from_u64(seed)
    }

    #[test]
    fn intrepid_sizes_stay_in_published_range() {
        let gen = TraceGenerator::new(MachineModel::intrepid(), MachineId(0))
            .span(SimDuration::from_days(7));
        let trace = gen.generate(&mut rng(1));
        assert!(!trace.is_empty());
        for j in trace.jobs() {
            assert!((512..=32_768).contains(&j.size), "size {}", j.size);
            assert!(j.walltime >= j.runtime);
        }
    }

    #[test]
    fn eureka_sizes_stay_in_published_range() {
        let gen = TraceGenerator::new(MachineModel::eureka(), MachineId(1))
            .span(SimDuration::from_days(7));
        let trace = gen.generate(&mut rng(2));
        assert!(!trace.is_empty());
        for j in trace.jobs() {
            assert!((1..=100).contains(&j.size), "size {}", j.size);
        }
    }

    #[test]
    fn hits_utilization_targets() {
        for &target in &[0.25, 0.5, 0.75] {
            let gen = TraceGenerator::new(MachineModel::eureka(), MachineId(1))
                .span(SimDuration::from_days(30))
                .target_utilization(target);
            let trace = gen.generate(&mut rng(3));
            let got = trace.offered_utilization(100);
            assert!(
                (got - target).abs() / target < 0.02,
                "target {target}, got {got}"
            );
        }
    }

    #[test]
    fn month_of_intrepid_is_thousands_of_jobs() {
        // The paper's month trace holds 9,219 jobs; our calibration should
        // land in the same order of magnitude at high utilization.
        let gen = TraceGenerator::new(MachineModel::intrepid(), MachineId(0))
            .span(SimDuration::from_days(30))
            .target_utilization(0.68);
        let trace = gen.generate(&mut rng(4));
        assert!(
            (4_000..=20_000).contains(&trace.len()),
            "job count {}",
            trace.len()
        );
    }

    #[test]
    fn job_count_mode_fixes_count_and_span() {
        let gen = TraceGenerator::new(MachineModel::eureka(), MachineId(1))
            .span(SimDuration::from_days(30))
            .job_count(500);
        let trace = gen.generate(&mut rng(5));
        assert_eq!(trace.len(), 500, "job-count mode is exact");
        assert!(trace.last_submit().unwrap().as_secs() <= SimDuration::from_days(30).as_secs());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = TraceGenerator::new(MachineModel::eureka(), MachineId(1))
            .span(SimDuration::from_days(3));
        let a = gen.generate(&mut rng(7));
        let b = gen.generate(&mut rng(7));
        assert_eq!(a, b);
        let c = gen.generate(&mut rng(8));
        assert_ne!(a, c);
    }

    #[test]
    fn interarrival_formula() {
        let m = MachineModel::eureka();
        let ia = m.interarrival_for_utilization(0.5);
        let expect = m.mean_size() * m.mean_runtime() / (100.0 * 0.5);
        assert!((ia - expect).abs() < 1e-9);
    }

    #[test]
    fn with_runtime_overrides_distribution() {
        let m = MachineModel::eureka().with_runtime(100.0, 0.1);
        assert!((m.mean_runtime() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn runtimes_respect_bounds() {
        let model = MachineModel::eureka();
        let (lo, hi) = model.runtime_bounds;
        let gen = TraceGenerator::new(model, MachineId(1)).span(SimDuration::from_days(10));
        let trace = gen.generate(&mut rng(9));
        for j in trace.jobs() {
            let r = j.runtime.as_secs();
            assert!((lo..=hi).contains(&r), "runtime {r}");
        }
    }
}
