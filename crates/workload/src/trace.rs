//! Ordered job collections with workload statistics.
//!
//! A [`Trace`] is the unit the simulator replays: all jobs submitted to one
//! machine over an evaluation window, sorted by submission time. The module
//! also implements the paper's *half-synthetic* trace manipulation: scaling
//! every arrival interval by a constant factor so the packed workload hits a
//! target utilization while preserving the shape of the arrival distribution
//! (§V-D: "we multiplied a same fraction to each job arrival interval in the
//! real Eureka trace, so that the shape of job arrival distribution was the
//! same with the real trace").

use crate::job::{Job, JobId, MachineId};
use cosched_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A machine's workload: jobs sorted by `(submit, id)`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Trace {
    machine: MachineId,
    jobs: Vec<Job>,
}

impl Trace {
    /// An empty trace for `machine`.
    pub fn new(machine: MachineId) -> Self {
        Trace {
            machine,
            jobs: Vec::new(),
        }
    }

    /// Build from a job list; sorts by `(submit, id)` and verifies every job
    /// belongs to `machine` and ids are unique.
    ///
    /// # Panics
    /// Panics on a foreign `machine` field or duplicate [`JobId`].
    pub fn from_jobs(machine: MachineId, mut jobs: Vec<Job>) -> Self {
        jobs.sort_by_key(|j| (j.submit, j.id));
        let mut seen = std::collections::HashSet::with_capacity(jobs.len());
        for j in &jobs {
            assert_eq!(j.machine, machine, "job {} belongs to {}", j.id, j.machine);
            assert!(seen.insert(j.id), "duplicate job id {}", j.id);
        }
        Trace { machine, jobs }
    }

    /// The machine this trace targets.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Jobs in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Mutable access, for pairing passes. Callers must preserve submit
    /// order or call [`Trace::resort`] afterwards.
    pub fn jobs_mut(&mut self) -> &mut [Job] {
        &mut self.jobs
    }

    /// Re-establish `(submit, id)` order after in-place edits.
    pub fn resort(&mut self) {
        self.jobs.sort_by_key(|j| (j.submit, j.id));
    }

    /// Append a job (keeps order if appended in order; otherwise call
    /// [`Trace::resort`]).
    pub fn push(&mut self, job: Job) {
        debug_assert_eq!(job.machine, self.machine);
        self.jobs.push(job);
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the trace holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Look up a job by id: a linear scan, for tests and tools. Code that
    /// looks up many ids indexes the trace once instead (as
    /// [`crate::pairing::validate_pairing`] does).
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// First submission instant, if any.
    pub fn first_submit(&self) -> Option<SimTime> {
        self.jobs.first().map(|j| j.submit)
    }

    /// Last submission instant, if any.
    pub fn last_submit(&self) -> Option<SimTime> {
        self.jobs.last().map(|j| j.submit)
    }

    /// Submission span: last submit − first submit.
    pub fn span(&self) -> SimDuration {
        match (self.first_submit(), self.last_submit()) {
            (Some(a), Some(b)) => b - a,
            _ => SimDuration::ZERO,
        }
    }

    /// Total work in node-seconds.
    pub fn total_node_seconds(&self) -> u64 {
        self.jobs.iter().map(|j| j.node_seconds()).sum()
    }

    /// Offered utilization against a machine of `capacity` nodes: total work
    /// divided by `capacity × span`. This is the "system utilization rate"
    /// knob of the paper's evaluation (0.25 / 0.50 / 0.75). Returns 0 for
    /// traces whose span is zero.
    pub fn offered_utilization(&self, capacity: u64) -> f64 {
        let span = self.span().as_secs();
        if span == 0 || capacity == 0 {
            return 0.0;
        }
        self.total_node_seconds() as f64 / (capacity as f64 * span as f64)
    }

    /// Number of paired jobs (jobs carrying a mate reference).
    pub fn paired_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.is_paired()).count()
    }

    /// Fraction of jobs that are paired, in `[0, 1]`.
    pub fn paired_proportion(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.paired_count() as f64 / self.jobs.len() as f64
        }
    }

    /// Largest job size in the trace (0 if empty).
    pub fn max_size(&self) -> u64 {
        self.jobs.iter().map(|j| j.size).max().unwrap_or(0)
    }

    /// Scale every arrival interval by `factor`, anchoring the first
    /// submission in place. `factor < 1` packs the workload tighter (raising
    /// offered utilization by ≈ 1/factor); `factor > 1` spreads it out.
    ///
    /// This is exactly the paper's half-synthetic trace construction.
    ///
    /// # Panics
    /// Panics if `factor` is not finite and positive.
    pub fn scale_intervals(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bad interval scale factor {factor}"
        );
        if self.jobs.len() < 2 {
            return;
        }
        let base = self.jobs[0].submit;
        // Accumulate scaled intervals in f64 to avoid drift from per-interval
        // rounding (a month of 10k intervals would otherwise wander by hours).
        let mut prev_orig = base;
        let mut acc = 0.0_f64;
        for j in self.jobs.iter_mut().skip(1) {
            let interval = (j.submit - prev_orig).as_secs() as f64;
            prev_orig = j.submit;
            acc += interval * factor;
            j.submit = base + SimDuration::from_secs(acc.round() as u64);
        }
        // Equal original submit times stay equal, so order is preserved; the
        // resort is belt-and-braces for the id tie-break.
        self.resort();
    }

    /// Rescale arrival intervals so offered utilization against `capacity`
    /// approaches `target`. Iterates the closed-form correction a few times
    /// because the span itself moves when intervals stretch. Returns the
    /// achieved utilization.
    ///
    /// # Panics
    /// Panics if `target` is not in `(0, 1.5]` (beyond-saturation targets are
    /// almost certainly configuration errors) or the trace has < 2 jobs.
    pub fn scale_to_utilization(&mut self, capacity: u64, target: f64) -> f64 {
        assert!(
            target > 0.0 && target <= 1.5,
            "unreasonable utilization target {target}"
        );
        assert!(self.jobs.len() >= 2, "need at least two jobs to rescale");
        for _ in 0..8 {
            let current = self.offered_utilization(capacity);
            if (current - target).abs() / target < 0.005 {
                break;
            }
            // Utilization is inversely proportional to span ≈ intervals.
            self.scale_intervals(current / target);
        }
        self.offered_utilization(capacity)
    }

    /// Consume into the underlying job vector.
    pub fn into_jobs(self) -> Vec<Job> {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MateRef;

    fn mk(id: u64, submit: u64, size: u64, runtime: u64) -> Job {
        Job::new(
            JobId(id),
            MachineId(0),
            SimTime::from_secs(submit),
            size,
            SimDuration::from_secs(runtime),
            SimDuration::from_secs(runtime * 2),
        )
    }

    fn trace(jobs: Vec<Job>) -> Trace {
        Trace::from_jobs(MachineId(0), jobs)
    }

    #[test]
    fn from_jobs_sorts_by_submit_then_id() {
        let t = trace(vec![mk(2, 50, 1, 10), mk(1, 50, 1, 10), mk(3, 10, 1, 10)]);
        let ids: Vec<_> = t.jobs().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn rejects_duplicate_ids() {
        trace(vec![mk(1, 0, 1, 1), mk(1, 5, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "belongs to")]
    fn rejects_foreign_machine() {
        let mut j = mk(1, 0, 1, 1);
        j.machine = MachineId(9);
        Trace::from_jobs(MachineId(0), vec![j]);
    }

    #[test]
    fn span_and_work() {
        let t = trace(vec![mk(1, 100, 4, 50), mk(2, 400, 2, 100)]);
        assert_eq!(t.span(), SimDuration::from_secs(300));
        assert_eq!(t.total_node_seconds(), 4 * 50 + 2 * 100);
        assert_eq!(t.first_submit(), Some(SimTime::from_secs(100)));
        assert_eq!(t.last_submit(), Some(SimTime::from_secs(400)));
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::new(MachineId(0));
        assert!(t.is_empty());
        assert_eq!(t.span(), SimDuration::ZERO);
        assert_eq!(t.offered_utilization(100), 0.0);
        assert_eq!(t.paired_proportion(), 0.0);
        assert_eq!(t.max_size(), 0);
    }

    #[test]
    fn offered_utilization_formula() {
        // 2 jobs × 10 nodes × 500 s = 10_000 node-s over span 1000 s on a
        // 100-node machine → 10000 / (100 × 1000) = 0.1
        let t = trace(vec![mk(1, 0, 10, 500), mk(2, 1000, 10, 500)]);
        assert!((t.offered_utilization(100) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn scale_intervals_doubles_span() {
        let mut t = trace(vec![
            mk(1, 100, 1, 10),
            mk(2, 200, 1, 10),
            mk(3, 400, 1, 10),
        ]);
        t.scale_intervals(2.0);
        let submits: Vec<_> = t.jobs().iter().map(|j| j.submit.as_secs()).collect();
        assert_eq!(submits, vec![100, 300, 700]); // first anchored, gaps doubled
    }

    #[test]
    fn scale_intervals_preserves_simultaneous_submits() {
        let mut t = trace(vec![mk(1, 0, 1, 10), mk(2, 60, 1, 10), mk(3, 60, 1, 10)]);
        t.scale_intervals(3.0);
        assert_eq!(t.jobs()[1].submit, t.jobs()[2].submit);
    }

    #[test]
    fn scale_to_utilization_converges() {
        let jobs: Vec<Job> = (0..200).map(|i| mk(i, i * 600, 10, 300)).collect();
        let mut t = trace(jobs);
        let achieved = t.scale_to_utilization(100, 0.5);
        assert!((achieved - 0.5).abs() < 0.01, "achieved {achieved}");
        // Order preserved.
        assert!(t.jobs().windows(2).all(|w| w[0].submit <= w[1].submit));
    }

    #[test]
    fn scale_accumulates_without_drift() {
        // 10_000 intervals of 100 s scaled by 1/3: accumulated f64 rounding
        // must keep the final submit within a second of the exact value.
        let jobs: Vec<Job> = (0..10_000).map(|i| mk(i, i * 100, 1, 10)).collect();
        let mut t = trace(jobs);
        t.scale_intervals(1.0 / 3.0);
        let last = t.last_submit().unwrap().as_secs();
        let exact = (9_999.0_f64 * 100.0 / 3.0).round() as u64;
        assert!(last.abs_diff(exact) <= 1, "last {last} vs exact {exact}");
    }

    #[test]
    fn paired_accounting() {
        let mut jobs = vec![
            mk(1, 0, 1, 10),
            mk(2, 5, 1, 10),
            mk(3, 9, 1, 10),
            mk(4, 12, 1, 10),
        ];
        jobs[1].mate = Some(MateRef {
            machine: MachineId(1),
            job: JobId(7),
        });
        let t = trace(jobs);
        assert_eq!(t.paired_count(), 1);
        assert!((t.paired_proportion() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn get_and_max_size() {
        let t = trace(vec![mk(1, 0, 64, 10), mk(2, 5, 512, 10)]);
        assert_eq!(t.get(JobId(2)).unwrap().size, 512);
        assert!(t.get(JobId(99)).is_none());
        assert_eq!(t.max_size(), 512);
    }
}
