//! Workload inputs: which trace seeds a run uses, and the `workload`
//! layer's split of trace building into generation and pairing.

use crate::report::{nanos, ratio, Report};
use cosched_bench::harness::{INTREPID_UTIL, LOAD_SWEEP_PAIR_SHARE, PAIR_WINDOW};
use cosched_bench::{CampaignCell, SweepKind};
use cosched_sim::{SimDuration, SimRng};
use cosched_workload::{pairing, MachineId, MachineModel, Trace, TraceGenerator};
use std::time::Instant;

/// The trace seeds of a run: `per_run` consecutive seeds after
/// `seed × per_run`. Two benchmark seeds never share traces, and
/// `--seed 0` uses the campaign's own seeds 1, 2, ….
pub fn trace_seeds(seed: u64, per_run: u64) -> impl Iterator<Item = u64> {
    let first = seed.saturating_mul(per_run);
    (1..=per_run).map(move |k| first.saturating_add(k))
}

/// Jobs in a pair of traces.
pub fn jobs_of(traces: &[Trace; 2]) -> u64 {
    traces.iter().map(|t| t.len() as u64).sum()
}

/// Generation and pairing totals over the trace sets of a traced run.
///
/// The harness builders generate and pair in one call. [`Self::build`]
/// repeats their steps with a stamp between the two stages and checks the
/// result against the builder's, so the split times exactly the inputs the
/// end-to-end run uses.
#[derive(Debug, Default)]
pub struct WorkloadLayer {
    generate_ns: f64,
    pair_ns: f64,
    jobs: u64,
    paired: u64,
    sets: u64,
    mismatches: u64,
}

impl WorkloadLayer {
    /// Build `cell`'s traces stage by stage, timing each stage.
    pub fn build(&mut self, cell: &CampaignCell) -> [Trace; 2] {
        let rng = SimRng::seed_from_u64(cell.seed);
        let span = SimDuration::from_days(cell.days);
        let t0 = Instant::now();
        let mut intrepid = TraceGenerator::new(MachineModel::intrepid(), MachineId(0))
            .span(span)
            .target_utilization(INTREPID_UTIL)
            .generate(&mut rng.fork(0));
        let eureka = match cell.kind {
            SweepKind::Load => TraceGenerator::new(MachineModel::eureka(), MachineId(1))
                .span(span)
                .target_utilization(cell.x),
            SweepKind::Proportion => {
                // Intrepid's job count and span, calibrated to utilization 0.5.
                let interarrival = span.as_secs() as f64 / intrepid.len() as f64;
                let base = MachineModel::eureka();
                let runtime_mean = interarrival * 100.0 * 0.5 / base.mean_size();
                TraceGenerator::new(base.with_runtime(runtime_mean, 1.5), MachineId(1))
                    .span(span)
                    .job_count(intrepid.len())
            }
        };
        let mut eureka = eureka.generate(&mut rng.fork(1));
        let t1 = Instant::now();
        match cell.kind {
            SweepKind::Load => {
                pairing::pair_by_window(&mut intrepid, &mut eureka, PAIR_WINDOW);
                pairing::thin_pairs_to_share(
                    &mut intrepid,
                    &mut eureka,
                    LOAD_SWEEP_PAIR_SHARE,
                    &mut rng.fork(2),
                );
            }
            SweepKind::Proportion => {
                pairing::pair_exact_proportion(
                    &mut intrepid,
                    &mut eureka,
                    cell.x,
                    PAIR_WINDOW,
                    &mut rng.fork(2),
                );
            }
        }
        let t2 = Instant::now();
        let traces = [intrepid, eureka];
        self.mismatches += u64::from(traces != cell.traces());
        self.generate_ns += nanos(t1 - t0);
        self.pair_ns += nanos(t2 - t1);
        self.jobs += jobs_of(&traces);
        self.paired += traces.iter().map(|t| t.paired_count() as u64).sum::<u64>();
        self.sets += 1;
        traces
    }

    pub fn emit(&self, out: &mut Report) {
        let jobs = self.jobs as f64;
        out.set(
            "workload.generate_ns_per_job",
            ratio(self.generate_ns, jobs),
        );
        out.set("workload.pair_ns_per_job", ratio(self.pair_ns, jobs));
        out.set("workload.jobs", ratio(jobs, self.sets as f64));
        out.set("workload.paired_share", ratio(self.paired as f64, jobs));
        if self.mismatches > 0 {
            out.problem(format!(
                "{} staged trace builds differ from the harness builders",
                self.mismatches
            ));
        }
    }
}
