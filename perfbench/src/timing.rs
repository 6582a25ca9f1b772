//! The timing observer and the per-layer split of one simulated cell.
//!
//! [`LayerTimer`] reaches the simulator through its public
//! `CoupledSimulation::with_observer`, like any other observer. It reads
//! `Instant::now()` at four kinds of event: scheduler iteration start and
//! end, RPC span open and close, release-sweep span open and close, and so
//! at the last event of the run. Event dispatch is whatever those intervals
//! leave uncovered, so every nanosecond of a traced cell lands in exactly
//! one layer.

use crate::inputs::jobs_of;
use crate::report::{nanos, ratio, Report};
use cosched_core::{CoupledConfig, CoupledSimulation, SimulationReport};
use cosched_metrics::MachineSummary;
use cosched_obs::trace::RpcKind;
use cosched_obs::{Observer, SpanKind, TraceEvent};
use cosched_sched::SchedStats;
use cosched_sim::SimTime;
use cosched_workload::Trace;
use std::time::Instant;

/// Request kinds in the order [`LayerTimer::rpc_calls`] counts them, with
/// the per-layer metric each count feeds.
const RPC_KINDS: [(RpcKind, &str); 6] = [
    (RpcKind::GetMateJob, "core.rpc_calls.get_mate_job"),
    (RpcKind::GetMateStatus, "core.rpc_calls.get_mate_status"),
    (RpcKind::TryStartMate, "core.rpc_calls.try_start_mate"),
    (RpcKind::StartJob, "core.rpc_calls.start_job"),
    (RpcKind::CanStart, "core.rpc_calls.can_start"),
    (RpcKind::Ping, "core.rpc_calls.ping"),
];

/// Wall-clock stamps at layer boundaries. A pure consumer: it only reads
/// the events it is handed.
#[derive(Debug, Default)]
pub struct LayerTimer {
    iteration: Option<Instant>,
    /// RPC time inside the open iteration.
    iteration_rpc_ns: u64,
    rpc: Option<(u64, RpcKind, Instant)>,
    sweep: Option<(u64, Instant)>,
    last: Option<Instant>,
    /// Wall time inside scheduler iterations, their RPCs included.
    pub iteration_ns: u64,
    pub iterations: u64,
    /// Wall time inside RPC spans.
    pub rpc_ns: u64,
    /// Completed RPCs, indexed like [`RPC_KINDS`].
    pub rpc_calls: [u64; 6],
    /// Wall time inside release-sweep spans.
    pub sweep_ns: u64,
    pub sweeps: u64,
    /// Intervals that broke the nesting the split relies on: an RPC outside
    /// an iteration or inside another RPC, overlapping iterations, a sweep
    /// overlapping an iteration, or an iteration shorter than its RPCs.
    pub nesting_errors: u64,
}

impl LayerTimer {
    /// When the last stamped event happened: the end of the event loop.
    pub fn last_event(&self) -> Option<Instant> {
        self.last
    }

    fn stamp(&mut self) -> Instant {
        let now = Instant::now();
        self.last = Some(now);
        now
    }
}

impl Observer for LayerTimer {
    fn active(&self) -> bool {
        true
    }

    fn record(&mut self, _time: u64, _machine: usize, event: TraceEvent) {
        match event {
            TraceEvent::SchedIterationStart { .. } => {
                let now = self.stamp();
                let overlaps = self.iteration.replace(now).is_some() || self.sweep.is_some();
                self.nesting_errors += u64::from(overlaps);
                self.iteration_rpc_ns = 0;
            }
            TraceEvent::SchedIterationEnd { .. } => {
                let now = self.stamp();
                let Some(start) = self.iteration.take() else {
                    self.nesting_errors += 1;
                    return;
                };
                let ns = ns_between(start, now);
                self.nesting_errors += u64::from(self.rpc.is_some() || self.iteration_rpc_ns > ns);
                self.iteration_ns += ns;
                self.iterations += 1;
            }
            TraceEvent::SpanOpen {
                span,
                kind: SpanKind::Rpc(kind),
                ..
            } => {
                let now = self.stamp();
                let nested = self.iteration.is_some();
                let overlaps = self.rpc.replace((span, kind, now)).is_some();
                self.nesting_errors += u64::from(!nested || overlaps);
            }
            TraceEvent::SpanOpen {
                span,
                kind: SpanKind::ReleaseSweep,
                ..
            } => {
                let now = self.stamp();
                let overlaps =
                    self.sweep.replace((span, now)).is_some() || self.iteration.is_some();
                self.nesting_errors += u64::from(overlaps);
            }
            TraceEvent::SpanClose { span } => {
                if let Some((_, kind, start)) = self.rpc.filter(|&(id, ..)| id == span) {
                    self.rpc = None;
                    let ns = ns_between(start, self.stamp());
                    self.rpc_ns += ns;
                    self.iteration_rpc_ns += ns;
                    let index = RPC_KINDS
                        .iter()
                        .position(|&(k, _)| k == kind)
                        .expect("RPC_KINDS lists every request kind");
                    self.rpc_calls[index] += 1;
                } else if let Some((_, start)) = self.sweep.filter(|&(id, _)| id == span) {
                    self.sweep = None;
                    self.sweep_ns += ns_between(start, self.stamp());
                    self.sweeps += 1;
                }
            }
            _ => {}
        }
    }
}

fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX)
}

/// Why a finished cell fails its checks, if it does.
pub fn cell_failure(coscheduled: bool, report: &SimulationReport) -> Option<&'static str> {
    if report.deadlocked {
        Some("it deadlocked")
    } else if report.aborted {
        Some("it hit the event limit")
    } else if coscheduled && !report.all_pairs_synchronized() {
        Some("a pair started out of sync")
    } else {
        None
    }
}

/// Whether two runs of one cell reached the same outcome, field by field
/// (the report has no `PartialEq`).
pub fn same_outcome(a: &SimulationReport, b: &SimulationReport) -> bool {
    a.records == b.records
        && a.summaries == b.summaries
        && a.horizon == b.horizon
        && a.deadlocked == b.deadlocked
        && a.aborted == b.aborted
        && a.unfinished == b.unfinished
        && a.forced_releases == b.forced_releases
        && a.pair_offsets == b.pair_offsets
        && a.rendezvous == b.rendezvous
        && a.events == b.events
        && a.queue_high_water == b.queue_high_water
        && a.events_cancelled == b.events_cancelled
        && a.stats == b.stats
        && a.sched_stats == b.sched_stats
        && a.metrics == b.metrics
}

/// `metrics` layer: both machines' summaries rebuilt from the cell's records.
fn rebuild_summaries(config: &CoupledConfig, report: &SimulationReport) -> [MachineSummary; 2] {
    [0, 1].map(|m| {
        let held_node_seconds = (report.summaries[m].lost_node_hours * 3_600.0).round() as u64;
        MachineSummary::from_records(
            config.machines[m].name.clone(),
            &report.records[m],
            config.machines[m].capacity,
            report.horizon.max(SimTime::from_secs(1)),
            held_node_seconds,
        )
    })
}

/// Per-layer totals over every simulated cell of a traced run.
#[derive(Debug, Default)]
pub struct SimLayers {
    cells: u64,
    failed: u64,
    jobs: u64,
    untraced_ns: f64,
    traced_ns: f64,
    new_ns: f64,
    dispatch_ns: f64,
    iteration_ns: f64,
    rpc_ns: f64,
    sweep_ns: f64,
    report_ns: f64,
    summary_ns: f64,
    iterations: u64,
    rpc_calls: [u64; 6],
    sweeps: u64,
    holds: u64,
    yields: u64,
    forced_releases: u64,
    synced_pairs: u64,
    picks: u64,
    backfill_hits: u64,
    alloc_fail_fragmentation: u64,
    events: u64,
    events_cancelled: u64,
    queue_high_water: u64,
    problems: Vec<&'static str>,
}

impl SimLayers {
    /// Simulate one cell untraced, then under a [`LayerTimer`], and fold
    /// the traced run's layer split into the totals.
    pub fn cell(&mut self, config: &CoupledConfig, traces: &[Trace; 2]) {
        let (cfg, input) = (config.clone(), traces.clone());
        let t0 = Instant::now();
        let untraced = CoupledSimulation::new(cfg, input).run();
        self.untraced_ns += nanos(t0.elapsed());

        let (cfg, input) = (config.clone(), traces.clone());
        let t_new = Instant::now();
        let sim = CoupledSimulation::with_observer(cfg, input, LayerTimer::default());
        let t_run = Instant::now();
        let artifacts = sim.run_traced();
        let t_end = Instant::now();
        let (report, timer) = (artifacts.report, artifacts.observer);
        let loop_end = timer.last_event().unwrap_or(t_run);

        let t_summary = Instant::now();
        let summaries = rebuild_summaries(config, &report);
        self.summary_ns += nanos(t_summary.elapsed());

        let coscheduled = config.cosched.iter().any(|c| c.enabled);
        if let Some(why) = cell_failure(coscheduled, &report) {
            self.failed += 1;
            eprintln!("traced cell failed: {why}");
        }
        self.check(&report, &untraced, &timer, &summaries);

        self.cells += 1;
        self.jobs += jobs_of(traces);
        self.traced_ns += nanos(t_end - t_new);
        self.new_ns += nanos(t_run - t_new);
        self.dispatch_ns += nanos(loop_end - t_run) - (timer.iteration_ns + timer.sweep_ns) as f64;
        self.report_ns += nanos(t_end - loop_end);
        self.iteration_ns += timer.iteration_ns as f64;
        self.rpc_ns += timer.rpc_ns as f64;
        self.sweep_ns += timer.sweep_ns as f64;
        self.iterations += timer.iterations;
        for (total, calls) in self.rpc_calls.iter_mut().zip(timer.rpc_calls) {
            *total += calls;
        }
        self.sweeps += timer.sweeps;
        self.holds += report.stats.holds;
        self.yields += report.stats.yields;
        self.forced_releases += report.forced_releases;
        if coscheduled {
            self.synced_pairs += report.pair_offsets.iter().filter(|d| d.is_zero()).count() as u64;
        }
        let sched = |stat: fn(&SchedStats) -> u64| report.sched_stats.iter().map(stat).sum::<u64>();
        self.picks += sched(|s| s.picks);
        self.backfill_hits += sched(|s| s.backfill_hits);
        self.alloc_fail_fragmentation += sched(|s| s.alloc_fail_fragmentation);
        self.events += report.events;
        self.events_cancelled += report.events_cancelled;
        self.queue_high_water += report.queue_high_water as u64;
    }

    fn check(
        &mut self,
        traced: &SimulationReport,
        untraced: &SimulationReport,
        timer: &LayerTimer,
        summaries: &[MachineSummary; 2],
    ) {
        let iterations: u64 = traced.sched_stats.iter().map(|s| s.iterations).sum();
        let calls: u64 = timer.rpc_calls.iter().sum();
        let checks = [
            (
                same_outcome(traced, untraced),
                "the traced report differs from the untraced one",
            ),
            (timer.nesting_errors == 0, "layer intervals did not nest"),
            (
                timer.iterations == iterations
                    && calls == traced.stats.rpc_calls
                    && timer.sweeps == traced.stats.release_sweeps,
                "the timing observer's counts differ from the report's",
            ),
            (
                *summaries == traced.summaries,
                "MachineSummary::from_records rebuilt different summaries",
            ),
        ];
        for (ok, problem) in checks {
            if !ok && !self.problems.contains(&problem) {
                self.problems.push(problem);
            }
        }
    }

    /// What the timing observer costs: (traced − untraced) / untraced.
    pub fn overhead(&self) -> f64 {
        ratio(self.traced_ns, self.untraced_ns) - 1.0
    }

    /// Write the `core`, `sched`, `sim` and `metrics` rows.
    pub fn emit(&self, out: &mut Report) {
        let cells = self.cells as f64;
        let per_cell = |count: u64| ratio(count as f64, cells);
        let calls: u64 = self.rpc_calls.iter().sum();
        let iteration_self_ns = self.iteration_ns - self.rpc_ns;
        out.attempted += self.cells;
        out.failed += self.failed;
        out.set("core.new_ns", ratio(self.new_ns, cells));
        out.set("core.rpc_ns_per_call", ratio(self.rpc_ns, calls as f64));
        out.set("core.rpc_calls", per_cell(calls));
        for (&(_, name), &count) in RPC_KINDS.iter().zip(&self.rpc_calls) {
            out.set(name, per_cell(count));
        }
        out.set(
            "core.rpc_calls_per_job",
            ratio(calls as f64, self.jobs as f64),
        );
        out.set(
            "core.release_sweep_ns",
            ratio(self.sweep_ns, self.sweeps as f64),
        );
        out.set("core.release_sweeps", per_cell(self.sweeps));
        out.set("core.holds", per_cell(self.holds));
        out.set("core.yields", per_cell(self.yields));
        out.set("core.forced_releases", per_cell(self.forced_releases));
        out.set(
            "core.pairs_synced_per_rpc",
            ratio(self.synced_pairs as f64, calls as f64),
        );
        out.set("core.report_ns", ratio(self.report_ns, cells));
        out.set(
            "sched.iteration_self_ns",
            ratio(iteration_self_ns, self.iterations as f64),
        );
        out.set(
            "sched.iteration_share",
            ratio(iteration_self_ns, self.traced_ns),
        );
        out.set("sched.iterations", per_cell(self.iterations));
        out.set("sched.picks", per_cell(self.picks));
        out.set("sched.backfill_hits", per_cell(self.backfill_hits));
        out.set(
            "sched.alloc_fail_fragmentation",
            per_cell(self.alloc_fail_fragmentation),
        );
        out.set(
            "sim.dispatch_ns_per_event",
            ratio(self.dispatch_ns, self.events as f64),
        );
        out.set("sim.events", per_cell(self.events));
        out.set("sim.events_cancelled", per_cell(self.events_cancelled));
        out.set("sim.queue_high_water", per_cell(self.queue_high_water));
        out.set("metrics.summary_ns", ratio(self.summary_ns, cells));
        for problem in &self.problems {
            out.problem(problem.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosched_bench::harness::anl_proportion_traces;
    use cosched_core::SchemeCombo;

    /// A small hold-hold cell at 33 % pairs, so RPCs, holds and release
    /// sweeps all occur.
    fn small_cell() -> (CoupledConfig, [Trace; 2]) {
        (
            CoupledConfig::anl(SchemeCombo::HH),
            anl_proportion_traces(3, 2, 0.33),
        )
    }

    #[test]
    fn stamped_intervals_nest() {
        let (config, traces) = small_cell();
        let timer = CoupledSimulation::with_observer(config, traces, LayerTimer::default())
            .run_traced()
            .observer;
        assert_eq!(
            timer.nesting_errors, 0,
            "RPCs nest in iterations, nothing overlaps"
        );
        assert!(timer.iterations > 0);
        assert!(
            timer.rpc_calls.iter().sum::<u64>() > 0,
            "a coscheduled cell issues RPCs"
        );
        assert!(
            timer.rpc_ns <= timer.iteration_ns,
            "iteration self time is never negative"
        );
        assert!(timer.last_event().is_some());
    }

    #[test]
    fn traced_report_equals_untraced() {
        let (config, traces) = small_cell();
        let untraced = CoupledSimulation::new(config.clone(), traces.clone()).run();
        let traced = CoupledSimulation::with_observer(config, traces, LayerTimer::default())
            .run_traced()
            .report;
        assert!(same_outcome(&traced, &untraced));
    }

    #[test]
    fn cell_split_passes_its_checks() {
        let (config, traces) = small_cell();
        let mut layers = SimLayers::default();
        layers.cell(&config, &traces);
        assert!(layers.problems.is_empty(), "{:?}", layers.problems);
        assert_eq!((layers.cells, layers.failed), (1, 0));
        assert!(layers.dispatch_ns > 0.0, "event dispatch takes time");
    }
}
