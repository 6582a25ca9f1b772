//! What a run prints, and the helpers every workload shares: the metric
//! catalogues (names, units, order), order statistics over operation
//! times, the process's peak memory, and the measurement loop.
//! The last printed line is the JSON object the benchmark contract asks for.

use std::time::{Duration, Instant};

/// End-to-end metrics with their units. An untraced run reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with their units. A traced run reports each one.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_ns_per_job", "ns/job"),
    ("workload.pair_ns_per_job", "ns/job"),
    ("workload.jobs", "jobs/set"),
    ("workload.paired_share", "ratio"),
    ("core.new_ns", "ns/cell"),
    ("core.rpc_ns_per_call", "ns/call"),
    ("core.rpc_calls", "calls/cell"),
    ("core.rpc_calls.get_mate_job", "calls/cell"),
    ("core.rpc_calls.get_mate_status", "calls/cell"),
    ("core.rpc_calls.try_start_mate", "calls/cell"),
    ("core.rpc_calls.start_job", "calls/cell"),
    ("core.rpc_calls.can_start", "calls/cell"),
    ("core.rpc_calls.ping", "calls/cell"),
    ("core.rpc_calls_per_job", "calls/job"),
    ("core.release_sweep_ns", "ns/sweep"),
    ("core.release_sweeps", "sweeps/cell"),
    ("core.holds", "holds/cell"),
    ("core.yields", "yields/cell"),
    ("core.forced_releases", "count/cell"),
    ("core.pairs_synced_per_rpc", "pairs/call"),
    ("core.report_ns", "ns/cell"),
    ("sched.iteration_self_ns", "ns/iteration"),
    ("sched.iteration_share", "ratio"),
    ("sched.iterations", "count/cell"),
    ("sched.picks", "count/cell"),
    ("sched.backfill_hits", "count/cell"),
    ("sched.alloc_fail_fragmentation", "count/cell"),
    ("sim.dispatch_ns_per_event", "ns/event"),
    ("sim.events", "events/cell"),
    ("sim.events_cancelled", "events/cell"),
    ("sim.queue_high_water", "events"),
    ("metrics.summary_ns", "ns/cell"),
    ("obs.observe_ns_per_record", "ns/record"),
    ("obs.jsonl_ns_per_record", "ns/record"),
    ("obs.jsonl_bytes_per_record", "B/record"),
    ("obs.monitor_ns_per_record", "ns/record"),
    ("obs.read_ns_per_record", "ns/record"),
    ("trace.lifecycle_ns_per_record", "ns/record"),
    ("trace.attribution_ns_per_job", "ns/job"),
    ("trace.critical_path_ns_per_pair", "ns/pair"),
    ("trace.perfetto_ns_per_record", "ns/record"),
    ("trace.perfetto_bytes", "B/cell"),
    ("live.pump_self_ns", "ns/pump"),
    ("live.pumps", "pumps/replay"),
    ("live.handle_ns", "ns/call"),
    ("live.submit_ns", "ns/submit"),
    ("live.complete_due_ns", "ns/call"),
    ("live.rpcs_per_job", "calls/job"),
    ("live.rpc_us_p50", "us"),
    ("live.rpc_us_tail", "us"),
    ("proto.encode_ns", "ns/call"),
    ("proto.decode_ns", "ns/call"),
    ("proto.frame_bytes_per_rpc", "B/call"),
    ("proto.inproc_rtt_ns_p50", "ns"),
    ("proto.tcp_rtt_ns_p50", "ns"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.obs_trace_share", "ratio"),
];

struct Metric {
    name: &'static str,
    value: f64,
    note: String,
}

/// The outcome of one run.
#[derive(Default)]
pub struct Report {
    /// Operations run.
    pub attempted: u64,
    /// Operations whose outputs failed a check.
    pub failed: u64,
    /// Run-level checks that failed.
    pub problems: Vec<String>,
    /// Context printed above the metrics: sizes, passes, probes.
    pub notes: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_noted(name, value, String::new());
    }

    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        assert!(value.is_finite(), "{name} = {value} is not a finite number");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "{name} set twice"
        );
        self.metrics.push(Metric { name, value, note });
    }

    /// Record a failed run-level check (once).
    pub fn problem(&mut self, problem: String) {
        if !self.problems.contains(&problem) {
            self.problems.push(problem);
        }
    }

    /// Fill the end-to-end metrics from the set-up time in seconds and, for
    /// each cell, its jobs and its time in milliseconds, both scaled to the
    /// reference speed.
    pub fn end_to_end(&mut self, setup_s: f64, cells: &[(u64, f64)]) {
        let jobs: u64 = cells.iter().map(|&(jobs, _)| jobs).sum();
        let cell_ms: Vec<f64> = cells.iter().map(|&(_, ms)| ms).collect();
        self.set("setup_s", setup_s);
        self.set(
            "jobs_per_s",
            jobs as f64 / (cell_ms.iter().sum::<f64>() / 1e3),
        );
        self.set("cell_ms_p50", median(&cell_ms));
        let tail = tail(&cell_ms).expect("every run times more than ten cells");
        self.set_noted("cell_ms_tail", tail.value, tail.note);
        match peak_rss_mb() {
            Some(mb) => self.set("peak_rss_mb", mb),
            None => {
                self.set("peak_rss_mb", 0.0);
                self.problem("VmHWM is missing from /proc/self/status".into());
            }
        }
    }

    /// Print `catalogue`'s metrics by name with their units, then the JSON
    /// line. Every metric of the catalogue must have been set.
    pub fn print(&self, header: &str, catalogue: &[(&str, &str)]) {
        for m in &self.metrics {
            assert!(
                catalogue.iter().any(|&(name, _)| name == m.name),
                "{} is not in the catalogue",
                m.name
            );
        }
        println!("{header}");
        for note in &self.notes {
            println!("  {note}");
        }
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let metric = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} was not measured"));
            let (value, note) = (metric.value, &metric.note);
            println!("  {name:<34} {value:>16.4} {unit:<12} {note}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "  failed_frac {} ({} of {} operations failed)",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for problem in &self.problems {
            println!("  problem: {problem}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// Median (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile that has at least ten samples beyond it.
pub struct Tail {
    pub value: f64,
    /// Which percentile, of how many samples.
    pub note: String,
}

/// `None` with ten samples or fewer.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    (n > 10).then(|| Tail {
        value: sorted[n - 11],
        note: format!(
            "p{:.2} of {n} samples, 10 beyond it",
            100.0 * (n - 10) as f64 / n as f64
        ),
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f`, returning its result and its wall time in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, nanos(t0.elapsed()))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Run `pass` until `budget` has elapsed and at least `min_passes` passes
/// are done. Returns the number of passes.
pub fn run_for(budget: Duration, min_passes: usize, mut pass: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut passes = 0;
    while passes < min_passes || start.elapsed() < budget {
        pass();
        passes += 1;
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&values).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert!(t.note.starts_with("p90.00 of 100 samples"), "{}", t.note);
        assert!(tail(&values[..10]).is_none());
        assert_eq!(median(&values), 50.5);
    }
}
