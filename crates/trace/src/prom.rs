//! Prometheus text-format exposition of [`MetricsSnapshot`]s and live
//! [`TelemetrySnapshot`]s.
//!
//! Renders the deterministic metrics registry in the exposition format
//! scrapers expect (text format version 0.0.4): counters as single
//! samples, log₂ histograms as cumulative `_bucket{le="…"}` series with
//! `_sum`/`_count`. Metric names are sanitized to `[a-zA-Z0-9_:]`, label
//! values are escaped per the 0.0.4 rules (`\\`, `\"`, `\n`), and the
//! output is sorted by exposed name, so equal snapshots render to
//! byte-identical text — the registry's determinism contract carried
//! through to the wire format.
//!
//! All rendering funnels through [`PromWriter`], which tracks which metric
//! families have already had their `# HELP`/`# TYPE` headers emitted:
//! compose several snapshots into one exposition (registry + telemetry on
//! a `/metrics` endpoint) and each family's headers still appear exactly
//! once, as the format requires.

use cosched_obs::metrics::{CounterSnapshot, HistogramSnapshot, MetricsSnapshot};
use cosched_obs::monitor::TelemetrySnapshot;
use cosched_obs::trace::GLOBAL;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Sanitize a registry metric name into a legal Prometheus metric name.
///
/// Dots and dashes (the registry's namespace separators) become
/// underscores; a leading digit is prefixed. `cosched.holds` →
/// `cosched_holds`.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if c.is_ascii_digit() {
            // A digit cannot lead; prefix and keep it.
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the 0.0.4 text format: backslash, double
/// quote, and line feed must be written `\\`, `\"`, and `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Incremental exposition builder that emits each metric family's
/// `# HELP`/`# TYPE` headers exactly once, however many snapshots are
/// rendered through it.
///
/// Reuse one writer across every piece of a `/metrics` response; a fresh
/// writer per render would duplicate family headers the moment two
/// snapshots share a family, which the text format forbids.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
    emitted: BTreeSet<String>,
}

impl PromWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Emit `# HELP`/`# TYPE` for `name` if this writer has not already,
    /// then return the sanitized family name. An empty `help` skips the
    /// HELP line (registry metrics carry no descriptions).
    fn family(&mut self, name: &str, kind: &str, help: &str) -> String {
        let name = sanitize_name(name);
        if self.emitted.insert(name.clone()) {
            if !help.is_empty() {
                let _ = writeln!(self.out, "# HELP {name} {help}");
            }
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
        }
        name
    }

    /// Append one counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let name = self.family(name, "counter", help);
        let labels = render_labels(labels);
        let _ = writeln!(self.out, "{name}{labels} {value}");
    }

    /// Append one gauge sample (floats render with the shortest exact
    /// representation `Display` gives).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let name = self.family(name, "gauge", help);
        let labels = render_labels(labels);
        let _ = writeln!(self.out, "{name}{labels} {value}");
    }

    /// Append one histogram series (cumulative buckets + `_sum`/`_count`).
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        label: Option<(&str, &str)>,
        h: &HistogramSnapshot,
    ) {
        let name = self.family(name, "histogram", help);
        render_histogram_series(&mut self.out, &name, label, h);
    }

    /// The exposition text so far.
    pub fn finish(self) -> String {
        self.out
    }

    pub fn as_str(&self) -> &str {
        &self.out
    }
}

/// Render a `{k="v",…}` label block (empty string for no labels), escaping
/// values.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Render a whole snapshot to Prometheus text format.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut w = PromWriter::new();
    render_prometheus_into(&mut w, snapshot);
    w.finish()
}

/// Render a registry snapshot through a shared [`PromWriter`] (family
/// headers deduplicated across everything the writer has seen).
pub fn render_prometheus_into(w: &mut PromWriter, snapshot: &MetricsSnapshot) {
    // Sort by exposed (sanitized) name so sanitization collisions or
    // reorderings cannot make output order depend on registry internals.
    let mut counters: Vec<(String, &CounterSnapshot)> = snapshot
        .counters
        .iter()
        .map(|c| (sanitize_name(&c.name), c))
        .collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    let mut histograms: Vec<(String, &HistogramSnapshot)> = snapshot
        .histograms
        .iter()
        .map(|h| (sanitize_name(&h.name), h))
        .collect();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));

    for (name, c) in counters {
        w.counter(&name, "", &[], c.value);
    }
    for (name, h) in histograms {
        w.histogram(&name, "", None, h);
    }
}

/// Append one histogram's cumulative bucket/sum/count series, optionally
/// labeled (the `# TYPE` header is the caller's responsibility so several
/// labeled series can share one family).
fn render_histogram_series(
    out: &mut String,
    name: &str,
    label: Option<(&str, &str)>,
    h: &HistogramSnapshot,
) {
    let prefix = match label {
        Some((k, v)) => format!("{k}=\"{}\",", escape_label_value(v)),
        None => String::new(),
    };
    let plain = match label {
        Some((k, v)) => format!("{{{k}=\"{}\"}}", escape_label_value(v)),
        None => String::new(),
    };
    let mut cumulative = 0u64;
    for b in &h.buckets {
        cumulative += b.count;
        let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"{}\"}} {cumulative}", b.le);
    }
    let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum{plain} {}", h.sum);
    let _ = writeln!(out, "{name}_count{plain} {}", h.count);
}

/// Render a live [`TelemetrySnapshot`] (the streaming monitor's view) to
/// Prometheus text format: run totals as counters, per-machine occupancy
/// as machine-labeled gauges alongside run-wide unlabeled values, the
/// rendezvous-latency histogram, and one `cosched_alert_active` sample per
/// firing alert (rule names pass through label escaping).
pub fn render_telemetry_prometheus(snap: &TelemetrySnapshot) -> String {
    let mut w = PromWriter::new();
    render_telemetry_prometheus_into(&mut w, snap);
    w.finish()
}

/// Telemetry exposition through a shared [`PromWriter`].
pub fn render_telemetry_prometheus_into(w: &mut PromWriter, snap: &TelemetrySnapshot) {
    w.gauge(
        "cosched_sim_time_seconds",
        "Simulation time of this snapshot",
        &[],
        snap.sim_time as f64,
    );
    for (name, help, value) in [
        (
            "cosched_trace_events_total",
            "Trace events consumed by the streaming monitor",
            snap.events,
        ),
        (
            "cosched_rejected_records_total",
            "Trace records the job state machine rejected",
            snap.rejected_records,
        ),
        (
            "cosched_jobs_submitted_total",
            "Jobs submitted",
            snap.submitted,
        ),
        ("cosched_jobs_started_total", "Jobs started", snap.started),
        (
            "cosched_jobs_finished_total",
            "Jobs finished",
            snap.finished,
        ),
        (
            "cosched_rpc_observed_total",
            "RPC calls observed (incl. timeouts)",
            snap.rpc_calls,
        ),
        (
            "cosched_rpc_observed_timeouts_total",
            "RPC timeouts observed",
            snap.rpc_timeouts,
        ),
        (
            "cosched_deadlock_sweeps_total",
            "Deadlock-breaker release sweeps",
            snap.deadlock_sweeps,
        ),
        (
            "cosched_forced_releases_total",
            "Held jobs demoted by the deadlock breaker",
            snap.forced_releases,
        ),
        ("cosched_yields_total", "Coscheduling yields", snap.yields),
        (
            "cosched_holds_placed_total",
            "Coscheduling holds placed",
            snap.holds_placed,
        ),
        (
            "cosched_rendezvous_commits_total",
            "Pair rendezvous commits",
            snap.rendezvous_commits,
        ),
        (
            "cosched_alerts_raised_total",
            "Alert raise transitions",
            snap.alerts_raised_total,
        ),
        (
            "cosched_alerts_resolved_total",
            "Alert resolve transitions",
            snap.alerts_resolved_total,
        ),
    ] {
        w.counter(name, help, &[], value);
    }
    // Run-wide instantaneous gauges, then the same families with a
    // `machine` label per domain.
    w.gauge(
        "cosched_utilization",
        "Used-node proportion of capacity",
        &[],
        snap.utilization(),
    );
    w.gauge(
        "cosched_held_node_proportion",
        "Held-node proportion of capacity",
        &[],
        snap.held_node_proportion(),
    );
    w.gauge(
        "cosched_queue_age_seconds",
        "Age of the oldest queued job",
        &[],
        snap.queue_age_secs() as f64,
    );
    for m in &snap.machines {
        let index = m.index.to_string();
        let label = [("machine", index.as_str())];
        w.gauge("cosched_utilization", "", &label, m.utilization());
        w.gauge(
            "cosched_held_node_proportion",
            "",
            &label,
            m.held_node_proportion(),
        );
        w.gauge(
            "cosched_queue_age_seconds",
            "",
            &label,
            m.queue_age_secs as f64,
        );
        w.gauge(
            "cosched_jobs_running",
            "Running jobs",
            &label,
            m.running as f64,
        );
        w.gauge(
            "cosched_jobs_queued",
            "Queued jobs",
            &label,
            m.queued as f64,
        );
        w.gauge("cosched_jobs_held", "Held jobs", &label, m.held as f64);
        w.gauge(
            "cosched_nodes_used",
            "Nodes in use",
            &label,
            m.used_nodes as f64,
        );
        w.gauge(
            "cosched_nodes_held",
            "Nodes held",
            &label,
            m.held_nodes as f64,
        );
        w.gauge(
            "cosched_node_capacity",
            "Node capacity",
            &label,
            m.capacity as f64,
        );
        w.gauge(
            "cosched_queue_age_high_water_seconds",
            "Largest queue age observed",
            &label,
            m.queue_age_high_water as f64,
        );
        w.gauge(
            "cosched_used_node_seconds",
            "Integral of nodes in use over sim time",
            &label,
            m.used_node_seconds as f64,
        );
        w.gauge(
            "cosched_held_node_seconds",
            "Integral of nodes held over sim time",
            &label,
            m.held_node_seconds as f64,
        );
    }
    w.histogram(
        "cosched_rendezvous_latency_seconds",
        "Submit-to-synchronized-start latency (sim-seconds)",
        None,
        &snap.rendezvous_latency,
    );
    for alert in &snap.active_alerts {
        let machine = if alert.machine == GLOBAL {
            "global".to_string()
        } else {
            alert.machine.to_string()
        };
        w.gauge(
            "cosched_alert_active",
            "Currently firing alert rules",
            &[("rule", alert.rule.as_str()), ("machine", machine.as_str())],
            1.0,
        );
    }
    w.gauge(
        "cosched_run_done",
        "1 once the run has finished",
        &[],
        snap.done as u64 as f64,
    );
    w.gauge(
        "cosched_run_deadlocked",
        "1 if the run ended deadlocked",
        &[],
        snap.deadlocked as u64 as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosched_obs::MetricsRegistry;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("cosched.holds"), "cosched_holds");
        assert_eq!(sanitize_name("rpc-timeouts"), "rpc_timeouts");
        assert_eq!(sanitize_name("job.wait_secs"), "job_wait_secs");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok:name_1"), "ok:name_1");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
        assert_eq!(
            escape_label_value("\\\"\n"),
            "\\\\\\\"\\n",
            "all three escapes compose"
        );
    }

    #[test]
    fn writer_escapes_labels_in_samples() {
        let mut w = PromWriter::new();
        w.gauge("g", "", &[("rule", "x>\"0.4\"\nnext")], 1.0);
        let text = w.finish();
        assert!(
            text.contains("g{rule=\"x>\\\"0.4\\\"\\nnext\"} 1"),
            "{text}"
        );
        assert_eq!(text.lines().count(), 2, "one TYPE line + one sample");
    }

    #[test]
    fn family_headers_emitted_once_across_repeated_snapshots() {
        let mut reg = MetricsRegistry::new();
        reg.set("cosched.holds", 3);
        reg.observe("job.wait_secs", 5);
        let snap = reg.snapshot();
        let mut w = PromWriter::new();
        render_prometheus_into(&mut w, &snap);
        reg.set("cosched.holds", 4);
        render_prometheus_into(&mut w, &reg.snapshot());
        let text = w.finish();
        assert_eq!(
            text.matches("# TYPE cosched_holds counter").count(),
            1,
            "{text}"
        );
        assert_eq!(
            text.matches("# TYPE job_wait_secs histogram").count(),
            1,
            "{text}"
        );
        // Both samples are still present.
        assert!(text.contains("cosched_holds 3\n"), "{text}");
        assert!(text.contains("cosched_holds 4\n"), "{text}");
    }

    #[test]
    fn renders_counters_and_cumulative_histograms() {
        let mut reg = MetricsRegistry::new();
        reg.set("cosched.holds", 3);
        reg.set("rpc.calls", 7);
        for v in [0u64, 1, 2, 1000] {
            reg.observe("job.wait_secs", v);
        }
        let text = render_prometheus(&reg.snapshot());
        assert!(
            text.contains("# TYPE cosched_holds counter\ncosched_holds 3\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE job_wait_secs histogram"), "{text}");
        // Buckets are cumulative: 0→1, 1→2, ≤3→3, ≤1023→4, +Inf→4.
        assert!(text.contains("job_wait_secs_bucket{le=\"0\"} 1"), "{text}");
        assert!(text.contains("job_wait_secs_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("job_wait_secs_bucket{le=\"3\"} 3"), "{text}");
        assert!(
            text.contains("job_wait_secs_bucket{le=\"1023\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("job_wait_secs_bucket{le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(text.contains("job_wait_secs_sum 1003"), "{text}");
        assert!(text.contains("job_wait_secs_count 4"), "{text}");
    }

    #[test]
    fn renders_telemetry_snapshot() {
        use cosched_obs::trace::{SpanKind, TraceEvent, GLOBAL};
        use cosched_obs::{AlertRule, Observer, StreamingMonitor};
        let rule = AlertRule::parse("pressure: held_node_proportion > 0.4").unwrap();
        let mut m = StreamingMonitor::with_rules(vec![rule])
            .with_capacities(&[100, 100])
            .with_tick_secs(60);
        m.record(
            0,
            0,
            TraceEvent::JobSubmitted {
                job: 1,
                size: 90,
                paired: true,
            },
        );
        m.record(10, 0, TraceEvent::CoschedHoldPlaced { job: 1, nodes: 90 });
        m.record(
            0,
            GLOBAL,
            TraceEvent::SpanOpen {
                span: 1,
                parent: 0,
                kind: SpanKind::PairRendezvous,
                job: 1,
                mate: 2,
            },
        );
        m.record(500, GLOBAL, TraceEvent::SpanClose { span: 1 });
        // Job 9 was never submitted: the fold rejects its end.
        m.record(500, 0, TraceEvent::JobEnded { job: 9 });
        let text = render_telemetry_prometheus(&m.snapshot());
        assert!(text.contains("cosched_rejected_records_total 1"), "{text}");
        assert!(text.contains("# TYPE cosched_utilization gauge"), "{text}");
        assert!(text.contains("cosched_held_node_proportion 0.45"), "{text}");
        assert!(
            text.contains("cosched_held_node_proportion{machine=\"0\"} 0.9"),
            "{text}"
        );
        assert!(
            text.contains("cosched_nodes_held{machine=\"0\"} 90"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE cosched_rendezvous_latency_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("cosched_rendezvous_latency_seconds_count 1"),
            "{text}"
        );
        assert!(
            text.contains("cosched_alert_active{rule=\"pressure\",machine=\"global\"} 1"),
            "{text}"
        );
        // Per-machine gauges share one family header.
        assert_eq!(
            text.matches("# TYPE cosched_jobs_queued gauge").count(),
            1,
            "{text}"
        );
        assert!(text.contains("cosched_run_done 0"), "{text}");
    }

    #[test]
    fn output_is_sorted_and_deterministic() {
        let build = |order: &[&'static str]| {
            let mut reg = MetricsRegistry::new();
            for &n in order {
                reg.inc(n);
            }
            render_prometheus(&reg.snapshot())
        };
        let t1 = build(&["z.last", "a.first", "m.mid"]);
        let t2 = build(&["m.mid", "z.last", "a.first"]);
        assert_eq!(t1, t2);
        let a = t1.find("a_first").unwrap();
        let m = t1.find("m_mid").unwrap();
        let z = t1.find("z_last").unwrap();
        assert!(a < m && m < z, "{t1}");
    }
}
