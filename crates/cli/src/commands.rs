//! Command implementations.

use crate::args::Parsed;
use cosched_bench::figures::{self, Figure};
use cosched_bench::{bench_campaign, CampaignReport, Scale, SweepKind};
use cosched_core::{
    CoschedConfig, CoupledConfig, CoupledSimulation, RunArtifacts, RunStats, SchemeCombo,
};
use cosched_metrics::table::{num, pct, Table};
use cosched_obs::monitor::{StreamingMonitor, TelemetrySnapshot};
use cosched_obs::{
    default_rules, read_trace_file, AlertRule, JsonlSink, MetricsSnapshot, PhaseProfiler,
    PhaseSnapshot, SinkObserver, TeeObserver, TraceReader,
};
use cosched_sched::MachineConfig;
use cosched_sim::{SimDuration, SimRng};
use cosched_telemetry::{
    http_get, render_dashboard, Health, MonitorProvider, TelemetryProvider, TelemetryServer,
};
use cosched_workload::{
    pairing, swf, JobId, MachineId, MachineModel, MateRef, Trace, TraceGenerator,
};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A pairs file: the association sidecar SWF cannot carry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairsFile {
    /// `(job id on machine A, job id on machine B)` pairs.
    pub pairs: Vec<(u64, u64)>,
}

/// Dispatch a parsed invocation, writing human output to `out`. Returns an
/// error message for the caller to print to stderr.
pub fn run_command(parsed: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    match parsed.command.as_str() {
        "generate" => cmd_generate(parsed, out),
        "pair" => cmd_pair(parsed, out),
        "simulate" => cmd_simulate(parsed, out),
        "analyze" => cmd_analyze(parsed, out),
        "bench" => cmd_bench(parsed, out),
        "figures" => cmd_figures(parsed, out),
        "watch" => cmd_watch(parsed, out),
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Boolean switches (options that take no value) recognised by the CLI;
/// `main` passes this to [`crate::args::parse_with_flags`].
pub const FLAGS: &[&str] = &["metrics", "once"];

/// Usage text.
pub const USAGE: &str = "\
cosched — coupled-system job coscheduling toolkit

USAGE:
  cosched generate --machine <intrepid|eureka> --out <trace.swf>
                   [--days N] [--util U] [--seed S]
  cosched analyze  --trace <trace.swf> [--capacity N]
  cosched pair     --a <a.swf> --b <b.swf> --out <pairs.json>
                   [--window-secs W] [--proportion P] [--seed S]
  cosched simulate --a <a.swf> --b <b.swf> --pairs <pairs.json>
                   [--combo <HH|HY|YH|YY|off>] [--capacity-a N] [--capacity-b N]
                   [--release-mins M] [--json <report.json>]
                   [--trace-out <trace.jsonl>] [--metrics]
                   [--telemetry <host:port>] [--alerts <rules>]
                   [--telemetry-linger-secs S]

Live telemetry (streaming monitor + embedded HTTP endpoints):
  --telemetry 127.0.0.1:9184 serves GET /metrics (Prometheus 0.0.4),
  /healthz (liveness), and /state (JSON snapshot) while the run executes;
  --alerts takes \";\"-separated rules like
  \"pressure: held_node_proportion > 0.4 for 10m; machine0.queued >= 50\"
  (default rules apply when omitted).
  cosched watch <host:port> [--interval-secs S] [--once]
      polls /state and renders a refreshing terminal dashboard.

Trace analysis (over JSONL traces from `simulate --trace-out`):
  cosched analyze timeline      --trace <t.jsonl> [--width N] [--rows N] [--capacity N]
  cosched analyze attribute     --trace <t.jsonl>
  cosched analyze critical-path --trace <t.jsonl>
  cosched analyze diff          --a <t1.jsonl> --b <t2.jsonl>
  cosched analyze export    --report <report.json> [--out <metrics.prom>]
  cosched analyze export    --format perfetto --trace <t.jsonl> [--out <t.json>]

Paper figures (Figs. 3-10 and the §V-B validation; every hardware thread):
  cosched figures [--scale <smoke|quick|full>] [--fig <3..10>]

Benchmarks:
  cosched bench campaign [--scale <smoke|quick|full>] [--threads 1,2,4]
                         [--sweep <load|prop|both>] [--out <BENCH_sim.json>]
                         [--check <BENCH_sim.json>] [--tolerance X]
                         [--telemetry <host:port>]";

fn cmd_generate(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    p.no_subcommand("generate")?;
    p.allow_only(&["machine", "out", "days", "util", "seed"])?;
    let model = match p.require("machine")? {
        "intrepid" => MachineModel::intrepid(),
        "eureka" => MachineModel::eureka(),
        other => return Err(format!("unknown machine model {other:?} (intrepid|eureka)")),
    };
    let out_path = p.require("out")?.to_string();
    let days: u64 = p.get_or("days", 30)?;
    let util: f64 = p.get_or("util", 0.5)?;
    let seed: u64 = p.get_or("seed", 1)?;

    let mut rng = SimRng::seed_from_u64(seed);
    let trace = TraceGenerator::new(model, MachineId(0))
        .span(SimDuration::from_days(days))
        .target_utilization(util)
        .generate(&mut rng);
    let file =
        std::fs::File::create(&out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    swf::write_swf(std::io::BufWriter::new(file), &trace)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let _ = writeln!(
        out,
        "wrote {} jobs ({} days, offered util {:.3}) to {}",
        trace.len(),
        days,
        trace.offered_utilization(trace.max_size().max(1)),
        out_path
    );
    Ok(())
}

fn cmd_analyze(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    match p.subcommand.as_deref() {
        None => cmd_analyze_swf(p, out),
        Some("timeline") => cmd_analyze_timeline(p, out),
        Some("attribute") => cmd_analyze_attribute(p, out),
        Some("critical-path") => cmd_analyze_critical(p, out),
        Some("diff") => cmd_analyze_diff(p, out),
        Some("export") => cmd_analyze_export(p, out),
        Some(other) => Err(format!(
            "unknown analyze subcommand {other:?} \
             (timeline|attribute|critical-path|diff|export, \
             or none for SWF workload stats)"
        )),
    }
}

/// Replay a JSONL event trace through the lifecycle fold, one record as it
/// is parsed. Parse failures carry `path:line`; reconstruction failures
/// carry the record index and sim time.
fn load_lifecycles(path: &str) -> Result<cosched_trace::LifecycleSet, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut set = cosched_trace::LifecycleSet::default();
    for record in TraceReader::new(std::io::BufReader::new(file)) {
        let record = record.map_err(|e| format!("{path}:{e}"))?;
        set.apply_in_order(&record)
            .map_err(|e| format!("{path}: inconsistent trace: {e}"))?;
    }
    Ok(set)
}

fn cmd_analyze_timeline(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    p.allow_only(&["trace", "width", "rows", "capacity"])?;
    let path = p.require("trace")?;
    let width: usize = p.get_or("width", 100)?;
    let rows: usize = p.get_or("rows", 20)?;
    let capacity: Option<u64> = match p.get("capacity") {
        Some(raw) => Some(raw.parse().map_err(|_| format!("bad --capacity {raw:?}"))?),
        None => None,
    };
    let set = load_lifecycles(path)?;
    let _ = writeln!(
        out,
        "timeline of {path} ({} records, {} jobs, horizon {}s)",
        set.records,
        set.jobs.len(),
        set.horizon
    );
    let _ = write!(
        out,
        "{}",
        cosched_trace::render_utilization(&set, width, capacity)
    );
    let _ = write!(out, "{}", cosched_trace::render_gantt(&set, width, rows));
    Ok(())
}

fn cmd_analyze_attribute(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    p.allow_only(&["trace"])?;
    let path = p.require("trace")?;
    let set = load_lifecycles(path)?;
    let report = cosched_trace::AttributionReport::from_lifecycles(&set);
    let _ = write!(out, "{report}");
    Ok(())
}

fn cmd_analyze_critical(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    p.allow_only(&["trace"])?;
    let path = p.require("trace")?;
    let records = read_trace_file(path)?;
    let report = cosched_trace::CriticalPathReport::from_records(&records)
        .map_err(|e| format!("{path}: {e}"))?;
    let _ = writeln!(
        out,
        "critical paths of {path} ({} completed pair(s), {} unfinished)",
        report.pairs.len(),
        report.unfinished
    );
    if report.pairs.is_empty() && report.unfinished == 0 {
        let _ = writeln!(
            out,
            "no pair spans in this trace — record it with `simulate --trace-out`"
        );
        return Ok(());
    }
    let _ = write!(out, "{report}");
    Ok(())
}

fn cmd_analyze_diff(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    p.allow_only(&["a", "b"])?;
    let a = load_lifecycles(p.require("a")?)?;
    let b = load_lifecycles(p.require("b")?)?;
    let report = cosched_trace::DiffReport::compare(&a, &b);
    let _ = write!(out, "{report}");
    Ok(())
}

fn cmd_analyze_export(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    p.allow_only(&["report", "out", "format", "trace"])?;
    match p.get("format").unwrap_or("prom") {
        "prom" => cmd_analyze_export_prom(p, out),
        "perfetto" => cmd_analyze_export_perfetto(p, out),
        other => Err(format!("unknown export format {other:?} (prom|perfetto)")),
    }
}

/// Export a JSONL trace as Chrome trace-event JSON for Perfetto.
fn cmd_analyze_export_perfetto(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    let path = p.require("trace")?;
    let records = read_trace_file(path)?;
    let json = cosched_trace::render_perfetto(&records)
        .map_err(|e| format!("{path}: malformed span records: {e}"))?;
    match p.get("out") {
        Some(dest) => {
            std::fs::write(dest, &json).map_err(|e| format!("cannot write {dest}: {e}"))?;
            let _ = writeln!(
                out,
                "wrote {} bytes of trace-event JSON to {dest} \
                 (load in ui.perfetto.dev or chrome://tracing)",
                json.len()
            );
        }
        None => {
            let _ = write!(out, "{json}");
        }
    }
    Ok(())
}

/// Export a simulation report's metrics registry as Prometheus text.
fn cmd_analyze_export_prom(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    let path = p.require("report")?;
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value: serde_json::Value =
        serde_json::from_str(&raw).map_err(|e| format!("bad report {path}: {e}"))?;
    let metrics = value
        .get("metrics")
        .cloned()
        .ok_or_else(|| format!("{path} has no \"metrics\" section (written by simulate --json)"))?;
    let snapshot: MetricsSnapshot = serde_json::from_value(metrics)
        .map_err(|e| format!("{path}: metrics section does not parse: {e}"))?;
    let text = cosched_trace::render_prometheus(&snapshot);
    match p.get("out") {
        Some(dest) => {
            std::fs::write(dest, &text).map_err(|e| format!("cannot write {dest}: {e}"))?;
            let _ = writeln!(
                out,
                "wrote {} bytes of Prometheus text to {dest}",
                text.len()
            );
        }
        None => {
            let _ = write!(out, "{text}");
        }
    }
    Ok(())
}

/// Poll a telemetry endpoint and render the terminal dashboard. With
/// `--once` a single frame is printed (CI and tests); otherwise the screen
/// is cleared and redrawn every `--interval-secs` until the run finishes.
fn cmd_watch(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    p.allow_only(&["interval-secs", "once"])?;
    let addr = p
        .subcommand
        .as_deref()
        .ok_or("watch needs an address: cosched watch <host:port> [--once]")?;
    let interval: u64 = p.get_or("interval-secs", 2)?;
    if interval == 0 {
        return Err("bad --interval-secs 0 (must be positive)".to_string());
    }
    let once = p.flag("once");
    loop {
        let (code, body) = http_get(addr, "/state", Duration::from_secs(5))?;
        if code != 200 {
            return Err(format!("{addr}/state answered HTTP {code}"));
        }
        let snap: TelemetrySnapshot = serde_json::from_str(&body)
            .map_err(|e| format!("{addr}/state is not a telemetry snapshot: {e}"))?;
        if !once {
            // Clear screen and home the cursor between frames.
            let _ = write!(out, "\x1b[2J\x1b[H");
        }
        let _ = write!(out, "{}", render_dashboard(&snap, addr));
        if once || snap.done {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs(interval));
    }
}

/// Shared campaign progress state behind the bench telemetry endpoint.
#[derive(Debug, Default)]
struct CampaignProgressState {
    sweeps_total: u64,
    sweeps_done: u64,
    current: String,
    cells: u64,
    done: bool,
}

/// [`TelemetryProvider`] for `bench campaign --telemetry`: coarse progress
/// (sweeps completed, cells simulated) rather than per-event telemetry —
/// campaign cells run in worker threads with their own observers.
#[derive(Debug, Clone, Default)]
struct CampaignProgress {
    state: Arc<Mutex<CampaignProgressState>>,
}

impl CampaignProgress {
    fn update(&self, f: impl FnOnce(&mut CampaignProgressState)) {
        f(&mut self.state.lock().expect("progress lock"));
    }
}

impl TelemetryProvider for CampaignProgress {
    fn metrics_text(&self) -> String {
        let st = self.state.lock().expect("progress lock");
        let mut w = cosched_trace::PromWriter::new();
        w.gauge(
            "cosched_bench_sweeps_total",
            "Sweeps requested for this campaign.",
            &[],
            st.sweeps_total as f64,
        );
        w.gauge(
            "cosched_bench_sweeps_done",
            "Sweeps completed so far.",
            &[],
            st.sweeps_done as f64,
        );
        w.gauge(
            "cosched_bench_cells_total",
            "Simulation cells completed across finished sweeps.",
            &[],
            st.cells as f64,
        );
        w.gauge(
            "cosched_bench_done",
            "1 once the whole campaign has finished.",
            &[],
            if st.done { 1.0 } else { 0.0 },
        );
        w.finish()
    }

    fn state_json(&self) -> String {
        let st = self.state.lock().expect("progress lock");
        format!(
            "{{\"sweeps_total\":{},\"sweeps_done\":{},\"current\":{:?},\"cells\":{},\"done\":{}}}",
            st.sweeps_total, st.sweeps_done, st.current, st.cells, st.done
        )
    }

    fn health(&self) -> Health {
        let st = self.state.lock().expect("progress lock");
        Health {
            ok: true,
            status: if st.done { "done" } else { "running" }.to_string(),
            done: st.done,
            drained: st.done,
            deadlocked: false,
        }
    }
}

/// The `--scale` option, or `default` when it is absent, with its label.
fn scale_option<'a>(p: &'a Parsed, default: &'a str) -> Result<(&'a str, Scale), String> {
    let label = p.get("scale").unwrap_or(default);
    let scale = Scale::from_label(label)
        .ok_or_else(|| format!("unknown scale {label:?} (smoke|quick|full)"))?;
    Ok((label, scale))
}

/// Print the paper's evaluation tables from one run of the campaign cells:
/// every table with no `--fig`, one figure's two panels with it. Options
/// are checked before any cell runs.
fn cmd_figures(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    p.no_subcommand("figures")?;
    p.allow_only(&["scale", "fig"])?;
    let (_, scale) = scale_option(p, "quick")?;
    let figure = match p.get("fig") {
        Some(n) => Some(
            n.parse()
                .ok()
                .and_then(Figure::numbered)
                .ok_or_else(|| format!("unknown figure {n:?} (3..10)"))?,
        ),
        None => None,
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    write!(out, "{}", figures::report(scale, figure, threads))
        .map_err(|e| format!("cannot write the figures: {e}"))
}

fn cmd_bench(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    match p.subcommand.as_deref() {
        Some("campaign") => cmd_bench_campaign(p, out),
        Some(other) => Err(format!("unknown bench subcommand {other:?} (campaign)")),
        None => Err("bench needs a subcommand (campaign)".to_string()),
    }
}

/// The committed benchmark artifact: one record per sweep, plus enough
/// host context to interpret the numbers later.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchSimFile {
    /// Artifact schema marker.
    bench: String,
    /// Scale label the campaign ran at.
    scale: String,
    /// Hardware threads available on the host that produced the numbers.
    hardware_threads: usize,
    /// One report per sweep (`load`, `prop`).
    campaigns: Vec<CampaignReport>,
}

/// Run the parallel campaign benchmark: every requested sweep at 1 thread
/// (the reference) and each additional worker count, verifying the
/// parallel runs are outcome-identical to serial and recording wall-clock,
/// throughput, and the phase profile of each sweep's first hold-hold cell.
fn cmd_bench_campaign(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    p.allow_only(&[
        "scale",
        "threads",
        "sweep",
        "out",
        "check",
        "tolerance",
        "telemetry",
    ])?;
    let (scale_label, scale) = scale_option(p, "smoke")?;
    let threads: Vec<usize> = p
        .get("threads")
        .unwrap_or("1,2,4")
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("bad --threads entry {t:?} (positive integers)"))
        })
        .collect::<Result<_, _>>()?;
    let kinds: &[SweepKind] = match p.get("sweep").unwrap_or("both") {
        "load" => &[SweepKind::Load],
        "prop" => &[SweepKind::Proportion],
        "both" => &[SweepKind::Load, SweepKind::Proportion],
        other => return Err(format!("unknown sweep {other:?} (load|prop|both)")),
    };

    let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);

    // Optional coarse progress endpoint: sweeps completed and cells
    // simulated, scrapable while the campaign runs.
    let progress = CampaignProgress::default();
    progress.update(|st| st.sweeps_total = kinds.len() as u64);
    let telemetry = match p.get("telemetry") {
        Some(addr) => {
            let server = TelemetryServer::spawn(addr, progress.clone())
                .map_err(|e| format!("cannot serve telemetry on {addr}: {e}"))?;
            let _ = writeln!(
                out,
                "telemetry: serving /metrics /healthz /state on http://{}",
                server.addr()
            );
            Some(server)
        }
        None => None,
    };

    let mut campaigns = Vec::new();
    for &kind in kinds {
        progress.update(|st| st.current = kind.label().to_string());
        let _ = writeln!(
            out,
            "campaign {} (scale {scale_label}: {} days x {} seeds, {} hardware threads)",
            kind.label(),
            scale.days,
            scale.seeds,
            hardware_threads
        );
        let report = bench_campaign(kind, scale, &threads);
        for t in &report.timings {
            let _ = writeln!(
                out,
                "  {:>2} thread(s): {:>8.2}s wall  {:>7.2} cells/s  speedup {:>5.2}x",
                t.threads, t.wall_clock_secs, t.cells_per_sec, t.speedup_vs_serial
            );
        }
        let _ = writeln!(
            out,
            "  deterministic: {} ({} cells)",
            report.deterministic, report.cells
        );
        if !report.deterministic {
            return Err(format!(
                "campaign {} parallel outcomes diverged from serial",
                kind.label()
            ));
        }
        progress.update(|st| {
            st.sweeps_done += 1;
            st.cells += report.cells as u64;
        });
        campaigns.push(report);
    }
    progress.update(|st| st.done = true);

    // Regression gate: compare against a committed baseline artifact.
    // Wall-clock is tolerance-based (CI hosts are noisy); a determinism
    // mismatch is a hard failure regardless of timing.
    if let Some(baseline_path) = p.get("check") {
        let tolerance: f64 = p.get_or("tolerance", 3.0)?;
        if tolerance <= 0.0 {
            return Err(format!("bad --tolerance {tolerance} (must be positive)"));
        }
        let raw = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
        let baseline: BenchSimFile =
            serde_json::from_str(&raw).map_err(|e| format!("bad baseline {baseline_path}: {e}"))?;
        if baseline.scale != scale_label {
            return Err(format!(
                "baseline {baseline_path} was recorded at scale {:?} but this run is {scale_label:?} \
                 — rerun with --scale {} or regenerate the baseline",
                baseline.scale, baseline.scale
            ));
        }
        for current in &campaigns {
            let base = baseline
                .campaigns
                .iter()
                .find(|c| c.sweep == current.sweep)
                .ok_or_else(|| {
                    format!(
                        "baseline {baseline_path} has no {:?} sweep — regenerate it with --sweep both",
                        current.sweep
                    )
                })?;
            let ratio = cosched_bench::check_campaign(base, current, tolerance)?;
            let _ = writeln!(
                out,
                "  check {}: serial wall-clock {ratio:.2}x of baseline (tolerance {tolerance:.1}x) — ok",
                current.sweep
            );
        }
    }

    if let Some(dest) = p.get("out") {
        let file = BenchSimFile {
            bench: "campaign".to_string(),
            scale: scale_label.to_string(),
            hardware_threads,
            campaigns,
        };
        let json = serde_json::to_string_pretty(&file)
            .map_err(|e| format!("cannot serialize benchmark report: {e}"))?;
        std::fs::write(dest, json.as_bytes()).map_err(|e| format!("cannot write {dest}: {e}"))?;
        let _ = writeln!(out, "wrote benchmark report to {dest}");
    }
    drop(telemetry);
    Ok(())
}

fn cmd_analyze_swf(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    p.allow_only(&["trace", "capacity"])?;
    let path = p.require("trace")?;
    let trace = load_trace(path, MachineId(0))?;
    let stats = cosched_workload::stats::trace_stats(&trace);
    let _ = write!(
        out,
        "{}",
        cosched_workload::stats::render_stats(path, &stats)
    );
    if let Some(raw) = p.get("capacity") {
        let capacity: u64 = raw.parse().map_err(|_| format!("bad --capacity {raw:?}"))?;
        let _ = writeln!(
            out,
            "  offered utilization @ {capacity} nodes: {:.3}",
            trace.offered_utilization(capacity)
        );
        let _ = writeln!(
            out,
            "  daily load unevenness: {:.3}",
            cosched_workload::stats::daily_load_unevenness(&trace)
        );
    }
    Ok(())
}

fn load_trace(path: &str, machine: MachineId) -> Result<Trace, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (trace, skipped) = swf::read_swf(std::io::BufReader::new(file), machine)
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    if skipped > 0 {
        eprintln!("note: skipped {skipped} unrunnable records in {path}");
    }
    Ok(trace)
}

fn cmd_pair(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    p.no_subcommand("pair")?;
    p.allow_only(&["a", "b", "out", "window-secs", "proportion", "seed"])?;
    let mut a = load_trace(p.require("a")?, MachineId(0))?;
    let mut b = load_trace(p.require("b")?, MachineId(1))?;
    let out_path = p.require("out")?.to_string();
    let window = SimDuration::from_secs(p.get_or("window-secs", 120)?);
    let n = match p.get("proportion") {
        Some(raw) => {
            let proportion: f64 = raw
                .parse()
                .map_err(|_| format!("bad --proportion {raw:?}"))?;
            let mut rng = SimRng::seed_from_u64(p.get_or("seed", 1)?);
            pairing::pair_exact_proportion(&mut a, &mut b, proportion, window, &mut rng)
        }
        None => pairing::pair_by_window(&mut a, &mut b, window),
    };
    let pairs = PairsFile {
        pairs: a
            .jobs()
            .iter()
            .filter_map(|j| j.mate.map(|m| (j.id.0, m.job.0)))
            .collect(),
    };
    let json = serde_json::to_string_pretty(&pairs).expect("pairs serialize");
    std::fs::write(&out_path, json).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let _ = writeln!(out, "associated {n} pairs → {out_path}");
    Ok(())
}

/// Apply a pairs file to freshly loaded traces.
pub fn apply_pairs(a: &mut Trace, b: &mut Trace, pairs: &PairsFile) -> Result<(), String> {
    for &(ja, jb) in &pairs.pairs {
        let (ma, mb) = (a.machine(), b.machine());
        let found_a = a.jobs_mut().iter_mut().find(|j| j.id == JobId(ja));
        match found_a {
            Some(j) => {
                j.mate = Some(MateRef {
                    machine: mb,
                    job: JobId(jb),
                })
            }
            None => return Err(format!("pairs file references missing job {ja} in trace A")),
        }
        let found_b = b.jobs_mut().iter_mut().find(|j| j.id == JobId(jb));
        match found_b {
            Some(j) => {
                j.mate = Some(MateRef {
                    machine: ma,
                    job: JobId(ja),
                })
            }
            None => return Err(format!("pairs file references missing job {jb} in trace B")),
        }
    }
    pairing::validate_pairing(a, b).map_err(|e| format!("invalid pairs file: {e}"))
}

/// A job larger than its machine can never start, and the run would end
/// with it queued, reported as a deadlock. Refuse such a trace up front,
/// naming its largest job.
fn check_fits(trace: &Trace, path: &str, option: &str, capacity: u64) -> Result<(), String> {
    match trace
        .jobs()
        .iter()
        .filter(|j| j.size > capacity)
        .max_by_key(|j| j.size)
    {
        Some(j) => Err(format!(
            "{path}: job {} needs {} nodes, more than --{option} {capacity}",
            j.id.0, j.size
        )),
        None => Ok(()),
    }
}

/// JSON report shape for `simulate --json`.
#[derive(Debug, Serialize)]
struct JsonReport {
    combo: String,
    deadlocked: bool,
    pairs_synchronized: bool,
    max_pair_offset_secs: u64,
    intrepid_like: cosched_metrics::MachineSummary,
    eureka_like: cosched_metrics::MachineSummary,
    /// Deterministic run activity counters (holds, yields, RPC traffic …).
    stats: RunStats,
    /// Full deterministic metrics registry snapshot.
    metrics: MetricsSnapshot,
}

fn cmd_simulate(p: &Parsed, out: &mut dyn Write) -> Result<(), String> {
    p.no_subcommand("simulate")?;
    p.allow_only(&[
        "a",
        "b",
        "pairs",
        "combo",
        "capacity-a",
        "capacity-b",
        "release-mins",
        "json",
        "trace-out",
        "metrics",
        "telemetry",
        "alerts",
        "telemetry-linger-secs",
    ])?;
    let (path_a, path_b) = (p.require("a")?, p.require("b")?);
    let mut a = load_trace(path_a, MachineId(0))?;
    let mut b = load_trace(path_b, MachineId(1))?;
    if let Some(path) = p.get("pairs") {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let pairs: PairsFile =
            serde_json::from_str(&raw).map_err(|e| format!("bad pairs file {path}: {e}"))?;
        apply_pairs(&mut a, &mut b, &pairs)?;
    }
    let combo_raw = p.get("combo").unwrap_or("HY");
    let combo = match combo_raw {
        "HH" => Some(SchemeCombo::HH),
        "HY" => Some(SchemeCombo::HY),
        "YH" => Some(SchemeCombo::YH),
        "YY" => Some(SchemeCombo::YY),
        "off" => None,
        other => return Err(format!("bad --combo {other:?} (HH|HY|YH|YY|off)")),
    };
    let cap_a: u64 = p.get_or("capacity-a", a.max_size().max(1))?;
    let cap_b: u64 = p.get_or("capacity-b", b.max_size().max(1))?;
    check_fits(&a, path_a, "capacity-a", cap_a)?;
    check_fits(&b, path_b, "capacity-b", cap_b)?;
    let release: u64 = p.get_or("release-mins", 20)?;

    let mk_cosched = |scheme| {
        CoschedConfig::paper(scheme).with_release_period(Some(SimDuration::from_mins(release)))
    };
    let config = CoupledConfig {
        machines: [
            MachineConfig::flat("A", MachineId(0), cap_a),
            MachineConfig::flat("B", MachineId(1), cap_b),
        ],
        cosched: match combo {
            Some(c) => [mk_cosched(c.of(0)), mk_cosched(c.of(1))],
            None => [CoschedConfig::disabled(), CoschedConfig::disabled()],
        },
        max_events: 50_000_000,
    };
    // Optional live telemetry plane: a streaming monitor teed into the
    // observer chain plus an embedded HTTP server scraping it. The monitor
    // is a pure consumer, so attaching it changes neither the report nor
    // the primary trace bytes.
    let linger: u64 = p.get_or("telemetry-linger-secs", 0)?;
    let telemetry = match p.get("telemetry") {
        Some(addr) => {
            let rules = match p.get("alerts") {
                Some(spec) => AlertRule::parse_list(spec)?,
                None => default_rules(),
            };
            let monitor = StreamingMonitor::with_rules(rules).with_capacities(&[cap_a, cap_b]);
            let server = TelemetryServer::spawn(addr, MonitorProvider::new(monitor.clone()))
                .map_err(|e| format!("cannot serve telemetry on {addr}: {e}"))?;
            Some((monitor, server))
        }
        None => {
            for key in ["alerts", "telemetry-linger-secs"] {
                if p.get(key).is_some() {
                    return Err(format!("--{key} requires --telemetry <host:port>"));
                }
            }
            None
        }
    };
    if let Some((_, server)) = &telemetry {
        let _ = writeln!(
            out,
            "telemetry: serving /metrics /healthz /state on http://{}",
            server.addr()
        );
    }

    // Observers are pure consumers, so the deterministic report is the same
    // whichever are attached. The JSONL trace sink (--trace-out) rides first
    // in the tee so the primary trace is written byte-for-byte as without
    // telemetry; the wall-clock profiler rides only under --metrics, so
    // without it the run reads no clock.
    let sink = match p.get("trace-out") {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            Some(SinkObserver::new(JsonlSink::new(std::io::BufWriter::new(
                file,
            ))))
        }
        None => None,
    };
    let monitor = telemetry.as_ref().map(|(monitor, _)| monitor.clone());
    let profiler = p.flag("metrics").then(PhaseProfiler::default);
    let observer = TeeObserver::new(TeeObserver::new(sink, monitor), profiler);
    let RunArtifacts { report, observer } =
        CoupledSimulation::with_observer(config, [a, b], observer).run_traced();
    if let Some((monitor, server)) = &telemetry {
        monitor.finish(report.deadlocked);
        if linger > 0 {
            let _ = writeln!(
                out,
                "telemetry: run finished, serving final state on http://{} for {linger}s",
                server.addr()
            );
            std::thread::sleep(Duration::from_secs(linger));
        }
    }

    let mut table = Table::new(
        format!(
            "simulate: combo {} over {} + {} jobs",
            combo.map_or("off".into(), |c| c.label()),
            report.summaries[0].jobs,
            report.summaries[1].jobs
        ),
        &[
            "machine",
            "avg wait (min)",
            "avg slowdown",
            "avg sync (min)",
            "util",
            "loss rate",
        ],
    );
    for s in &report.summaries {
        table.row(&[
            s.machine.clone(),
            num(s.avg_wait_mins, 1),
            num(s.avg_slowdown, 2),
            num(s.avg_sync_mins, 1),
            pct(s.utilization),
            pct(s.lost_util_rate),
        ]);
    }
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "pairs synchronized: {} (max offset {}); deadlocked: {}",
        report.all_pairs_synchronized(),
        report.max_pair_offset(),
        report.deadlocked
    );
    if let (Some(path), Some(sink)) = (p.get("trace-out"), &observer.first.first) {
        let _ = writeln!(out, "trace: {} records -> {path}", sink.sink().lines());
    }
    if let Some(profiler) = &observer.second {
        write_metrics(out, &report.metrics, &profiler.snapshot());
    }
    if let Some(path) = p.get("json") {
        let j = JsonReport {
            combo: combo.map_or("off".into(), |c| c.label()),
            deadlocked: report.deadlocked,
            pairs_synchronized: report.all_pairs_synchronized(),
            max_pair_offset_secs: report.max_pair_offset().as_secs(),
            intrepid_like: report.summaries[0].clone(),
            eureka_like: report.summaries[1].clone(),
            stats: report.stats,
            metrics: report.metrics.clone(),
        };
        std::fs::write(
            Path::new(path),
            serde_json::to_string_pretty(&j).expect("serialize"),
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "report written to {path}");
    }
    Ok(())
}

/// Render the deterministic metrics registry and the wall-clock profile for
/// `simulate --metrics`. Counters and sim-time histograms come from the
/// report (deterministic); phase timings are wall-clock and clearly
/// labelled as such.
fn write_metrics(out: &mut dyn Write, metrics: &MetricsSnapshot, profile: &[PhaseSnapshot]) {
    let _ = writeln!(out, "metrics:");
    for c in &metrics.counters {
        let _ = writeln!(out, "  {:<32} {}", c.name, c.value);
    }
    for h in &metrics.histograms {
        let _ = writeln!(
            out,
            "  {:<32} count {} mean {:.1} min {} max {}",
            h.name,
            h.count,
            h.mean(),
            h.min,
            h.max
        );
    }
    let _ = writeln!(out, "wall-clock profile:");
    for ph in profile {
        let _ = writeln!(
            out,
            "  {:<32} calls {} total {}us mean {}ns max {}ns",
            ph.phase,
            ph.calls,
            ph.total_ns / 1_000,
            ph.mean_ns,
            ph.max_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn run(cmdline: &str) -> Result<String, String> {
        let parsed = crate::args::parse_with_flags(&argv(cmdline), FLAGS)?;
        let mut buf = Vec::new();
        run_command(&parsed, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cosched-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_pair_simulate_pipeline() {
        let a = tmp("pipe_a.swf");
        let b = tmp("pipe_b.swf");
        let pairs = tmp("pipe_pairs.json");
        let json = tmp("pipe_report.json");

        let out = run(&format!(
            "generate --machine eureka --out {a} --days 2 --util 0.5 --seed 3"
        ))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        run(&format!(
            "generate --machine eureka --out {b} --days 2 --util 0.4 --seed 4"
        ))
        .unwrap();

        let out = run(&format!(
            "pair --a {a} --b {b} --out {pairs} --proportion 0.2 --seed 5"
        ))
        .unwrap();
        assert!(out.contains("associated"), "{out}");

        let out = run(&format!(
            "simulate --a {a} --b {b} --pairs {pairs} --combo YY --capacity-a 100 --capacity-b 100 --json {json}"
        ))
        .unwrap();
        assert!(out.contains("pairs synchronized: true"), "{out}");
        let report: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(report["pairs_synchronized"], serde_json::Value::Bool(true));
        assert_eq!(report["combo"], "YY");
    }

    #[test]
    fn simulate_trace_out_and_metrics() {
        let a = tmp("obs_a.swf");
        let b = tmp("obs_b.swf");
        let pairs = tmp("obs_pairs.json");
        let trace1 = tmp("obs_trace1.jsonl");
        let trace2 = tmp("obs_trace2.jsonl");
        let json = tmp("obs_report.json");
        run(&format!(
            "generate --machine eureka --out {a} --days 2 --util 0.5 --seed 3"
        ))
        .unwrap();
        run(&format!(
            "generate --machine eureka --out {b} --days 2 --util 0.4 --seed 4"
        ))
        .unwrap();
        run(&format!(
            "pair --a {a} --b {b} --out {pairs} --proportion 0.2 --seed 5"
        ))
        .unwrap();

        let simulate = |trace: &str| {
            run(&format!(
                "simulate --a {a} --b {b} --pairs {pairs} --combo HY --capacity-a 100 \
                 --capacity-b 100 --trace-out {trace} --metrics --json {json}"
            ))
            .unwrap()
        };
        let out = simulate(&trace1);
        assert!(out.contains("trace:"), "{out}");
        assert!(out.contains("metrics:"), "{out}");
        assert!(out.contains("cosched.holds"), "{out}");
        assert!(out.contains("rpc.calls"), "{out}");
        assert!(out.contains("wall-clock profile:"), "{out}");
        assert!(out.contains("scheduler-iteration"), "{out}");

        // The trace is non-empty JSONL.
        let text = std::fs::read_to_string(&trace1).unwrap();
        assert!(text.lines().count() > 0);
        for line in text.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("time").is_some(), "{line}");
        }

        // Same seed, second run: byte-identical trace (observers are pure
        // consumers of deterministic payloads).
        simulate(&trace2);
        assert_eq!(
            std::fs::read(&trace1).unwrap(),
            std::fs::read(&trace2).unwrap()
        );

        // The JSON report now carries the activity counters and registry.
        let report: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert!(report["stats"]["rpc_calls"].as_u64().unwrap() > 0);
        assert!(report["metrics"]["counters"].as_array().unwrap().len() > 4);
    }

    #[test]
    fn simulate_without_pairs_is_plain_scheduling() {
        let a = tmp("plain_a.swf");
        let b = tmp("plain_b.swf");
        run(&format!(
            "generate --machine eureka --out {a} --days 1 --seed 6"
        ))
        .unwrap();
        run(&format!(
            "generate --machine eureka --out {b} --days 1 --seed 7"
        ))
        .unwrap();
        let out = run(&format!(
            "simulate --a {a} --b {b} --combo off --capacity-a 100 --capacity-b 100"
        ))
        .unwrap();
        assert!(out.contains("deadlocked: false"), "{out}");
    }

    /// Build a full observability pipeline in tmp files and return
    /// `(trace1, trace2, report_json)` — two same-seed HY traces.
    fn pipeline_artifacts(tag: &str) -> (String, String, String) {
        let a = tmp(&format!("{tag}_a.swf"));
        let b = tmp(&format!("{tag}_b.swf"));
        let pairs = tmp(&format!("{tag}_pairs.json"));
        let trace1 = tmp(&format!("{tag}_t1.jsonl"));
        let trace2 = tmp(&format!("{tag}_t2.jsonl"));
        let json = tmp(&format!("{tag}_report.json"));
        run(&format!(
            "generate --machine eureka --out {a} --days 2 --util 0.5 --seed 3"
        ))
        .unwrap();
        run(&format!(
            "generate --machine eureka --out {b} --days 2 --util 0.4 --seed 4"
        ))
        .unwrap();
        run(&format!(
            "pair --a {a} --b {b} --out {pairs} --proportion 0.2 --seed 5"
        ))
        .unwrap();
        for trace in [&trace1, &trace2] {
            run(&format!(
                "simulate --a {a} --b {b} --pairs {pairs} --combo HY --capacity-a 100 \
                 --capacity-b 100 --trace-out {trace} --json {json}"
            ))
            .unwrap();
        }
        (trace1, trace2, json)
    }

    #[test]
    fn analyze_attribute_decomposes_wait() {
        let (trace, _, _) = pipeline_artifacts("attr");
        let out = run(&format!("analyze attribute --trace {trace}")).unwrap();
        assert!(out.contains("wait-time attribution"), "{out}");
        // HY: machine 0 is the hold side, machine 1 the yield side.
        assert!(out.contains("scheme combo HY"), "{out}");
    }

    #[test]
    fn analyze_diff_same_seed_traces_is_identical() {
        let (trace1, trace2, _) = pipeline_artifacts("diffsame");
        let out = run(&format!("analyze diff --a {trace1} --b {trace2}")).unwrap();
        assert!(out.contains("identical per job"), "{out}");
    }

    #[test]
    fn analyze_timeline_renders_strips() {
        let (trace, _, _) = pipeline_artifacts("tline");
        let out = run(&format!(
            "analyze timeline --trace {trace} --width 60 --rows 5 --capacity 100"
        ))
        .unwrap();
        assert!(out.contains("timeline of"), "{out}");
        assert!(out.contains("run  |"), "{out}");
        assert!(out.contains("machine 0"), "{out}");
        assert!(out.contains("# running"), "{out}");
    }

    #[test]
    fn analyze_export_writes_prometheus_text() {
        let (_, _, json) = pipeline_artifacts("prom");
        let out = run(&format!("analyze export --report {json}")).unwrap();
        assert!(out.contains("# TYPE cosched_holds counter"), "{out}");
        assert!(out.contains("# TYPE job_wait_secs histogram"), "{out}");
        assert!(out.contains("job_wait_secs_bucket{le=\"+Inf\"}"), "{out}");
        let dest = tmp("prom_out.prom");
        let out = run(&format!("analyze export --report {json} --out {dest}")).unwrap();
        assert!(out.contains("Prometheus text"), "{out}");
        assert!(std::fs::read_to_string(&dest)
            .unwrap()
            .contains("cosched_holds"));
    }

    #[test]
    fn analyze_critical_path_prints_combo_table() {
        let (trace, _, _) = pipeline_artifacts("crit");
        let out = run(&format!("analyze critical-path --trace {trace}")).unwrap();
        assert!(out.contains("critical paths of"), "{out}");
        assert!(out.contains("combo"), "{out}");
        assert!(out.contains("local-queue"), "{out}");
        // The HY pipeline runs at least one pair to a synchronized start.
        assert!(
            out.contains("HY") || out.contains("completed pair"),
            "{out}"
        );
    }

    #[test]
    fn analyze_export_perfetto_writes_trace_event_json() {
        let (trace, _, _) = pipeline_artifacts("perf");
        let dest = tmp("perf_out.json");
        let out = run(&format!(
            "analyze export --format perfetto --trace {trace} --out {dest}"
        ))
        .unwrap();
        assert!(out.contains("trace-event JSON"), "{out}");
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&dest).unwrap()).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        // Cross-machine flow arrows exist for RPC spans.
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(serde_json::Value::as_str))
            .collect();
        assert!(phases.contains(&"s"), "{phases:?}");
        assert!(phases.contains(&"f"), "{phases:?}");
        assert!(phases.contains(&"X"), "{phases:?}");
    }

    #[test]
    fn analyze_export_rejects_unknown_format() {
        let err = run("analyze export --format svg --trace x.jsonl").unwrap_err();
        assert!(err.contains("unknown export format"), "{err}");
    }

    #[test]
    fn bench_campaign_check_gates_against_baseline() {
        let baseline = tmp("check_baseline.json");
        run(&format!(
            "bench campaign --scale smoke --threads 1 --sweep load --out {baseline}"
        ))
        .unwrap();
        // Same scale re-run against its own baseline passes with a
        // generous tolerance.
        let out = run(&format!(
            "bench campaign --scale smoke --threads 1 --sweep load --check {baseline} --tolerance 25"
        ))
        .unwrap();
        assert!(out.contains("— ok"), "{out}");
        // A scale mismatch is an error, not a silent pass.
        let err = run(&format!(
            "bench campaign --scale quick --threads 1 --sweep load --check {baseline}"
        ))
        .unwrap_err();
        assert!(err.contains("scale"), "{err}");
    }

    #[test]
    fn figures_rejects_bad_options_before_running_any_cell() {
        // At `--scale full` the sweep runs far longer than this test if a
        // cell ran before the options were checked.
        for fig in ["2", "11", "x"] {
            let err = run(&format!("figures --scale full --fig {fig}")).unwrap_err();
            assert!(
                err.contains("unknown figure") && err.contains("3..10"),
                "{err}"
            );
        }
        let err = run("figures --scale huge --fig 3").unwrap_err();
        assert!(
            err.contains("unknown scale") && err.contains("smoke|quick|full"),
            "{err}"
        );
        let err = run("figures --scale full --threads 2").unwrap_err();
        assert!(err.contains("threads"), "{err}");
    }

    #[test]
    fn figures_prints_one_figure_at_smoke_scale() {
        let out = run("figures --scale smoke --fig 6").unwrap();
        assert!(
            out.starts_with("## Fig. 6(a) Intrepid service-unit loss"),
            "{out}"
        );
        assert!(
            out.contains("## Fig. 6(b) Eureka service-unit loss"),
            "{out}"
        );
        assert_eq!(out.matches("## Fig.").count(), 2, "{out}");
    }

    #[test]
    fn analyze_reports_malformed_jsonl_line() {
        let (trace, _, _) = pipeline_artifacts("badline");
        // Corrupt line 3 of the trace.
        let text = std::fs::read_to_string(&trace).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 3);
        lines[2] = "{this is not json";
        let bad = tmp("badline_corrupt.jsonl");
        std::fs::write(&bad, lines.join("\n")).unwrap();
        let err = run(&format!("analyze attribute --trace {bad}")).unwrap_err();
        assert!(err.contains(&bad), "error names the file: {err}");
        assert!(err.contains("line 3"), "error pins the line: {err}");
        assert!(err.contains("invalid trace record"), "{err}");
    }

    #[test]
    fn analyze_rejects_unknown_subcommand_and_stray_subcommands() {
        let err = run("analyze frobnicate --trace x.jsonl").unwrap_err();
        assert!(err.contains("unknown analyze subcommand"), "{err}");
        let err = run("simulate extra --a x.swf").unwrap_err();
        assert!(err.contains("takes no subcommand"), "{err}");
    }

    #[test]
    fn unknown_command_reports_usage() {
        let err = run("frobnicate --x 1").unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
        assert!(err.contains("USAGE"), "{err}");
    }

    #[test]
    fn generate_rejects_unknown_machine() {
        let err = run(&format!(
            "generate --machine cray --out {}",
            tmp("nope.swf")
        ))
        .unwrap_err();
        assert!(err.contains("unknown machine model"), "{err}");
    }

    #[test]
    fn simulate_rejects_bad_combo() {
        let a = tmp("badcombo_a.swf");
        run(&format!(
            "generate --machine eureka --out {a} --days 1 --seed 8"
        ))
        .unwrap();
        let err = run(&format!(
            "simulate --a {a} --b {a} --combo XX --capacity-a 100 --capacity-b 100"
        ))
        .unwrap_err();
        assert!(err.contains("bad --combo"), "{err}");
    }

    /// A job larger than its machine can never start, so an undersized
    /// capacity is a usage error, not a run that ends looking deadlocked.
    #[test]
    fn simulate_rejects_capacity_below_largest_job() {
        let a = tmp("undersized_a.swf");
        let b = tmp("undersized_b.swf");
        run(&format!(
            "generate --machine eureka --out {a} --days 1 --seed 12"
        ))
        .unwrap();
        run(&format!(
            "generate --machine eureka --out {b} --days 1 --seed 13"
        ))
        .unwrap();
        let err = run(&format!(
            "simulate --a {a} --b {b} --combo HY --capacity-a 4 --capacity-b 100"
        ))
        .unwrap_err();
        assert!(err.contains(&a), "{err}");
        assert!(err.contains("--capacity-a 4"), "{err}");
        assert!(err.contains("job "), "{err}");
        let err = run(&format!(
            "simulate --a {a} --b {b} --combo HY --capacity-a 100 --capacity-b 4"
        ))
        .unwrap_err();
        assert!(err.contains(&b), "{err}");
        assert!(err.contains("--capacity-b 4"), "{err}");
    }

    #[test]
    fn pairs_file_with_dangling_reference_is_rejected() {
        let a = tmp("dangle_a.swf");
        let b = tmp("dangle_b.swf");
        let pairs = tmp("dangle_pairs.json");
        run(&format!(
            "generate --machine eureka --out {a} --days 1 --seed 9"
        ))
        .unwrap();
        run(&format!(
            "generate --machine eureka --out {b} --days 1 --seed 10"
        ))
        .unwrap();
        std::fs::write(&pairs, r#"{"pairs": [[999999, 0]]}"#).unwrap();
        let err = run(&format!(
            "simulate --a {a} --b {b} --pairs {pairs} --capacity-a 100 --capacity-b 100"
        ))
        .unwrap_err();
        assert!(err.contains("missing job"), "{err}");
    }

    #[test]
    fn analyze_reports_trace_shape() {
        let a = tmp("analyze_a.swf");
        run(&format!(
            "generate --machine eureka --out {a} --days 2 --seed 11"
        ))
        .unwrap();
        let out = run(&format!("analyze --trace {a} --capacity 100")).unwrap();
        assert!(out.contains("sizes (nodes)"), "{out}");
        assert!(out.contains("offered utilization"), "{out}");
        assert!(out.contains("daily load unevenness"), "{out}");
    }

    #[test]
    fn help_prints_usage() {
        let out = run("help").unwrap();
        assert!(out.contains("USAGE"), "{out}");
    }

    /// `--telemetry` must not perturb the primary trace: same-seed runs
    /// with and without the monitor teed produce byte-identical JSONL.
    #[test]
    fn simulate_telemetry_keeps_trace_byte_identical() {
        let a = tmp("tele_a.swf");
        let b = tmp("tele_b.swf");
        let pairs = tmp("tele_pairs.json");
        let plain = tmp("tele_plain.jsonl");
        let teed = tmp("tele_teed.jsonl");
        run(&format!(
            "generate --machine eureka --out {a} --days 2 --util 0.5 --seed 3"
        ))
        .unwrap();
        run(&format!(
            "generate --machine eureka --out {b} --days 2 --util 0.4 --seed 4"
        ))
        .unwrap();
        run(&format!(
            "pair --a {a} --b {b} --out {pairs} --proportion 0.2 --seed 5"
        ))
        .unwrap();
        run(&format!(
            "simulate --a {a} --b {b} --pairs {pairs} --combo HY --capacity-a 100 \
             --capacity-b 100 --trace-out {plain}"
        ))
        .unwrap();
        let out = run(&format!(
            "simulate --a {a} --b {b} --pairs {pairs} --combo HY --capacity-a 100 \
             --capacity-b 100 --trace-out {teed} --telemetry 127.0.0.1:0"
        ))
        .unwrap();
        assert!(out.contains("telemetry: serving"), "{out}");
        assert_eq!(
            std::fs::read(&plain).unwrap(),
            std::fs::read(&teed).unwrap(),
            "teeing the monitor changed the primary trace"
        );
    }

    #[test]
    fn simulate_rejects_alert_options_without_telemetry() {
        let a = tmp("telereq_a.swf");
        run(&format!(
            "generate --machine eureka --out {a} --days 1 --seed 12"
        ))
        .unwrap();
        let err = run(&format!(
            "simulate --a {a} --b {a} --combo off --capacity-a 100 --capacity-b 100 \
             --alerts {}",
            "queued>0"
        ))
        .unwrap_err();
        assert!(err.contains("requires --telemetry"), "{err}");
    }

    #[test]
    fn simulate_rejects_bad_alert_rule() {
        let a = tmp("telebad_a.swf");
        run(&format!(
            "generate --machine eureka --out {a} --days 1 --seed 13"
        ))
        .unwrap();
        let err = run(&format!(
            "simulate --a {a} --b {a} --combo off --capacity-a 100 --capacity-b 100 \
             --telemetry 127.0.0.1:0 --alerts nonsense"
        ))
        .unwrap_err();
        assert!(!err.is_empty(), "{err}");
    }

    #[test]
    fn watch_once_renders_dashboard_from_live_server() {
        use cosched_obs::monitor::StreamingMonitor;
        use cosched_obs::trace::TraceEvent;
        use cosched_obs::Observer;
        use cosched_telemetry::{MonitorProvider, TelemetryServer};

        let mut monitor = StreamingMonitor::new().with_capacities(&[64]);
        monitor.record(
            0,
            0,
            TraceEvent::JobSubmitted {
                job: 1,
                size: 32,
                paired: false,
            },
        );
        monitor.record(
            5,
            0,
            TraceEvent::CoschedStart {
                job: 1,
                with_mate: false,
            },
        );
        let mut server =
            TelemetryServer::spawn("127.0.0.1:0", MonitorProvider::new(monitor.clone())).unwrap();
        let addr = server.addr().to_string();
        let out = run(&format!("watch {addr} --once")).unwrap();
        assert!(out.contains("cosched watch"), "{out}");
        assert!(out.contains("machine 0"), "{out}");
        assert!(out.contains("1 running"), "{out}");
        // A single frame never emits the clear-screen escape.
        assert!(!out.contains('\x1b'), "{out:?}");
        server.shutdown();
    }

    #[test]
    fn watch_requires_an_address() {
        let err = run("watch --once").unwrap_err();
        assert!(err.contains("watch needs an address"), "{err}");
    }

    #[test]
    fn bench_campaign_serves_progress_telemetry() {
        let progress = CampaignProgress::default();
        progress.update(|st| {
            st.sweeps_total = 2;
            st.sweeps_done = 1;
            st.current = "load".to_string();
            st.cells = 40;
        });
        let text = progress.metrics_text();
        assert!(
            text.contains("# TYPE cosched_bench_sweeps_done gauge"),
            "{text}"
        );
        assert!(text.contains("cosched_bench_cells_total 40"), "{text}");
        let health = progress.health();
        assert!(health.ok);
        assert_eq!(health.status, "running");
        let json: serde_json::Value = serde_json::from_str(&progress.state_json()).unwrap();
        assert_eq!(json["sweeps_done"], 1);
        assert_eq!(json["current"], "load");

        // The real command accepts the option and reports the endpoint.
        let out =
            run("bench campaign --scale smoke --threads 1 --sweep load --telemetry 127.0.0.1:0")
                .unwrap();
        assert!(out.contains("telemetry: serving"), "{out}");
    }
}
