//! The `obs` and `trace` layers, timed on the observability workflow of
//! `cosched simulate --trace-out` followed by `cosched analyze`, in memory:
//! one HY cell simulated with a JSONL sink and a streaming monitor, the
//! trace read back and analysed. A traced run measures them on its first
//! trace set.

use crate::inputs::jobs_of;
use crate::report::{ratio, timed, Report};
use crate::timing::cell_failure;
use cosched_core::{CoupledConfig, CoupledSimulation, SchemeCombo};
use cosched_obs::{
    JsonlSink, NoopObserver, Observer, SinkObserver, StreamingMonitor, TeeObserver, TraceReader,
    VecSink,
};
use cosched_trace::{render_perfetto, AttributionReport, CriticalPathReport, LifecycleSet};
use cosched_workload::Trace;

fn config() -> CoupledConfig {
    CoupledConfig::anl(SchemeCombo::HY)
}

/// The observability workflow: simulate with a JSONL sink teed with a
/// streaming monitor, read the JSONL back, reconstruct lifecycles, attribute
/// waits, check every pair's critical path, and export Perfetto JSON.
fn workflow(traces: [Trace; 2]) -> Result<(), String> {
    let jobs = jobs_of(&traces);
    let monitor = StreamingMonitor::new();
    let observer = TeeObserver::new(
        SinkObserver::new(JsonlSink::new(Vec::new())),
        monitor.clone(),
    );
    let artifacts = CoupledSimulation::with_observer(config(), traces, observer).run_traced();
    if let Some(why) = cell_failure(true, &artifacts.report) {
        return Err(why.to_string());
    }
    monitor.finish(artifacts.report.deadlocked);
    let finished = monitor.snapshot().finished;
    if finished != jobs {
        return Err(format!("the monitor saw {finished} of {jobs} jobs finish"));
    }
    let jsonl = artifacts.observer.first.into_sink().into_inner();
    let records = TraceReader::new(jsonl.as_slice())
        .read_all()
        .map_err(|e| format!("reading the trace back: {e}"))?;
    let lifecycles =
        LifecycleSet::from_records(&records).map_err(|e| format!("lifecycles: {e}"))?;
    if lifecycles.jobs.len() as u64 != jobs {
        return Err(format!(
            "{} lifecycles for {jobs} jobs",
            lifecycles.jobs.len()
        ));
    }
    std::hint::black_box(AttributionReport::from_lifecycles(&lifecycles));
    let critical =
        CriticalPathReport::from_records(&records).map_err(|e| format!("critical path: {e}"))?;
    for path in &critical.pairs {
        path.check()
            .map_err(|e| format!("pair ({}, {}): {e}", path.job0, path.job1))?;
    }
    let perfetto = render_perfetto(&records).map_err(|e| format!("perfetto export: {e}"))?;
    std::hint::black_box(perfetto);
    Ok(())
}

/// Simulate an HY cell on `traces` under `observer`; returns the observer
/// and the wall time in nanoseconds.
fn simulate<O: Observer>(traces: &[Trace; 2], observer: O) -> (O, f64) {
    let input = traces.clone();
    let (artifacts, ns) =
        timed(|| CoupledSimulation::with_observer(config(), input, observer).run_traced());
    (artifacts.observer, ns)
}

/// Totals of the `obs` and `trace` stages over a traced run.
#[derive(Debug, Default)]
pub struct ObsLayers {
    ops: u64,
    failed: u64,
    records: u64,
    jobs: u64,
    pairs: u64,
    jsonl_bytes: u64,
    perfetto_bytes: u64,
    untraced_ns: f64,
    vec_ns: f64,
    jsonl_ns: f64,
    monitor_ns: f64,
    read_ns: f64,
    lifecycle_ns: f64,
    attribution_ns: f64,
    critical_ns: f64,
    perfetto_ns: f64,
    workflow_ns: f64,
    mismatched_reads: u64,
}

impl ObsLayers {
    /// Time each stage of the workflow on `traces` apart, then the whole
    /// workflow.
    pub fn cell(&mut self, traces: &[Trace; 2]) {
        let (_, untraced_ns) = simulate(traces, NoopObserver);
        let (collected, vec_ns) = simulate(traces, SinkObserver::new(VecSink::default()));
        let (jsonl, jsonl_ns) = simulate(traces, SinkObserver::new(JsonlSink::new(Vec::new())));
        let (_, monitor_ns) = simulate(traces, StreamingMonitor::new());
        let jsonl = jsonl.into_sink().into_inner();
        let (read, read_ns) = timed(|| TraceReader::new(jsonl.as_slice()).read_all());
        let records = match read {
            Ok(records) => records,
            Err(e) => return self.fail(format!("reading the trace back: {e}")),
        };
        self.mismatched_reads += u64::from(records != collected.sink().records);
        let (lifecycles, lifecycle_ns) = timed(|| LifecycleSet::from_records(&records));
        let lifecycles = match lifecycles {
            Ok(lifecycles) => lifecycles,
            Err(e) => return self.fail(format!("lifecycles: {e}")),
        };
        let (attribution, attribution_ns) =
            timed(|| AttributionReport::from_lifecycles(&lifecycles));
        std::hint::black_box(attribution);
        let (critical, critical_ns) = timed(|| CriticalPathReport::from_records(&records));
        let critical = match critical {
            Ok(critical) => critical,
            Err(e) => return self.fail(format!("critical path: {e}")),
        };
        let (perfetto, perfetto_ns) = timed(|| render_perfetto(&records));
        let perfetto = match perfetto {
            Ok(perfetto) => perfetto,
            Err(e) => return self.fail(format!("perfetto export: {e}")),
        };
        let input = traces.clone();
        let (result, workflow_ns) = timed(|| workflow(input));
        if let Err(e) = result {
            return self.fail(e);
        }
        self.ops += 1;
        self.records += records.len() as u64;
        self.jobs += jobs_of(traces);
        self.pairs += critical.pairs.len() as u64;
        self.jsonl_bytes += jsonl.len() as u64;
        self.perfetto_bytes += perfetto.len() as u64;
        self.untraced_ns += untraced_ns;
        self.vec_ns += vec_ns;
        self.jsonl_ns += jsonl_ns;
        self.monitor_ns += monitor_ns;
        self.read_ns += read_ns;
        self.lifecycle_ns += lifecycle_ns;
        self.attribution_ns += attribution_ns;
        self.critical_ns += critical_ns;
        self.perfetto_ns += perfetto_ns;
        self.workflow_ns += workflow_ns;
    }

    fn fail(&mut self, why: String) {
        self.ops += 1;
        self.failed += 1;
        eprintln!("observability workflow stage failed: {why}");
    }

    /// Write the `obs` and `trace` rows and the share of the workflow spent
    /// outside the simulation itself.
    pub fn emit(&self, out: &mut Report) {
        let records = self.records as f64;
        out.attempted += self.ops;
        out.failed += self.failed;
        out.set(
            "obs.observe_ns_per_record",
            ratio(self.vec_ns - self.untraced_ns, records),
        );
        out.set(
            "obs.jsonl_ns_per_record",
            ratio(self.jsonl_ns - self.untraced_ns, records),
        );
        out.set(
            "obs.jsonl_bytes_per_record",
            ratio(self.jsonl_bytes as f64, records),
        );
        out.set(
            "obs.monitor_ns_per_record",
            ratio(self.monitor_ns - self.untraced_ns, records),
        );
        out.set("obs.read_ns_per_record", ratio(self.read_ns, records));
        out.set(
            "trace.lifecycle_ns_per_record",
            ratio(self.lifecycle_ns, records),
        );
        out.set(
            "trace.attribution_ns_per_job",
            ratio(self.attribution_ns, self.jobs as f64),
        );
        out.set(
            "trace.critical_path_ns_per_pair",
            ratio(self.critical_ns, self.pairs as f64),
        );
        out.set(
            "trace.perfetto_ns_per_record",
            ratio(self.perfetto_ns, records),
        );
        out.set(
            "trace.perfetto_bytes",
            ratio(self.perfetto_bytes as f64, self.ops as f64),
        );
        out.set(
            "bench.obs_trace_share",
            1.0 - ratio(self.untraced_ns, self.workflow_ns),
        );
        if self.mismatched_reads > 0 {
            out.problem("the trace read back differs from the records emitted".into());
        }
    }
}
