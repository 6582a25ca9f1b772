//! Facade crate for the coupled-system job-coscheduling reproduction.
//!
//! Re-exports the workspace's public API under one roof so that examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! * [`sim`] — deterministic discrete-event engine,
//! * [`workload`] — job model, traces, synthetic generators, pairing,
//! * [`sched`] — single-domain resource manager (allocators, WFP/FCFS,
//!   EASY backfilling),
//! * [`proto`] — the lightweight cross-domain coordination protocol,
//! * [`cosched`] — the paper's contribution: the `Run_Job` coscheduling
//!   algorithm, hold/yield schemes, deadlock breaker, the coupled
//!   simulation driver, live wall-clock domains, and the §VI extensions
//!   (N-way coscheduling, inter-job temporal constraints),
//! * [`resv`] — the advance co-reservation baseline of the §III comparison,
//! * [`metrics`] — evaluation metrics (wait, slowdown, sync time,
//!   service-unit loss),
//! * [`obs`] — the observability layer: structured sim-time trace events,
//!   sinks (JSONL, in-memory), a metrics registry, and wall-clock phase
//!   profiling, all guaranteed not to perturb simulation outcomes,
//! * [`trace`] — trace analysis: job-lifecycle reconstruction from JSONL
//!   event streams, wait-time attribution (local queueing vs.
//!   coscheduling), trace diffing, Prometheus text exposition, and ASCII
//!   timeline rendering,
//! * [`telemetry`] — the live telemetry plane: an embedded HTTP server for
//!   `/metrics`, `/healthz`, and `/state` over a streaming monitor, a tiny
//!   polling client, and the `cosched watch` terminal dashboard renderer.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system map.

pub use cosched_core as cosched;
pub use cosched_metrics as metrics;
pub use cosched_obs as obs;
pub use cosched_proto as proto;
pub use cosched_resv as resv;
pub use cosched_sched as sched;
pub use cosched_sim as sim;
pub use cosched_telemetry as telemetry;
pub use cosched_trace as trace;
pub use cosched_workload as workload;

/// Commonly used items, importable as `use coupled_cosched::prelude::*`.
pub mod prelude {
    pub use cosched_core::config::{CoschedConfig, CoupledConfig, Scheme, SchemeCombo};
    pub use cosched_core::driver::{CoupledSimulation, RunArtifacts, RunStats, SimulationReport};
    pub use cosched_metrics::summary::MachineSummary;
    pub use cosched_obs::{
        default_rules, AlertRule, JsonlSink, NoopObserver, Observer, Sink, SinkObserver,
        StreamingMonitor, TeeObserver, TelemetrySnapshot, TraceEvent, TraceRecord, VecSink,
    };
    pub use cosched_sched::machine::MachineConfig;
    pub use cosched_sched::policy::PolicyKind;
    pub use cosched_sim::{SimDuration, SimTime};
    pub use cosched_telemetry::{MonitorProvider, TelemetryServer};
    pub use cosched_trace::{
        AttributionReport, CriticalPathReport, DiffReport, LifecycleSet, SpanTree,
    };
    pub use cosched_workload::job::{Job, JobId, MachineId};
    pub use cosched_workload::trace::Trace;
}
