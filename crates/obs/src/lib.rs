//! Deterministic observability layer for the coupled-coscheduling stack.
//!
//! Three orthogonal pieces, kept deliberately separate so that tracing can
//! never perturb simulation results:
//!
//! * **Event tracing** ([`trace`], [`observe`]) — structured,
//!   sim-time-stamped [`trace::TraceEvent`]s flow from the scheduler and
//!   the coscheduling driver (its protocol calls included) into an
//!   [`observe::Observer`]. The default [`observe::NoopObserver`] is a
//!   zero-sized type whose `active()` is a compile-time constant `false`,
//!   so event construction is skipped entirely (static dispatch, no
//!   branches survive inlining). Sinks include JSONL writers and an
//!   in-memory ring buffer; written traces read back through
//!   [`reader::TraceReader`], which pins parse failures to their line.
//! * **Metrics** ([`metrics`]) — a tiny registry of named counters and
//!   log₂-bucketed histograms with snapshot types that serialize into
//!   reports. Deterministic inputs only (sim time, counts): identical
//!   seeds produce identical snapshots.
//! * **Phase profiling** ([`profile`]) — wall-clock timings around
//!   scheduler iterations, release sweeps, and RPCs. Wall-clock data is
//!   *never* mixed into traces or report metrics; it lives in its own
//!   snapshot so determinism guarantees hold.
//! * **The job state machine** ([`lifecycle`]) — [`LifecycleSet::apply`]
//!   folds one record at a time into per-job timelines (submit → queued ⇄
//!   held → running → finished) and rejects records that contradict it.
//!   It is the only one: the [`StreamingMonitor`] derives its live
//!   aggregates from it, and `cosched-trace` re-exports it for offline
//!   analysis.
//!
//! The crate has no dependency on the rest of the workspace (events carry
//! plain `u64` sim-seconds), so every layer can depend on it without
//! cycles.

pub mod alert;
pub mod lifecycle;
pub mod metrics;
pub mod monitor;
pub mod observe;
pub mod profile;
pub mod reader;
pub mod trace;

pub use alert::{default_rules, ActiveAlert, AlertEngine, AlertOp, AlertRule};
pub use lifecycle::{JobLifecycle, LifecycleError, LifecycleSet, Rendezvous};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use monitor::{MachineTelemetry, StreamingMonitor, TelemetrySnapshot};
pub use observe::{
    JsonlSink, NoopObserver, Observer, RingSink, Sink, SinkObserver, TeeObserver, VecSink,
};
pub use profile::{Phase, PhaseProfiler, PhaseSnapshot};
pub use reader::{
    read_trace_file, read_trace_str, write_trace_string, TraceReadError, TraceReader,
};
pub use trace::{SpanKind, TraceEvent, TraceRecord, GLOBAL, NO_JOB, NO_SPAN};
