//! Trace analysis for the coupled-coscheduling stack: turn the JSONL event
//! streams emitted by `cosched-obs` into answers.
//!
//! The observability layer writes; this crate reads. Four pieces:
//!
//! * **Lifecycle reconstruction** ([`lifecycle`]) — fold the interleaved
//!   [`cosched_obs::TraceRecord`] stream back into per-job timelines
//!   (submit → queued ⇄ held → running → finished), strictly validating
//!   event ordering so emission bugs fail loudly. The fold lives in
//!   `cosched-obs`, where the streaming monitor runs the same state
//!   machine online; it is re-exported here under its old paths.
//! * **Wait-time attribution** ([`attribution`]) — decompose each job's
//!   wait into local queueing vs. coscheduling components (hold time,
//!   yield give-backs, forced releases), aggregated per machine with the
//!   machine's scheme (hold/yield) inferred from its events. This is the
//!   paper's §V trade-off made measurable from a trace alone.
//! * **Trace diffing** ([`diff`]) — align two same-workload traces by
//!   `(machine, job)` and report per-job and aggregate deltas; two
//!   same-seed traces of the same scheme must diff to zero, which makes
//!   the differ a determinism regression check.
//! * **Causal spans** ([`span_tree`], [`critical`]) — rebuild the
//!   `SpanOpen`/`SpanClose` forest the driver emits around rendezvous,
//!   holds, yields, RPCs and sweeps, then compute each mate pair's
//!   critical path from first submit to synchronized start, attributed to
//!   segment classes (local-queue / hold / yield / rpc / demotion /
//!   backfill-shadow) and aggregated per scheme combo.
//! * **Exposition** ([`prom`], [`render`], [`perfetto`]) — Prometheus
//!   text-format output for [`cosched_obs::MetricsSnapshot`]s and live
//!   telemetry snapshots, ASCII Gantt/utilization timelines rendered
//!   deterministically from lifecycles, and Chrome trace-event JSON
//!   (Perfetto-loadable) with cross-machine flow arrows for RPC edges.
//!
//! Everything consumes plain `TraceRecord`s (a slice, or one at a time
//! into a `LifecycleSet`), read back through
//! [`cosched_obs::reader::TraceReader`]; no simulation types are needed,
//! so traces can be analyzed long after (and far away from) the run that
//! produced them.

pub mod attribution;
pub mod critical;
pub mod diff;
pub mod perfetto;
pub mod prom;
pub mod render;
pub mod span_tree;

pub use attribution::{AttributionReport, JobAttribution, MachineAttribution, SchemeGuess};
pub use cosched_obs::lifecycle::{self, JobLifecycle, LifecycleError, LifecycleSet, Rendezvous};
pub use critical::{ComboAggregate, CriticalPathReport, PairPath, Segment, SegmentClass};
pub use diff::{DiffReport, JobDelta};
pub use perfetto::render_perfetto;
pub use prom::{
    escape_label_value, render_prometheus, render_prometheus_into, render_telemetry_prometheus,
    render_telemetry_prometheus_into, sanitize_name, PromWriter,
};
pub use render::{render_gantt, render_utilization};
pub use span_tree::{SpanNode, SpanTree, SpanTreeError};
