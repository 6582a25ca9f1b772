//! Coscheduling of associated jobs on coupled high-end computing systems —
//! the primary contribution of Tang et al., ICPP 2011.
//!
//! Two machines with independent resource managers and policies run
//! workloads containing *associated pairs*: a compute job and its data
//! analysis/visualization mate that must start simultaneously. This crate
//! implements:
//!
//! * [`config`] — the hold/yield [`config::Scheme`]s, the four
//!   [`config::SchemeCombo`]s (HH/HY/YH/YY), and the enhancement knobs of
//!   §IV-E (hold-release period, maximum held-node fraction, maximum yields
//!   before escalating to hold, per-yield priority boost);
//! * [`registry`] — the mate registry mapping each paired job to its mate on
//!   the other domain;
//! * [`algorithm`] — Algorithm 1 (`Run_Job`) as a pure decision procedure
//!   over the protocol vocabulary, shared by the simulator and the live
//!   endpoint, including all fault-tolerance branches;
//! * `domain` (crate-private) — one machine's domain core, shared by the
//!   simulator and the live daemon: the protocol handler, the decision
//!   commit, the batch release policy (deadlock breaker), and submission;
//! * [`driver`] — the coupled event-driven simulator (the Qsim extension of
//!   §V-A) and the crate's one event loop: k domains, coordination routed
//!   through protocol messages, fault injection, causal spans, deadlock
//!   detection; [`driver::CoupledSimulation`] is its k = 2 case with a
//!   [`driver::SimulationReport`];
//! * [`live`] — a domain behind a mutex that serves the protocol over a
//!   real [`cosched_proto::Transport`], demonstrating deployment outside
//!   the simulator;
//! * [`nway`] — the §VI future work on the same loop: co-start groups of k
//!   jobs, soft `StartWithin` groups and ordered `StartAfter` edges, with
//!   one registry of relations and one graded report.

pub mod algorithm;
pub mod config;
mod domain;
pub mod driver;
pub mod live;
pub mod nway;
pub mod registry;

pub use algorithm::{run_job, run_job_traced, Decision, LocalContext};
pub use config::{CoschedConfig, CoupledConfig, Scheme, SchemeCombo};
pub use domain::SubmitError;
pub use driver::{CoupledSimulation, RunArtifacts, RunStats, SimulationReport};
pub use nway::{
    Constraint, GroupError, GroupId, GroupRegistry, NwayConfig, NwayReport, NwaySimulation,
};
pub use registry::MateRegistry;
