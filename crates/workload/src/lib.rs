//! Job model, trace I/O, synthetic workload generation, and paired-job
//! association for the coupled-system coscheduling reproduction.
//!
//! The paper evaluates on real 2010 traces from Intrepid (40,960-node Blue
//! Gene/P) and Eureka (100-node analysis cluster) at Argonne. Those traces
//! are not public, so this crate provides:
//!
//! * [`job`] — the [`job::Job`] record shared by the whole workspace,
//!   including the *mate* cross-reference that marks associated job pairs;
//! * [`trace`] — ordered job collections with workload statistics and the
//!   arrival-interval scaling the paper uses to retarget utilization;
//! * [`swf`] — Standard Workload Format reader/writer so real traces can be
//!   substituted back in;
//! * [`generator`] — statistical models of the Intrepid and Eureka workloads
//!   calibrated to the characteristics published in the paper (job-size
//!   ranges, ~9,219 jobs/month, month-long span);
//! * [`pairing`] — the two association rules from the evaluation: the
//!   2-minute submission-window rule (§V-D) and exact-proportion pairing
//!   (§V-E).

pub mod generator;
pub mod job;
pub mod pairing;
pub mod stats;
pub mod swf;
pub mod trace;

pub use generator::{MachineModel, TraceGenerator};
pub use job::{Job, JobId, MachineId, MateRef};
pub use trace::Trace;
