//! Single-domain resource manager: the scheduling substrate each coupled
//! machine runs independently.
//!
//! In the paper, each machine (Intrepid runs Cobalt on a Blue Gene/P,
//! Eureka a conventional cluster) is managed by its own resource manager
//! with its own policy. This crate reproduces that substrate:
//!
//! * [`alloc`] — node allocators: a [`alloc::FlatAllocator`] for ordinary
//!   clusters and a [`alloc::BuddyAllocator`] modelling Blue Gene/P
//!   partition allocation (power-of-two midplane blocks, with the
//!   fragmentation behaviour that makes holding nodes expensive);
//! * [`policy`] — queue-ordering policies: FCFS and WFP (the utility
//!   function used on Intrepid: `(wait/walltime)³ × size`);
//! * [`backfill`] — EASY backfilling: shadow-time/spare-node computation for
//!   the head-job reservation, planned on the users' requested walltimes;
//! * [`machine`] — the resource manager itself: queueing, scheduling
//!   iterations producing *ready* candidates, job lifecycle, and the
//!   hold/yield bookkeeping the coscheduling layer drives.
//!
//! The split from `cosched-core` mirrors the paper's architecture: this
//! crate knows nothing about mates or remote domains; coscheduling is layered
//! on top through the [`machine::Machine`] hold/yield/start API, exactly as
//! Algorithm 1 extends the pre-existing `Run_Job` function.

pub mod alloc;
pub mod backfill;
pub mod machine;
pub mod policy;

pub use alloc::{AllocHandle, AllocatorKind, NodeAllocator};
pub use machine::{Candidate, JobStatus, Machine, MachineConfig, SchedStats};
pub use policy::PolicyKind;
