//! Deterministic discrete-event simulation engine.
//!
//! This crate is the substrate underneath the coscheduling simulator
//! (the role Qsim plays for the Cobalt resource manager in the paper).
//! It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-second simulation clock types,
//! * [`EventQueue`] — a cancellable priority queue of timestamped events with
//!   deterministic FIFO tie-breaking,
//! * [`Engine`] — a small driver that pops events and dispatches them to an
//!   [`EventHandler`],
//! * [`IdHashMap`] / [`IdHashSet`] — maps and sets keyed by integer ids,
//!   hashed with a deterministic multiply hasher instead of SipHash,
//! * [`rng`] — seedable, reproducible random-number plumbing,
//! * [`dist`] — the statistical distributions used by the workload
//!   generators (exponential, log-normal, Weibull, discrete histogram).
//!
//! Everything here is deterministic: running the same simulation twice with
//! the same seed produces byte-identical event sequences. That property is
//! relied on by the reproduction harness and asserted by integration tests.

pub mod dist;
pub mod engine;
pub mod event;
pub mod idhash;
pub mod rng;
pub mod time;

pub use engine::{Engine, EventHandler, StepOutcome};
pub use event::{EventId, EventQueue, ScheduledEvent};
pub use idhash::{IdHashMap, IdHashSet};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime, DAY, HOUR, MINUTE, SECOND};
