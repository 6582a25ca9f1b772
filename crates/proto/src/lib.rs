//! The lightweight coordination protocol between scheduling domains.
//!
//! The paper's coscheduling "is built on top of a lightweight protocol for
//! coordination between policy domains without manual intervention": four
//! RPCs (`get_mate_job`, `get_mate_status`, `try_start_mate`, `start_job`)
//! that one resource manager invokes on the other. The protocol is what lets
//! "jobs submitted to a compute resource running LSF … be coscheduled with
//! jobs submitted to an analysis resource running PBS" — each side only
//! needs to expose these calls.
//!
//! This crate provides:
//!
//! * [`message`] — the typed request/response vocabulary, serde-serializable;
//! * [`frame`] — length-prefixed wire framing with an incremental decoder;
//! * [`transport`] — the client-side [`transport::Transport`] abstraction
//!   and the [`transport::DomainService`] trait a resource manager
//!   implements to answer calls;
//! * [`inproc`] — an in-process channel transport for tests and
//!   single-process deployments;
//! * [`tcp`] — a TCP transport and a threaded server, with timeouts that
//!   surface as [`transport::ProtoError::Timeout`] so the caller can apply
//!   the paper's fault-tolerance rule (remote unknown ⇒ start normally);
//! * [`span`] — span-context propagation: requests travel in a
//!   [`span::TracedRequest`] envelope carrying the caller's causal span id,
//!   so remote handler work parents under the caller's span.
//!
//! Transports do not count or time calls themselves: the coupled
//! simulator emits one `RpcCall` or `RpcTimeout` trace record per call
//! (`cosched_obs::trace`), and those records feed the streaming monitor,
//! `/metrics` and the trace analyzers.

pub mod frame;
pub mod inproc;
pub mod message;
pub mod span;
pub mod tcp;
pub mod transport;

pub use message::{MateStatus, Request, Response};
pub use span::{SpanContext, TracedRequest};
pub use transport::{DomainService, ProtoError, Transport};
