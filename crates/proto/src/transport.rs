//! Client-side transport abstraction and the service trait domains
//! implement.

use crate::message::{Request, Response};
use crate::span::SpanContext;

/// Failures a caller can observe. The coscheduling algorithm maps *any* of
/// these to the remote-down branch of Algorithm 1 — the ready job starts
/// normally rather than waiting on a dead peer.
#[derive(Debug)]
pub enum ProtoError {
    /// No response within the configured deadline.
    Timeout,
    /// The connection is gone (peer closed, reset, or never reachable).
    Disconnected(String),
    /// A frame arrived but could not be interpreted.
    Protocol(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Timeout => write!(f, "request timed out"),
            ProtoError::Disconnected(d) => write!(f, "transport disconnected: {d}"),
            ProtoError::Protocol(d) => write!(f, "protocol violation: {d}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// A synchronous request/response channel to the remote scheduling domain.
pub trait Transport {
    /// Issue one request and wait for its response.
    fn call(&mut self, req: &Request) -> Result<Response, ProtoError>;

    /// Issue one request carrying the caller's span context. Transports
    /// that propagate context on the wire (TCP, in-process) override this;
    /// the default simply drops the context.
    fn call_with(&mut self, req: &Request, _ctx: SpanContext) -> Result<Response, ProtoError> {
        self.call(req)
    }
}

/// The server side: what a resource manager exposes to its peers. One
/// method — the protocol is deliberately small so "systems using different
/// resource managers or schedulers" (LSF, PBS, Cobalt…) can interface.
pub trait DomainService {
    /// Answer one coordination request.
    fn handle(&mut self, req: Request) -> Response;

    /// Answer one request that arrived with a caller span context. Services
    /// that trace their work override this to parent handler spans under
    /// `ctx.span`; the default ignores the context.
    fn handle_traced(&mut self, req: Request, _ctx: SpanContext) -> Response {
        self.handle(req)
    }
}

/// Blanket adapter: any closure with the right shape is a service. Handy in
/// tests and for wiring simulator state in without a newtype.
impl<F> DomainService for F
where
    F: FnMut(Request) -> Response,
{
    fn handle(&mut self, req: Request) -> Response {
        self(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_a_service() {
        let mut svc = |req: Request| match req {
            Request::Ping => Response::Pong,
            _ => Response::Error("unsupported".into()),
        };
        assert_eq!(svc.handle(Request::Ping), Response::Pong);
        assert!(matches!(
            svc.handle(Request::GetMateStatus {
                job: cosched_workload::JobId(1)
            }),
            Response::Error(_)
        ));
    }

    #[test]
    fn errors_display() {
        assert!(ProtoError::Timeout.to_string().contains("timed out"));
        assert!(ProtoError::Disconnected("x".into())
            .to_string()
            .contains("x"));
        assert!(ProtoError::Protocol("y".into()).to_string().contains("y"));
    }
}
