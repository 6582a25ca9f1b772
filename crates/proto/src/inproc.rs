//! In-process transport over `std::sync::mpsc` channels.
//!
//! Useful for tests and for deployments where both resource managers run in
//! one supervisor process. The channel pair gives the same call/serve split
//! as TCP — including timeouts — without sockets.

use crate::message::{Request, Response};
use crate::span::{SpanContext, TracedRequest};
use crate::transport::{DomainService, ProtoError, Transport};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::time::Duration;

/// Client half of an in-process link.
pub struct InprocClient {
    tx: SyncSender<TracedRequest>,
    rx: Receiver<Response>,
    timeout: Duration,
}

/// Server half of an in-process link.
pub struct InprocServer {
    rx: Receiver<TracedRequest>,
    tx: SyncSender<Response>,
}

/// Create a connected client/server pair. `timeout` bounds each client call.
pub fn pair(timeout: Duration) -> (InprocClient, InprocServer) {
    let (req_tx, req_rx) = sync_channel(16);
    let (resp_tx, resp_rx) = sync_channel(16);
    (
        InprocClient {
            tx: req_tx,
            rx: resp_rx,
            timeout,
        },
        InprocServer {
            rx: req_rx,
            tx: resp_tx,
        },
    )
}

impl Transport for InprocClient {
    fn call(&mut self, req: &Request) -> Result<Response, ProtoError> {
        self.call_with(req, SpanContext::NONE)
    }

    fn call_with(&mut self, req: &Request, ctx: SpanContext) -> Result<Response, ProtoError> {
        self.tx
            .send(TracedRequest {
                ctx,
                req: req.clone(),
            })
            .map_err(|_| ProtoError::Disconnected("server dropped".into()))?;
        match self.rx.recv_timeout(self.timeout) {
            Ok(resp) => Ok(resp),
            Err(RecvTimeoutError::Timeout) => Err(ProtoError::Timeout),
            Err(RecvTimeoutError::Disconnected) => {
                Err(ProtoError::Disconnected("server dropped".into()))
            }
        }
    }
}

impl InprocServer {
    /// Serve exactly one request (blocking). Returns `false` when the client
    /// side is gone.
    pub fn serve_once<S: DomainService>(&self, service: &mut S) -> bool {
        match self.rx.recv() {
            Ok(env) => {
                let resp = service.handle_traced(env.req, env.ctx);
                self.tx.send(resp).is_ok()
            }
            Err(_) => false,
        }
    }

    /// Serve until the client disconnects.
    pub fn serve<S: DomainService>(&self, service: &mut S) {
        while self.serve_once(service) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MateStatus;
    use std::thread;

    #[test]
    fn call_roundtrips_through_thread() {
        let (mut client, server) = pair(Duration::from_secs(1));
        let handle = thread::spawn(move || {
            let mut svc = |req: Request| match req {
                Request::Ping => Response::Pong,
                Request::GetMateStatus { .. } => Response::MateStatus(MateStatus::Holding),
                _ => Response::Error("nope".into()),
            };
            server.serve(&mut svc);
        });
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        let resp = client
            .call(&Request::GetMateStatus {
                job: cosched_workload::JobId(1),
            })
            .unwrap();
        assert_eq!(resp.status(), MateStatus::Holding);
        drop(client);
        handle.join().unwrap();
    }

    #[test]
    fn timeout_when_server_is_silent() {
        let (mut client, _server) = pair(Duration::from_millis(20));
        // Keep `_server` alive but never serve: the call must time out.
        let err = client.call(&Request::Ping).unwrap_err();
        assert!(matches!(err, ProtoError::Timeout), "{err}");
    }

    #[test]
    fn disconnected_when_server_dropped() {
        let (mut client, server) = pair(Duration::from_secs(1));
        drop(server);
        let err = client.call(&Request::Ping).unwrap_err();
        assert!(matches!(err, ProtoError::Disconnected(_)), "{err}");
    }
}
