//! TCP transport and server.
//!
//! The deployment shape the paper targets: two resource managers on
//! different administrative domains, each exposing the coordination service
//! on a socket. [`TcpTransport`] is the client side with per-call read
//! timeouts; [`serve`] runs an accept loop handing each connection to a
//! shared [`DomainService`] behind a mutex (coordination traffic is a few
//! calls per scheduling iteration — contention is not a concern; simplicity
//! and correctness are).

use crate::frame::{encode, FrameDecoder};
use crate::message::{Request, Response};
use crate::span::{SpanContext, TracedRequest};
use crate::transport::{DomainService, ProtoError, Transport};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Client side of the protocol over TCP.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    decoder: FrameDecoder,
    timeout: Duration,
}

impl TcpTransport {
    /// Connect to a remote domain with the given per-call timeout.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<Self, ProtoError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| ProtoError::Disconnected(format!("connect {addr}: {e}")))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| ProtoError::Disconnected(e.to_string()))?;
        stream
            .set_nodelay(true)
            .map_err(|e| ProtoError::Disconnected(e.to_string()))?;
        Ok(TcpTransport {
            stream,
            decoder: FrameDecoder::new(),
            timeout,
        })
    }
}

impl Transport for TcpTransport {
    fn call(&mut self, req: &Request) -> Result<Response, ProtoError> {
        self.call_with(req, SpanContext::NONE)
    }

    fn call_with(&mut self, req: &Request, ctx: SpanContext) -> Result<Response, ProtoError> {
        let wire = encode(&TracedRequest {
            ctx,
            req: req.clone(),
        });
        self.stream
            .write_all(&wire)
            .map_err(|e| ProtoError::Disconnected(format!("send: {e}")))?;
        let deadline = std::time::Instant::now() + self.timeout;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(resp) = self
                .decoder
                .next::<Response>()
                .map_err(|e| ProtoError::Protocol(e.to_string()))?
            {
                return Ok(resp);
            }
            if std::time::Instant::now() >= deadline {
                return Err(ProtoError::Timeout);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ProtoError::Disconnected("peer closed".into())),
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(ProtoError::Timeout);
                }
                Err(e) => return Err(ProtoError::Disconnected(format!("recv: {e}"))),
            }
        }
    }
}

/// Handle returned by [`serve`]: signals shutdown and joins the accept
/// thread on drop.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown and wait for the accept loop to exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the listener out of `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Serve `service` on `bind_addr` (use port 0 for an ephemeral port) in a
/// background thread. Each connection is handled serially on its own
/// thread; the service sits behind a mutex.
pub fn serve<S: DomainService + Send + 'static>(
    bind_addr: SocketAddr,
    service: S,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(bind_addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_accept = Arc::clone(&stop);
    let service = Arc::new(Mutex::new(service));
    let join = std::thread::spawn(move || {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for conn in listener.incoming() {
            if stop_accept.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let svc = Arc::clone(&service);
            let stop_conn = Arc::clone(&stop_accept);
            conns.push(std::thread::spawn(move || {
                handle_connection(stream, svc, stop_conn)
            }));
        }
        // Joining connection threads makes shutdown() a barrier: once it
        // returns, no request will be answered anymore.
        for c in conns {
            let _ = c.join();
        }
    });
    Ok(ServerHandle {
        addr,
        stop,
        join: Some(join),
    })
}

fn handle_connection<S: DomainService>(
    mut stream: TcpStream,
    service: Arc<Mutex<S>>,
    stop: Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match decoder.next::<TracedRequest>() {
            Ok(Some(env)) => {
                let resp = service
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .handle_traced(env.req, env.ctx);
                if stream.write_all(&encode(&resp)).is_err() {
                    return;
                }
                continue;
            }
            Ok(None) => {}
            Err(_) => return, // protocol violation: drop the connection
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => decoder.extend(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MateStatus;
    use cosched_workload::JobId;

    fn echo_service() -> impl DomainService + Send + 'static {
        |req: Request| match req {
            Request::Ping => Response::Pong,
            Request::GetMateStatus { job } => {
                if job == JobId(1) {
                    Response::MateStatus(MateStatus::Holding)
                } else {
                    Response::MateStatus(MateStatus::Unknown)
                }
            }
            Request::TryStartMate { .. } => Response::Started(true),
            _ => Response::Error("unsupported".into()),
        }
    }

    #[test]
    fn tcp_roundtrip() {
        let server = serve("127.0.0.1:0".parse().unwrap(), echo_service()).unwrap();
        let mut client = TcpTransport::connect(server.addr(), Duration::from_secs(2)).unwrap();
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        let resp = client
            .call(&Request::GetMateStatus { job: JobId(1) })
            .unwrap();
        assert_eq!(resp.status(), MateStatus::Holding);
        assert!(client
            .call(&Request::TryStartMate { job: JobId(2) })
            .unwrap()
            .started());
        server.shutdown();
    }

    #[test]
    fn multiple_clients_share_service() {
        let server = serve("127.0.0.1:0".parse().unwrap(), echo_service()).unwrap();
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = TcpTransport::connect(addr, Duration::from_secs(2)).unwrap();
                    for _ in 0..20 {
                        assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn span_context_propagates_over_tcp() {
        struct CtxEcho;
        impl DomainService for CtxEcho {
            fn handle(&mut self, _req: Request) -> Response {
                Response::Pong
            }
            fn handle_traced(&mut self, _req: Request, ctx: SpanContext) -> Response {
                Response::Error(format!("span={}", ctx.span))
            }
        }
        let server = serve("127.0.0.1:0".parse().unwrap(), CtxEcho).unwrap();
        let mut client = TcpTransport::connect(server.addr(), Duration::from_secs(2)).unwrap();
        match client
            .call_with(&Request::Ping, SpanContext::new(99))
            .unwrap()
        {
            Response::Error(s) => assert_eq!(s, "span=99"),
            other => panic!("unexpected response {other:?}"),
        }
        // Plain `call` sends the empty context.
        match client.call(&Request::Ping).unwrap() {
            Response::Error(s) => assert_eq!(s, "span=0"),
            other => panic!("unexpected response {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn connect_to_dead_port_is_disconnected() {
        // Bind-then-drop to find a port that is closed.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let err = TcpTransport::connect(addr, Duration::from_millis(300)).unwrap_err();
        assert!(matches!(err, ProtoError::Disconnected(_)), "{err}");
    }

    #[test]
    fn slow_server_times_out() {
        // A listener that accepts but never replies.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let keep = std::thread::spawn(move || {
            let (_stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(500));
        });
        let mut client = TcpTransport::connect(addr, Duration::from_millis(100)).unwrap();
        let err = client.call(&Request::Ping).unwrap_err();
        assert!(matches!(err, ProtoError::Timeout), "{err}");
        keep.join().unwrap();
    }
}
