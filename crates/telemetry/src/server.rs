//! Embedded blocking HTTP/1.1 server for the telemetry endpoints.
//!
//! Deliberately minimal: std `TcpListener`, one accepting thread, each
//! connection read and answered on a short-lived thread of its own and
//! closed after the response (`Connection: close`). That is all a scrape
//! target needs, and it keeps the telemetry plane free of external
//! dependencies. Responses are built from a [`TelemetryProvider`]
//! snapshot at request time, so scrapes observe the run mid-flight without
//! synchronizing with it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Liveness summary served at `/healthz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// Overall verdict: `false` maps to HTTP 503.
    pub ok: bool,
    /// Short status word: `running`, `drained`, `done`, `deadlocked`.
    pub status: String,
    /// The run has finished.
    pub done: bool,
    /// Every submitted job finished and no work remains queued or held.
    pub drained: bool,
    /// The run ended deadlocked.
    pub deadlocked: bool,
}

impl Health {
    fn to_json(&self) -> String {
        format!(
            "{{\"status\":\"{}\",\"ok\":{},\"done\":{},\"drained\":{},\"deadlocked\":{}}}",
            self.status, self.ok, self.done, self.drained, self.deadlocked
        )
    }
}

/// Source of the three endpoint payloads. Implementations must be cheap
/// enough to call per request and safe to call from several connection
/// threads at once.
pub trait TelemetryProvider: Send + Sync + 'static {
    /// Prometheus 0.0.4 text for `GET /metrics`.
    fn metrics_text(&self) -> String;
    /// JSON document for `GET /state`.
    fn state_json(&self) -> String;
    /// Liveness for `GET /healthz`.
    fn health(&self) -> Health;
}

/// [`TelemetryProvider`] over a shared [`StreamingMonitor`]: the standard
/// wiring for `simulate --telemetry`.
///
/// [`StreamingMonitor`]: cosched_obs::monitor::StreamingMonitor
#[derive(Debug, Clone)]
pub struct MonitorProvider {
    monitor: cosched_obs::monitor::StreamingMonitor,
}

impl MonitorProvider {
    pub fn new(monitor: cosched_obs::monitor::StreamingMonitor) -> Self {
        MonitorProvider { monitor }
    }
}

impl TelemetryProvider for MonitorProvider {
    fn metrics_text(&self) -> String {
        cosched_trace::render_telemetry_prometheus(&self.monitor.snapshot())
    }

    fn state_json(&self) -> String {
        serde_json::to_string(&self.monitor.snapshot()).expect("snapshots always serialize")
    }

    fn health(&self) -> Health {
        let snap = self.monitor.snapshot();
        let drained = snap.drained();
        let status = if snap.deadlocked {
            "deadlocked"
        } else if snap.done {
            if drained {
                "drained"
            } else {
                "done"
            }
        } else {
            "running"
        };
        Health {
            ok: !snap.deadlocked,
            status: status.to_string(),
            done: snap.done,
            drained,
            deadlocked: snap.deadlocked,
        }
    }
}

/// The serving loop's handle: owns the listener thread, shuts down on
/// [`TelemetryServer::shutdown`] or drop.
#[derive(Debug)]
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port) and
    /// start serving `provider` on a background thread.
    pub fn spawn<P: TelemetryProvider>(addr: &str, provider: P) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("cosched-telemetry".to_string())
            .spawn(move || serve(listener, provider, stop_flag))?;
        Ok(TelemetryServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, unblock the listener, and join the serving thread.
    pub fn shutdown(&mut self) {
        if self.thread.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Most connections served at once. A connection beyond them is answered
/// 503 without being read.
const MAX_CONNECTIONS: usize = 16;

/// How long a connection may take to send its request, and to take the
/// response.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Accept connections and serve each on a thread of its own, so a client
/// that connects and stays silent holds one thread until [`IO_TIMEOUT`]
/// while every other scrape is answered. The connection threads are
/// scoped: the serving thread joins them before it returns.
fn serve<P: TelemetryProvider>(listener: TcpListener, provider: P, stop: Arc<AtomicBool>) {
    let active = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            if active.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                let busy = http_response(503, "text/plain; charset=utf-8", "busy\n");
                let _ = stream.write_all(busy.as_bytes());
                continue;
            }
            let slot = ConnectionSlot::take(&active);
            let provider = &provider;
            // A thread that cannot be spawned drops the connection and
            // its slot.
            let _ = std::thread::Builder::new()
                .name("cosched-telemetry-conn".to_string())
                .spawn_scoped(scope, move || {
                    let _slot = slot;
                    handle_connection(stream, provider);
                });
        }
    });
}

/// One of the [`MAX_CONNECTIONS`], given back when dropped, also when the
/// connection's thread panics.
struct ConnectionSlot<'a>(&'a AtomicUsize);

impl<'a> ConnectionSlot<'a> {
    fn take(active: &'a AtomicUsize) -> Self {
        active.fetch_add(1, Ordering::SeqCst);
        ConnectionSlot(active)
    }
}

impl Drop for ConnectionSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Most bytes of request line plus headers the server reads. A longer
/// request head is answered with 431 and the connection closed, so one
/// request cannot grow the server's memory without bound.
const MAX_REQUEST_HEAD: u64 = 8 * 1024;

/// Most bytes of an oversized request the server reads and discards after
/// answering 431, so the client sees the answer rather than a reset.
const MAX_DISCARD: u64 = 1024 * 1024;

fn handle_connection<P: TelemetryProvider>(stream: TcpStream, provider: &P) {
    let mut reader = BufReader::new(stream).take(MAX_REQUEST_HEAD);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers so well-behaved clients see a clean close. A line read
    // without its newline has hit the cap, or the client went away.
    let mut head_ended = false;
    let mut header = String::new();
    if request_line.ends_with('\n') {
        while reader.read_line(&mut header).is_ok() {
            if header == "\r\n" || header == "\n" {
                head_ended = true;
                break;
            }
            if !header.ends_with('\n') {
                break;
            }
            header.clear();
        }
    }
    let oversized = !head_ended && reader.limit() == 0;
    let mut stream = reader.into_inner().into_inner();
    let response = if oversized {
        http_response(
            431,
            "text/plain; charset=utf-8",
            "request header fields too large\n",
        )
    } else {
        respond(&request_line, provider)
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
    if oversized {
        let _ = stream.shutdown(Shutdown::Write);
        let _ = std::io::copy(&mut (&stream).take(MAX_DISCARD), &mut std::io::sink());
    }
}

/// Route one request line to a full HTTP response string.
fn respond<P: TelemetryProvider>(request_line: &str, provider: &P) -> String {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return http_response(405, "text/plain; charset=utf-8", "method not allowed\n");
    }
    // Ignore any query string.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => http_response(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &provider.metrics_text(),
        ),
        "/state" => http_response(200, "application/json", &provider.state_json()),
        "/healthz" => {
            let health = provider.health();
            let code = if health.ok { 200 } else { 503 };
            http_response(code, "application/json", &health.to_json())
        }
        _ => http_response(404, "text/plain; charset=utf-8", "not found\n"),
    }
}

fn http_response(code: u16, content_type: &str, body: &str) -> String {
    let reason = match code {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::http_get;
    use cosched_obs::monitor::StreamingMonitor;
    use cosched_obs::trace::TraceEvent;
    use cosched_obs::Observer;

    fn monitor_with_activity() -> StreamingMonitor {
        let mut m = StreamingMonitor::new().with_capacities(&[128]);
        m.record(
            0,
            0,
            TraceEvent::JobSubmitted {
                job: 1,
                size: 64,
                paired: false,
            },
        );
        m.record(
            10,
            0,
            TraceEvent::CoschedStart {
                job: 1,
                with_mate: false,
            },
        );
        m
    }

    #[test]
    fn serves_metrics_state_and_healthz() {
        let monitor = monitor_with_activity();
        let mut server =
            TelemetryServer::spawn("127.0.0.1:0", MonitorProvider::new(monitor.clone())).unwrap();
        let addr = server.addr().to_string();

        let (code, body) = http_get(&addr, "/metrics", Duration::from_secs(5)).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("# TYPE cosched_utilization gauge"), "{body}");
        assert!(
            body.contains("cosched_jobs_running{machine=\"0\"} 1"),
            "{body}"
        );

        let (code, body) = http_get(&addr, "/state", Duration::from_secs(5)).unwrap();
        assert_eq!(code, 200);
        let snap: cosched_obs::monitor::TelemetrySnapshot = serde_json::from_str(&body).unwrap();
        assert_eq!(snap.running, 1);

        let (code, body) = http_get(&addr, "/healthz", Duration::from_secs(5)).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("\"status\":\"running\""), "{body}");

        let (code, _) = http_get(&addr, "/nope", Duration::from_secs(5)).unwrap();
        assert_eq!(code, 404);

        server.shutdown();
        // Shutdown is idempotent.
        server.shutdown();
    }

    #[test]
    fn oversized_request_gets_431_and_the_server_keeps_serving() {
        let mut server =
            TelemetryServer::spawn("127.0.0.1:0", MonitorProvider::new(monitor_with_activity()))
                .unwrap();
        let addr = server.addr().to_string();
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let request = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{response}"
        );
        drop(stream);

        let (code, _) = http_get(&addr, "/healthz", Duration::from_secs(5)).unwrap();
        assert_eq!(code, 200);
        server.shutdown();
    }

    #[test]
    fn oversized_headers_get_431() {
        let mut server =
            TelemetryServer::spawn("127.0.0.1:0", MonitorProvider::new(monitor_with_activity()))
                .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let header = format!("X-Pad: {}\r\n", "b".repeat(100));
        let request = format!("GET /healthz HTTP/1.1\r\n{}\r\n", header.repeat(100));
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn a_silent_connection_does_not_block_healthz() {
        let mut server =
            TelemetryServer::spawn("127.0.0.1:0", MonitorProvider::new(monitor_with_activity()))
                .unwrap();
        let addr = server.addr().to_string();
        // The silent connection is queued first, so the server accepts it
        // before the scrape.
        let silent = TcpStream::connect(&addr).unwrap();
        let asked = std::time::Instant::now();
        let (code, _) = http_get(&addr, "/healthz", Duration::from_secs(5)).unwrap();
        let waited = asked.elapsed();
        assert_eq!(code, 200);
        assert!(
            waited < Duration::from_millis(500),
            "answered after {waited:?}"
        );
        drop(silent);
        server.shutdown();
    }

    #[test]
    fn healthz_reports_deadlock_as_503() {
        let monitor = monitor_with_activity();
        monitor.finish(true);
        let mut server =
            TelemetryServer::spawn("127.0.0.1:0", MonitorProvider::new(monitor)).unwrap();
        let addr = server.addr().to_string();
        let (code, body) = http_get(&addr, "/healthz", Duration::from_secs(5)).unwrap();
        assert_eq!(code, 503);
        assert!(body.contains("\"status\":\"deadlocked\""), "{body}");
        assert!(body.contains("\"ok\":false"), "{body}");
        server.shutdown();
    }

    #[test]
    fn healthz_reports_drained_runs() {
        let mut monitor = monitor_with_activity();
        monitor.record(100, 0, TraceEvent::JobEnded { job: 1 });
        monitor.finish(false);
        let mut server =
            TelemetryServer::spawn("127.0.0.1:0", MonitorProvider::new(monitor)).unwrap();
        let addr = server.addr().to_string();
        let (code, body) = http_get(&addr, "/healthz", Duration::from_secs(5)).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("\"status\":\"drained\""), "{body}");
        assert!(body.contains("\"drained\":true"), "{body}");
        server.shutdown();
    }
}
