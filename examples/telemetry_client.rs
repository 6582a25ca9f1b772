//! Telemetry smoke client: poll a running `--telemetry` endpoint and
//! verify all three routes answer sensibly. CI launches a simulation with
//! `--telemetry 127.0.0.1:<port> --telemetry-linger-secs N` in the
//! background and then runs:
//!
//! ```text
//! cargo run --release --example telemetry_client -- 127.0.0.1:<port>
//! ```
//!
//! Exits nonzero (with a message on stderr) if any endpoint is
//! unreachable, malformed, or missing the families the paper's metrics
//! contract promises, or if `/state` counts records the monitor's job state
//! machine rejected. Retries the first connect for a few seconds so the
//! race with the server starting up is harmless.

use coupled_cosched::prelude::TelemetrySnapshot;
use coupled_cosched::telemetry::http_get;
use std::time::Duration;

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:9184".to_string());
    if let Err(message) = run(&addr) {
        eprintln!("telemetry_client: {message}");
        std::process::exit(1);
    }
}

fn run(addr: &str) -> Result<(), String> {
    let timeout = Duration::from_secs(5);

    // The server may still be binding; retry the first fetch briefly.
    let mut metrics = Err("never attempted".to_string());
    for attempt in 0..20 {
        metrics = http_get(addr, "/metrics", timeout);
        if metrics.is_ok() {
            break;
        }
        if attempt == 0 {
            eprintln!("telemetry_client: waiting for {addr} …");
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    let (code, body) = metrics?;
    if code != 200 {
        return Err(format!("/metrics answered HTTP {code}"));
    }
    for family in [
        "# TYPE cosched_utilization gauge",
        "# TYPE cosched_held_node_proportion gauge",
        "# TYPE cosched_rendezvous_latency_seconds histogram",
        "cosched_rendezvous_latency_seconds_bucket{le=\"+Inf\"}",
    ] {
        if !body.contains(family) {
            return Err(format!("/metrics is missing {family:?}"));
        }
    }
    println!("/metrics ok: {} bytes of Prometheus text", body.len());

    let (code, body) = http_get(addr, "/healthz", timeout)?;
    if code != 200 && code != 503 {
        return Err(format!("/healthz answered HTTP {code}"));
    }
    if !body.contains("\"status\":") {
        return Err(format!("/healthz body has no status: {body}"));
    }
    println!("/healthz ok ({code}): {body}");

    let (code, body) = http_get(addr, "/state", timeout)?;
    if code != 200 {
        return Err(format!("/state answered HTTP {code}"));
    }
    let snap: TelemetrySnapshot =
        serde_json::from_str(&body).map_err(|e| format!("/state is not a snapshot: {e}"))?;
    if snap.rejected_records > 0 {
        return Err(format!(
            "/state reports {} trace records the job state machine rejected",
            snap.rejected_records
        ));
    }
    println!(
        "/state ok: sim {}s, {} submitted / {} finished, {} alerts active",
        snap.sim_time,
        snap.submitted,
        snap.finished,
        snap.active_alerts.len()
    );
    Ok(())
}
