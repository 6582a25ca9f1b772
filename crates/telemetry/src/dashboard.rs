//! Terminal dashboard rendering for `cosched watch`.
//!
//! Pure text-in/text-out over a [`TelemetrySnapshot`] — the watch command
//! clears the screen and reprints on each poll, so rendering stays
//! trivially testable.

use cosched_obs::monitor::TelemetrySnapshot;
use cosched_obs::trace::GLOBAL;
use std::fmt::Write as _;

/// Width of the utilization bars.
const BAR_WIDTH: usize = 24;

/// Render a full dashboard frame: header, run totals, per-machine
/// utilization bars and queue/held tables, rendezvous latency, and active
/// alerts. `source` labels where the snapshot came from (the polled
/// address).
pub fn render_dashboard(snap: &TelemetrySnapshot, source: &str) -> String {
    let mut out = String::new();
    let status = if snap.deadlocked {
        "DEADLOCKED"
    } else if snap.done {
        if snap.drained() {
            "drained"
        } else {
            "done"
        }
    } else {
        "running"
    };
    let _ = writeln!(
        out,
        "cosched watch · {source} · sim {} · {status}",
        fmt_duration(snap.sim_time)
    );
    let _ = writeln!(
        out,
        "jobs: {} running · {} queued · {} held · {}/{} finished",
        snap.running, snap.queued, snap.held, snap.finished, snap.submitted
    );
    let _ = writeln!(
        out,
        "rendezvous: {} pairs · p50 {} · p99 {}    rpc: {} calls · {} timeouts",
        snap.rendezvous_latency.count,
        fmt_duration(snap.rendezvous_p50_secs),
        fmt_duration(snap.rendezvous_p99_secs),
        snap.rpc_calls,
        snap.rpc_timeouts
    );
    let _ = writeln!(
        out,
        "coscheduling: {} holds · {} yields · {} sweeps · {} forced releases",
        snap.holds_placed, snap.yields, snap.deadlock_sweeps, snap.forced_releases
    );
    for m in &snap.machines {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "machine {}  {} {:5.1}% used · {:5.1}% held · cap {}",
            m.index,
            capacity_bar(m.utilization(), m.held_node_proportion(), BAR_WIDTH),
            m.utilization() * 100.0,
            m.held_node_proportion() * 100.0,
            m.capacity
        );
        let _ = writeln!(
            out,
            "  running {:>4} ({} nodes) · queued {:>4} (age {}, high-water {}) · held {:>3} ({} nodes)",
            m.running,
            m.used_nodes,
            m.queued,
            fmt_duration(m.queue_age_secs),
            fmt_duration(m.queue_age_high_water),
            m.held,
            m.held_nodes
        );
    }
    let _ = writeln!(out);
    if snap.active_alerts.is_empty() {
        let _ = writeln!(
            out,
            "alerts: none active ({} raised / {} resolved)",
            snap.alerts_raised_total, snap.alerts_resolved_total
        );
    } else {
        let _ = writeln!(
            out,
            "ALERTS: {} active ({} raised / {} resolved)",
            snap.active_alerts.len(),
            snap.alerts_raised_total,
            snap.alerts_resolved_total
        );
        for a in &snap.active_alerts {
            let scope = if a.machine == GLOBAL {
                "global".to_string()
            } else {
                format!("machine {}", a.machine)
            };
            let _ = writeln!(
                out,
                "  ! {:<24} {:<10} since {:<12} value {:.3}",
                a.rule,
                scope,
                fmt_duration(a.since),
                a.value
            );
        }
    }
    out
}

/// Capacity bar showing nodes in use (`█`) and nodes held (`▒`) against
/// free capacity (`░`), each fraction clamped so the bar never overflows.
fn capacity_bar(used_frac: f64, held_frac: f64, width: usize) -> String {
    let used = (used_frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    let held = (held_frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    let used = used.min(width);
    let held = held.min(width - used);
    let mut s = String::with_capacity(width + 2);
    s.push('[');
    for _ in 0..used {
        s.push('█');
    }
    for _ in 0..held {
        s.push('▒');
    }
    for _ in 0..width - used - held {
        s.push('░');
    }
    s.push(']');
    s
}

/// Compact sim-duration formatting: `42s`, `12m30s`, `3h04m`, `2d07h`.
fn fmt_duration(secs: u64) -> String {
    let (d, rem) = (secs / 86_400, secs % 86_400);
    let (h, rem) = (rem / 3_600, rem % 3_600);
    let (m, s) = (rem / 60, rem % 60);
    if d > 0 {
        format!("{d}d{h:02}h")
    } else if h > 0 {
        format!("{h}h{m:02}m")
    } else if m > 0 {
        format!("{m}m{s:02}s")
    } else {
        format!("{s}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosched_obs::monitor::StreamingMonitor;
    use cosched_obs::trace::{RpcKind, TraceEvent};
    use cosched_obs::{AlertRule, Observer};

    #[test]
    fn formats_durations() {
        assert_eq!(fmt_duration(0), "0s");
        assert_eq!(fmt_duration(42), "42s");
        assert_eq!(fmt_duration(750), "12m30s");
        assert_eq!(fmt_duration(11_040), "3h04m");
        assert_eq!(fmt_duration(198_000), "2d07h");
    }

    #[test]
    fn bars_scale_and_clamp() {
        assert_eq!(capacity_bar(0.0, 0.0, 4), "[░░░░]");
        assert_eq!(capacity_bar(0.5, 0.0, 4), "[██░░]");
        assert_eq!(capacity_bar(0.5, 0.25, 4), "[██▒░]");
        assert_eq!(capacity_bar(1.0, 0.0, 4), "[████]");
        assert_eq!(capacity_bar(7.3, 0.0, 4), "[████]");
        assert_eq!(capacity_bar(-1.0, -1.0, 4), "[░░░░]");
        // Held never pushes the bar past capacity.
        assert_eq!(capacity_bar(0.75, 0.75, 4), "[███▒]");
    }

    #[test]
    fn renders_machines_and_alerts() {
        let rule = AlertRule::parse("pressure: held_node_proportion > 0.4").unwrap();
        let mut m = StreamingMonitor::with_rules(vec![rule])
            .with_capacities(&[100, 100])
            .with_tick_secs(60);
        m.record(
            0,
            0,
            TraceEvent::JobSubmitted {
                job: 1,
                size: 90,
                paired: true,
            },
        );
        m.record(10, 0, TraceEvent::CoschedHoldPlaced { job: 1, nodes: 90 });
        m.record(
            120,
            1,
            TraceEvent::RpcCall {
                kind: RpcKind::Ping,
                ok: true,
            },
        );
        let text = render_dashboard(&m.snapshot(), "127.0.0.1:9184");
        assert!(text.contains("cosched watch · 127.0.0.1:9184"), "{text}");
        assert!(text.contains("machine 0"), "{text}");
        assert!(text.contains("machine 1"), "{text}");
        assert!(text.contains("ALERTS: 1 active"), "{text}");
        assert!(text.contains("! pressure"), "{text}");
        assert!(
            text.contains('▒'),
            "held bar should be partly filled: {text}"
        );
    }

    #[test]
    fn renders_quiet_runs_without_alert_noise() {
        let m = StreamingMonitor::new();
        let text = render_dashboard(&m.snapshot(), "local");
        assert!(text.contains("alerts: none active"), "{text}");
        assert!(text.contains("running"), "{text}");
    }
}
