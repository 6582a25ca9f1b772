//! ASCII timeline rendering: utilization strips and per-job Gantt rows.
//!
//! Everything is a pure function of the reconstructed lifecycles, so two
//! same-seed traces render byte-identically — the renderer is usable in
//! golden tests, not just for eyeballing. Time is bucketed into a fixed
//! number of columns; a bucket takes the "strongest" state that touches it
//! (running > held > queued).

use crate::lifecycle::{JobLifecycle, LifecycleSet};
use std::fmt::Write as _;

/// Density ramp for the utilization strip, lowest to highest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Clamp rendering width to something readable.
fn clamp_width(width: usize) -> usize {
    width.clamp(10, 400)
}

/// Overlap in seconds between `[a0, a1)` and `[b0, b1)`.
fn overlap(a0: u64, a1: u64, b0: u64, b1: u64) -> u64 {
    a1.min(b1).saturating_sub(a0.max(b0))
}

/// Render one job's row over `width` buckets spanning `[0, horizon]`.
fn job_row(lc: &JobLifecycle, horizon: u64, width: usize) -> String {
    let mut row = String::with_capacity(width);
    let span = horizon.max(1);
    for col in 0..width {
        let t0 = span * col as u64 / width as u64;
        let t1 = (span * (col as u64 + 1) / width as u64).max(t0 + 1);
        let run = match (lc.start, lc.end) {
            (Some(s), Some(e)) => overlap(t0, t1, s, e) > 0,
            (Some(s), None) => t1 > s,
            _ => false,
        };
        let held = lc.holds.iter().any(|&(a, b)| overlap(t0, t1, a, b) > 0)
            || lc.open_hold.is_some_and(|a| t1 > a);
        let queued = t1 > lc.submit && lc.start.is_none_or(|s| t0 < s);
        row.push(if run {
            '#'
        } else if held {
            'h'
        } else if queued {
            '.'
        } else {
            ' '
        });
    }
    row
}

/// Per-job Gantt chart: one row per job (submit order), `.` queued,
/// `h` holding, `#` running; paired jobs are starred. At most `max_rows`
/// rows per machine are shown.
pub fn render_gantt(set: &LifecycleSet, width: usize, max_rows: usize) -> String {
    let width = clamp_width(width);
    let mut out = String::new();
    if set.jobs.is_empty() {
        return "gantt: trace contains no job lifecycle events\n".to_string();
    }
    for machine in set.machines() {
        let mut jobs: Vec<&JobLifecycle> = set.machine_jobs(machine).collect();
        jobs.sort_by_key(|lc| (lc.submit, lc.job));
        let shown = jobs.len().min(max_rows.max(1));
        let _ = writeln!(
            out,
            "machine {machine} — {} jobs over {}s{}",
            jobs.len(),
            set.horizon,
            if shown < jobs.len() {
                format!(" (first {shown} by submit time)")
            } else {
                String::new()
            }
        );
        for lc in &jobs[..shown] {
            let _ = writeln!(
                out,
                "  {:>8}{} |{}|",
                lc.job,
                if lc.paired { '*' } else { ' ' },
                job_row(lc, set.horizon, width)
            );
        }
    }
    let _ = writeln!(
        out,
        "  {:>9} |{:<w$}|  (. queued  h holding  # running  * paired)",
        "t=0",
        format!("→ {}s", set.horizon),
        w = width
    );
    out
}

/// Running and held node-seconds of one machine per column of `width`
/// spanning `[0, horizon]`. Running jobs count their size, holds the nodes
/// the allocator charged for them.
fn node_time(set: &LifecycleSet, machine: usize, width: usize) -> (Vec<u64>, Vec<u64>) {
    let span = set.horizon;
    let mut busy = vec![0u64; width];
    let mut held = vec![0u64; width];
    for lc in set.machine_jobs(machine) {
        let run_iv = match (lc.start, lc.end) {
            (Some(s), Some(e)) => Some((s, e)),
            (Some(s), None) => Some((s, span)),
            _ => None,
        };
        for col in 0..width {
            let t0 = span * col as u64 / width as u64;
            let t1 = (span * (col as u64 + 1) / width as u64).max(t0 + 1);
            if let Some((s, e)) = run_iv {
                busy[col] += lc.size * overlap(t0, t1, s, e);
            }
            for &(a, b) in &lc.holds {
                held[col] += lc.hold_nodes * overlap(t0, t1, a, b);
            }
            if let Some(a) = lc.open_hold {
                held[col] += lc.hold_nodes * overlap(t0, t1, a, span);
            }
        }
    }
    (busy, held)
}

/// Utilization strip per machine: each column's density is delivered
/// node-time over `capacity × bucket`, drawn on a 10-level ramp. With no
/// explicit capacity the machine's peak concurrent allocation is used.
pub fn render_utilization(set: &LifecycleSet, width: usize, capacity: Option<u64>) -> String {
    let width = clamp_width(width);
    let mut out = String::new();
    if set.jobs.is_empty() || set.horizon == 0 {
        return "utilization: trace contains no job lifecycle events\n".to_string();
    }
    let span = set.horizon;
    for machine in set.machines() {
        let cap = capacity
            .unwrap_or_else(|| set.peak_running_nodes(machine))
            .max(1);
        let (busy, held) = node_time(set, machine, width);
        let strip = |series: &[u64]| -> String {
            (0..width)
                .map(|col| {
                    let t0 = span * col as u64 / width as u64;
                    let t1 = (span * (col as u64 + 1) / width as u64).max(t0 + 1);
                    let denom = (cap * (t1 - t0)) as f64;
                    let density = (series[col] as f64 / denom).clamp(0.0, 1.0);
                    let idx = (density * (RAMP.len() - 1) as f64).round() as usize;
                    RAMP[idx.min(RAMP.len() - 1)] as char
                })
                .collect()
        };
        let total_busy: u64 = busy.iter().sum();
        let mean_util = total_busy as f64 / (cap * span) as f64;
        let _ = writeln!(
            out,
            "machine {machine} (cap {cap} nodes, mean util {:.1}%)",
            mean_util * 100.0
        );
        let _ = writeln!(out, "  run  |{}|", strip(&busy));
        if held.iter().any(|&h| h > 0) {
            let _ = writeln!(out, "  held |{}|", strip(&held));
        }
    }
    let _ = writeln!(out, "  time |0s{:>w$}|", format!("{span}s"), w = width - 2);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosched_obs::trace::{TraceEvent, TraceRecord};

    fn rec(time: u64, machine: usize, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time,
            machine,
            event,
        }
    }

    fn demo_set() -> LifecycleSet {
        let records = vec![
            rec(
                0,
                0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    size: 10,
                    paired: true,
                },
            ),
            rec(
                0,
                0,
                TraceEvent::JobSubmitted {
                    job: 2,
                    size: 5,
                    paired: false,
                },
            ),
            rec(10, 0, TraceEvent::CoschedHoldPlaced { job: 1, nodes: 10 }),
            rec(
                50,
                0,
                TraceEvent::CoschedStart {
                    job: 1,
                    with_mate: true,
                },
            ),
            rec(
                60,
                0,
                TraceEvent::CoschedStart {
                    job: 2,
                    with_mate: false,
                },
            ),
            rec(90, 0, TraceEvent::JobEnded { job: 1 }),
            rec(100, 0, TraceEvent::JobEnded { job: 2 }),
        ];
        LifecycleSet::from_records(&records).unwrap()
    }

    #[test]
    fn gantt_shows_states_in_order() {
        let text = render_gantt(&demo_set(), 50, 100);
        assert!(text.contains("machine 0 — 2 jobs"), "{text}");
        assert!(text.contains("1* |"), "paired job starred: {text}");
        // The paired row passes through queued, held, running.
        let row = text.lines().find(|l| l.contains("1* |")).unwrap();
        let cells: &str = row.split('|').nth(1).unwrap();
        assert!(cells.contains('.'), "{row}");
        assert!(cells.contains('h'), "{row}");
        assert!(cells.contains('#'), "{row}");
        // States appear in lifecycle order.
        let (q, h, r) = (
            cells.find('.').unwrap(),
            cells.find('h').unwrap(),
            cells.find('#').unwrap(),
        );
        assert!(q < h && h < r, "{row}");
    }

    #[test]
    fn gantt_caps_rows() {
        let text = render_gantt(&demo_set(), 40, 1);
        assert!(text.contains("(first 1 by submit time)"), "{text}");
    }

    #[test]
    fn utilization_strip_has_density_and_held_rows() {
        let text = render_utilization(&demo_set(), 50, None);
        assert!(text.contains("machine 0 (cap 15 nodes"), "{text}");
        assert!(text.contains("run  |"), "{text}");
        assert!(text.contains("held |"), "{text}");
        assert!(text.contains("mean util"), "{text}");
    }

    /// On 512-node buddy units a 600-node job's holds reserve 1,024 nodes;
    /// the strip counts those, as the streaming monitor does.
    #[test]
    fn held_node_time_counts_the_charged_nodes_like_the_monitor() {
        use cosched_obs::{Observer, StreamingMonitor};
        let records = vec![
            rec(
                0,
                0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    size: 600,
                    paired: true,
                },
            ),
            rec(
                0,
                0,
                TraceEvent::JobSubmitted {
                    job: 2,
                    size: 512,
                    paired: false,
                },
            ),
            rec(
                0,
                0,
                TraceEvent::CoschedStart {
                    job: 2,
                    with_mate: false,
                },
            ),
            rec(
                100,
                0,
                TraceEvent::CoschedHoldPlaced {
                    job: 1,
                    nodes: 1024,
                },
            ),
            rec(300, 0, TraceEvent::CoschedDeadlockDemotion { job: 1 }),
            rec(
                400,
                0,
                TraceEvent::CoschedHoldPlaced {
                    job: 1,
                    nodes: 1024,
                },
            ),
            rec(
                1000,
                0,
                TraceEvent::CoschedStart {
                    job: 1,
                    with_mate: true,
                },
            ),
            rec(1500, 0, TraceEvent::JobEnded { job: 2 }),
            rec(2000, 0, TraceEvent::JobEnded { job: 1 }),
        ];
        let mut monitor = StreamingMonitor::new().with_capacities(&[4096]);
        for r in &records {
            monitor.record(r.time, r.machine, r.event.clone());
        }
        let online = &monitor.snapshot().machines[0];
        let (busy, held) = node_time(&LifecycleSet::from_records(&records).unwrap(), 0, 100);
        assert_eq!(held.iter().sum::<u64>(), 1024 * (200 + 600));
        assert_eq!(held.iter().sum::<u64>(), online.held_node_seconds);
        assert_eq!(busy.iter().sum::<u64>(), online.used_node_seconds);
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render_gantt(&demo_set(), 60, 10) + &render_utilization(&demo_set(), 60, Some(20));
        let b = render_gantt(&demo_set(), 60, 10) + &render_utilization(&demo_set(), 60, Some(20));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_renders_a_note() {
        let set = LifecycleSet::default();
        assert!(render_gantt(&set, 40, 5).contains("no job lifecycle"));
        assert!(render_utilization(&set, 40, None).contains("no job lifecycle"));
    }
}
