//! Wall-clock phase profiling.
//!
//! Measures where real time goes (scheduler iterations, release sweeps,
//! RPC round-trips). [`PhaseProfiler`] is an [`Observer`]: it reads the
//! wall clock at the events that bound each phase, so the simulator itself
//! reads no clock and a run without the profiler pays nothing. As an active
//! observer it switches event construction on, so each phase includes the
//! building of the events it emits. Wall-clock data is inherently
//! nondeterministic, so it is kept strictly out of traces and report
//! metrics: the profile is read from the observer after the run.

use crate::observe::Observer;
use crate::trace::{SpanKind, TraceEvent};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The profiled phases, in snapshot order.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// One scheduler iteration (pick/start loop) on one machine.
    SchedulerIteration,
    /// One release sweep that force-released holds.
    ReleaseSweep,
    /// One cross-domain RPC round-trip, caller side.
    RpcCall,
}

/// Snapshot names, indexed by [`Phase`].
const PHASE_NAMES: [&str; 3] = ["scheduler-iteration", "release-sweep", "rpc-call"];

#[derive(Debug, Clone, Copy, Default)]
struct PhaseStats {
    calls: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// Accumulates wall-clock samples per phase from the event stream: a
/// scheduler iteration runs from `SchedIterationStart` to
/// `SchedIterationEnd`, an RPC and a release sweep from their span's open
/// to its close. A pure consumer: it only reads the events it is handed.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    phases: [PhaseStats; 3],
    iteration: Option<Instant>,
    /// The open RPC span and when it opened.
    rpc: Option<(u64, Instant)>,
    /// The open release-sweep span and when it opened.
    sweep: Option<(u64, Instant)>,
}

impl PhaseProfiler {
    /// Record one sample (nanoseconds).
    fn record(&mut self, phase: Phase, nanos: u64) {
        let stats = &mut self.phases[phase as usize];
        stats.min_ns = if stats.calls == 0 {
            nanos
        } else {
            stats.min_ns.min(nanos)
        };
        stats.calls += 1;
        stats.total_ns = stats.total_ns.saturating_add(nanos);
        stats.max_ns = stats.max_ns.max(nanos);
    }

    /// Charge the time since `start` to `phase`.
    fn close(&mut self, phase: Phase, start: Instant) {
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record(phase, nanos);
    }

    /// Serializable summary, one entry per phase seen.
    pub fn snapshot(&self) -> Vec<PhaseSnapshot> {
        (PHASE_NAMES.iter().zip(&self.phases))
            .filter(|(_, stats)| stats.calls > 0)
            .map(|(&phase, stats)| PhaseSnapshot {
                phase: phase.to_string(),
                calls: stats.calls,
                total_ns: stats.total_ns,
                mean_ns: stats.total_ns / stats.calls,
                min_ns: stats.min_ns,
                max_ns: stats.max_ns,
            })
            .collect()
    }
}

impl Observer for PhaseProfiler {
    fn active(&self) -> bool {
        true
    }

    fn record(&mut self, _time: u64, _machine: usize, event: TraceEvent) {
        match event {
            TraceEvent::SchedIterationStart { .. } => self.iteration = Some(Instant::now()),
            TraceEvent::SchedIterationEnd { .. } => {
                if let Some(start) = self.iteration.take() {
                    self.close(Phase::SchedulerIteration, start);
                }
            }
            TraceEvent::SpanOpen {
                span,
                kind: SpanKind::Rpc(_),
                ..
            } => self.rpc = Some((span, Instant::now())),
            TraceEvent::SpanOpen {
                span,
                kind: SpanKind::ReleaseSweep,
                ..
            } => self.sweep = Some((span, Instant::now())),
            TraceEvent::SpanClose { span } => {
                if let Some((_, start)) = self.rpc.filter(|&(id, _)| id == span) {
                    self.rpc = None;
                    self.close(Phase::RpcCall, start);
                } else if let Some((_, start)) = self.sweep.filter(|&(id, _)| id == span) {
                    self.sweep = None;
                    self.close(Phase::ReleaseSweep, start);
                }
            }
            _ => {}
        }
    }
}

/// Wall-clock summary for one phase. Nondeterministic by nature — never
/// embed this in a `SimulationReport`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSnapshot {
    pub phase: String,
    pub calls: u64,
    pub total_ns: u64,
    pub mean_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RpcKind;
    use crate::NO_SPAN;

    #[test]
    fn records_and_snapshots() {
        let mut p = PhaseProfiler::default();
        p.record(Phase::SchedulerIteration, 40);
        p.record(Phase::SchedulerIteration, 100);
        p.record(Phase::ReleaseSweep, 7);
        let snap = p.snapshot();
        assert_eq!(snap.len(), 2);
        let sweep = snap.iter().find(|s| s.phase == "release-sweep").unwrap();
        assert_eq!(sweep.calls, 1);
        assert_eq!(sweep.total_ns, 7);
        let iter = snap
            .iter()
            .find(|s| s.phase == "scheduler-iteration")
            .unwrap();
        assert_eq!(
            (
                iter.calls,
                iter.total_ns,
                iter.mean_ns,
                iter.min_ns,
                iter.max_ns
            ),
            (2, 140, 70, 40, 100)
        );
        assert!(
            snap.iter().all(|s| s.phase != "rpc-call"),
            "unseen phase listed"
        );
    }

    /// Spans are matched by id: a handler span closing inside an RPC does
    /// not end it, nor does a hold span inside a sweep, and a close with no
    /// open is not a sample.
    #[test]
    fn phases_are_bounded_by_their_own_events() {
        let open = |span, kind| TraceEvent::SpanOpen {
            span,
            parent: NO_SPAN,
            kind,
            job: 0,
            mate: 0,
        };
        let close = |span| TraceEvent::SpanClose { span };
        let start = TraceEvent::SchedIterationStart {
            queued: 1,
            running: 0,
            free_nodes: 8,
        };
        let end = TraceEvent::SchedIterationEnd { started: 0 };
        let mut p = PhaseProfiler::default();
        let mut feed = |events: Vec<TraceEvent>| {
            for event in events {
                Observer::record(&mut p, 0, 0, event);
            }
            p.snapshot().iter().map(|s| s.calls).collect::<Vec<_>>()
        };
        let rpc = SpanKind::Rpc(RpcKind::Ping);
        let handler = SpanKind::RpcHandler(RpcKind::Ping);
        assert_eq!(
            feed(vec![start, open(1, rpc), open(2, handler), close(2)]),
            []
        );
        assert_eq!(feed(vec![close(1), end.clone()]), [1, 1]);
        let sweep = vec![
            open(3, SpanKind::ReleaseSweep),
            open(4, SpanKind::Hold),
            close(4),
        ];
        assert_eq!(feed(sweep), [1, 1]);
        assert_eq!(feed(vec![close(3), close(3), end]), [1, 1, 1]);
    }
}
