//! Wall-clock phase profiling.
//!
//! Measures where real time goes (scheduler iterations, release sweeps,
//! RPC round-trips) so Criterion regressions can be attributed to a phase.
//! Wall-clock data is inherently nondeterministic, so it is kept strictly
//! out of traces and report metrics: a [`PhaseProfiler`] lives beside the
//! simulation and is reported separately.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The profiled phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// One scheduler iteration (pick/start loop) on one machine.
    SchedulerIteration,
    /// One periodic release sweep.
    ReleaseSweep,
    /// One cross-domain RPC round-trip.
    RpcCall,
}

impl Phase {
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::SchedulerIteration => "scheduler-iteration",
            Phase::ReleaseSweep => "release-sweep",
            Phase::RpcCall => "rpc-call",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PhaseStats {
    calls: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// Accumulates wall-clock samples per phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    phases: BTreeMap<Phase, PhaseStats>,
}

impl PhaseProfiler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an externally measured sample (nanoseconds).
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        let stats = self.phases.entry(phase).or_insert(PhaseStats {
            calls: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        });
        stats.calls += 1;
        stats.total_ns = stats.total_ns.saturating_add(nanos);
        stats.min_ns = stats.min_ns.min(nanos);
        stats.max_ns = stats.max_ns.max(nanos);
    }

    /// Serializable summary, one entry per phase seen.
    pub fn snapshot(&self) -> Vec<PhaseSnapshot> {
        self.phases
            .iter()
            .map(|(&phase, stats)| PhaseSnapshot {
                phase: phase.as_str().to_string(),
                calls: stats.calls,
                total_ns: stats.total_ns,
                mean_ns: stats.total_ns.checked_div(stats.calls).unwrap_or(0),
                min_ns: if stats.calls == 0 { 0 } else { stats.min_ns },
                max_ns: stats.max_ns,
            })
            .collect()
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

    #[test]
    fn records_and_snapshots() {
        let mut p = PhaseProfiler::new();
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
}
