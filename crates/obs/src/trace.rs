//! The event taxonomy: everything the stack can report, sim-time-stamped.
//!
//! Payloads are restricted to *deterministic* data — sim time, ids, sizes,
//! counts. Wall-clock durations are deliberately excluded (they belong to
//! [`crate::profile`]), which is what makes JSONL traces byte-identical
//! across same-seed runs.

use serde::{Deserialize, Serialize};

/// One trace entry: a sim-time stamp plus the event itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Simulation time in seconds.
    pub time: u64,
    /// Machine index the event belongs to, if any (`usize::MAX` = global).
    pub machine: usize,
    /// The event payload.
    pub event: TraceEvent,
}

/// Machine index used for events not tied to a domain.
pub const GLOBAL: usize = usize::MAX;

/// Job id used in span records when no job applies (sweep/iteration spans).
pub const NO_JOB: u64 = u64::MAX;

/// Span id meaning "no parent": a span with `parent == NO_SPAN` is a root.
pub const NO_SPAN: u64 = 0;

/// Structured events emitted across the stack.
///
/// Grouped by layer: `Job*` (lifecycle anchors emitted by the coupled
/// driver), `Sched*` (cosched-sched), `Cosched*` (cosched-core, Algorithm
/// 1), `Rpc*` (one per cross-domain call).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    // ----- job lifecycle ---------------------------------------------------
    /// A job arrived at its machine's queue (`paired` = it has a mate on
    /// the other machine). Anchors lifecycle reconstruction: every other
    /// per-job event refers back to this submission.
    JobSubmitted { job: u64, size: u64, paired: bool },
    /// A running job completed.
    JobEnded { job: u64 },

    // ----- single-domain scheduler ----------------------------------------
    /// A scheduler iteration began (`queued`/`running` = queue depths).
    SchedIterationStart {
        queued: usize,
        running: usize,
        free_nodes: u64,
    },
    /// A scheduler iteration finished after starting `started` jobs.
    SchedIterationEnd { started: usize },
    /// The policy picked a candidate job.
    SchedPick {
        job: u64,
        size: u64,
        via_backfill: bool,
    },
    /// A job started through the backfill window rather than at queue head.
    SchedBackfillHit { job: u64, size: u64 },
    /// The scheduler engaged draining: the queue head cannot start, so the
    /// machine stops starting lower-priority work.
    SchedDrainEngaged {
        blocked_job: u64,
        needed: u64,
        free_nodes: u64,
    },
    /// The allocator could not place a job, with the reason.
    SchedAllocFail {
        job: u64,
        size: u64,
        reason: AllocFailReason,
    },

    // ----- Algorithm 1 (Run_Job) transitions ------------------------------
    /// A hold was placed: resources reserved while the mate is not ready.
    CoschedHoldPlaced { job: u64, nodes: u64 },
    /// A yield: the job gave up its turn waiting for its mate.
    CoschedYield { job: u64, yields_so_far: u32 },
    /// A held job's mate became ready and both sides committed to start.
    CoschedRendezvousCommit { job: u64, mate: u64, anchored: bool },
    /// The periodic release sweep fired, releasing `released` held jobs.
    CoschedReleaseSweep { released: usize, held_before: usize },
    /// Held-capacity cap exceeded: hold scheme degraded to yield.
    CoschedHeldCapDegradation {
        job: u64,
        held_nodes: u64,
        capacity: u64,
    },
    /// Yield cap exceeded: yield scheme escalated to hold.
    CoschedYieldCapEscalation { job: u64, yields: u32 },
    /// The deadlock breaker demoted a held job after a sweep.
    CoschedDeadlockDemotion { job: u64 },
    /// A job started (with or without its mate).
    CoschedStart { job: u64, with_mate: bool },

    // ----- cross-domain protocol ------------------------------------------
    /// An RPC completed (`kind` names the request variant).
    RpcCall { kind: RpcKind, ok: bool },
    /// An RPC timed out and the caller fell back to `MateStatus::Unknown`.
    RpcTimeout { kind: RpcKind },

    // ----- alerting ---------------------------------------------------------
    /// An alert rule's condition held past its `for` duration. `machine` is
    /// the scope the rule fired in ([`GLOBAL`] for run-wide metrics);
    /// `value` is the offending metric reading at raise time. Alert events
    /// are produced by the *online* telemetry plane (the streaming
    /// monitor's rule engine) and kept in its own history — they are never
    /// injected into a primary trace stream, so teeing a monitor onto a
    /// JSONL sink cannot perturb the deterministic trace.
    AlertRaised {
        rule: String,
        machine: usize,
        value: f64,
    },
    /// A previously raised alert's condition returned within bounds.
    AlertResolved {
        rule: String,
        machine: usize,
        value: f64,
    },

    // ----- causal spans ----------------------------------------------------
    /// A causal span opened. Span ids are assigned deterministically (dense,
    /// starting at 1) so same-seed runs produce byte-identical span records.
    /// `parent == NO_SPAN` marks a root span; `job`/`mate` are `NO_JOB` when
    /// the span is not tied to a job (sweeps, scheduler iterations).
    SpanOpen {
        span: u64,
        parent: u64,
        kind: SpanKind,
        job: u64,
        mate: u64,
    },
    /// The span with this id closed (at the record's sim time).
    SpanClose { span: u64 },
}

/// What a causal span covers. Mirrors the links of the rendezvous chain:
/// submit → queue → RPCs → hold/yield → demotion → synchronized start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// Root span of a mate pair: opens at the first submit of either member
    /// (machine = [`GLOBAL`]), closes when both members have started.
    PairRendezvous,
    /// One hold interval: hold placed → start or deadlock demotion.
    Hold,
    /// One yield/backoff episode: first yield → the job finally starts.
    YieldWait,
    /// A cross-domain RPC, caller side.
    Rpc(RpcKind),
    /// The remote handler's work for an RPC, parented under the caller's
    /// [`SpanKind::Rpc`] span via context propagation.
    RpcHandler(RpcKind),
    /// One deadlock-breaker release sweep that actually released holds.
    ReleaseSweep,
    /// A scheduler iteration that touched at least one mated job.
    SchedIteration,
}

impl SpanKind {
    /// Stable kebab-case label (Perfetto categories, critical-path classes).
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::PairRendezvous => "pair-rendezvous",
            SpanKind::Hold => "hold",
            SpanKind::YieldWait => "yield-wait",
            SpanKind::Rpc(_) => "rpc",
            SpanKind::RpcHandler(_) => "rpc-handler",
            SpanKind::ReleaseSweep => "release-sweep",
            SpanKind::SchedIteration => "sched-iteration",
        }
    }
}

/// Why an allocation attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocFailReason {
    /// Not enough free nodes in total.
    Capacity,
    /// Enough free nodes, but not in a placeable shape (buddy fragmentation).
    Fragmentation,
}

/// Request kinds, mirroring `cosched_proto::message::Request` variants
/// without depending on the proto crate (obs sits below everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RpcKind {
    GetMateJob,
    GetMateStatus,
    TryStartMate,
    StartJob,
    CanStart,
    Ping,
}

impl RpcKind {
    pub fn as_str(self) -> &'static str {
        match self {
            RpcKind::GetMateJob => "get_mate_job",
            RpcKind::GetMateStatus => "get_mate_status",
            RpcKind::TryStartMate => "try_start_mate",
            RpcKind::StartJob => "start_job",
            RpcKind::CanStart => "can_start",
            RpcKind::Ping => "ping",
        }
    }
}

impl TraceEvent {
    /// Stable kebab-case name of the event kind (metric keys, filtering).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::JobSubmitted { .. } => "job-submitted",
            TraceEvent::JobEnded { .. } => "job-ended",
            TraceEvent::SchedIterationStart { .. } => "sched-iteration-start",
            TraceEvent::SchedIterationEnd { .. } => "sched-iteration-end",
            TraceEvent::SchedPick { .. } => "sched-pick",
            TraceEvent::SchedBackfillHit { .. } => "sched-backfill-hit",
            TraceEvent::SchedDrainEngaged { .. } => "sched-drain-engaged",
            TraceEvent::SchedAllocFail { .. } => "sched-alloc-fail",
            TraceEvent::CoschedHoldPlaced { .. } => "cosched-hold-placed",
            TraceEvent::CoschedYield { .. } => "cosched-yield",
            TraceEvent::CoschedRendezvousCommit { .. } => "cosched-rendezvous-commit",
            TraceEvent::CoschedReleaseSweep { .. } => "cosched-release-sweep",
            TraceEvent::CoschedHeldCapDegradation { .. } => "cosched-held-cap-degradation",
            TraceEvent::CoschedYieldCapEscalation { .. } => "cosched-yield-cap-escalation",
            TraceEvent::CoschedDeadlockDemotion { .. } => "cosched-deadlock-demotion",
            TraceEvent::CoschedStart { .. } => "cosched-start",
            TraceEvent::RpcCall { .. } => "rpc-call",
            TraceEvent::RpcTimeout { .. } => "rpc-timeout",
            TraceEvent::AlertRaised { .. } => "alert-raised",
            TraceEvent::AlertResolved { .. } => "alert-resolved",
            TraceEvent::SpanOpen { .. } => "span-open",
            TraceEvent::SpanClose { .. } => "span-close",
        }
    }

    /// Number of [`TraceEvent`] variants. Kept in lockstep with
    /// [`TraceEvent::variant_index`] (whose `match` is exhaustive, so adding
    /// a variant without updating both is a compile error), and asserted
    /// against [`TraceEvent::samples`] coverage in tests.
    pub const VARIANT_COUNT: usize = 22;

    /// Dense index of this variant in declaration order. The exhaustive
    /// `match` is the enforcement mechanism: a new variant fails to compile
    /// here until it is given an index, and the `samples()` coverage test
    /// then fails until a sample (and thus a serde + `kind()` arm) exists.
    pub fn variant_index(&self) -> usize {
        match self {
            TraceEvent::JobSubmitted { .. } => 0,
            TraceEvent::JobEnded { .. } => 1,
            TraceEvent::SchedIterationStart { .. } => 2,
            TraceEvent::SchedIterationEnd { .. } => 3,
            TraceEvent::SchedPick { .. } => 4,
            TraceEvent::SchedBackfillHit { .. } => 5,
            TraceEvent::SchedDrainEngaged { .. } => 6,
            TraceEvent::SchedAllocFail { .. } => 7,
            TraceEvent::CoschedHoldPlaced { .. } => 8,
            TraceEvent::CoschedYield { .. } => 9,
            TraceEvent::CoschedRendezvousCommit { .. } => 10,
            TraceEvent::CoschedReleaseSweep { .. } => 11,
            TraceEvent::CoschedHeldCapDegradation { .. } => 12,
            TraceEvent::CoschedYieldCapEscalation { .. } => 13,
            TraceEvent::CoschedDeadlockDemotion { .. } => 14,
            TraceEvent::CoschedStart { .. } => 15,
            TraceEvent::RpcCall { .. } => 16,
            TraceEvent::RpcTimeout { .. } => 17,
            TraceEvent::AlertRaised { .. } => 18,
            TraceEvent::AlertResolved { .. } => 19,
            TraceEvent::SpanOpen { .. } => 20,
            TraceEvent::SpanClose { .. } => 21,
        }
    }

    /// One representative instance per variant, for exhaustiveness and
    /// round-trip tests (`tests` below and the reader round-trip suite).
    pub fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::JobSubmitted {
                job: 1,
                size: 512,
                paired: true,
            },
            TraceEvent::JobEnded { job: 1 },
            TraceEvent::SchedIterationStart {
                queued: 3,
                running: 2,
                free_nodes: 1024,
            },
            TraceEvent::SchedIterationEnd { started: 1 },
            TraceEvent::SchedPick {
                job: 2,
                size: 256,
                via_backfill: false,
            },
            TraceEvent::SchedBackfillHit { job: 3, size: 64 },
            TraceEvent::SchedDrainEngaged {
                blocked_job: 4,
                needed: 2048,
                free_nodes: 512,
            },
            TraceEvent::SchedAllocFail {
                job: 5,
                size: 4096,
                reason: AllocFailReason::Capacity,
            },
            TraceEvent::CoschedHoldPlaced { job: 6, nodes: 128 },
            TraceEvent::CoschedYield {
                job: 7,
                yields_so_far: 2,
            },
            TraceEvent::CoschedRendezvousCommit {
                job: 8,
                mate: 9,
                anchored: true,
            },
            TraceEvent::CoschedReleaseSweep {
                released: 2,
                held_before: 3,
            },
            TraceEvent::CoschedHeldCapDegradation {
                job: 10,
                held_nodes: 900,
                capacity: 1024,
            },
            TraceEvent::CoschedYieldCapEscalation { job: 11, yields: 5 },
            TraceEvent::CoschedDeadlockDemotion { job: 12 },
            TraceEvent::CoschedStart {
                job: 13,
                with_mate: true,
            },
            TraceEvent::RpcCall {
                kind: RpcKind::GetMateStatus,
                ok: true,
            },
            TraceEvent::RpcTimeout {
                kind: RpcKind::TryStartMate,
            },
            TraceEvent::AlertRaised {
                rule: "held_node_proportion>0.4".to_string(),
                machine: GLOBAL,
                value: 0.62,
            },
            TraceEvent::AlertResolved {
                rule: "held_node_proportion>0.4".to_string(),
                machine: GLOBAL,
                value: 0.1,
            },
            TraceEvent::SpanOpen {
                span: 14,
                parent: 2,
                kind: SpanKind::Rpc(RpcKind::StartJob),
                job: 15,
                mate: 16,
            },
            TraceEvent::SpanClose { span: 14 },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip_through_json() {
        let record = TraceRecord {
            time: 3600,
            machine: 1,
            event: TraceEvent::SchedAllocFail {
                job: 42,
                size: 1024,
                reason: AllocFailReason::Fragmentation,
            },
        };
        let text = serde_json::to_string(&record).unwrap();
        let back: TraceRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(TraceEvent::JobEnded { job: 0 }.kind(), "job-ended");
        assert_eq!(
            TraceEvent::RpcTimeout {
                kind: RpcKind::GetMateStatus
            }
            .kind(),
            "rpc-timeout"
        );
        assert_eq!(RpcKind::TryStartMate.as_str(), "try_start_mate");
    }

    #[test]
    fn samples_cover_every_variant_exactly_once() {
        let samples = TraceEvent::samples();
        assert_eq!(samples.len(), TraceEvent::VARIANT_COUNT);
        let mut seen = [false; TraceEvent::VARIANT_COUNT];
        for event in &samples {
            let index = event.variant_index();
            assert!(!seen[index], "duplicate sample for variant {index}");
            seen[index] = true;
        }
        assert!(seen.iter().all(|covered| *covered));
    }

    #[test]
    fn every_variant_has_a_unique_nonempty_kind() {
        let kinds: Vec<&str> = TraceEvent::samples().iter().map(|e| e.kind()).collect();
        let mut sorted = kinds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), TraceEvent::VARIANT_COUNT, "kind collision");
        assert!(kinds.iter().all(|k| !k.is_empty()));
    }

    #[test]
    fn every_variant_roundtrips_through_serde() {
        for event in TraceEvent::samples() {
            let text = serde_json::to_string(&event).unwrap();
            let back: TraceEvent = serde_json::from_str(&text).unwrap();
            assert_eq!(back, event, "serde round-trip mismatch for {text}");
        }
    }

    #[test]
    fn span_kind_labels_are_stable() {
        assert_eq!(SpanKind::PairRendezvous.label(), "pair-rendezvous");
        assert_eq!(SpanKind::Rpc(RpcKind::Ping).label(), "rpc");
        assert_eq!(SpanKind::RpcHandler(RpcKind::Ping).label(), "rpc-handler");
        assert_eq!(SpanKind::SchedIteration.label(), "sched-iteration");
    }
}
