//! Rendezvous critical-path analysis: where did a mate pair's wait go?
//!
//! For every pair that reached its synchronized start, rebuild the causal
//! chain from the *first submit of either member* to the *instant both
//! started*, and attribute every second of it to the thing that was
//! actually binding at that moment:
//!
//! * **local-queue** — the chain was blocked on a member that was not yet
//!   schedulable (not yet submitted, or queued behind other work). This is
//!   the mate-caused wait of the paper's §V: the other member may well be
//!   burning a hold meanwhile, but the *cause* is this member's queue.
//! * **hold** — both members were holding resources (transient deadlock
//!   configurations).
//! * **yield** — the binding member was schedulable but gave way to wait
//!   for its mate (yield scheme back-off episode).
//!
//! plus zero-duration **link** segments threaded into the chain at their
//! instants: **rpc** (cross-machine edges under the pair's root span),
//! **demotion** (§IV-E1 deadlock-breaker releases of a member's hold) and
//! **backfill-shadow** (the member blocked the head of its queue and
//! engaged conservative-backfill draining).
//!
//! The partition is exhaustive and gap-free by construction: the timed
//! segment durations of a pair always sum to its total wait, which
//! [`PairPath::check`] verifies and the fixture tests pin.
//!
//! Aggregates are grouped per scheme *combo* — each member is classed `H`
//! (ever held), `Y` (never held, ever yielded) or `-` (started without
//! deferring), giving `HH`/`HY`/`YH`/`YY`/`H-`/… keys matching the
//! paper's scheme matrix.

use crate::lifecycle::{JobLifecycle, LifecycleError, LifecycleSet};
use crate::span_tree::{SpanTree, SpanTreeError};
use cosched_obs::trace::{SpanKind, TraceRecord};
use cosched_obs::TraceEvent;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// What a critical-path segment was waiting on (or marking, for
/// zero-duration link segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum SegmentClass {
    /// Blocked on a member that was not yet schedulable.
    LocalQueue,
    /// Both members holding resources.
    Hold,
    /// Binding member inside a yield back-off episode.
    Yield,
    /// Cross-machine RPC edge (zero sim duration).
    Rpc,
    /// Deadlock-breaker demotion of a member's hold (zero duration).
    Demotion,
    /// Member engaged conservative-backfill draining (zero duration).
    BackfillShadow,
}

impl SegmentClass {
    /// All classes, in display order.
    pub const ALL: [SegmentClass; 6] = [
        SegmentClass::LocalQueue,
        SegmentClass::Hold,
        SegmentClass::Yield,
        SegmentClass::Rpc,
        SegmentClass::Demotion,
        SegmentClass::BackfillShadow,
    ];

    /// Stable kebab-case label.
    pub fn label(self) -> &'static str {
        match self {
            SegmentClass::LocalQueue => "local-queue",
            SegmentClass::Hold => "hold",
            SegmentClass::Yield => "yield",
            SegmentClass::Rpc => "rpc",
            SegmentClass::Demotion => "demotion",
            SegmentClass::BackfillShadow => "backfill-shadow",
        }
    }

    fn index(self) -> usize {
        SegmentClass::ALL.iter().position(|&c| c == self).unwrap()
    }

    /// True for the instantaneous link classes.
    pub fn is_link(self) -> bool {
        matches!(
            self,
            SegmentClass::Rpc | SegmentClass::Demotion | SegmentClass::BackfillShadow
        )
    }
}

/// One segment of a pair's critical path: `[from, to)` in sim seconds
/// (`from == to` for link segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Segment {
    pub class: SegmentClass,
    pub from: u64,
    pub to: u64,
}

impl Segment {
    /// Sim-seconds covered (0 for links).
    pub fn secs(&self) -> u64 {
        self.to - self.from
    }
}

/// The reconstructed critical path of one mate pair that reached its
/// synchronized start.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PairPath {
    /// Machine-0 member job id.
    pub job0: u64,
    /// Machine-1 member job id.
    pub job1: u64,
    /// The pair's root rendezvous span id.
    pub root_span: u64,
    /// Scheme combo: machine-0 member class then machine-1 member class,
    /// each `H` / `Y` / `-`.
    pub combo: String,
    /// First submit of either member.
    pub first_submit: u64,
    /// Instant both members were started.
    pub sync_start: u64,
    /// Time-ordered, gap-free chain over `[first_submit, sync_start)` with
    /// zero-duration links interleaved.
    pub segments: Vec<Segment>,
}

impl PairPath {
    /// Total wait from first submit to synchronized start.
    pub fn total_wait(&self) -> u64 {
        self.sync_start - self.first_submit
    }

    /// Sum of timed segment durations (equals [`Self::total_wait`] for a
    /// well-formed path).
    pub fn timed_secs(&self) -> u64 {
        self.segments.iter().map(Segment::secs).sum()
    }

    /// Seconds attributed to one class.
    pub fn class_secs(&self, class: SegmentClass) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.class == class)
            .map(Segment::secs)
            .sum()
    }

    /// Number of link segments of one class.
    pub fn link_count(&self, class: SegmentClass) -> usize {
        self.segments
            .iter()
            .filter(|s| s.class == class && s.from == s.to)
            .count()
    }

    /// Verify the chain is gap-free: timed segments tile
    /// `[first_submit, sync_start)` exactly (links sit on boundaries or
    /// inside, and never overlap-extend), and durations sum to the total
    /// wait. Returns a description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        let mut cursor = self.first_submit;
        for seg in &self.segments {
            if seg.to < seg.from {
                return Err(format!("segment {seg:?} runs backwards"));
            }
            if seg.from == seg.to {
                if seg.from < self.first_submit || seg.to > self.sync_start {
                    return Err(format!("link {seg:?} outside the wait window"));
                }
                continue;
            }
            if seg.from != cursor {
                return Err(format!(
                    "gap: timed segment {seg:?} starts at {} but the chain is at {cursor}",
                    seg.from
                ));
            }
            cursor = seg.to;
        }
        if cursor != self.sync_start {
            return Err(format!(
                "chain ends at {cursor}, synchronized start is {}",
                self.sync_start
            ));
        }
        if self.timed_secs() != self.total_wait() {
            return Err(format!(
                "timed segments sum to {} but total wait is {}",
                self.timed_secs(),
                self.total_wait()
            ));
        }
        Ok(())
    }
}

/// Per-combo aggregate over all completed pairs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ComboAggregate {
    /// Scheme combo key (`HH`, `HY`, `YH`, `YY`, `H-`, …).
    pub combo: String,
    /// Pairs in this combo.
    pub pairs: u64,
    /// Summed total wait.
    pub total_wait: u64,
    /// Seconds per class, indexed like [`SegmentClass::ALL`].
    pub class_secs: [u64; 6],
    /// Link-segment counts per class, indexed like [`SegmentClass::ALL`].
    pub link_counts: [u64; 6],
}

impl ComboAggregate {
    fn new(combo: &str) -> Self {
        ComboAggregate {
            combo: combo.to_string(),
            pairs: 0,
            total_wait: 0,
            class_secs: [0; 6],
            link_counts: [0; 6],
        }
    }
}

/// Errors from critical-path reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub enum CriticalPathError {
    Lifecycle(LifecycleError),
    Spans(SpanTreeError),
    /// A pair root span references a job the trace never submitted.
    MissingLifecycle {
        machine: usize,
        job: u64,
    },
    /// A pair closed its root span but a member has no start event.
    MemberNeverStarted {
        machine: usize,
        job: u64,
    },
}

impl fmt::Display for CriticalPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CriticalPathError::Lifecycle(e) => write!(f, "lifecycle reconstruction: {e}"),
            CriticalPathError::Spans(e) => write!(f, "span-tree reconstruction: {e}"),
            CriticalPathError::MissingLifecycle { machine, job } => {
                write!(
                    f,
                    "pair root references unsubmitted job {job} on machine {machine}"
                )
            }
            CriticalPathError::MemberNeverStarted { machine, job } => {
                write!(
                    f,
                    "pair root closed but job {job} on machine {machine} never started"
                )
            }
        }
    }
}

impl std::error::Error for CriticalPathError {}

impl From<LifecycleError> for CriticalPathError {
    fn from(e: LifecycleError) -> Self {
        CriticalPathError::Lifecycle(e)
    }
}

impl From<SpanTreeError> for CriticalPathError {
    fn from(e: SpanTreeError) -> Self {
        CriticalPathError::Spans(e)
    }
}

/// The critical-path analysis of one trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CriticalPathReport {
    /// One path per pair that reached its synchronized start, in root-span
    /// open order.
    pub pairs: Vec<PairPath>,
    /// Pair root spans still open at end of trace (pair never fully
    /// started — deadlocked or truncated run).
    pub unfinished: usize,
    /// Per-combo aggregates, sorted by combo key.
    pub combos: Vec<ComboAggregate>,
}

/// Where a member is in its life at some instant, for binding-state
/// classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemberState {
    Unsubmitted,
    Queued,
    Held,
    YieldWait,
    Started,
}

fn state_at(lc: &JobLifecycle, t: u64) -> MemberState {
    if t < lc.submit {
        return MemberState::Unsubmitted;
    }
    if lc.start.is_some_and(|s| t >= s) {
        return MemberState::Started;
    }
    if lc.holds.iter().any(|&(a, b)| t >= a && t < b) || lc.open_hold.is_some_and(|a| t >= a) {
        return MemberState::Held;
    }
    if lc.yields.first().is_some_and(|&y| t >= y) {
        return MemberState::YieldWait;
    }
    MemberState::Queued
}

/// Class of an interval given one member's non-started state.
fn class_of_waiting(state: MemberState) -> SegmentClass {
    match state {
        MemberState::Unsubmitted | MemberState::Queued => SegmentClass::LocalQueue,
        MemberState::Held => SegmentClass::Hold,
        MemberState::YieldWait => SegmentClass::Yield,
        // Both-started intervals never reach classification.
        MemberState::Started => SegmentClass::LocalQueue,
    }
}

fn classify(s0: MemberState, s1: MemberState) -> SegmentClass {
    use MemberState::*;
    // One member already started (or holding): the chain runs through the
    // other member — classify by what *it* is doing.
    match (s0, s1) {
        (Started, other) | (other, Started) => class_of_waiting(other),
        (Held, Held) => SegmentClass::Hold,
        (Held, other) | (other, Held) => class_of_waiting(other),
        (Unsubmitted, _) | (_, Unsubmitted) => SegmentClass::LocalQueue,
        (YieldWait, _) | (_, YieldWait) => SegmentClass::Yield,
        (Queued, Queued) => SegmentClass::LocalQueue,
    }
}

/// `H` when the member ever held, else `Y` when it ever yielded, else `-`.
fn member_class(lc: &JobLifecycle) -> char {
    if !lc.holds.is_empty() || lc.open_hold.is_some() {
        'H'
    } else if !lc.yields.is_empty() {
        'Y'
    } else {
        '-'
    }
}

/// Every `CoschedDeadlockDemotion` and `SchedDrainEngaged` record as a
/// zero-duration link, keyed by the `(machine, job)` it concerns, with its
/// record index; each list is in record order. One pass over the trace, so
/// the per-pair lookups cost nothing per record.
fn index_job_links(records: &[TraceRecord]) -> HashMap<(usize, u64), Vec<(usize, Segment)>> {
    let mut links: HashMap<(usize, u64), Vec<(usize, Segment)>> = HashMap::new();
    for (index, rec) in records.iter().enumerate() {
        let (job, class) = match rec.event {
            TraceEvent::CoschedDeadlockDemotion { job } => (job, SegmentClass::Demotion),
            TraceEvent::SchedDrainEngaged { blocked_job, .. } => {
                (blocked_job, SegmentClass::BackfillShadow)
            }
            _ => continue,
        };
        let link = Segment {
            class,
            from: rec.time,
            to: rec.time,
        };
        links
            .entry((rec.machine, job))
            .or_default()
            .push((index, link));
    }
    links
}

impl CriticalPathReport {
    /// Reconstruct every completed pair's critical path from a trace.
    ///
    /// Requires a trace recorded with spans (PR-4 observer output); traces
    /// without span records yield an empty report rather than an error.
    pub fn from_records(records: &[TraceRecord]) -> Result<Self, CriticalPathError> {
        let lifecycles = LifecycleSet::from_records(records)?;
        let tree = SpanTree::from_records(records)?;
        let job_links = index_job_links(records);
        let no_links = Vec::new();

        let mut pairs = Vec::new();
        let mut unfinished = 0usize;
        for root in tree.pair_roots() {
            if root.close.is_none() {
                unfinished += 1;
                continue;
            }
            let lc0 =
                lifecycles
                    .jobs
                    .get(&(0, root.job))
                    .ok_or(CriticalPathError::MissingLifecycle {
                        machine: 0,
                        job: root.job,
                    })?;
            let lc1 = lifecycles.jobs.get(&(1, root.mate)).ok_or(
                CriticalPathError::MissingLifecycle {
                    machine: 1,
                    job: root.mate,
                },
            )?;
            let start0 = lc0.start.ok_or(CriticalPathError::MemberNeverStarted {
                machine: 0,
                job: lc0.job,
            })?;
            let start1 = lc1.start.ok_or(CriticalPathError::MemberNeverStarted {
                machine: 1,
                job: lc1.job,
            })?;

            let t0 = lc0.submit.min(lc1.submit);
            let sync = start0.max(start1);

            // Elementary boundaries: every instant a member's state can flip.
            let mut cuts: Vec<u64> = vec![t0, sync];
            for lc in [lc0, lc1] {
                let mut push = |t: u64| {
                    if t > t0 && t < sync {
                        cuts.push(t);
                    }
                };
                push(lc.submit);
                if let Some(s) = lc.start {
                    push(s);
                }
                for &(a, b) in &lc.holds {
                    push(a);
                    push(b);
                }
                if let Some(a) = lc.open_hold {
                    push(a);
                }
                if let Some(&y) = lc.yields.first() {
                    push(y);
                }
            }
            cuts.sort_unstable();
            cuts.dedup();

            // Classify each elementary interval, merging same-class runs.
            let mut segments: Vec<Segment> = Vec::new();
            for w in cuts.windows(2) {
                let (a, b) = (w[0], w[1]);
                let class = classify(state_at(lc0, a), state_at(lc1, a));
                match segments.last_mut() {
                    Some(last) if last.class == class && last.to == a => last.to = b,
                    _ => segments.push(Segment {
                        class,
                        from: a,
                        to: b,
                    }),
                }
            }

            // Zero-duration links, gathered then spliced in time order.
            let mut links: Vec<Segment> = Vec::new();
            for node in tree.descendants(root.id) {
                if matches!(node.kind, SpanKind::Rpc(_)) && node.open >= t0 && node.open <= sync {
                    links.push(Segment {
                        class: SegmentClass::Rpc,
                        from: node.open,
                        to: node.open,
                    });
                }
            }
            // Both members' demotion and drain links, merged back into
            // record order so the stable sort below sees them as a scan of
            // the records would.
            let member_links = |m: usize, job: u64| job_links.get(&(m, job)).unwrap_or(&no_links);
            let mut recorded: Vec<(usize, Segment)> = member_links(0, lc0.job)
                .iter()
                .chain(member_links(1, lc1.job))
                .copied()
                .collect();
            recorded.sort_unstable_by_key(|&(index, _)| index);
            links.extend(recorded.into_iter().map(|(_, link)| link));
            links.retain(|l| l.from >= t0 && l.to <= sync);
            segments.extend(links);
            segments.sort_by_key(|s| (s.from, s.to));

            let path = PairPath {
                job0: lc0.job,
                job1: lc1.job,
                root_span: root.id,
                combo: format!("{}{}", member_class(lc0), member_class(lc1)),
                first_submit: t0,
                sync_start: sync,
                segments,
            };
            debug_assert_eq!(path.check(), Ok(()));
            pairs.push(path);
        }

        // Per-combo aggregation, sorted by combo key.
        let mut combos: BTreeMap<String, ComboAggregate> = BTreeMap::new();
        for path in &pairs {
            let agg = combos
                .entry(path.combo.clone())
                .or_insert_with(|| ComboAggregate::new(&path.combo));
            agg.pairs += 1;
            agg.total_wait += path.total_wait();
            for seg in &path.segments {
                let i = seg.class.index();
                agg.class_secs[i] += seg.secs();
                if seg.from == seg.to {
                    agg.link_counts[i] += 1;
                }
            }
        }

        Ok(CriticalPathReport {
            pairs,
            unfinished,
            combos: combos.into_values().collect(),
        })
    }
}

impl fmt::Display for CriticalPathReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<5} {:>5} {:>12} {:>12} {:>10} {:>10} {:>6} {:>9} {:>7}",
            "combo",
            "pairs",
            "total-wait",
            "local-queue",
            "hold",
            "yield",
            "rpcs",
            "demotions",
            "shadows"
        )?;
        for agg in &self.combos {
            writeln!(
                f,
                "{:<5} {:>5} {:>12} {:>12} {:>10} {:>10} {:>6} {:>9} {:>7}",
                agg.combo,
                agg.pairs,
                agg.total_wait,
                agg.class_secs[SegmentClass::LocalQueue.index()],
                agg.class_secs[SegmentClass::Hold.index()],
                agg.class_secs[SegmentClass::Yield.index()],
                agg.link_counts[SegmentClass::Rpc.index()],
                agg.link_counts[SegmentClass::Demotion.index()],
                agg.link_counts[SegmentClass::BackfillShadow.index()],
            )?;
        }
        if self.unfinished > 0 {
            writeln!(
                f,
                "unfinished pairs (root span never closed): {}",
                self.unfinished
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosched_obs::{GLOBAL, NO_JOB, NO_SPAN};

    fn rec(time: u64, machine: usize, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time,
            machine,
            event,
        }
    }

    /// A hand-built HY pair: member 1 on machine 0 holds, member 2 on
    /// machine 1 arrives late and yields before the rendezvous.
    fn hy_pair_trace() -> Vec<TraceRecord> {
        use cosched_obs::trace::RpcKind;
        vec![
            rec(
                0,
                GLOBAL,
                TraceEvent::SpanOpen {
                    span: 1,
                    parent: NO_SPAN,
                    kind: SpanKind::PairRendezvous,
                    job: 1,
                    mate: 2,
                },
            ),
            rec(
                0,
                0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    size: 10,
                    paired: true,
                },
            ),
            rec(10, 0, TraceEvent::CoschedHoldPlaced { job: 1, nodes: 10 }),
            rec(
                50,
                1,
                TraceEvent::JobSubmitted {
                    job: 2,
                    size: 10,
                    paired: true,
                },
            ),
            rec(
                60,
                1,
                TraceEvent::CoschedYield {
                    job: 2,
                    yields_so_far: 1,
                },
            ),
            rec(
                100,
                0,
                TraceEvent::SpanOpen {
                    span: 2,
                    parent: 1,
                    kind: SpanKind::Rpc(RpcKind::StartJob),
                    job: 1,
                    mate: NO_JOB,
                },
            ),
            rec(100, 0, TraceEvent::SpanClose { span: 2 }),
            rec(
                100,
                0,
                TraceEvent::CoschedStart {
                    job: 1,
                    with_mate: true,
                },
            ),
            rec(
                100,
                1,
                TraceEvent::CoschedStart {
                    job: 2,
                    with_mate: true,
                },
            ),
            rec(100, GLOBAL, TraceEvent::SpanClose { span: 1 }),
        ]
    }

    #[test]
    fn reconstructs_gap_free_hy_path() {
        let report = CriticalPathReport::from_records(&hy_pair_trace()).unwrap();
        assert_eq!(report.pairs.len(), 1);
        assert_eq!(report.unfinished, 0);
        let path = &report.pairs[0];
        assert_eq!((path.job0, path.job1), (1, 2));
        assert_eq!(path.combo, "HY");
        assert_eq!(path.first_submit, 0);
        assert_eq!(path.sync_start, 100);
        path.check().unwrap();
        assert_eq!(path.timed_secs(), path.total_wait());
        // [0,50) mate unsubmitted → local-queue; [50,60) mate queued →
        // local-queue; [60,100) mate yielding → yield; StartJob RPC link.
        assert_eq!(path.class_secs(SegmentClass::LocalQueue), 60);
        assert_eq!(path.class_secs(SegmentClass::Yield), 40);
        assert_eq!(path.class_secs(SegmentClass::Hold), 0);
        assert_eq!(path.link_count(SegmentClass::Rpc), 1);
    }

    #[test]
    fn aggregates_per_combo() {
        let report = CriticalPathReport::from_records(&hy_pair_trace()).unwrap();
        assert_eq!(report.combos.len(), 1);
        let agg = &report.combos[0];
        assert_eq!(agg.combo, "HY");
        assert_eq!(agg.pairs, 1);
        assert_eq!(agg.total_wait, 100);
        assert_eq!(agg.class_secs[SegmentClass::LocalQueue.index()], 60);
        assert_eq!(agg.link_counts[SegmentClass::Rpc.index()], 1);
        let table = report.to_string();
        assert!(table.contains("combo"), "{table}");
        assert!(table.contains("HY"), "{table}");
    }

    #[test]
    fn unclosed_root_counts_as_unfinished() {
        let records = vec![
            rec(
                0,
                GLOBAL,
                TraceEvent::SpanOpen {
                    span: 1,
                    parent: NO_SPAN,
                    kind: SpanKind::PairRendezvous,
                    job: 1,
                    mate: 2,
                },
            ),
            rec(
                0,
                0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    size: 10,
                    paired: true,
                },
            ),
        ];
        let report = CriticalPathReport::from_records(&records).unwrap();
        assert!(report.pairs.is_empty());
        assert_eq!(report.unfinished, 1);
    }

    #[test]
    fn spanless_trace_yields_empty_report() {
        let records = vec![rec(
            0,
            0,
            TraceEvent::JobSubmitted {
                job: 1,
                size: 10,
                paired: false,
            },
        )];
        let report = CriticalPathReport::from_records(&records).unwrap();
        assert!(report.pairs.is_empty());
        assert_eq!(report.unfinished, 0);
    }

    #[test]
    fn demotion_links_splice_into_the_chain() {
        let mut records = hy_pair_trace();
        // Demote the holder at t=70, re-hold at 80 (state machine requires
        // queued → held again before its start).
        records.insert(
            5,
            rec(70, 0, TraceEvent::CoschedDeadlockDemotion { job: 1 }),
        );
        records.insert(
            6,
            rec(80, 0, TraceEvent::CoschedHoldPlaced { job: 1, nodes: 10 }),
        );
        let report = CriticalPathReport::from_records(&records).unwrap();
        let path = &report.pairs[0];
        path.check().unwrap();
        assert_eq!(path.link_count(SegmentClass::Demotion), 1);
        assert_eq!(path.timed_secs(), path.total_wait());
    }

    #[test]
    fn both_members_links_at_one_instant_keep_record_order() {
        let mut records = hy_pair_trace();
        // At t=70 the mate's machine engages a drain for it, and only then
        // is the holder demoted (and re-holds at 80).
        let drain = TraceEvent::SchedDrainEngaged {
            blocked_job: 2,
            needed: 10,
            free_nodes: 10,
        };
        records.insert(5, rec(70, 1, drain));
        records.insert(
            6,
            rec(70, 0, TraceEvent::CoschedDeadlockDemotion { job: 1 }),
        );
        records.insert(
            7,
            rec(80, 0, TraceEvent::CoschedHoldPlaced { job: 1, nodes: 10 }),
        );
        let report = CriticalPathReport::from_records(&records).unwrap();
        let path = &report.pairs[0];
        path.check().unwrap();
        let links: Vec<SegmentClass> = path
            .segments
            .iter()
            .filter(|s| s.from == 70 && s.to == 70)
            .map(|s| s.class)
            .collect();
        assert_eq!(
            links,
            [SegmentClass::BackfillShadow, SegmentClass::Demotion]
        );
    }
}
