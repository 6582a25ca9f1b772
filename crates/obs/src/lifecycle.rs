//! Job lifecycles: the one job state machine, folded record by record.
//!
//! The trace is an interleaved event log; answering the paper's §V
//! questions ("how long did mated jobs hold resources?", "where did the
//! wait come from?") needs the per-job view back. [`LifecycleSet::apply`]
//! folds one record at a time into per-job timelines through a strict
//! state machine — submit → queued ⇄ held → running → finished — and any
//! event that contradicts it (a start before a submission, a hold on a
//! running job) is a [`LifecycleError`] pinpointing the offending record,
//! so schema or emission bugs surface instead of silently skewing
//! aggregates. A rejected record changes nothing.
//!
//! Offline analysis (`cosched-trace`) replays a whole trace through
//! [`LifecycleSet::from_records`], which also requires time order; the
//! [`crate::StreamingMonitor`] folds the live stream through the same
//! [`LifecycleSet::apply`] and keeps only the jobs still alive.

use crate::trace::{TraceEvent, TraceRecord};
use std::collections::BTreeMap;

/// Where a job is in its life; follows from its [`JobLifecycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum State {
    Queued,
    Held,
    Running,
    Finished,
}

/// How a pair committed its simultaneous start (from the
/// `cosched-rendezvous-commit` event on the triggering side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rendezvous {
    /// The mate's job id (on the other machine).
    pub mate: u64,
    /// True when the mate was holding and got started in place.
    pub anchored: bool,
}

/// One reconstructed per-job timeline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobLifecycle {
    /// Machine index the job ran on.
    pub machine: usize,
    /// Job id (unique per machine).
    pub job: u64,
    /// Requested nodes.
    pub size: u64,
    /// Whether the job has a mate on the other machine.
    pub paired: bool,
    /// Submission instant (sim seconds).
    pub submit: u64,
    /// Start instant; `None` when the trace ended with the job waiting
    /// (deadlock or truncated run).
    pub start: Option<u64>,
    /// Completion instant; `None` while running at end of trace.
    pub end: Option<u64>,
    /// True when the start committed together with the mate (either side
    /// of a rendezvous).
    pub started_with_mate: bool,
    /// Closed hold episodes `[from, to)` — resources reserved, job idle.
    pub holds: Vec<(u64, u64)>,
    /// A hold still open when the trace ended (deadlocked run).
    pub open_hold: Option<u64>,
    /// Nodes the job's holds reserve: the allocator's charge, which depends
    /// on the size alone (≥ `size` on partitioned machines); 0 when the job
    /// never held.
    pub hold_nodes: u64,
    /// Instants of yield give-backs (job skipped its turn for its mate).
    pub yields: Vec<u64>,
    /// Holds force-released by the §IV-E1 deadlock breaker.
    pub forced_releases: u32,
    /// Hold→yield degradations (held-capacity cap, §IV-E2).
    pub degradations: u32,
    /// Yield→hold escalations (yield cap, §IV-E2).
    pub escalations: u32,
    /// Rendezvous commit observed on this job's side, if any.
    pub rendezvous: Option<Rendezvous>,
}

impl JobLifecycle {
    pub(crate) fn state(&self) -> State {
        match (self.start, self.end, self.open_hold) {
            (_, Some(_), _) => State::Finished,
            (Some(_), None, _) => State::Running,
            (None, None, Some(_)) => State::Held,
            (None, None, None) => State::Queued,
        }
    }

    /// Queue wait: submission to start.
    pub fn wait_secs(&self) -> Option<u64> {
        self.start.map(|s| s - self.submit)
    }

    /// First instant the job was ready to run but deferred to coscheduling
    /// (first hold or yield); equals `start` when it never deferred.
    pub fn first_ready(&self) -> Option<u64> {
        let first_hold = self.holds.first().map(|&(t, _)| t);
        let open = self.open_hold;
        let first_yield = self.yields.first().copied();
        [first_hold, open, first_yield, self.start]
            .into_iter()
            .flatten()
            .min()
    }

    /// Total time spent holding resources while idle, clipped to `horizon`
    /// for a hold still open at end of trace.
    pub fn hold_secs(&self, horizon: u64) -> u64 {
        let closed: u64 = self.holds.iter().map(|&(a, b)| b - a).sum();
        closed + self.open_hold.map_or(0, |t| horizon.saturating_sub(t))
    }

    /// Runtime, when the job both started and finished.
    pub fn run_secs(&self) -> Option<u64> {
        match (self.start, self.end) {
            (Some(s), Some(e)) => Some(e - s),
            _ => None,
        }
    }
}

/// A reconstruction failure: the record index (0-based position in the
/// stream) plus what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifecycleError {
    /// Index of the offending record in the input stream.
    pub record: usize,
    /// Sim time of the offending record.
    pub time: u64,
    pub message: String,
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "record {} (t={}): {}",
            self.record, self.time, self.message
        )
    }
}

impl std::error::Error for LifecycleError {}

/// The job a lifecycle event is about and what the event does to it;
/// `None` for every other event.
pub(crate) fn lifecycle_job(event: &TraceEvent) -> Option<(u64, &'static str)> {
    Some(match *event {
        TraceEvent::JobSubmitted { job, .. } => (job, "submit"),
        TraceEvent::CoschedHoldPlaced { job, .. } => (job, "hold"),
        TraceEvent::CoschedDeadlockDemotion { job } => (job, "demotion"),
        TraceEvent::CoschedYield { job, .. } => (job, "yield"),
        TraceEvent::CoschedHeldCapDegradation { job, .. } => (job, "degradation"),
        TraceEvent::CoschedYieldCapEscalation { job, .. } => (job, "escalation"),
        TraceEvent::CoschedRendezvousCommit { job, .. } => (job, "rendezvous"),
        TraceEvent::CoschedStart { job, .. } => (job, "start"),
        TraceEvent::JobEnded { job } => (job, "end"),
        _ => return None,
    })
}

/// Per-job lifecycles of one event stream, keyed `(machine, job id)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LifecycleSet {
    /// Per-job timelines in deterministic `(machine, job)` order.
    pub jobs: BTreeMap<(usize, u64), JobLifecycle>,
    /// Largest sim time seen in the stream.
    pub horizon: u64,
    /// Records applied so far (including non-lifecycle events).
    pub records: usize,
}

impl LifecycleSet {
    /// Fold a time-ordered event stream into per-job timelines.
    ///
    /// Non-lifecycle events (`Sched*`, `Rpc*`, `Span*`, `Alert*`, release
    /// sweeps) only advance the horizon; lifecycle events must respect the job state
    /// machine or reconstruction fails with the offending record's index.
    pub fn from_records(records: &[TraceRecord]) -> Result<Self, LifecycleError> {
        let mut set = LifecycleSet::default();
        for record in records {
            set.apply_in_order(record)?;
        }
        Ok(set)
    }

    /// [`LifecycleSet::apply`], first rejecting a record older than the
    /// horizon: a recorded trace is time-ordered. (Live domains stamp their
    /// own clocks, so the monitor folds through `apply` alone.)
    pub fn apply_in_order(&mut self, record: &TraceRecord) -> Result<(), LifecycleError> {
        if record.time < self.horizon {
            return Err(LifecycleError {
                record: self.records,
                time: record.time,
                message: format!(
                    "time went backwards ({} after {})",
                    record.time, self.horizon
                ),
            });
        }
        self.apply(record)
    }

    /// Fold one record into its job's timeline. A record the state machine
    /// forbids is returned as an error and leaves the set unchanged.
    pub fn apply(&mut self, r: &TraceRecord) -> Result<(), LifecycleError> {
        if let Some((job, what)) = lifecycle_job(&r.event) {
            self.apply_job(r, job, what)?;
        }
        self.records += 1;
        self.horizon = self.horizon.max(r.time);
        Ok(())
    }

    fn apply_job(&mut self, r: &TraceRecord, job: u64, what: &str) -> Result<(), LifecycleError> {
        let (index, time, machine) = (self.records, r.time, r.machine);
        let fail = |message: String| LifecycleError {
            record: index,
            time,
            message,
        };
        if let TraceEvent::JobSubmitted { size, paired, .. } = r.event {
            if self.jobs.contains_key(&(machine, job)) {
                return Err(fail(format!(
                    "job {job} submitted twice on machine {machine}"
                )));
            }
            self.jobs.insert(
                (machine, job),
                JobLifecycle {
                    machine,
                    job,
                    size,
                    paired,
                    submit: time,
                    ..Default::default()
                },
            );
            return Ok(());
        }
        let Some(lc) = self.jobs.get_mut(&(machine, job)) else {
            return Err(fail(format!(
                "{what} event for job {job} on machine {machine} before its submission"
            )));
        };
        let state = lc.state();
        match r.event {
            TraceEvent::CoschedHoldPlaced { nodes, .. } => {
                if state != State::Queued {
                    return Err(fail(format!("hold placed on {state:?} job {job}")));
                }
                lc.open_hold = Some(time);
                lc.hold_nodes = nodes;
            }
            TraceEvent::CoschedDeadlockDemotion { .. } => {
                // Only a held job has an open hold.
                let Some(from) = lc.open_hold.take() else {
                    return Err(fail(format!("demotion of {state:?} job {job}")));
                };
                lc.holds.push((from, time));
                lc.forced_releases += 1;
            }
            TraceEvent::CoschedYield { .. } => {
                if state != State::Queued {
                    return Err(fail(format!("yield by {state:?} job {job}")));
                }
                lc.yields.push(time);
            }
            TraceEvent::CoschedHeldCapDegradation { .. } => lc.degradations += 1,
            TraceEvent::CoschedYieldCapEscalation { .. } => lc.escalations += 1,
            TraceEvent::CoschedRendezvousCommit { mate, anchored, .. } => {
                lc.rendezvous = Some(Rendezvous { mate, anchored });
                lc.started_with_mate = true;
            }
            TraceEvent::CoschedStart { with_mate, .. } => {
                if !matches!(state, State::Queued | State::Held) {
                    return Err(fail(format!("start of {state:?} job {job}")));
                }
                if let Some(from) = lc.open_hold.take() {
                    lc.holds.push((from, time));
                }
                lc.start = Some(time);
                lc.started_with_mate |= with_mate;
            }
            // `JobEnded`, the one lifecycle event left.
            _ => {
                if state != State::Running {
                    return Err(fail(format!("end of {state:?} job {job}")));
                }
                lc.end = Some(time);
            }
        }
        Ok(())
    }

    /// Machine indices present, in order.
    pub fn machines(&self) -> Vec<usize> {
        let mut ms: Vec<usize> = self.jobs.keys().map(|&(m, _)| m).collect();
        ms.dedup();
        ms
    }

    /// Jobs of one machine, in id order.
    pub fn machine_jobs(&self, machine: usize) -> impl Iterator<Item = &JobLifecycle> {
        self.jobs
            .range((machine, 0)..=(machine, u64::MAX))
            .map(|(_, lc)| lc)
    }

    /// Peak concurrent running nodes on a machine — the effective capacity
    /// floor used when the true capacity is not known to the analyzer.
    pub fn peak_running_nodes(&self, machine: usize) -> u64 {
        // Sweep start/end edges in time order.
        let mut edges: Vec<(u64, i64)> = Vec::new();
        for lc in self.machine_jobs(machine) {
            if let Some(s) = lc.start {
                edges.push((s, lc.size as i64));
                edges.push((lc.end.unwrap_or(self.horizon), -(lc.size as i64)));
            }
        }
        edges.sort_unstable_by_key(|&(t, delta)| (t, delta));
        let (mut level, mut peak) = (0i64, 0i64);
        for (_, delta) in edges {
            level += delta;
            peak = peak.max(level);
        }
        peak.max(0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RpcKind;

    /// A record outside the job state machine.
    const PING: TraceEvent = TraceEvent::RpcCall {
        kind: RpcKind::Ping,
        ok: true,
    };

    fn rec(time: u64, machine: usize, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time,
            machine,
            event,
        }
    }

    fn submit(time: u64, machine: usize, job: u64, paired: bool) -> TraceRecord {
        rec(
            time,
            machine,
            TraceEvent::JobSubmitted {
                job,
                size: 10,
                paired,
            },
        )
    }

    #[test]
    fn reconstructs_hold_then_rendezvous() {
        let records = vec![
            submit(0, 0, 1, true),
            rec(5, 0, TraceEvent::CoschedHoldPlaced { job: 1, nodes: 10 }),
            rec(
                60,
                0,
                TraceEvent::CoschedStart {
                    job: 1,
                    with_mate: true,
                },
            ),
            rec(100, 0, TraceEvent::JobEnded { job: 1 }),
        ];
        let set = LifecycleSet::from_records(&records).unwrap();
        let lc = &set.jobs[&(0, 1)];
        assert_eq!(lc.submit, 0);
        assert_eq!(lc.start, Some(60));
        assert_eq!(lc.end, Some(100));
        assert_eq!(lc.holds, vec![(5, 60)]);
        assert_eq!(lc.hold_secs(set.horizon), 55);
        assert_eq!(lc.wait_secs(), Some(60));
        assert_eq!(lc.first_ready(), Some(5));
        assert_eq!(lc.run_secs(), Some(40));
        assert!(lc.started_with_mate);
        assert_eq!(set.horizon, 100);
    }

    #[test]
    fn demotion_closes_and_reopens_holds() {
        let records = vec![
            submit(0, 1, 7, true),
            rec(10, 1, TraceEvent::CoschedHoldPlaced { job: 7, nodes: 10 }),
            rec(30, 1, TraceEvent::CoschedDeadlockDemotion { job: 7 }),
            rec(40, 1, TraceEvent::CoschedHoldPlaced { job: 7, nodes: 10 }),
            rec(
                90,
                1,
                TraceEvent::CoschedStart {
                    job: 7,
                    with_mate: false,
                },
            ),
        ];
        let set = LifecycleSet::from_records(&records).unwrap();
        let lc = &set.jobs[&(1, 7)];
        assert_eq!(lc.holds, vec![(10, 30), (40, 90)]);
        assert_eq!(lc.forced_releases, 1);
        assert_eq!(lc.hold_secs(set.horizon), 70);
        assert_eq!(lc.end, None, "still running at end of trace");
    }

    #[test]
    fn open_hold_clips_to_horizon() {
        let records = vec![
            submit(0, 0, 2, true),
            rec(10, 0, TraceEvent::CoschedHoldPlaced { job: 2, nodes: 10 }),
            rec(50, 0, PING),
        ];
        let set = LifecycleSet::from_records(&records).unwrap();
        let lc = &set.jobs[&(0, 2)];
        assert_eq!(lc.start, None);
        assert_eq!(lc.open_hold, Some(10));
        assert_eq!(lc.hold_secs(set.horizon), 40);
    }

    #[test]
    fn yields_accumulate_while_queued() {
        let records = vec![
            submit(0, 0, 3, true),
            rec(
                5,
                0,
                TraceEvent::CoschedYield {
                    job: 3,
                    yields_so_far: 1,
                },
            ),
            rec(
                9,
                0,
                TraceEvent::CoschedYield {
                    job: 3,
                    yields_so_far: 2,
                },
            ),
            rec(
                20,
                0,
                TraceEvent::CoschedStart {
                    job: 3,
                    with_mate: true,
                },
            ),
        ];
        let set = LifecycleSet::from_records(&records).unwrap();
        let lc = &set.jobs[&(0, 3)];
        assert_eq!(lc.yields, vec![5, 9]);
        assert_eq!(lc.first_ready(), Some(5));
        assert_eq!(lc.hold_secs(set.horizon), 0);
    }

    #[test]
    fn rejects_start_before_submission() {
        let records = vec![rec(
            5,
            0,
            TraceEvent::CoschedStart {
                job: 1,
                with_mate: false,
            },
        )];
        let err = LifecycleSet::from_records(&records).unwrap_err();
        assert_eq!(err.record, 0);
        assert!(err.message.contains("before its submission"), "{err}");
    }

    #[test]
    fn rejects_end_without_start() {
        let records = vec![
            submit(0, 0, 1, false),
            rec(9, 0, TraceEvent::JobEnded { job: 1 }),
        ];
        let err = LifecycleSet::from_records(&records).unwrap_err();
        assert_eq!(err.record, 1);
        assert!(err.message.contains("end of Queued"), "{err}");
    }

    #[test]
    fn rejects_duplicate_submission_and_backwards_time() {
        let records = vec![submit(10, 0, 1, false), submit(10, 0, 1, false)];
        let err = LifecycleSet::from_records(&records).unwrap_err();
        assert!(err.message.contains("submitted twice"), "{err}");

        let records = vec![submit(10, 0, 1, false), submit(5, 0, 2, false)];
        let err = LifecycleSet::from_records(&records).unwrap_err();
        assert!(err.message.contains("time went backwards"), "{err}");
    }

    #[test]
    fn rejects_hold_on_running_job() {
        let records = vec![
            submit(0, 0, 1, true),
            rec(
                5,
                0,
                TraceEvent::CoschedStart {
                    job: 1,
                    with_mate: false,
                },
            ),
            rec(6, 0, TraceEvent::CoschedHoldPlaced { job: 1, nodes: 10 }),
        ];
        let err = LifecycleSet::from_records(&records).unwrap_err();
        assert_eq!(err.record, 2);
        assert!(err.message.contains("hold placed on Running"), "{err}");
    }

    #[test]
    fn same_machine_job_ids_do_not_collide_across_machines() {
        let records = vec![
            submit(0, 0, 1, false),
            submit(0, 1, 1, false),
            rec(
                4,
                1,
                TraceEvent::CoschedStart {
                    job: 1,
                    with_mate: false,
                },
            ),
        ];
        let set = LifecycleSet::from_records(&records).unwrap();
        assert_eq!(set.jobs.len(), 2);
        assert_eq!(set.jobs[&(0, 1)].start, None);
        assert_eq!(set.jobs[&(1, 1)].start, Some(4));
        assert_eq!(set.machines(), vec![0, 1]);
    }

    #[test]
    fn apply_records_hold_nodes_and_leaves_a_rejected_record_out() {
        let mut set = LifecycleSet::default();
        set.apply(&submit(0, 0, 1, true)).unwrap();
        set.apply(&rec(
            5,
            0,
            TraceEvent::CoschedHoldPlaced { job: 1, nodes: 16 },
        ))
        .unwrap();
        assert_eq!(set.jobs[&(0, 1)].hold_nodes, 16);
        let before = set.clone();
        let err = set
            .apply(&rec(6, 0, TraceEvent::JobEnded { job: 1 }))
            .unwrap_err();
        assert_eq!(err.record, 2);
        assert!(err.message.contains("end of Held"), "{err}");
        assert_eq!(set, before);
        // `apply` takes an older record; `apply_in_order` refuses it.
        set.apply(&rec(3, 0, PING)).unwrap();
        assert_eq!((set.records, set.horizon), (3, 5));
        let err = set.apply_in_order(&rec(4, 0, PING)).unwrap_err();
        assert!(err.message.contains("time went backwards"), "{err}");
    }

    #[test]
    fn peak_running_nodes_sweeps_overlaps() {
        let records = vec![
            submit(0, 0, 1, false),
            submit(0, 0, 2, false),
            rec(
                0,
                0,
                TraceEvent::CoschedStart {
                    job: 1,
                    with_mate: false,
                },
            ),
            rec(
                5,
                0,
                TraceEvent::CoschedStart {
                    job: 2,
                    with_mate: false,
                },
            ),
            rec(8, 0, TraceEvent::JobEnded { job: 1 }),
            rec(20, 0, TraceEvent::JobEnded { job: 2 }),
        ];
        let set = LifecycleSet::from_records(&records).unwrap();
        // Both 10-node jobs overlap in [5, 8).
        assert_eq!(set.peak_running_nodes(0), 20);
    }
}
