//! Streaming telemetry: online aggregates computed per event, no buffering.
//!
//! [`StreamingMonitor`] is an [`Observer`] that folds the event stream into
//! the same core aggregates the offline analyzers (`cosched-trace`)
//! reconstruct after the fact — running/queued/held counts, node
//! utilization integrals, held-node proportion, queue-age high-water,
//! rendezvous latency — but incrementally, while the run is live. State
//! lives behind an `Arc<Mutex<…>>`, so a clone of the monitor can be
//! handed to an HTTP endpoint or dashboard and polled concurrently via
//! [`StreamingMonitor::snapshot`].
//!
//! The monitor is a *pure consumer*: it never feeds anything back into the
//! simulation, so teeing it onto a JSONL sink (monitor second, sink first)
//! leaves the primary trace byte-identical and the `SimulationReport`
//! unchanged. Alert transitions it derives (via an embedded
//! [`AlertEngine`]) are kept in its own history, never injected into the
//! observed stream.

use crate::alert::{ActiveAlert, AlertEngine, AlertRule};
use crate::lifecycle::{lifecycle_job, JobLifecycle, LifecycleSet, State};
use crate::metrics::{Histogram, HistogramSnapshot};
use crate::observe::Observer;
use crate::trace::{SpanKind, TraceEvent, TraceRecord, GLOBAL};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// Default sim-time alert evaluation cadence (seconds).
pub const DEFAULT_TICK_SECS: u64 = 60;

/// Live state for one machine.
#[derive(Debug, Default)]
struct MachineState {
    /// Node capacity: explicit via [`StreamingMonitor::with_capacities`],
    /// otherwise inferred as `max(free + used + held)` observed at
    /// scheduler-iteration starts.
    capacity: u64,
    capacity_explicit: bool,
    used_nodes: u64,
    held_nodes: u64,
    /// Queued jobs ordered by (submit, job); demoted holds re-enter with
    /// their original submit time so queue age survives demotion.
    queued: BTreeSet<(u64, u64)>,
    running: usize,
    held: usize,
    queue_age_high_water: u64,
    used_node_seconds: u64,
    held_node_seconds: u64,
    submitted: u64,
    started: u64,
    finished: u64,
}

/// Machine `index`'s state, growing the table to reach it.
fn machine_state(machines: &mut Vec<MachineState>, index: usize) -> &mut MachineState {
    if index >= machines.len() {
        machines.resize_with(index + 1, MachineState::default);
    }
    &mut machines[index]
}

impl MachineState {
    fn queue_age(&self, now: u64) -> u64 {
        self.queued
            .first()
            .map_or(0, |&(submit, _)| now.saturating_sub(submit))
    }

    /// Move `lc` out of the aggregates of state `from` (`None`: not yet
    /// submitted) and into those of state `to`.
    fn transition(&mut self, lc: &JobLifecycle, from: Option<State>, to: State) {
        match from {
            None => self.submitted += 1,
            Some(State::Queued) => {
                self.queued.remove(&(lc.submit, lc.job));
            }
            Some(State::Held) => {
                self.held -= 1;
                self.held_nodes -= lc.hold_nodes;
            }
            Some(State::Running) => {
                self.running -= 1;
                self.used_nodes -= lc.size;
            }
            Some(State::Finished) => {}
        }
        match to {
            State::Queued => {
                self.queued.insert((lc.submit, lc.job));
            }
            State::Held => {
                self.held += 1;
                self.held_nodes += lc.hold_nodes;
            }
            State::Running => {
                self.running += 1;
                self.used_nodes += lc.size;
                self.started += 1;
            }
            State::Finished => self.finished += 1,
        }
    }

    fn telemetry(&self, index: usize, now: u64) -> MachineTelemetry {
        MachineTelemetry {
            index,
            capacity: self.capacity,
            used_nodes: self.used_nodes,
            held_nodes: self.held_nodes,
            running: self.running,
            queued: self.queued.len(),
            held: self.held,
            queue_age_secs: self.queue_age(now),
            queue_age_high_water: self.queue_age_high_water,
            used_node_seconds: self.used_node_seconds,
            held_node_seconds: self.held_node_seconds,
            submitted: self.submitted,
            started: self.started,
            finished: self.finished,
        }
    }
}

/// The monitor's internals, shared between clones.
#[derive(Debug, Default)]
struct MonitorState {
    machines: Vec<MachineState>,
    /// Lifecycles of the jobs not yet ended: the job state machine the
    /// per-machine aggregates follow.
    live: LifecycleSet,
    rejected_records: u64,
    last_time: u64,
    events: u64,
    rpc_calls: u64,
    rpc_timeouts: u64,
    deadlock_sweeps: u64,
    forced_releases: u64,
    yields: u64,
    holds_placed: u64,
    rendezvous_commits: u64,
    /// Open pair-rendezvous spans → open time.
    rendezvous_open: HashMap<u64, u64>,
    /// Submit-to-synchronized-start latency (sim-seconds).
    rendezvous: Histogram,
    engine: AlertEngine,
    tick_secs: u64,
    last_eval: u64,
    /// Alert raise/resolve transitions, in firing order. Monitor-private:
    /// never written into the observed trace.
    alert_history: Vec<TraceRecord>,
    done: bool,
    deadlocked: bool,
}

impl MonitorState {
    fn new(rules: Vec<AlertRule>) -> Self {
        MonitorState {
            engine: AlertEngine::new(rules),
            tick_secs: DEFAULT_TICK_SECS,
            ..Default::default()
        }
    }

    /// Integrate node-time, roll queue-age high-water forward, and run any
    /// alert ticks crossed in `(last_time, time]`.
    fn advance_to(&mut self, time: u64) {
        if time <= self.last_time {
            return;
        }
        let dt = time - self.last_time;
        for m in &mut self.machines {
            m.used_node_seconds += m.used_nodes * dt;
            m.held_node_seconds += m.held_nodes * dt;
            let age = m.queue_age(time);
            m.queue_age_high_water = m.queue_age_high_water.max(age);
        }
        self.last_time = time;
        while self.last_eval + self.tick_secs <= time {
            self.last_eval += self.tick_secs;
            self.eval_alerts(self.last_eval);
        }
    }

    /// Evaluate the rule set at sim time `now` against the current state.
    fn eval_alerts(&mut self, now: u64) {
        if self.engine.rules().is_empty() {
            return;
        }
        let snap = self.snapshot_inner(now);
        // Temporarily lift the engine out so it can read `snap` (built from
        // `self`) without aliasing.
        let mut engine = std::mem::take(&mut self.engine);
        let fired = engine.evaluate(now, |scope, metric| snap.metric(scope, metric));
        self.engine = engine;
        self.alert_history.extend(fired);
    }

    fn apply(&mut self, record: &TraceRecord) {
        let key = lifecycle_job(&record.event).map(|(job, _)| (record.machine, job));
        let before = key.and_then(|key| self.live.jobs.get(&key).map(JobLifecycle::state));
        if self.live.apply(record).is_err() {
            self.rejected_records += 1;
            return;
        }
        // Integrate up to this record under the state before it.
        self.advance_to(record.time);
        self.events += 1;
        match &record.event {
            TraceEvent::CoschedHoldPlaced { .. } => self.holds_placed += 1,
            TraceEvent::CoschedYield { .. } => self.yields += 1,
            TraceEvent::CoschedRendezvousCommit { .. } => self.rendezvous_commits += 1,
            TraceEvent::CoschedDeadlockDemotion { .. } => self.forced_releases += 1,
            TraceEvent::CoschedReleaseSweep { .. } => self.deadlock_sweeps += 1,
            TraceEvent::RpcCall { .. } => self.rpc_calls += 1,
            TraceEvent::RpcTimeout { .. } => {
                // Timeouts count as calls too, matching the driver's
                // `RunStats::rpc_calls` semantics.
                self.rpc_calls += 1;
                self.rpc_timeouts += 1;
            }
            TraceEvent::SchedIterationStart { free_nodes, .. } => {
                let m = machine_state(&mut self.machines, record.machine);
                if !m.capacity_explicit {
                    m.capacity = m.capacity.max(free_nodes + m.used_nodes + m.held_nodes);
                }
            }
            TraceEvent::SpanOpen { span, kind, .. } if *kind == SpanKind::PairRendezvous => {
                self.rendezvous_open.insert(*span, record.time);
            }
            TraceEvent::SpanClose { span } => {
                if let Some(open) = self.rendezvous_open.remove(span) {
                    self.rendezvous.record(record.time.saturating_sub(open));
                }
            }
            _ => {}
        }
        let Some(key) = key else { return };
        let lc = &self.live.jobs[&key];
        let after = lc.state();
        if before != Some(after) {
            machine_state(&mut self.machines, key.0).transition(lc, before, after);
        }
        if after == State::Finished {
            // Ended jobs leave the fold: memory follows the live jobs.
            self.live.jobs.remove(&key);
        }
    }

    fn snapshot_inner(&self, now: u64) -> TelemetrySnapshot {
        let machines: Vec<MachineTelemetry> = self
            .machines
            .iter()
            .enumerate()
            .map(|(i, m)| m.telemetry(i, now))
            .collect();
        TelemetrySnapshot {
            sim_time: now,
            events: self.events,
            rejected_records: self.rejected_records,
            submitted: machines.iter().map(|m| m.submitted).sum(),
            started: machines.iter().map(|m| m.started).sum(),
            finished: machines.iter().map(|m| m.finished).sum(),
            running: machines.iter().map(|m| m.running).sum(),
            queued: machines.iter().map(|m| m.queued).sum(),
            held: machines.iter().map(|m| m.held).sum(),
            rpc_calls: self.rpc_calls,
            rpc_timeouts: self.rpc_timeouts,
            deadlock_sweeps: self.deadlock_sweeps,
            forced_releases: self.forced_releases,
            yields: self.yields,
            holds_placed: self.holds_placed,
            rendezvous_commits: self.rendezvous_commits,
            rendezvous_p50_secs: self.rendezvous.quantile(0.5).unwrap_or(0),
            rendezvous_p99_secs: self.rendezvous.quantile(0.99).unwrap_or(0),
            rendezvous_latency: self.rendezvous.snapshot("rendezvous_latency_secs"),
            machines,
            active_alerts: self.engine.active(),
            alerts_raised_total: self.engine.raised_total,
            alerts_resolved_total: self.engine.resolved_total,
            done: self.done,
            deadlocked: self.deadlocked,
        }
    }
}

/// Live per-machine aggregates, as exposed in `/state`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineTelemetry {
    pub index: usize,
    /// Node capacity (explicit or inferred; 0 until first inference).
    pub capacity: u64,
    pub used_nodes: u64,
    pub held_nodes: u64,
    pub running: usize,
    pub queued: usize,
    pub held: usize,
    /// Age of the oldest queued job at snapshot time.
    pub queue_age_secs: u64,
    /// Largest queue age ever observed.
    pub queue_age_high_water: u64,
    /// ∫ used_nodes dt — equals Σ size×runtime once drained.
    pub used_node_seconds: u64,
    /// ∫ held_nodes dt — capacity lost to coscheduling holds.
    pub held_node_seconds: u64,
    pub submitted: u64,
    pub started: u64,
    pub finished: u64,
}

impl MachineTelemetry {
    /// Instantaneous utilization `used / capacity` (0 when capacity
    /// unknown).
    pub fn utilization(&self) -> f64 {
        ratio(self.used_nodes, self.capacity)
    }

    /// Instantaneous held-node proportion `held / capacity`.
    pub fn held_node_proportion(&self) -> f64 {
        ratio(self.held_nodes, self.capacity)
    }

    /// Time-averaged utilization over the run so far.
    pub fn avg_utilization(&self, sim_time: u64) -> f64 {
        ratio(self.used_node_seconds, self.capacity * sim_time)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Point-in-time view of the whole telemetry plane: run totals, per-machine
/// aggregates, rendezvous latency, and alert state. Serializes to the JSON
/// served at `/state`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Sim time of the snapshot.
    pub sim_time: u64,
    /// Records the monitor folded in so far.
    pub events: u64,
    /// Records the job state machine rejected (an end without a start, a
    /// hold on a running job, …); they leave every other figure unchanged.
    pub rejected_records: u64,
    pub submitted: u64,
    pub started: u64,
    pub finished: u64,
    pub running: usize,
    pub queued: usize,
    pub held: usize,
    pub rpc_calls: u64,
    pub rpc_timeouts: u64,
    pub deadlock_sweeps: u64,
    pub forced_releases: u64,
    pub yields: u64,
    pub holds_placed: u64,
    pub rendezvous_commits: u64,
    pub rendezvous_p50_secs: u64,
    pub rendezvous_p99_secs: u64,
    /// Submit-to-synchronized-start latency distribution (sim-seconds).
    pub rendezvous_latency: HistogramSnapshot,
    pub machines: Vec<MachineTelemetry>,
    pub active_alerts: Vec<ActiveAlert>,
    pub alerts_raised_total: u64,
    pub alerts_resolved_total: u64,
    /// The run finished (set by the runner via [`StreamingMonitor::finish`]).
    pub done: bool,
    /// The run ended deadlocked (undrained queues at exhaustion).
    pub deadlocked: bool,
}

impl TelemetrySnapshot {
    /// Total capacity across machines.
    pub fn total_capacity(&self) -> u64 {
        self.machines.iter().map(|m| m.capacity).sum()
    }

    /// Run-wide instantaneous utilization.
    pub fn utilization(&self) -> f64 {
        ratio(
            self.machines.iter().map(|m| m.used_nodes).sum(),
            self.total_capacity(),
        )
    }

    /// Run-wide instantaneous held-node proportion.
    pub fn held_node_proportion(&self) -> f64 {
        ratio(
            self.machines.iter().map(|m| m.held_nodes).sum(),
            self.total_capacity(),
        )
    }

    /// Oldest queued-job age across machines.
    pub fn queue_age_secs(&self) -> u64 {
        self.machines
            .iter()
            .map(|m| m.queue_age_secs)
            .max()
            .unwrap_or(0)
    }

    /// All queues empty and everything submitted has finished.
    pub fn drained(&self) -> bool {
        self.running == 0 && self.queued == 0 && self.held == 0 && self.submitted > 0
    }

    /// Metric reading by scope ([`GLOBAL`] or a machine index) and name —
    /// the vocabulary alert rules are written against. Returns `None` for
    /// unknown names or out-of-range machine scopes.
    ///
    /// Global metrics: `submitted`, `started`, `finished`, `running`,
    /// `queued`, `held`, `rpc_calls`, `rpc_timeouts`, `deadlock_sweeps`,
    /// `forced_releases`, `yields`, `holds_placed`, `utilization`,
    /// `held_node_proportion`, `queue_age_secs`, `rendezvous_p50_secs`,
    /// `rendezvous_p99_secs`. Per-machine: `running`, `queued`, `held`,
    /// `used_nodes`, `held_nodes`, `capacity`, `utilization`,
    /// `held_node_proportion`, `queue_age_secs`, `queue_age_high_water`.
    pub fn metric(&self, scope: usize, name: &str) -> Option<f64> {
        if scope == GLOBAL {
            let v = match name {
                "submitted" => self.submitted as f64,
                "started" => self.started as f64,
                "finished" => self.finished as f64,
                "running" => self.running as f64,
                "queued" => self.queued as f64,
                "held" => self.held as f64,
                "rpc_calls" => self.rpc_calls as f64,
                "rpc_timeouts" => self.rpc_timeouts as f64,
                "deadlock_sweeps" => self.deadlock_sweeps as f64,
                "forced_releases" => self.forced_releases as f64,
                "yields" => self.yields as f64,
                "holds_placed" => self.holds_placed as f64,
                "utilization" => self.utilization(),
                "held_node_proportion" => self.held_node_proportion(),
                "queue_age_secs" => self.queue_age_secs() as f64,
                "rendezvous_p50_secs" => self.rendezvous_p50_secs as f64,
                "rendezvous_p99_secs" => self.rendezvous_p99_secs as f64,
                _ => return None,
            };
            return Some(v);
        }
        let m = self.machines.get(scope)?;
        let v = match name {
            "running" => m.running as f64,
            "queued" => m.queued as f64,
            "held" => m.held as f64,
            "used_nodes" => m.used_nodes as f64,
            "held_nodes" => m.held_nodes as f64,
            "capacity" => m.capacity as f64,
            "utilization" => m.utilization(),
            "held_node_proportion" => m.held_node_proportion(),
            "queue_age_secs" => m.queue_age_secs as f64,
            "queue_age_high_water" => m.queue_age_high_water as f64,
            _ => return None,
        };
        Some(v)
    }
}

/// The streaming monitor: an [`Observer`] folding events into a live
/// [`TelemetrySnapshot`]. Cloning shares state — keep one clone attached
/// to the simulation (e.g. as the second half of a
/// [`crate::observe::TeeObserver`]) and poll another from the serving
/// thread.
#[derive(Debug, Clone)]
pub struct StreamingMonitor {
    shared: Arc<Mutex<MonitorState>>,
}

impl Default for StreamingMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingMonitor {
    /// Monitor with no alert rules.
    pub fn new() -> Self {
        Self::with_rules(Vec::new())
    }

    /// Monitor evaluating the given rules every [`DEFAULT_TICK_SECS`] of
    /// sim time.
    pub fn with_rules(rules: Vec<AlertRule>) -> Self {
        StreamingMonitor {
            shared: Arc::new(Mutex::new(MonitorState::new(rules))),
        }
    }

    /// Set explicit machine capacities (index = machine index). Without
    /// this, capacity is inferred from scheduler-iteration events.
    pub fn with_capacities(self, capacities: &[u64]) -> Self {
        {
            let mut state = self.shared.lock().expect("monitor lock");
            for (i, &cap) in capacities.iter().enumerate() {
                let m = machine_state(&mut state.machines, i);
                m.capacity = cap;
                m.capacity_explicit = true;
            }
        }
        self
    }

    /// Set one machine's capacity explicitly (live domains attach one at a
    /// time and know their own capacity).
    pub fn set_capacity(&self, machine: usize, capacity: u64) {
        let mut state = self.shared.lock().expect("monitor lock");
        let m = machine_state(&mut state.machines, machine);
        m.capacity = capacity;
        m.capacity_explicit = true;
    }

    /// Override the alert evaluation cadence (sim-seconds; min 1).
    pub fn with_tick_secs(self, tick_secs: u64) -> Self {
        self.shared.lock().expect("monitor lock").tick_secs = tick_secs.max(1);
        self
    }

    /// Current snapshot (at the monitor's latest sim time).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let state = self.shared.lock().expect("monitor lock");
        state.snapshot_inner(state.last_time)
    }

    /// Alert transitions fired so far, in order.
    pub fn alert_history(&self) -> Vec<TraceRecord> {
        self.shared
            .lock()
            .expect("monitor lock")
            .alert_history
            .clone()
    }

    /// Mark the run finished. Runs a final alert evaluation at the last
    /// observed sim time so end-of-run conditions resolve/raise, then
    /// freezes `done`/`deadlocked` into snapshots.
    pub fn finish(&self, deadlocked: bool) {
        let mut state = self.shared.lock().expect("monitor lock");
        let now = state.last_time;
        state.eval_alerts(now);
        state.done = true;
        state.deadlocked = deadlocked;
    }
}

impl Observer for StreamingMonitor {
    #[inline]
    fn active(&self) -> bool {
        true
    }

    fn record(&mut self, time: u64, machine: usize, event: TraceEvent) {
        let record = TraceRecord {
            time,
            machine,
            event,
        };
        self.shared.lock().expect("monitor lock").apply(&record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NO_SPAN;

    fn feed(monitor: &mut StreamingMonitor, time: u64, machine: usize, event: TraceEvent) {
        monitor.record(time, machine, event);
    }

    #[test]
    fn tracks_lifecycle_counts_and_nodes() {
        let mut m = StreamingMonitor::new().with_capacities(&[1024]);
        feed(
            &mut m,
            0,
            0,
            TraceEvent::JobSubmitted {
                job: 1,
                size: 256,
                paired: false,
            },
        );
        let s = m.snapshot();
        assert_eq!((s.queued, s.running, s.submitted), (1, 0, 1));
        feed(
            &mut m,
            10,
            0,
            TraceEvent::CoschedStart {
                job: 1,
                with_mate: false,
            },
        );
        let s = m.snapshot();
        assert_eq!((s.queued, s.running), (0, 1));
        assert_eq!(s.machines[0].used_nodes, 256);
        assert!((s.utilization() - 0.25).abs() < 1e-9);
        feed(&mut m, 110, 0, TraceEvent::JobEnded { job: 1 });
        let s = m.snapshot();
        assert_eq!((s.running, s.finished), (0, 1));
        assert_eq!(s.machines[0].used_nodes, 0);
        // 256 nodes for 100 seconds.
        assert_eq!(s.machines[0].used_node_seconds, 256 * 100);
        assert!(s.drained());
    }

    #[test]
    fn hold_demote_requeue_preserves_submit_age() {
        let mut m = StreamingMonitor::new().with_capacities(&[100]);
        feed(
            &mut m,
            0,
            0,
            TraceEvent::JobSubmitted {
                job: 7,
                size: 50,
                paired: true,
            },
        );
        feed(
            &mut m,
            100,
            0,
            TraceEvent::CoschedHoldPlaced { job: 7, nodes: 50 },
        );
        let s = m.snapshot();
        assert_eq!((s.queued, s.held), (0, 1));
        assert_eq!(s.machines[0].held_nodes, 50);
        assert!((s.held_node_proportion() - 0.5).abs() < 1e-9);
        // 50 nodes held from t=100 to t=300.
        feed(
            &mut m,
            300,
            0,
            TraceEvent::CoschedDeadlockDemotion { job: 7 },
        );
        let s = m.snapshot();
        assert_eq!((s.queued, s.held), (1, 0));
        assert_eq!(s.machines[0].held_nodes, 0);
        assert_eq!(s.machines[0].held_node_seconds, 50 * 200);
        assert_eq!(s.forced_releases, 1);
        // Queue age counts from the original submit at t=0, not demotion.
        assert_eq!(s.machines[0].queue_age_secs, 300);
        feed(
            &mut m,
            400,
            0,
            TraceEvent::CoschedStart {
                job: 7,
                with_mate: true,
            },
        );
        let s = m.snapshot();
        assert_eq!(s.machines[0].queue_age_high_water, 400);
        assert_eq!((s.queued, s.running), (0, 1));
    }

    #[test]
    fn rejected_records_leave_the_state_unchanged() {
        let records = vec![
            TraceRecord {
                time: 0,
                machine: 0,
                event: TraceEvent::JobSubmitted {
                    job: 1,
                    size: 8,
                    paired: true,
                },
            },
            TraceRecord {
                time: 0,
                machine: 0,
                event: TraceEvent::JobSubmitted {
                    job: 2,
                    size: 4,
                    paired: false,
                },
            },
            TraceRecord {
                time: 5,
                machine: 0,
                event: TraceEvent::CoschedStart {
                    job: 2,
                    with_mate: false,
                },
            },
            // An end without a start, a hold on a running job and a start
            // before the submission.
            TraceRecord {
                time: 10,
                machine: 0,
                event: TraceEvent::JobEnded { job: 1 },
            },
            TraceRecord {
                time: 11,
                machine: 0,
                event: TraceEvent::CoschedHoldPlaced { job: 2, nodes: 4 },
            },
            TraceRecord {
                time: 12,
                machine: 0,
                event: TraceEvent::CoschedStart {
                    job: 3,
                    with_mate: false,
                },
            },
        ];
        let mut m = StreamingMonitor::new().with_capacities(&[16]);
        for r in &records[..3] {
            feed(&mut m, r.time, r.machine, r.event.clone());
        }
        let before = m.snapshot();
        for r in &records[3..] {
            feed(&mut m, r.time, r.machine, r.event.clone());
        }
        let after = m.snapshot();
        assert_eq!(
            after,
            TelemetrySnapshot {
                rejected_records: 3,
                ..before
            }
        );
        let err = LifecycleSet::from_records(&records).unwrap_err();
        assert_eq!(err.record, 3, "{err}");
    }

    /// A long-lived monitor holds no lifecycle of a job that has ended.
    #[test]
    fn ended_jobs_leave_the_fold() {
        let mut m = StreamingMonitor::new();
        for job in 0..10_000u64 {
            let t = job * 10;
            feed(
                &mut m,
                t,
                0,
                TraceEvent::JobSubmitted {
                    job,
                    size: 1,
                    paired: false,
                },
            );
            feed(
                &mut m,
                t + 1,
                0,
                TraceEvent::CoschedStart {
                    job,
                    with_mate: false,
                },
            );
            feed(&mut m, t + 5, 0, TraceEvent::JobEnded { job });
        }
        let s = m.snapshot();
        assert_eq!((s.finished, s.rejected_records), (10_000, 0));
        assert!(m.shared.lock().unwrap().live.jobs.is_empty());
    }

    #[test]
    fn infers_capacity_from_sched_iterations() {
        let mut m = StreamingMonitor::new();
        feed(
            &mut m,
            0,
            1,
            TraceEvent::SchedIterationStart {
                queued: 0,
                running: 0,
                free_nodes: 2048,
            },
        );
        assert_eq!(m.snapshot().machines[1].capacity, 2048);
        // Inference is monotone: used + held + free never shrinks capacity.
        feed(
            &mut m,
            5,
            1,
            TraceEvent::SchedIterationStart {
                queued: 0,
                running: 1,
                free_nodes: 1024,
            },
        );
        assert_eq!(m.snapshot().machines[1].capacity, 2048);
    }

    #[test]
    fn rendezvous_spans_feed_latency_histogram() {
        let mut m = StreamingMonitor::new();
        feed(
            &mut m,
            100,
            GLOBAL,
            TraceEvent::SpanOpen {
                span: 1,
                parent: NO_SPAN,
                kind: SpanKind::PairRendezvous,
                job: 1,
                mate: 2,
            },
        );
        // Non-rendezvous spans are ignored.
        feed(
            &mut m,
            100,
            0,
            TraceEvent::SpanOpen {
                span: 2,
                parent: 1,
                kind: SpanKind::Hold,
                job: 1,
                mate: 2,
            },
        );
        feed(&mut m, 150, 0, TraceEvent::SpanClose { span: 2 });
        feed(&mut m, 612, GLOBAL, TraceEvent::SpanClose { span: 1 });
        let s = m.snapshot();
        assert_eq!(s.rendezvous_latency.count, 1);
        assert_eq!(s.rendezvous_latency.sum, 512);
        assert!(s.rendezvous_p50_secs >= 512);
    }

    #[test]
    fn rpc_timeouts_count_as_calls() {
        let mut m = StreamingMonitor::new();
        feed(
            &mut m,
            1,
            0,
            TraceEvent::RpcCall {
                kind: crate::trace::RpcKind::Ping,
                ok: true,
            },
        );
        feed(
            &mut m,
            2,
            0,
            TraceEvent::RpcTimeout {
                kind: crate::trace::RpcKind::TryStartMate,
            },
        );
        let s = m.snapshot();
        assert_eq!((s.rpc_calls, s.rpc_timeouts), (2, 1));
    }

    #[test]
    fn alert_fires_on_tick_and_resolves() {
        let rule = AlertRule::parse("pressure: held_node_proportion > 0.4 for 120").unwrap();
        let mut m = StreamingMonitor::with_rules(vec![rule])
            .with_capacities(&[100])
            .with_tick_secs(60);
        feed(
            &mut m,
            0,
            0,
            TraceEvent::JobSubmitted {
                job: 1,
                size: 60,
                paired: true,
            },
        );
        feed(
            &mut m,
            10,
            0,
            TraceEvent::CoschedHoldPlaced { job: 1, nodes: 60 },
        );
        // Advance sim time past the hold duration via an unrelated event.
        feed(&mut m, 400, 0, TraceEvent::EngineDispatch { seq: 1 });
        let s = m.snapshot();
        assert_eq!(s.active_alerts.len(), 1, "{:?}", s.active_alerts);
        assert_eq!(s.active_alerts[0].rule, "pressure");
        assert_eq!(s.active_alerts[0].machine, GLOBAL);
        assert_eq!(s.alerts_raised_total, 1);
        // Start the job: held proportion drops to zero → resolves on the
        // next tick.
        feed(
            &mut m,
            410,
            0,
            TraceEvent::CoschedStart {
                job: 1,
                with_mate: true,
            },
        );
        feed(&mut m, 600, 0, TraceEvent::EngineDispatch { seq: 2 });
        let s = m.snapshot();
        assert!(s.active_alerts.is_empty());
        assert_eq!(s.alerts_resolved_total, 1);
        let history = m.alert_history();
        assert_eq!(history.len(), 2);
        assert!(matches!(history[0].event, TraceEvent::AlertRaised { .. }));
        assert!(matches!(history[1].event, TraceEvent::AlertResolved { .. }));
    }

    #[test]
    fn finish_sets_health_flags_and_runs_final_eval() {
        let rule = AlertRule::parse("queued > 0").unwrap();
        let m = StreamingMonitor::with_rules(vec![rule]);
        let mut feeder = m.clone();
        feeder.record(
            5,
            0,
            TraceEvent::JobSubmitted {
                job: 1,
                size: 1,
                paired: false,
            },
        );
        m.finish(true);
        let s = m.snapshot();
        assert!(s.done && s.deadlocked);
        assert_eq!(s.active_alerts.len(), 1, "final eval sees the stuck queue");
        assert!(!s.drained());
    }

    #[test]
    fn snapshot_serializes_to_json_and_back() {
        let mut m = StreamingMonitor::new().with_capacities(&[64, 64]);
        feed(
            &mut m,
            0,
            0,
            TraceEvent::JobSubmitted {
                job: 1,
                size: 32,
                paired: false,
            },
        );
        let snap = m.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn metric_vocabulary_covers_global_and_machine_scopes() {
        let mut m = StreamingMonitor::new().with_capacities(&[100]);
        feed(
            &mut m,
            0,
            0,
            TraceEvent::JobSubmitted {
                job: 1,
                size: 10,
                paired: false,
            },
        );
        let s = m.snapshot();
        assert_eq!(s.metric(GLOBAL, "queued"), Some(1.0));
        assert_eq!(s.metric(GLOBAL, "utilization"), Some(0.0));
        assert_eq!(s.metric(0, "capacity"), Some(100.0));
        assert_eq!(s.metric(0, "queued"), Some(1.0));
        assert_eq!(s.metric(GLOBAL, "nope"), None);
        assert_eq!(s.metric(7, "queued"), None);
    }
}
