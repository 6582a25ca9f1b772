//! One scheduling domain of a coupled system: the core the simulator and
//! the live daemon share.
//!
//! A [`Domain`] owns one machine's scheduler, its coscheduling config, the
//! peer's machine id, and the mate registry both domains share. It is the
//! only home of the protocol handler ([`Domain::handle`]), the decision
//! commit ([`Domain::commit`]), the §IV-E1 batch release policy
//! ([`Domain::arm_sweep`], [`Domain::sweep`], [`Domain::release_holds`]),
//! and submission ([`Domain::submit`]). The event loop of [`crate::driver`]
//! drives k domains from its event queue (two for the coupled simulator);
//! the live daemon ([`crate::live`]) wraps one in a mutex and drives it
//! from a clock over a real transport.
//! All obey the same rules because they run this code.
//!
//! State changes record their trace events into the observer passed in.
//! Engines keep their own bookkeeping (spans) and hook it in where event
//! order needs it: before a commit's decision events, after each demotion.

use crate::algorithm::{effective_scheme, run_job_traced, Decision, LocalContext};
use crate::config::{CoschedConfig, Scheme};
use crate::registry::MateRegistry;
use cosched_obs::{Observer, TraceEvent};
use cosched_proto::{MateStatus, ProtoError, Request, Response};
use cosched_sched::{Candidate, JobStatus, Machine};
use cosched_sim::SimTime;
use cosched_workload::{Job, JobId, MachineId};
use std::fmt;
use std::sync::Arc;

/// Why a domain refused a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The job is addressed to another machine (the one given).
    WrongMachine(JobId, MachineId),
    /// The job's submit time (given) lies after the submission instant.
    Early(JobId, SimTime),
    /// A job with this id was already submitted here.
    Duplicate(JobId),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WrongMachine(job, to) => write!(f, "job {job} is addressed to {to}"),
            Self::Early(job, at) => write!(f, "job {job} is not due until {at}"),
            Self::Duplicate(job) => write!(f, "job {job} was already submitted"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What a due release sweep does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// No sweep is due, or nothing is left to sweep.
    Idle,
    /// The holds block nobody; the sweep re-armed itself for this instant.
    Rearmed(SimTime),
    /// The holds block a queued job: release every one of them
    /// ([`Domain::release_holds`]), then run a scheduling iteration.
    Release,
}

/// A ready candidate with the local facts Algorithm 1 decides on,
/// snapshotted so the decision runs without the domain (the live daemon
/// releases its lock across protocol calls).
#[derive(Debug)]
pub struct Ready {
    /// The scheduler's candidate.
    pub cand: Candidate,
    /// The ready job.
    pub job: Job,
    pub(crate) cfg: CoschedConfig,
    capacity: u64,
    held_nodes: u64,
    yields_so_far: u32,
}

/// Algorithm 1's verdict on a [`Ready`] job, with what its commit reports.
#[derive(Debug)]
pub struct Outcome {
    /// What to do with the job.
    pub decision: Decision,
    /// The mate started on its hold (`StartJob`, the hold scheme's anchor)
    /// rather than from its queue (`TryStartMate`).
    pub anchored: bool,
    /// The §IV-E2 scheme modification the decision made, if any.
    pub shift: Option<TraceEvent>,
}

impl Ready {
    fn ctx(&self) -> LocalContext<'_> {
        LocalContext {
            job: &self.job,
            candidate_charged: self.cand.charged,
            capacity: self.capacity,
            held_nodes: self.held_nodes,
            yields_so_far: self.yields_so_far,
        }
    }

    /// Run Algorithm 1, issuing protocol calls through `remote`.
    pub fn decide<R>(&self, mut remote: R) -> Outcome
    where
        R: FnMut(&Request) -> Result<Response, ProtoError>,
    {
        let mut anchored = false;
        let mut shift = None;
        let decision = run_job_traced(
            &self.cfg,
            &self.ctx(),
            |req| {
                let resp = remote(req);
                if let (Request::StartJob { .. }, Ok(Response::Started(true))) = (req, &resp) {
                    anchored = true;
                }
                resp
            },
            |ev| shift = Some(ev),
        );
        Outcome {
            decision,
            anchored,
            shift,
        }
    }

    /// Algorithm 1's wait branch (lines 16–23) for a job whose partners are
    /// not ready: hold or yield per the local scheme, after the §IV-E2 shift.
    pub fn wait(&self) -> Outcome {
        let mut shift = None;
        let decision = match effective_scheme(&self.cfg, &self.ctx(), &mut |ev| shift = Some(ev)) {
            Scheme::Hold => Decision::Hold,
            Scheme::Yield => Decision::Yield,
        };
        Outcome {
            decision,
            anchored: false,
            shift,
        }
    }
}

/// One machine's scheduler plus everything Algorithm 1 needs around it.
pub struct Domain {
    machine: Machine,
    cfg: CoschedConfig,
    registry: Arc<MateRegistry>,
    peer: MachineId,
    /// Machine index trace events are recorded under.
    index: usize,
    /// When the armed release sweep falls due; `None` when none is armed.
    sweep_at: Option<SimTime>,
}

impl Domain {
    /// Wrap `machine` with its coscheduling config. `registry` is shared
    /// with the peer domain, whose machine is `peer`; events are recorded
    /// under machine index `index`.
    pub fn new(
        machine: Machine,
        cfg: CoschedConfig,
        registry: Arc<MateRegistry>,
        peer: MachineId,
        index: usize,
    ) -> Self {
        Domain {
            machine,
            cfg,
            registry,
            peer,
            index,
            sweep_at: None,
        }
    }

    /// The scheduler.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The scheduler, mutably (iteration control, trace draining, records).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The peer domain's machine.
    pub fn peer(&self) -> MachineId {
        self.peer
    }

    /// The mate registry shared with the peer.
    pub fn registry(&self) -> &MateRegistry {
        &self.registry
    }

    /// Queue `job` at `now`.
    pub fn submit<O: Observer>(
        &mut self,
        job: Job,
        now: SimTime,
        obs: &mut O,
    ) -> Result<(), SubmitError> {
        let machine = self.machine.config().machine;
        if job.machine != machine {
            return Err(SubmitError::WrongMachine(job.id, job.machine));
        }
        if job.submit > now {
            return Err(SubmitError::Early(job.id, job.submit));
        }
        if self.machine.status(job.id) != JobStatus::Unsubmitted {
            return Err(SubmitError::Duplicate(job.id));
        }
        obs.emit_with(now.as_secs(), self.index, || TraceEvent::JobSubmitted {
            job: job.id.0,
            size: job.size,
            paired: self.registry.mate_of(machine, job.id).is_some(),
        });
        self.machine.submit(job, now);
        Ok(())
    }

    /// Complete running job `job` at `now`.
    pub fn finish<O: Observer>(&mut self, job: JobId, now: SimTime, obs: &mut O) {
        obs.emit_with(now.as_secs(), self.index, || TraceEvent::JobEnded {
            job: job.0,
        });
        self.machine.finish(job, now);
    }

    /// Answer one protocol request from the peer at `now`. When the request
    /// started a job here, also returns that job and its completion instant
    /// for the engine to schedule.
    pub fn handle<O: Observer>(
        &mut self,
        req: &Request,
        now: SimTime,
        obs: &mut O,
    ) -> (Response, Option<(JobId, SimTime)>) {
        let started = match *req {
            Request::GetMateJob { for_job } => {
                return (
                    Response::MateJob(self.registry.mate_of(self.peer, for_job)),
                    None,
                );
            }
            Request::GetMateStatus { job } => {
                let status = match self.machine.status(job) {
                    JobStatus::Unsubmitted => MateStatus::Unsubmitted,
                    JobStatus::Queued => MateStatus::Queuing,
                    JobStatus::Held => MateStatus::Holding,
                    JobStatus::Running => MateStatus::Running,
                    JobStatus::Finished => MateStatus::Finished,
                };
                return (Response::MateStatus(status), None);
            }
            Request::Ping => return (Response::Pong, None),
            Request::CanStart { job } => {
                return (
                    Response::CanStart(self.machine.can_start_direct(job, now)),
                    None,
                );
            }
            Request::TryStartMate { job } => self
                .machine
                .try_start_direct(job, now)
                .map(|end| (job, end)),
            // Normal path: the mate is holding. Fall back to a direct start
            // if a release sweep raced it back into the queue.
            Request::StartJob { job } => self
                .machine
                .start_held(job, now)
                .or_else(|| self.machine.try_start_direct(job, now))
                .map(|end| (job, end)),
        };
        if let Some((job, _)) = started {
            // Lifecycle event for the peer-started mate: this domain never
            // commits it.
            obs.emit_with(now.as_secs(), self.index, || TraceEvent::CoschedStart {
                job: job.0,
                with_mate: true,
            });
        }
        (Response::Started(started.is_some()), started)
    }

    /// Pick the next ready job of the current scheduling iteration (see
    /// [`Machine::pick_next`]); exactly one [`Domain::commit`] must follow.
    pub fn pick(&mut self, now: SimTime) -> Option<Ready> {
        let cand = self.machine.pick_next(now)?;
        let (job, yields_so_far) = self.machine.pending_job().expect("candidate is pending");
        Some(Ready {
            job: job.clone(),
            capacity: self.machine.config().capacity,
            held_nodes: self.machine.held_nodes(),
            yields_so_far,
            cfg: self.cfg.clone(),
            cand,
        })
    }

    /// Apply Algorithm 1's `outcome` for `ready` at `now` with its events:
    /// the scheme shift, then (after `before`, the engine's hook) the
    /// rendezvous and start, the hold, or the yield. Returns the job's
    /// completion instant when it started.
    pub fn commit<O: Observer>(
        &mut self,
        ready: Ready,
        outcome: Outcome,
        now: SimTime,
        obs: &mut O,
        before: impl FnOnce(&mut O, &Job, Decision),
    ) -> Option<SimTime> {
        let (t, index, job) = (now.as_secs(), self.index, ready.job.id.0);
        if let Some(shift) = outcome.shift {
            obs.emit_with(t, index, || shift);
        }
        before(obs, &ready.job, outcome.decision);
        match outcome.decision {
            Decision::Start { mate_started } => {
                if let Some(mate) = mate_started {
                    obs.emit_with(t, index, || TraceEvent::CoschedRendezvousCommit {
                        job,
                        mate: mate.0,
                        anchored: outcome.anchored,
                    });
                }
                obs.emit_with(t, index, || TraceEvent::CoschedStart {
                    job,
                    with_mate: mate_started.is_some(),
                });
                return Some(self.machine.start(ready.cand, now));
            }
            Decision::Hold => {
                obs.emit_with(t, index, || TraceEvent::CoschedHoldPlaced {
                    job,
                    nodes: ready.cand.charged,
                });
                self.machine.hold(ready.cand, now);
            }
            Decision::Yield => {
                obs.emit_with(t, index, || TraceEvent::CoschedYield {
                    job,
                    yields_so_far: ready.yields_so_far + 1,
                });
                self.machine.yield_job(ready.cand, now);
            }
        }
        None
    }

    /// Arm the release sweep if jobs are held and none is armed: it falls
    /// due when the *oldest* hold reaches the release period. Returns the
    /// due instant when this call armed it.
    pub fn arm_sweep(&mut self, now: SimTime) -> Option<SimTime> {
        if self.sweep_at.is_some() {
            return None;
        }
        let period = self.cfg.release_period?;
        let oldest = self
            .machine
            .held_jobs()
            .iter()
            .filter_map(|&job| self.machine.hold_since(job))
            .min()?;
        let at = (oldest + period).max(now);
        self.sweep_at = Some(at);
        Some(at)
    }

    /// Fire the armed release sweep if it is due at `now`. The release lets
    /// "other waiting jobs … use the previously held resources" (§IV-E1);
    /// holds that block no queued job are harmless and stay, and the sweep
    /// re-arms one period from now (not from the mature oldest hold, which
    /// would spin).
    pub fn sweep(&mut self, now: SimTime) -> Sweep {
        if self.sweep_at.is_none_or(|at| at > now) {
            return Sweep::Idle;
        }
        self.sweep_at = None;
        let Some(period) = self.cfg.release_period else {
            return Sweep::Idle;
        };
        if self.holds_block_someone() {
            return Sweep::Release;
        }
        if self.machine.held_jobs().is_empty() {
            return Sweep::Idle;
        }
        let at = now + period;
        self.sweep_at = Some(at);
        Sweep::Rearmed(at)
    }

    /// Release EVERY hold, as one batch ("force the holding jobs to release
    /// their resources", §IV-E1), calling `released` after each demotion.
    /// Returns how many holds were released.
    ///
    /// A partial (e.g. age-filtered) release livelocks: hold ages stagger,
    /// each sweep frees a subset, a large blocked job never sees the full
    /// capacity, and released jobs re-hold at once with fresh ages. Only
    /// the full batch lets the demoted-last iteration hand all held
    /// capacity to the waiting jobs first (DESIGN.md §7 note 2).
    pub fn release_holds<O: Observer>(
        &mut self,
        now: SimTime,
        obs: &mut O,
        mut released: impl FnMut(&mut O, JobId),
    ) -> usize {
        let (t, index) = (now.as_secs(), self.index);
        let held = self.machine.held_jobs().to_vec();
        for &job in &held {
            self.machine.release_held(job, now);
            obs.emit_with(t, index, || TraceEvent::CoschedDeadlockDemotion {
                job: job.0,
            });
            released(obs, job);
        }
        let n = held.len();
        obs.emit_with(t, index, || TraceEvent::CoschedReleaseSweep {
            released: n,
            held_before: n,
        });
        n
    }

    /// Is any queued job blocked by nodes that holds are sitting on? True
    /// when a queued job does not fit now but would fit (by node count)
    /// with the held nodes returned.
    fn holds_block_someone(&self) -> bool {
        let m = &self.machine;
        let held = m.held_nodes();
        if held == 0 {
            return false;
        }
        let free = m.free_nodes();
        m.queued_jobs().any(|id| {
            let size = m.job(id).map_or(0, |j| j.size);
            // Blocked now (by count or by fragmentation) but feasible once
            // the held nodes come back.
            size <= free + held && !m.can_fit(size)
        })
    }
}
