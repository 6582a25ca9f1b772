//! Algorithm 1 — `Run_Job` — as a pure decision procedure.
//!
//! The paper's core algorithm runs whenever a scheduled (ready) job is about
//! to start. It is *distributed*: `self.xyz` operations act on the local
//! resource manager, `remote.xyz` are protocol calls to the other domain.
//! This module implements the decision logic over an abstract remote-call
//! closure so the event-driven simulator and the live wall-clock endpoint
//! execute byte-for-byte the same algorithm.
//!
//! Mapping to the paper's pseudocode:
//!
//! | lines    | here                                                        |
//! |----------|-------------------------------------------------------------|
//! | 1        | `cfg.enabled` check                                          |
//! | 2–3      | `GetMateJob` call; no mate ⇒ `Decision::Start`               |
//! | 4        | `GetMateStatus` call                                         |
//! | 6–9      | mate `Holding` ⇒ start both (`remote_start_holding` flag)    |
//! | 10–15    | `Queuing`/`Unsubmitted` ⇒ `TryStartMate`; started ⇒ start    |
//! | 16–23    | otherwise hold or yield per the local scheme (+ §IV-E2 mods) |
//! | 25–26    | `Unknown` ⇒ start normally                                   |
//! | 30–31    | remote unreachable / no mate ⇒ start normally                |
//!
//! The §IV-E2 enhancements modify the scheme *at decision time*:
//! a hold that would push the held-node fraction over
//! [`CoschedConfig::max_held_fraction`] becomes a yield, and a yield by a
//! job that has already yielded [`CoschedConfig::max_yields_before_hold`]
//! times becomes a hold.

use crate::config::{CoschedConfig, Scheme};
use cosched_obs::TraceEvent;
use cosched_proto::{MateStatus, ProtoError, Request, Response};
use cosched_workload::{Job, JobId};

/// What the local resource manager should do with the ready job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Start the job now. `mate_started` names the remote mate if the
    /// protocol exchange started it during this decision (for observability
    /// — the remote side effect has already happened).
    Start {
        /// The mate started on the remote domain as part of this decision.
        mate_started: Option<JobId>,
    },
    /// Keep the allocation, wait for the mate (hold scheme).
    Hold,
    /// Release the allocation, let others run (yield scheme).
    Yield,
}

impl Decision {
    /// Plain start with no remote side effect.
    pub const START: Decision = Decision::Start { mate_started: None };
}

/// Local facts the decision needs.
#[derive(Debug, Clone, Copy)]
pub struct LocalContext<'a> {
    /// The ready job.
    pub job: &'a Job,
    /// Nodes the allocator charged for it.
    pub candidate_charged: u64,
    /// Machine capacity.
    pub capacity: u64,
    /// Nodes currently blocked by other held jobs.
    pub held_nodes: u64,
    /// How many times this job has yielded already.
    pub yields_so_far: u32,
}

/// Execute the `Run_Job` decision for a ready job. `remote` issues one
/// protocol call and returns its response; any transport error is treated
/// as "remote system down" and the job starts normally (the fault-tolerance
/// property of §IV-C).
pub fn run_job<R>(cfg: &CoschedConfig, ctx: &LocalContext<'_>, remote: R) -> Decision
where
    R: FnMut(&Request) -> Result<Response, ProtoError>,
{
    run_job_traced(cfg, ctx, remote, |_| {})
}

/// [`run_job`] with a trace hook: `trace` receives a [`TraceEvent`] for each
/// §IV-E2 scheme modification made during this decision (held-capacity
/// degradation, yield-cap escalation). The hook is for observability only —
/// it must not influence the decision.
pub fn run_job_traced<R, T>(
    cfg: &CoschedConfig,
    ctx: &LocalContext<'_>,
    mut remote: R,
    mut trace: T,
) -> Decision
where
    R: FnMut(&Request) -> Result<Response, ProtoError>,
    T: FnMut(TraceEvent),
{
    // Line 1: coscheduling disabled ⇒ run normally (lines 34–36).
    if !cfg.enabled {
        return Decision::START;
    }

    // Line 2: k = remote.get_mate_job(j). Remote down ⇒ start (fault
    // tolerance: "if the remote system is down, line 2 will return nothing
    // so that the ready job will start immediately").
    let mate = match remote(&Request::GetMateJob {
        for_job: ctx.job.id,
    }) {
        Ok(Response::MateJob(Some(mate))) => mate,
        Ok(Response::MateJob(None)) => return Decision::START, // line 30–31
        Ok(_) | Err(_) => return Decision::START,
    };

    // Line 4: mate status.
    let status = match remote(&Request::GetMateStatus { job: mate.job }) {
        Ok(resp) => resp.status(),
        Err(_) => MateStatus::Unknown,
    };

    match status {
        // Lines 6–9: mate is holding — start both immediately.
        MateStatus::Holding => {
            let started = match remote(&Request::StartJob { job: mate.job }) {
                Ok(resp) => resp.started(),
                Err(_) => false,
            };
            // Even if the remote start raced and failed, the local job
            // proceeds: the mate was ready and waiting, and a second
            // rendezvous costs less than deadlocking the local allocation.
            Decision::Start {
                mate_started: started.then_some(mate.job),
            }
        }

        // Lines 10–23: mate is waiting in queue or not submitted yet.
        MateStatus::Queuing | MateStatus::Unsubmitted => {
            let mate_started = match remote(&Request::TryStartMate { job: mate.job }) {
                Ok(resp) => resp.started(),
                Err(_) => false,
            };
            if mate_started {
                // Lines 13–15.
                Decision::Start {
                    mate_started: Some(mate.job),
                }
            } else {
                // Lines 16–23, with the §IV-E2 scheme modifications.
                match effective_scheme(cfg, ctx, &mut trace) {
                    Scheme::Hold => Decision::Hold,
                    Scheme::Yield => Decision::Yield,
                }
            }
        }

        // The mate already runs or finished: the rendezvous is missed (or
        // complete); keeping the local job from running helps nobody.
        MateStatus::Running | MateStatus::Finished => Decision::START,

        // Lines 25–26: status unknown ⇒ start normally.
        MateStatus::Unknown => Decision::START,
    }
}

/// Apply the §IV-E2 enhancements to the configured scheme for this decision,
/// reporting any modification through `trace`.
pub(crate) fn effective_scheme(
    cfg: &CoschedConfig,
    ctx: &LocalContext<'_>,
    trace: &mut impl FnMut(TraceEvent),
) -> Scheme {
    match cfg.scheme {
        Scheme::Hold => {
            if let Some(cap) = cfg.max_held_fraction {
                let would_hold =
                    (ctx.held_nodes + ctx.candidate_charged) as f64 / ctx.capacity as f64;
                if would_hold > cap {
                    trace(TraceEvent::CoschedHeldCapDegradation {
                        job: ctx.job.id.0,
                        held_nodes: ctx.held_nodes,
                        capacity: ctx.capacity,
                    });
                    return Scheme::Yield;
                }
            }
            Scheme::Hold
        }
        Scheme::Yield => {
            if let Some(max) = cfg.max_yields_before_hold {
                if ctx.yields_so_far >= max {
                    trace(TraceEvent::CoschedYieldCapEscalation {
                        job: ctx.job.id.0,
                        yields: ctx.yields_so_far,
                    });
                    return Scheme::Hold;
                }
            }
            Scheme::Yield
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosched_sim::{SimDuration, SimTime};
    use cosched_workload::{MachineId, MateRef};

    fn job(id: u64, paired: bool) -> Job {
        let j = Job::new(
            JobId(id),
            MachineId(0),
            SimTime::ZERO,
            64,
            SimDuration::from_secs(600),
            SimDuration::from_secs(1200),
        );
        if paired {
            j.with_mate(MateRef {
                machine: MachineId(1),
                job: JobId(id),
            })
        } else {
            j
        }
    }

    fn ctx(job: &Job) -> LocalContext<'_> {
        LocalContext {
            job,
            candidate_charged: 64,
            capacity: 1_000,
            held_nodes: 0,
            yields_so_far: 0,
        }
    }

    /// Scripted remote: answers from a queue, records the requests.
    struct Script {
        responses: Vec<Result<Response, ProtoError>>,
        seen: Vec<Request>,
    }

    impl Script {
        fn new(responses: Vec<Result<Response, ProtoError>>) -> Self {
            Script {
                responses,
                seen: Vec::new(),
            }
        }
        fn remote(&mut self) -> impl FnMut(&Request) -> Result<Response, ProtoError> + '_ {
            move |req| {
                self.seen.push(req.clone());
                self.responses.remove(0)
            }
        }
    }

    fn mate_ref() -> MateRef {
        MateRef {
            machine: MachineId(1),
            job: JobId(1),
        }
    }

    #[test]
    fn disabled_starts_without_any_call() {
        let j = job(1, true);
        let cfg = CoschedConfig::disabled();
        let mut script = Script::new(vec![]);
        let d = run_job(&cfg, &ctx(&j), script.remote());
        assert_eq!(d, Decision::START);
        assert!(script.seen.is_empty());
    }

    #[test]
    fn no_mate_starts_normally() {
        let j = job(1, false);
        let cfg = CoschedConfig::paper(Scheme::Hold);
        let mut script = Script::new(vec![Ok(Response::MateJob(None))]);
        let d = run_job(&cfg, &ctx(&j), script.remote());
        assert_eq!(d, Decision::START);
        assert_eq!(script.seen.len(), 1);
    }

    #[test]
    fn remote_down_starts_normally() {
        let j = job(1, true);
        let cfg = CoschedConfig::paper(Scheme::Hold);
        let mut script = Script::new(vec![Err(ProtoError::Timeout)]);
        let d = run_job(&cfg, &ctx(&j), script.remote());
        assert_eq!(d, Decision::START);
    }

    #[test]
    fn mate_holding_starts_both() {
        let j = job(1, true);
        let cfg = CoschedConfig::paper(Scheme::Hold);
        let mut script = Script::new(vec![
            Ok(Response::MateJob(Some(mate_ref()))),
            Ok(Response::MateStatus(MateStatus::Holding)),
            Ok(Response::Started(true)),
        ]);
        let d = run_job(&cfg, &ctx(&j), script.remote());
        assert_eq!(
            d,
            Decision::Start {
                mate_started: Some(JobId(1))
            }
        );
        assert_eq!(
            script.seen,
            vec![
                Request::GetMateJob { for_job: JobId(1) },
                Request::GetMateStatus { job: JobId(1) },
                Request::StartJob { job: JobId(1) },
            ]
        );
    }

    #[test]
    fn mate_queuing_and_startable_starts_both() {
        let j = job(1, true);
        let cfg = CoschedConfig::paper(Scheme::Yield);
        let mut script = Script::new(vec![
            Ok(Response::MateJob(Some(mate_ref()))),
            Ok(Response::MateStatus(MateStatus::Queuing)),
            Ok(Response::Started(true)),
        ]);
        let d = run_job(&cfg, &ctx(&j), script.remote());
        assert_eq!(
            d,
            Decision::Start {
                mate_started: Some(JobId(1))
            }
        );
    }

    #[test]
    fn mate_queuing_unstartable_follows_local_scheme() {
        for (scheme, expect) in [
            (Scheme::Hold, Decision::Hold),
            (Scheme::Yield, Decision::Yield),
        ] {
            let j = job(1, true);
            let cfg = CoschedConfig::paper(scheme);
            let mut script = Script::new(vec![
                Ok(Response::MateJob(Some(mate_ref()))),
                Ok(Response::MateStatus(MateStatus::Queuing)),
                Ok(Response::Started(false)),
            ]);
            let d = run_job(&cfg, &ctx(&j), script.remote());
            assert_eq!(d, expect, "scheme {scheme:?}");
        }
    }

    #[test]
    fn unsubmitted_mate_behaves_like_queuing() {
        let j = job(1, true);
        let cfg = CoschedConfig::paper(Scheme::Hold);
        let mut script = Script::new(vec![
            Ok(Response::MateJob(Some(mate_ref()))),
            Ok(Response::MateStatus(MateStatus::Unsubmitted)),
            Ok(Response::Started(false)),
        ]);
        let d = run_job(&cfg, &ctx(&j), script.remote());
        assert_eq!(d, Decision::Hold);
    }

    #[test]
    fn unknown_status_starts_normally() {
        let j = job(1, true);
        let cfg = CoschedConfig::paper(Scheme::Hold);
        let mut script = Script::new(vec![
            Ok(Response::MateJob(Some(mate_ref()))),
            Ok(Response::MateStatus(MateStatus::Unknown)),
        ]);
        let d = run_job(&cfg, &ctx(&j), script.remote());
        assert_eq!(d, Decision::START);
    }

    #[test]
    fn status_call_failure_starts_normally() {
        let j = job(1, true);
        let cfg = CoschedConfig::paper(Scheme::Hold);
        let mut script = Script::new(vec![
            Ok(Response::MateJob(Some(mate_ref()))),
            Err(ProtoError::Disconnected("gone".into())),
        ]);
        let d = run_job(&cfg, &ctx(&j), script.remote());
        assert_eq!(d, Decision::START);
    }

    #[test]
    fn running_or_finished_mate_starts_normally() {
        for s in [MateStatus::Running, MateStatus::Finished] {
            let j = job(1, true);
            let cfg = CoschedConfig::paper(Scheme::Hold);
            let mut script = Script::new(vec![
                Ok(Response::MateJob(Some(mate_ref()))),
                Ok(Response::MateStatus(s)),
            ]);
            let d = run_job(&cfg, &ctx(&j), script.remote());
            assert_eq!(d, Decision::START, "status {s:?}");
        }
    }

    #[test]
    fn held_fraction_cap_turns_hold_into_yield() {
        let j = job(1, true);
        let cfg = CoschedConfig::paper(Scheme::Hold).with_max_held_fraction(Some(0.10));
        // held 50 + charged 64 = 114 of 1000 > 10 % ⇒ yield.
        let mut c = ctx(&j);
        c.held_nodes = 50;
        let mut script = Script::new(vec![
            Ok(Response::MateJob(Some(mate_ref()))),
            Ok(Response::MateStatus(MateStatus::Queuing)),
            Ok(Response::Started(false)),
        ]);
        let d = run_job(&cfg, &c, script.remote());
        assert_eq!(d, Decision::Yield);
    }

    #[test]
    fn held_fraction_under_cap_still_holds() {
        let j = job(1, true);
        let cfg = CoschedConfig::paper(Scheme::Hold).with_max_held_fraction(Some(0.20));
        let mut c = ctx(&j);
        c.held_nodes = 50; // 114/1000 ≤ 20 % ⇒ hold
        let mut script = Script::new(vec![
            Ok(Response::MateJob(Some(mate_ref()))),
            Ok(Response::MateStatus(MateStatus::Queuing)),
            Ok(Response::Started(false)),
        ]);
        let d = run_job(&cfg, &c, script.remote());
        assert_eq!(d, Decision::Hold);
    }

    #[test]
    fn yield_cap_escalates_to_hold() {
        let j = job(1, true);
        let cfg = CoschedConfig::paper(Scheme::Yield).with_max_yields(Some(3));
        let mut c = ctx(&j);
        c.yields_so_far = 3;
        let mut script = Script::new(vec![
            Ok(Response::MateJob(Some(mate_ref()))),
            Ok(Response::MateStatus(MateStatus::Queuing)),
            Ok(Response::Started(false)),
        ]);
        let d = run_job(&cfg, &c, script.remote());
        assert_eq!(d, Decision::Hold);
    }

    #[test]
    fn yield_below_cap_stays_yield() {
        let j = job(1, true);
        let cfg = CoschedConfig::paper(Scheme::Yield).with_max_yields(Some(3));
        let mut c = ctx(&j);
        c.yields_so_far = 2;
        let mut script = Script::new(vec![
            Ok(Response::MateJob(Some(mate_ref()))),
            Ok(Response::MateStatus(MateStatus::Queuing)),
            Ok(Response::Started(false)),
        ]);
        let d = run_job(&cfg, &c, script.remote());
        assert_eq!(d, Decision::Yield);
    }

    #[test]
    fn holding_mate_with_failed_remote_start_still_starts_local() {
        let j = job(1, true);
        let cfg = CoschedConfig::paper(Scheme::Hold);
        let mut script = Script::new(vec![
            Ok(Response::MateJob(Some(mate_ref()))),
            Ok(Response::MateStatus(MateStatus::Holding)),
            Err(ProtoError::Timeout),
        ]);
        let d = run_job(&cfg, &ctx(&j), script.remote());
        assert_eq!(d, Decision::Start { mate_started: None });
    }
}
