//! End-to-end live deployment test: two wall-clock domains coscheduling
//! over real TCP sockets — the protocol, transports, endpoint service, and
//! the shared `run_job` algorithm all exercised outside the simulator.

use coupled_cosched::cosched::config::CoschedConfig;
use coupled_cosched::cosched::live::LiveDomain;
use coupled_cosched::cosched::{MateRegistry, Scheme};
use coupled_cosched::prelude::*;
use coupled_cosched::proto::tcp::{self, TcpTransport};
use coupled_cosched::proto::{Request, Response, Transport};
use coupled_cosched::sched::Machine;
use coupled_cosched::sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn job(machine: usize, id: u64, submit_secs: u64, size: u64, runtime_secs: u64) -> Job {
    Job::new(
        JobId(id),
        MachineId(machine),
        SimTime::from_secs(submit_secs),
        size,
        SimDuration::from_secs(runtime_secs),
        SimDuration::from_secs(runtime_secs * 2),
    )
}

struct Rig {
    clock: Arc<AtomicU64>,
    a: LiveDomain,
    b: LiveDomain,
    a_to_b: TcpTransport,
    b_to_a: TcpTransport,
    srv_a: tcp::ServerHandle,
    srv_b: tcp::ServerHandle,
}

fn rig(scheme_a: Scheme, scheme_b: Scheme, registry: MateRegistry) -> Rig {
    let clock = Arc::new(AtomicU64::new(0));
    let now = |clock: &Arc<AtomicU64>| {
        let c = Arc::clone(clock);
        move || SimTime::from_secs(c.load(Ordering::SeqCst))
    };
    let a = LiveDomain::new(
        Machine::new(MachineConfig::flat("A", MachineId(0), 50)),
        CoschedConfig::paper(scheme_a),
        registry.clone(),
        MachineId(1),
    );
    let b = LiveDomain::new(
        Machine::new(MachineConfig::flat("B", MachineId(1), 50)),
        CoschedConfig::paper(scheme_b),
        registry,
        MachineId(0),
    );
    let srv_a = tcp::serve("127.0.0.1:0".parse().unwrap(), a.service(now(&clock))).unwrap();
    let srv_b = tcp::serve("127.0.0.1:0".parse().unwrap(), b.service(now(&clock))).unwrap();
    let a_to_b = TcpTransport::connect(srv_b.addr(), Duration::from_secs(2)).unwrap();
    let b_to_a = TcpTransport::connect(srv_a.addr(), Duration::from_secs(2)).unwrap();
    Rig {
        clock,
        a,
        b,
        a_to_b,
        b_to_a,
        srv_a,
        srv_b,
    }
}

fn one_pair_registry() -> MateRegistry {
    let mut reg = MateRegistry::new();
    reg.insert_pair((MachineId(0), JobId(1)), (MachineId(1), JobId(1)));
    reg
}

#[test]
fn hold_yield_pair_synchronizes_over_tcp() {
    let mut r = rig(Scheme::Hold, Scheme::Yield, one_pair_registry());
    let t0 = SimTime::ZERO;

    // Pair job arrives on A first; B is fully busy with a filler.
    r.b.submit(job(1, 9, 0, 50, 120), t0).unwrap();
    r.b.pump(t0, &mut r.b_to_a);
    r.a.submit(job(0, 1, 0, 20, 60), t0).unwrap();
    r.a.pump(t0, &mut r.a_to_b);
    assert_eq!(
        r.a.held(),
        vec![JobId(1)],
        "A holds while the mate is unsubmitted"
    );

    // Mate arrives on B but cannot start (filler).
    r.clock.store(30, Ordering::SeqCst);
    let t30 = SimTime::from_secs(30);
    r.b.submit(job(1, 1, 30, 20, 60), t30).unwrap();
    r.b.pump(t30, &mut r.b_to_a);
    assert_eq!(r.a.held(), vec![JobId(1)], "still holding: B had no room");

    // Filler completes; B pumps; the pair starts together.
    r.clock.store(120, Ordering::SeqCst);
    let t120 = SimTime::from_secs(120);
    assert_eq!(r.b.complete_due(t120), 1);
    r.b.pump(t120, &mut r.b_to_a);
    assert!(
        r.a.held().is_empty(),
        "hold resolved by the mate's StartJob"
    );

    r.clock.store(1_000, Ordering::SeqCst);
    let t1000 = SimTime::from_secs(1_000);
    r.a.complete_due(t1000);
    r.b.complete_due(t1000);
    assert!(r.a.drained() && r.b.drained());

    let sa =
        r.a.records()
            .iter()
            .find(|x| x.id == JobId(1))
            .unwrap()
            .start;
    let sb =
        r.b.records()
            .iter()
            .find(|x| x.id == JobId(1))
            .unwrap()
            .start;
    assert_eq!(sa, sb, "pair must start simultaneously over TCP");
    assert_eq!(sa, t120);

    r.srv_a.shutdown();
    r.srv_b.shutdown();
}

#[test]
fn yield_yield_pair_synchronizes_over_tcp() {
    let mut r = rig(Scheme::Yield, Scheme::Yield, one_pair_registry());
    let t0 = SimTime::ZERO;
    r.b.submit(job(1, 9, 0, 50, 100), t0).unwrap();
    r.b.pump(t0, &mut r.b_to_a);
    r.a.submit(job(0, 1, 0, 20, 60), t0).unwrap();
    r.a.pump(t0, &mut r.a_to_b);
    assert!(r.a.held().is_empty(), "yield scheme never holds");

    r.clock.store(50, Ordering::SeqCst);
    let t50 = SimTime::from_secs(50);
    r.b.submit(job(1, 1, 50, 20, 60), t50).unwrap();
    r.b.pump(t50, &mut r.b_to_a); // mate ready? A's job queued; try_start_mate(A) starts it
    r.a.pump(t50, &mut r.a_to_b);

    // B's pair job couldn't start at t50 (filler holds 50/50 nodes)… B's
    // pump at t50 yielded. At t100 the filler ends.
    r.clock.store(100, Ordering::SeqCst);
    let t100 = SimTime::from_secs(100);
    r.b.complete_due(t100);
    r.b.pump(t100, &mut r.b_to_a);

    r.clock.store(500, Ordering::SeqCst);
    let t500 = SimTime::from_secs(500);
    r.a.complete_due(t500);
    r.b.complete_due(t500);
    assert!(r.a.drained() && r.b.drained());
    let sa =
        r.a.records()
            .iter()
            .find(|x| x.id == JobId(1))
            .unwrap()
            .start;
    let sb =
        r.b.records()
            .iter()
            .find(|x| x.id == JobId(1))
            .unwrap()
            .start;
    assert_eq!(sa, sb);

    r.srv_a.shutdown();
    r.srv_b.shutdown();
}

#[test]
fn protocol_queries_reflect_domain_state() {
    let r = rig(Scheme::Hold, Scheme::Hold, one_pair_registry());
    let mut probe = TcpTransport::connect(r.srv_a.addr(), Duration::from_secs(2)).unwrap();

    // Unknown job: unsubmitted.
    let resp = probe
        .call(&Request::GetMateStatus { job: JobId(1) })
        .unwrap();
    assert_eq!(
        resp,
        Response::MateStatus(coupled_cosched::proto::MateStatus::Unsubmitted)
    );

    // Mate lookup through the registry.
    let resp = probe
        .call(&Request::GetMateJob { for_job: JobId(1) })
        .unwrap();
    match resp {
        Response::MateJob(Some(m)) => {
            assert_eq!(m.machine, MachineId(0));
            assert_eq!(m.job, JobId(1));
        }
        other => panic!("unexpected {other:?}"),
    }

    // Submit and query again: queuing… after a pump with no transport
    // trouble it becomes held (scheme hold, mate unsubmitted on B).
    r.a.submit(job(0, 1, 0, 20, 60), SimTime::ZERO).unwrap();
    let resp = probe
        .call(&Request::GetMateStatus { job: JobId(1) })
        .unwrap();
    assert_eq!(
        resp,
        Response::MateStatus(coupled_cosched::proto::MateStatus::Queuing)
    );

    // Ping for liveness.
    assert_eq!(probe.call(&Request::Ping).unwrap(), Response::Pong);

    r.srv_a.shutdown();
    r.srv_b.shutdown();
}

#[test]
fn dead_peer_over_tcp_triggers_fault_tolerance() {
    let mut r = rig(Scheme::Hold, Scheme::Hold, one_pair_registry());
    // Kill B's server before A pumps: A's calls fail ⇒ its paired job
    // starts normally instead of holding.
    r.srv_b.shutdown();
    r.a.submit(job(0, 1, 0, 20, 60), SimTime::ZERO).unwrap();
    r.a.pump(SimTime::ZERO, &mut r.a_to_b);
    assert!(r.a.held().is_empty(), "no holding against a dead peer");
    r.clock.store(60, Ordering::SeqCst);
    assert_eq!(r.a.complete_due(SimTime::from_secs(60)), 1);
    assert!(r.a.drained());
    r.srv_a.shutdown();
}
