//! Two *live* scheduling domains coscheduling over the real TCP protocol —
//! the deployment shape of the paper, compressed to wall-clock seconds.
//!
//! Each domain runs in its own thread with its own resource manager,
//! serves the coordination protocol on a localhost socket, and pumps its
//! scheduler once per tick. The compute domain uses hold, the analysis
//! domain yield; the associated pair must start at the same tick.
//!
//! ```text
//! cargo run --release --example live_protocol
//! ```

use coupled_cosched::cosched::config::CoschedConfig;
use coupled_cosched::cosched::live::LiveDomain;
use coupled_cosched::cosched::{MateRegistry, Scheme};
use coupled_cosched::prelude::*;
use coupled_cosched::proto::tcp;
use coupled_cosched::proto::tcp::TcpTransport;
use coupled_cosched::sched::Machine;
use coupled_cosched::sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // A shared tick counter stands in for the wall clock (1 tick = 1
    // simulated minute; we advance it manually so the demo finishes fast).
    let clock = Arc::new(AtomicU64::new(0));
    let now = {
        let clock = Arc::clone(&clock);
        move || SimTime::from_secs(clock.load(Ordering::SeqCst) * 60)
    };

    let mut registry = MateRegistry::new();
    registry.insert_pair((MachineId(0), JobId(1)), (MachineId(1), JobId(1)));

    let compute = LiveDomain::new(
        Machine::new(MachineConfig::flat("compute", MachineId(0), 64)),
        CoschedConfig::paper(Scheme::Hold),
        registry.clone(),
        MachineId(1),
    );
    let analysis = LiveDomain::new(
        Machine::new(MachineConfig::flat("analysis", MachineId(1), 8)),
        CoschedConfig::paper(Scheme::Yield),
        registry,
        MachineId(0),
    );

    // Each domain serves the protocol for its peer.
    let srv_compute = tcp::serve(
        "127.0.0.1:0".parse().unwrap(),
        compute.service({
            let now = now.clone();
            move || now()
        }),
    )
    .expect("bind compute service");
    let srv_analysis = tcp::serve(
        "127.0.0.1:0".parse().unwrap(),
        analysis.service({
            let now = now.clone();
            move || now()
        }),
    )
    .expect("bind analysis service");
    println!(
        "compute domain serving on {}, analysis domain on {}",
        srv_compute.addr(),
        srv_analysis.addr()
    );

    let mut compute_to_analysis =
        TcpTransport::connect(srv_analysis.addr(), Duration::from_secs(2)).expect("connect");
    let mut analysis_to_compute =
        TcpTransport::connect(srv_compute.addr(), Duration::from_secs(2)).expect("connect");

    let job = |machine: usize, id: u64, size: u64, runtime_mins: u64| {
        Job::new(
            JobId(id),
            MachineId(machine),
            now(),
            size,
            SimDuration::from_mins(runtime_mins),
            SimDuration::from_mins(runtime_mins * 2),
        )
    };

    // Tick 0: filler occupies the whole analysis cluster; the compute half
    // of the pair arrives and must wait for its mate.
    analysis
        .submit(job(1, 9, 8, 5), now())
        .expect("a valid submission");
    analysis.pump(now(), &mut analysis_to_compute);
    compute
        .submit(job(0, 1, 32, 10), now())
        .expect("a valid submission");
    compute.pump(now(), &mut compute_to_analysis);
    println!(
        "tick 0: compute holds {:?} (mate not submitted yet)",
        compute.held()
    );

    // Tick 2: the analysis mate arrives but the filler still runs.
    clock.store(2, Ordering::SeqCst);
    analysis
        .submit(job(1, 1, 8, 10), now())
        .expect("a valid submission");
    analysis.pump(now(), &mut analysis_to_compute);
    println!(
        "tick 2: analysis mate queued (cluster full), compute still holds {:?}",
        compute.held()
    );

    // Tick 5: the filler finishes; the analysis domain pumps, sees the
    // compute mate holding, and both start — simultaneously.
    clock.store(5, Ordering::SeqCst);
    analysis.complete_due(now());
    analysis.pump(now(), &mut analysis_to_compute);
    compute.pump(now(), &mut compute_to_analysis);
    println!(
        "tick 5: compute holds {:?} (should be empty — pair started)",
        compute.held()
    );

    // Let everything finish.
    clock.store(30, Ordering::SeqCst);
    compute.complete_due(now());
    analysis.complete_due(now());

    let rc = compute.records();
    let ra = analysis.records();
    let cstart = rc
        .iter()
        .find(|r| r.id == JobId(1))
        .expect("compute job ran")
        .start;
    let astart = ra
        .iter()
        .find(|r| r.id == JobId(1))
        .expect("analysis job ran")
        .start;
    println!(
        "pair started at compute t={} / analysis t={} — synchronized = {}",
        cstart,
        astart,
        cstart == astart
    );
    assert_eq!(cstart, astart, "associated jobs must start simultaneously");

    srv_compute.shutdown();
    srv_analysis.shutdown();
}
