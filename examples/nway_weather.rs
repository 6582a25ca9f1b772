//! N-way coscheduling demo — the paper's §II-B motivation: "the weather
//! forecasting models run at NASA wherein multiple climate analysis models
//! are executed concurrently … some of the models may be optimized to run
//! on GPU-based systems while others are tailored for CPU-based systems",
//! and §VI's future work of "N-way coscheduling on more than two
//! scheduling domains".
//!
//! Three machines — a CPU cluster, a GPU cluster, and a visualization
//! wall — must co-start a three-member forecasting group while each also
//! runs its own background workload.
//!
//! ```text
//! cargo run --release --example nway_weather
//! ```

use coupled_cosched::cosched::config::CoschedConfig;
use coupled_cosched::cosched::nway::{Constraint, GroupRegistry, NwayConfig, NwaySimulation};
use coupled_cosched::cosched::Scheme;
use coupled_cosched::prelude::*;
use coupled_cosched::sim::{SimDuration, SimTime};

fn job(machine: usize, id: u64, submit_mins: u64, size: u64, runtime_mins: u64) -> Job {
    Job::new(
        JobId(id),
        MachineId(machine),
        SimTime::from_secs(submit_mins * 60),
        size,
        SimDuration::from_mins(runtime_mins),
        SimDuration::from_mins(runtime_mins * 2),
    )
}

fn main() {
    // The coupled triple.
    let config = NwayConfig {
        machines: vec![
            MachineConfig::flat("cpu-cluster", MachineId(0), 512),
            MachineConfig::flat("gpu-cluster", MachineId(1), 64),
            MachineConfig::flat("viz-wall", MachineId(2), 16),
        ],
        cosched: vec![
            CoschedConfig::paper(Scheme::Hold),
            CoschedConfig::paper(Scheme::Yield),
            CoschedConfig::paper(Scheme::Yield),
        ],
        max_events: 100_000,
    };

    // The forecasting group: atmosphere model (CPU), ocean model (GPU),
    // live visualization (wall) — submitted minutes apart by different
    // teams, must start together.
    let mut registry = GroupRegistry::new();
    registry
        .insert(
            Constraint::CoStart,
            vec![
                (MachineId(0), JobId(100)),
                (MachineId(1), JobId(100)),
                (MachineId(2), JobId(100)),
            ],
        )
        .expect("three members on three machines");

    let traces = vec![
        Trace::from_jobs(
            MachineId(0),
            vec![
                job(0, 1, 0, 400, 90),    // background CFD run
                job(0, 100, 5, 256, 120), // atmosphere model (group)
            ],
        ),
        Trace::from_jobs(
            MachineId(1),
            vec![
                job(1, 1, 0, 64, 45),    // background training job, whole cluster
                job(1, 100, 8, 32, 120), // ocean model (group)
            ],
        ),
        Trace::from_jobs(
            MachineId(2),
            vec![
                job(2, 1, 0, 16, 30),    // someone's movie rendering
                job(2, 100, 2, 12, 120), // live visualization (group)
            ],
        ),
    ];

    let report = NwaySimulation::new(config, traces, registry)
        .expect("one trace per machine, in config order")
        .run();

    println!(
        "events: {}, deadlocked: {}",
        report.events, report.deadlocked
    );
    for (m, recs) in report.records.iter().enumerate() {
        for r in recs {
            println!(
                "machine {m} {}: submit {:>5}s start {:>6}s {}",
                r.id,
                r.submit.as_secs(),
                r.start.as_secs(),
                if r.paired { "(group member)" } else { "" }
            );
        }
    }
    println!(
        "group grades: {:?} — synchronized = {}",
        report.grades,
        report.all_satisfied()
    );
    assert!(report.all_satisfied(), "3-way group must co-start");

    // The rendezvous is gated by the slowest machine: the CPU cluster's
    // background CFD run occupies 400 of 512 nodes for 90 minutes, leaving
    // no room for the 256-node atmosphere model until it ends — so the
    // whole group starts at t = 90 min.
    let start = report.records[1]
        .iter()
        .find(|r| r.id == JobId(100))
        .expect("ocean model ran")
        .start;
    assert_eq!(start, SimTime::from_secs(90 * 60));
    println!("group started at {start} (gated by the CPU cluster's backlog)");
}
