//! Inter-job temporal constraints demo (§VI future work): a simulation /
//! analysis pipeline where the strict co-start of the base mechanism is
//! relaxed two ways:
//!
//! * the *monitoring* dashboard should come up within 10 minutes of the
//!   simulation (soft co-start, `StartWithin`);
//! * the *checkpoint analysis* must start between 30 and 90 minutes after
//!   the simulation (ordered, `StartAfter` — it needs the first checkpoint
//!   on disk, but late enough data would age out of the burst buffer).
//!
//! ```text
//! cargo run --release --example temporal_pipeline
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
    let config = NwayConfig {
        machines: vec![
            MachineConfig::flat("compute", MachineId(0), 256),
            MachineConfig::flat("analysis", MachineId(1), 32),
        ],
        cosched: vec![
            CoschedConfig::paper(Scheme::Hold),
            CoschedConfig::paper(Scheme::Yield),
        ],
        max_events: 10_000_000,
    };

    let traces = vec![
        Trace::from_jobs(
            MachineId(0),
            vec![
                job(0, 1, 0, 192, 240), // the simulation, 4 hours
            ],
        ),
        Trace::from_jobs(
            MachineId(1),
            vec![
                job(1, 9, 0, 32, 8),  // unrelated job briefly hogging the analysis cluster
                job(1, 1, 1, 8, 200), // monitoring dashboard
                job(1, 2, 1, 16, 60), // checkpoint analysis
            ],
        ),
    ];

    let simulation = (MachineId(0), JobId(1));
    let mut registry = GroupRegistry::new();
    let window = SimDuration::from_mins(10);
    registry
        .insert(
            Constraint::StartWithin { window },
            vec![simulation, (MachineId(1), JobId(1))],
        )
        .expect("two members on two machines");
    let after = Constraint::StartAfter {
        min_delay: SimDuration::from_mins(30),
        max_delay: SimDuration::from_mins(90),
    };
    registry
        .insert(after, vec![simulation, (MachineId(1), JobId(2))])
        .expect("the analysis job has no other relation");

    let report = NwaySimulation::new(config, traces, registry.clone())
        .expect("one trace per machine, in config order")
        .run();

    println!(
        "events: {}, deadlocked: {}",
        report.events, report.deadlocked
    );
    for (m, recs) in report.records.iter().enumerate() {
        for r in recs {
            println!(
                "machine {m} {}: submit {:>5} start {:>6}",
                r.id,
                r.submit.as_secs(),
                r.start
            );
        }
    }
    for g in &report.grades {
        let [(_, a), (_, b)] = registry.members(g.id) else {
            unreachable!("both relations have two members");
        };
        println!(
            "constraint {:?} a={a} b={b}: offset {}, satisfied = {}",
            g.constraint, g.offset, g.satisfied
        );
    }
    let offsets: Vec<_> = report.grades.iter().map(|g| g.offset).collect();
    assert_eq!(
        offsets,
        [SimDuration::from_mins(8), SimDuration::from_mins(30)],
        "dashboard 8 min after the simulation, analysis at the 30 min gate"
    );
    assert!(report.all_satisfied(), "pipeline constraints must hold");
    println!("all constraints satisfied");
}
