//! Integration tests for the §VI future-work extensions (N-way
//! coscheduling, temporal constraints) and the §III co-reservation
//! comparator, exercised through the facade crate at randomized scale.

use cosched_bench::harness::{anl_load_traces, anl_proportion_traces};
use coupled_cosched::cosched::config::CoschedConfig;
use coupled_cosched::cosched::nway::{
    Constraint, GroupId, GroupRegistry, Member, NwayConfig, NwayReport, NwaySimulation,
};
use coupled_cosched::cosched::Scheme;
use coupled_cosched::prelude::*;
use coupled_cosched::resv::ReservationSimulation;
use coupled_cosched::sim::{SimDuration, SimRng, SimTime};
use coupled_cosched::workload::{pairing, MachineModel, TraceGenerator};

fn job(machine: usize, id: u64, submit: u64, size: u64, runtime: u64) -> Job {
    Job::new(
        JobId(id),
        MachineId(machine),
        SimTime::from_secs(submit),
        size,
        SimDuration::from_secs(runtime),
        SimDuration::from_secs(runtime * 2),
    )
}

/// A k-way run's inputs.
type Run = (NwayConfig, Vec<Trace>, GroupRegistry);

/// Four Eureka-sized machines (hold on even, yield on odd) with a 1-day
/// background workload each plus 20 four-way groups.
fn four_machine_groups() -> Run {
    let n = 4;
    let rng = SimRng::seed_from_u64(77);
    let mut traces: Vec<Trace> = (0..n)
        .map(|m| {
            TraceGenerator::new(
                MachineModel::eureka().with_runtime(1_000.0, 1.0),
                MachineId(m),
            )
            .span(SimDuration::from_days(1))
            .target_utilization(0.4)
            .generate(&mut rng.fork(m as u64))
        })
        .collect();
    let mut registry = GroupRegistry::new();
    for g in 0..20u64 {
        let submit = 1_000 + g * 3_000;
        let members: Vec<Member> = (0..n)
            .map(|m| {
                let id = JobId(100_000 + g);
                traces[m].push(job(m, id.0, submit + (m as u64) * 37, 5 + (g % 10), 900));
                (MachineId(m), id)
            })
            .collect();
        for t in &mut traces {
            t.resort();
        }
        registry.insert(Constraint::CoStart, members).unwrap();
    }
    let config = NwayConfig {
        machines: (0..n)
            .map(|m| {
                let mut c = MachineConfig::eureka(MachineId(m));
                c.name = format!("M{m}");
                c
            })
            .collect(),
        cosched: (0..n)
            .map(|m| {
                CoschedConfig::paper(if m % 2 == 0 {
                    Scheme::Hold
                } else {
                    Scheme::Yield
                })
            })
            .collect(),
        max_events: 2_000_000,
    };
    (config, traces, registry)
}

/// Two Eureka machines (hold, yield) at 30 % background load with three
/// constrained trios: a co-start pair and a delayed analysis job.
fn mixed_constraints() -> Run {
    let rng = SimRng::seed_from_u64(88);
    let mut a = TraceGenerator::new(
        MachineModel::eureka().with_runtime(1_500.0, 1.0),
        MachineId(0),
    )
    .span(SimDuration::from_days(1))
    .target_utilization(0.3)
    .generate(&mut rng.fork(0));
    let mut b = TraceGenerator::new(
        MachineModel::eureka().with_runtime(1_500.0, 1.0),
        MachineId(1),
    )
    .span(SimDuration::from_days(1))
    .target_utilization(0.3)
    .generate(&mut rng.fork(1));

    let mut registry = GroupRegistry::new();
    for k in 0..3u64 {
        let base = 5_000 + k * 20_000;
        a.push(job(0, 200_000 + k, base, 10, 3_600));
        b.push(job(1, 200_000 + k, base + 60, 10, 1_800)); // co-start mate
        b.push(job(1, 300_000 + k, base + 120, 5, 900)); // delayed analysis
        let sim = (MachineId(0), JobId(200_000 + k));
        registry
            .insert(
                Constraint::CoStart,
                vec![sim, (MachineId(1), JobId(200_000 + k))],
            )
            .unwrap();
        let after = Constraint::StartAfter {
            min_delay: SimDuration::from_mins(10),
            max_delay: SimDuration::from_hours(12),
        };
        registry
            .insert(after, vec![sim, (MachineId(1), JobId(300_000 + k))])
            .unwrap();
    }
    a.resort();
    b.resort();
    let config = NwayConfig {
        machines: vec![
            MachineConfig::eureka(MachineId(0)),
            MachineConfig::eureka(MachineId(1)),
        ],
        cosched: vec![
            CoschedConfig::paper(Scheme::Hold),
            CoschedConfig::paper(Scheme::Yield),
        ],
        max_events: 10_000_000,
    };
    (config, vec![a, b], registry)
}

/// A 2-way cell as a k-way run: the same machines and schemes, each pair a
/// 2-member co-start group.
fn pairs_as_groups(config: &CoupledConfig, traces: &[Trace; 2], max_events: u64) -> Run {
    let mut registry = GroupRegistry::new();
    for j in traces[0].jobs() {
        if let Some(mate) = j.mate {
            let members = vec![(MachineId(0), j.id), (mate.machine, mate.job)];
            registry.insert(Constraint::CoStart, members).unwrap();
        }
    }
    let config = NwayConfig {
        machines: config.machines.to_vec(),
        cosched: config.cosched.to_vec(),
        max_events,
    };
    (config, traces.to_vec(), registry)
}

fn run((config, traces, registry): Run) -> NwayReport {
    NwaySimulation::new(config, traces, registry)
        .expect("valid relations and traces")
        .run()
}

/// The start of `job` on machine `m` in a k-way report.
fn start_of(report: &NwayReport, (machine, job): Member) -> SimTime {
    let m = machine.0;
    let record = report.records[m].iter().find(|r| r.id == job);
    record.expect("member finished").start
}

#[test]
fn nway_randomized_groups_synchronize_across_four_machines() {
    let report = run(four_machine_groups());
    assert!(!report.deadlocked);
    assert!(!report.aborted);
    assert_eq!(report.grades.len(), 20, "every group must complete");
    assert!(report.all_satisfied(), "grades {:?}", report.grades);
}

#[test]
fn temporal_mixed_constraints_on_random_background() {
    let inputs = mixed_constraints();
    let registry = inputs.2.clone();
    let report = run(inputs);
    assert!(!report.deadlocked);
    assert_eq!(report.grades.len(), 6);
    // CoStart constraints are exact; the generous StartAfter windows hold
    // on a 30 %-loaded machine.
    assert!(report.all_satisfied(), "grades {:?}", report.grades);
    // Verify the hard lower bound directly: no successor starts before
    // its predecessor's start plus `min_delay`.
    for g in &report.grades {
        if let Constraint::StartAfter { min_delay, .. } = g.constraint {
            let [pred, succ] = registry.members(g.id) else {
                panic!("an edge has two members");
            };
            assert!(start_of(&report, *succ) >= start_of(&report, *pred) + min_delay);
            assert!(g.offset >= min_delay);
        }
    }
}

/// Run `traces` under every scheme combination through the coupled driver
/// and through the k-way engine with every pair a 2-member co-start group,
/// and require the same outcome: each machine's whole job records and
/// summary, the releases, the event count and the deadlock verdict.
fn assert_groups_reproduce_the_driver(traces: &[Trace; 2], label: &str) {
    for combo in SchemeCombo::ALL {
        let config = CoupledConfig::anl(combo);
        let nway = run(pairs_as_groups(&config, traces, config.max_events));
        let coupled = CoupledSimulation::new(config, traces.clone()).run();
        let cell = format!("{label} {}", combo.label());
        for m in 0..2 {
            let sorted = |records: &[coupled_cosched::metrics::JobRecord]| {
                let mut records = records.to_vec();
                records.sort_by_key(|r| r.id);
                records
            };
            let (want, got) = (sorted(&coupled.records[m]), sorted(&nway.records[m]));
            let differ = want.iter().zip(&got).filter(|(a, b)| a != b).count();
            assert_eq!(want.len(), got.len(), "{cell}: machine {m} job count");
            assert_eq!(differ, 0, "{cell}: {differ} records differ on {m}");
            let (want, got) = (&coupled.summaries[m], &nway.summaries[m]);
            let (want, got) = (format!("{want:?}"), format!("{got:?}"));
            assert_eq!(want, got, "{cell}: summary {m}");
        }
        assert_eq!(nway.forced_releases, coupled.forced_releases, "{cell}");
        assert_eq!(nway.events, coupled.events, "{cell}");
        assert_eq!(nway.deadlocked, coupled.deadlocked, "{cell}");
        assert_eq!(nway.all_satisfied(), coupled.all_pairs_synchronized());
    }
}

/// The k-way engine with every pair of a 2-way workload as a 2-member
/// co-start group is Algorithm 1 on the same domain core: it must
/// reproduce the coupled driver job for job, release for release and
/// event for event, under every scheme combination.
#[test]
fn two_member_groups_reproduce_the_coupled_driver() {
    for seed in 1..=3 {
        let traces = anl_proportion_traces(seed, 3, 0.33);
        assert_groups_reproduce_the_driver(&traces, &format!("seed {seed}"));
    }
}

/// The same differential over the ten-day load and proportion sweeps
/// (`cargo test --release --test extensions -- --ignored`).
#[test]
#[ignore = "60 ten-day cells; run in release"]
fn two_member_groups_reproduce_the_coupled_driver_over_ten_days() {
    for seed in 1..=3 {
        for load in [0.25, 0.5, 0.75] {
            let traces = anl_load_traces(seed, 10, load);
            assert_groups_reproduce_the_driver(&traces, &format!("seed {seed} load {load}"));
        }
        for proportion in [0.05, 0.33] {
            let traces = anl_proportion_traces(seed, 10, proportion);
            let label = format!("seed {seed} proportion {proportion}");
            assert_groups_reproduce_the_driver(&traces, &label);
        }
    }
}

/// Ten days of hold-hold with a third of the jobs co-start constrained
/// drain under the batch release sweep; an age-filtered partial release
/// livelocks here until the event cap.
#[test]
fn costart_constraints_drain_a_ten_day_hold_hold_run() {
    let traces = anl_proportion_traces(1, 10, 0.33);
    let jobs = traces[0].len() + traces[1].len();
    assert_eq!(jobs, 4_808);
    let config = CoupledConfig::anl(SchemeCombo::HH);
    let report = run(pairs_as_groups(&config, &traces, 10_000_000));
    assert!(!report.aborted, "stopped after {} events", report.events);
    assert!(!report.deadlocked);
    let finished: usize = report.records.iter().map(Vec::len).sum();
    assert_eq!(finished, jobs);
    assert!(report.all_satisfied());
}

/// A k-way run's report and its recorded event stream.
fn traced((config, traces, registry): Run) -> (NwayReport, Vec<TraceRecord>) {
    let sink = SinkObserver::new(VecSink::default());
    let sim = NwaySimulation::with_observer(config, traces, registry, sink);
    let (report, sink) = sim.expect("valid run").run_observed();
    assert!(!report.deadlocked && !report.aborted);
    (report, sink.into_sink().records)
}

/// The domains' event stream of a k-way run is a valid input to the strict
/// lifecycle analyzer, and agrees with the report.
#[test]
fn kway_event_streams_pass_the_strict_lifecycle_analyzer() {
    for inputs in [four_machine_groups(), mixed_constraints()] {
        let (k, registry) = (inputs.1.len(), inputs.2.clone());
        let (report, records) = traced(inputs);
        let lifecycles = LifecycleSet::from_records(&records).expect("strict lifecycle");
        for m in 0..k {
            let mut jobs = report.records[m].clone();
            jobs.sort_by_key(|r| r.id);
            let lcs: Vec<_> = lifecycles.machine_jobs(m).collect();
            assert_eq!(lcs.len(), jobs.len(), "machine {m}");
            for (lc, r) in lcs.iter().zip(&jobs) {
                assert_eq!((lc.job, lc.start), (r.id.0, Some(r.start.as_secs())));
                let member = registry
                    .group_of(MachineId(m), r.id)
                    .and_then(|id| registry.constraint(id))
                    == Some(Constraint::CoStart);
                assert_eq!((lc.paired, r.paired), (member, member), "job {}", r.id);
            }
        }
    }
}

/// A k-way run is traced like a 2-way one: its span forest is well formed,
/// its partner calls are recorded RPCs, and each group whose members all
/// started has exactly one closed root span.
#[test]
fn kway_traces_carry_rpcs_and_one_closed_root_per_started_group() {
    for inputs in [four_machine_groups(), mixed_constraints()] {
        let registry = inputs.2.clone();
        let (report, records) = traced(inputs);
        LifecycleSet::from_records(&records).expect("strict lifecycle");
        let tree = SpanTree::from_records(&records).expect("strict span forest");
        let rpcs = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RpcCall { .. }));
        assert!(rpcs.count() > 0, "partner calls are recorded");
        let started = |&(machine, job): &Member| {
            let records = &report.records[machine.0];
            records.iter().any(|r| r.id == job)
        };
        let groups = (0..registry.len() as u64)
            .map(GroupId)
            .filter(|&id| !matches!(registry.constraint(id), Some(Constraint::StartAfter { .. })))
            .filter(|&id| registry.members(id).iter().all(started))
            .count();
        assert!(groups > 0);
        let closed = tree.pair_roots().filter(|n| n.close.is_some()).count();
        assert_eq!(closed, groups);
        assert_eq!(tree.pair_roots().count(), groups, "no root stays open");
    }
}

#[test]
fn reservation_baseline_synchronizes_but_fragments() {
    // Same workload through the protocol coscheduler and the co-reservation
    // desk: both must synchronize pairs; the reservation desk must lose
    // service units to walltime tails (the §III fragmentation argument).
    let rng = SimRng::seed_from_u64(99);
    let model = MachineModel::eureka().with_runtime(1_200.0, 1.0);
    let mut a = TraceGenerator::new(model.clone(), MachineId(0))
        .span(SimDuration::from_days(1))
        .target_utilization(0.4)
        .generate(&mut rng.fork(0));
    let mut b = TraceGenerator::new(model, MachineId(1))
        .span(SimDuration::from_days(1))
        .target_utilization(0.4)
        .generate(&mut rng.fork(1));
    pairing::pair_exact_proportion(
        &mut a,
        &mut b,
        0.15,
        SimDuration::from_mins(2),
        &mut rng.fork(2),
    );

    let resv = ReservationSimulation::new(["A", "B"], [100, 100], [a.clone(), b.clone()]).run();
    assert!(resv.all_pairs_synchronized());
    assert!(
        resv.summaries[0].lost_node_hours > 0.0,
        "walltime tails must register as loss"
    );

    use coupled_cosched::cosched::{CoupledConfig, CoupledSimulation, SchemeCombo};
    let mut cfg = CoupledConfig {
        machines: [
            MachineConfig::eureka(MachineId(0)),
            MachineConfig::eureka(MachineId(1)),
        ],
        cosched: [
            CoschedConfig::paper(SchemeCombo::YY.of(0)),
            CoschedConfig::paper(SchemeCombo::YY.of(1)),
        ],
        max_events: 1_000_000,
    };
    cfg.machines[0].name = "A".into();
    cfg.machines[1].name = "B".into();
    let proto = CoupledSimulation::new(cfg, [a, b]).run();
    assert!(proto.all_pairs_synchronized());
    // The protocol (yield-yield) wastes nothing; the reservation desk does.
    assert_eq!(proto.summaries[0].lost_node_hours, 0.0);
    assert!(
        resv.summaries[0].avg_wait_mins >= proto.summaries[0].avg_wait_mins,
        "reservations must not beat the protocol on regular-job waiting (resv {} vs proto {})",
        resv.summaries[0].avg_wait_mins,
        proto.summaries[0].avg_wait_mins
    );
}
