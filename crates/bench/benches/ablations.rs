//! Criterion benches for design-choice costs: what each enhancement and
//! policy variant does to simulation wall time (the *metric* effects are in
//! the `ablate` binary; this measures compute cost).

use cosched_bench::harness;
use cosched_core::{CoupledConfig, CoupledSimulation, SchemeCombo};
use cosched_sched::PolicyKind;
use cosched_sim::SimDuration;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_release_period_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_release_period");
    group.sample_size(10);
    for mins in [5u64, 20, 80] {
        group.bench_with_input(BenchmarkId::from_parameter(mins), &mins, |b, &mins| {
            b.iter_batched(
                || {
                    let cfg = harness::anl_with(SchemeCombo::HH, |c| {
                        c.release_period = Some(SimDuration::from_mins(mins));
                    });
                    (cfg, harness::anl_load_traces(1, 3, 0.5))
                },
                |(cfg, traces)| black_box(CoupledSimulation::new(cfg, traces).run().events),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_policy_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_policy");
    group.sample_size(10);
    for policy in [PolicyKind::Wfp, PolicyKind::Fcfs] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, &policy| {
                b.iter_batched(
                    || {
                        let mut cfg = CoupledConfig::anl(SchemeCombo::YY);
                        cfg.machines[0].policy = policy;
                        cfg.machines[1].policy = policy;
                        (cfg, harness::anl_load_traces(1, 3, 0.5))
                    },
                    |(cfg, traces)| black_box(CoupledSimulation::new(cfg, traces).run().events),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_backfill_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_backfill");
    group.sample_size(10);
    for bf in [true, false] {
        group.bench_with_input(BenchmarkId::from_parameter(bf), &bf, |b, &bf| {
            b.iter_batched(
                || {
                    let mut cfg = CoupledConfig::anl(SchemeCombo::YY);
                    cfg.machines[0].backfill = bf;
                    cfg.machines[1].backfill = bf;
                    (cfg, harness::anl_load_traces(1, 3, 0.5))
                },
                |(cfg, traces)| black_box(CoupledSimulation::new(cfg, traces).run().events),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_release_period_cost,
    bench_policy_cost,
    bench_backfill_cost
);
criterion_main!(benches);
