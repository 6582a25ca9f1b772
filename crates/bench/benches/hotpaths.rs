//! Micro-benches for the scheduler hot paths the campaign runner hammers:
//! queue ordering (from scratch vs re-sorting the previous order), shadow computation
//! (sort-per-call vs incrementally sorted walk), buddy-allocator fit and
//! alloc/release cycles, and one end-to-end simulated day. Committed
//! baseline numbers live in `BENCH_sim.json`; the allocation-freeness of
//! the persisted-order paths is asserted by `tests/alloc_free.rs`.

use cosched_bench::harness::{anl_load_traces, run_one};
use cosched_core::SchemeCombo;
use cosched_sched::alloc::BuddyAllocator;
use cosched_sched::backfill::{compute_shadow, compute_shadow_sorted, ProjectedRelease};
use cosched_sched::policy::{order_queue, sort_keys, OrderKey};
use cosched_sched::{NodeAllocator, PolicyKind};
use cosched_sim::{SimDuration, SimTime};
use cosched_workload::{Job, JobId, MachineId};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn queue_jobs(depth: u64) -> Vec<Job> {
    (0..depth)
        .map(|i| {
            Job::new(
                JobId(i),
                MachineId(0),
                SimTime::from_secs(i * 7 % 86_400),
                64 << (i % 5),
                SimDuration::from_secs(600 + (i % 9) * 600),
                SimDuration::from_secs(3_600),
            )
        })
        .collect()
}

fn bench_order_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("order_queue");
    for depth in [64u64, 512] {
        let jobs = queue_jobs(depth);
        let views: Vec<(&Job, f64)> = jobs.iter().map(|j| (j, 0.0)).collect();
        let now = SimTime::from_secs(172_800);
        group.bench_with_input(
            BenchmarkId::new("fresh_alloc", depth),
            &views,
            |b, views| {
                b.iter(|| black_box(order_queue(PolicyKind::Wfp, now, views, &|_| false)).len())
            },
        );
        // What a scheduling iteration does: rescore the previous
        // iteration's order one minute later, in place, and re-sort it.
        let mut keys: Vec<OrderKey> = (0u32..)
            .zip(&jobs)
            .map(|(slot, j)| OrderKey::new(PolicyKind::Wfp, now, j, 0.0, false, slot))
            .collect();
        sort_keys(&mut keys);
        let mut t = now;
        group.bench_function(BenchmarkId::new("persisted_resort", depth), |b| {
            b.iter(|| {
                t += SimDuration::from_secs(60);
                for key in &mut keys {
                    let job = &jobs[key.slot as usize];
                    *key = OrderKey::new(PolicyKind::Wfp, t, job, 0.0, false, key.slot);
                }
                sort_keys(&mut keys);
                black_box(keys[0].slot)
            })
        });
    }
    group.finish();
}

fn release_list(n: u64) -> Vec<ProjectedRelease> {
    let mut releases: Vec<ProjectedRelease> = (0..n)
        .map(|i| ProjectedRelease {
            end: SimTime::from_secs(1_000 + (i * 37) % 90_000),
            nodes: 512 << (i % 4),
        })
        .collect();
    releases.sort_by_key(|r| (r.end, r.nodes));
    releases
}

fn bench_compute_shadow(c: &mut Criterion) {
    let mut group = c.benchmark_group("compute_shadow");
    for n in [32u64, 256] {
        let sorted = release_list(n);
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        // Head demand that forces walking most of the list.
        let head = sorted.iter().map(|r| r.nodes).sum::<u64>() * 9 / 10;
        group.bench_with_input(
            BenchmarkId::new("sort_per_call", n),
            &shuffled,
            |b, releases| b.iter(|| black_box(compute_shadow(head, 0, releases)).time),
        );
        group.bench_with_input(
            BenchmarkId::new("sorted_walk", n),
            &sorted,
            |b, releases| {
                b.iter(|| black_box(compute_shadow_sorted(head, 0, releases.iter().copied())).time)
            },
        );
    }
    group.finish();
}

fn bench_buddy(c: &mut Criterion) {
    let mut group = c.benchmark_group("buddy");
    // A partially fragmented Intrepid-shaped allocator.
    let mut a = BuddyAllocator::new(40_960, 512);
    let handles: Vec<_> = (0..12u64).filter_map(|i| a.alloc(512 << (i % 4))).collect();
    group.bench_function("can_fit_mixed", |b| {
        b.iter(|| {
            let mut fits = 0u32;
            for size in [512u64, 1_024, 4_096, 16_384, 32_768] {
                fits += a.can_fit(size) as u32;
            }
            black_box(fits)
        })
    });
    drop(handles);
    group.bench_function("alloc_release_cycle_1k", |b| {
        b.iter(|| {
            let mut a = BuddyAllocator::new(40_960, 512);
            let mut live = Vec::with_capacity(64);
            for i in 0..1_000u64 {
                if live.len() < 48 {
                    if let Some(h) = a.alloc(512 << (i % 5)) {
                        live.push(h);
                    }
                } else {
                    let k = (i as usize * 13) % live.len();
                    a.release(live.remove(k));
                }
            }
            black_box(a.free_nodes())
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("one_day_yy", |b| {
        b.iter(|| {
            let traces = anl_load_traces(1, 1, 0.5);
            black_box(run_one(Some(SchemeCombo::YY), traces).summaries[0].jobs)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_order_queue,
    bench_compute_shadow,
    bench_buddy,
    bench_end_to_end
);
criterion_main!(benches);
