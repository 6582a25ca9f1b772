//! Criterion bench for the simulator's event queue: push/pop throughput
//! over scattered times. It bounds how large a coupled simulation the
//! harness can afford.

use cosched_sim::{EventQueue, SimTime};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_queue_push_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                // Scattered times exercise heap reordering.
                for i in 0..n {
                    let t = ((i.wrapping_mul(2_654_435_761)) % (n * 8)) as u64;
                    q.push(SimTime::from_secs(t), i);
                }
                let mut sum = 0usize;
                while let Some(ev) = q.pop() {
                    sum = sum.wrapping_add(ev.event);
                }
                black_box(sum)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queue_push_pop);
criterion_main!(benches);
