//! Observer-overhead microbench: per-event cost of the no-op observer (the
//! compiled-away default), the JSONL sink, the streaming telemetry monitor, and the production tee (JSONL + monitor).
//! Run with `cargo bench -p cosched-bench --bench observer`; representative
//! numbers are recorded in `EXPERIMENTS.md`.

use cosched_obs::monitor::StreamingMonitor;
use cosched_obs::{JsonlSink, NoopObserver, Observer, SinkObserver, TeeObserver, TraceEvent};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// A deterministic, lifecycle-coherent event stream: `jobs` short jobs per
/// machine cycling through submit → start → end, with scheduler-iteration
/// markers interleaved — the mix a real run feeds its observer.
fn event_stream(jobs: u64) -> Vec<(u64, usize, TraceEvent)> {
    let mut events = Vec::with_capacity(jobs as usize * 8);
    for i in 0..jobs {
        let t = i * 60;
        let machine = (i % 2) as usize;
        events.push((
            t,
            machine,
            TraceEvent::JobSubmitted {
                job: i,
                size: 64 << (i % 4),
                paired: i % 5 == 0,
            },
        ));
        events.push((
            t,
            machine,
            TraceEvent::SchedIterationStart {
                queued: 1,
                running: (i % 7) as usize,
                free_nodes: 1_024,
            },
        ));
        events.push((
            t + 30,
            machine,
            TraceEvent::CoschedStart {
                job: i,
                with_mate: i % 5 == 0,
            },
        ));
        events.push((t + 630, machine, TraceEvent::JobEnded { job: i }));
    }
    events.sort_by_key(|&(t, m, _)| (t, m));
    events
}

fn drive<O: Observer>(observer: &mut O, events: &[(u64, usize, TraceEvent)]) {
    for (t, m, e) in events {
        observer.record(*t, *m, e.clone());
    }
    observer.flush();
}

fn bench_observers(c: &mut Criterion) {
    let events = event_stream(2_000);
    let mut group = c.benchmark_group("observer_per_event");

    group.bench_function("noop", |b| {
        b.iter(|| {
            let mut obs = NoopObserver;
            // The no-op observer is inactive: emit_with never constructs
            // the event, which is exactly the cost an untraced run pays.
            for (t, m, e) in &events {
                obs.emit_with(*t, *m, || black_box(e.clone()));
            }
        })
    });

    group.bench_function("jsonl_sink", |b| {
        b.iter(|| {
            let mut obs = SinkObserver::new(JsonlSink::new(Vec::with_capacity(1 << 20)));
            drive(&mut obs, &events);
            black_box(obs.sink().lines())
        })
    });

    group.bench_function("streaming_monitor", |b| {
        b.iter(|| {
            let mut monitor = StreamingMonitor::new().with_capacities(&[1_024, 1_024]);
            drive(&mut monitor, &events);
            black_box(monitor.snapshot().events)
        })
    });

    group.bench_function("tee_jsonl_plus_monitor", |b| {
        b.iter(|| {
            let monitor = StreamingMonitor::new().with_capacities(&[1_024, 1_024]);
            let mut obs = TeeObserver::new(
                SinkObserver::new(JsonlSink::new(Vec::with_capacity(1 << 20))),
                monitor.clone(),
            );
            drive(&mut obs, &events);
            black_box(monitor.snapshot().events)
        })
    });

    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    // Snapshot cost matters separately: every /metrics or /state scrape
    // takes one while the run keeps recording.
    let events = event_stream(2_000);
    let mut monitor = StreamingMonitor::new().with_capacities(&[1_024, 1_024]);
    drive(&mut monitor, &events);
    c.bench_function("monitor_snapshot", |b| {
        b.iter(|| black_box(monitor.snapshot().finished))
    });
}

criterion_group!(benches, bench_observers, bench_snapshot);
criterion_main!(benches);
