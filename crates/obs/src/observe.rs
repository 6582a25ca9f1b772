//! Observers and sinks: where trace events go.
//!
//! An [`Observer`] is threaded through the simulation layers by value
//! (static dispatch). The [`NoopObserver`] reports `active() == false`,
//! a constant the optimizer folds away together with the event-building
//! closure passed to [`Observer::emit_with`] — disabled tracing costs
//! nothing. A [`SinkObserver`] forwards records to a [`Sink`]: a JSONL
//! stream, an in-memory ring buffer, or any boxed combination.

use crate::trace::{TraceEvent, TraceRecord};
use std::collections::VecDeque;
use std::io::Write;

/// Consumer of trace events. Implementations must be *pure consumers*:
/// nothing observable by the simulation may depend on them.
pub trait Observer {
    /// Whether events should be constructed at all. The no-op observer
    /// returns a literal `false`, letting inlining erase event plumbing.
    fn active(&self) -> bool;

    /// Record one event at a sim-time stamp.
    fn record(&mut self, time: u64, machine: usize, event: TraceEvent);

    /// Build-and-record only when active; the closure runs lazily so that
    /// payload construction is skipped for inactive observers.
    #[inline]
    fn emit_with(&mut self, time: u64, machine: usize, make: impl FnOnce() -> TraceEvent)
    where
        Self: Sized,
    {
        if self.active() {
            self.record(time, machine, make());
        }
    }

    /// Flush any buffered output (end of run). No-op by default.
    fn flush(&mut self) {}
}

/// The zero-cost default: no events are built, recorded, or stored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    #[inline(always)]
    fn active(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _time: u64, _machine: usize, _event: TraceEvent) {}
}

/// An optional observer records only while one is attached.
impl<O: Observer> Observer for Option<O> {
    #[inline]
    fn active(&self) -> bool {
        self.as_ref().is_some_and(O::active)
    }

    fn record(&mut self, time: u64, machine: usize, event: TraceEvent) {
        if let Some(observer) = self {
            observer.record(time, machine, event);
        }
    }

    fn flush(&mut self) {
        if let Some(observer) = self {
            observer.flush();
        }
    }
}

/// Where serialized trace records end up.
pub trait Sink {
    fn accept(&mut self, record: &TraceRecord);

    fn flush(&mut self) {}
}

impl<S: Sink + ?Sized> Sink for Box<S> {
    fn accept(&mut self, record: &TraceRecord) {
        (**self).accept(record);
    }

    fn flush(&mut self) {
        (**self).flush();
    }
}

/// Adapter turning any [`Sink`] into an [`Observer`].
#[derive(Debug, Default)]
pub struct SinkObserver<S: Sink> {
    sink: S,
}

impl<S: Sink> SinkObserver<S> {
    pub fn new(sink: S) -> Self {
        SinkObserver { sink }
    }

    pub fn into_sink(self) -> S {
        self.sink
    }

    pub fn sink(&self) -> &S {
        &self.sink
    }
}

impl<S: Sink> Observer for SinkObserver<S> {
    #[inline]
    fn active(&self) -> bool {
        true
    }

    fn record(&mut self, time: u64, machine: usize, event: TraceEvent) {
        self.sink.accept(&TraceRecord {
            time,
            machine,
            event,
        });
    }

    fn flush(&mut self) {
        self.sink.flush();
    }
}

/// Fan-out observer: forwards every event to both halves.
#[derive(Debug, Default)]
pub struct TeeObserver<A: Observer, B: Observer> {
    pub first: A,
    pub second: B,
}

impl<A: Observer, B: Observer> TeeObserver<A, B> {
    pub fn new(first: A, second: B) -> Self {
        TeeObserver { first, second }
    }
}

impl<A: Observer, B: Observer> Observer for TeeObserver<A, B> {
    #[inline]
    fn active(&self) -> bool {
        self.first.active() || self.second.active()
    }

    fn record(&mut self, time: u64, machine: usize, event: TraceEvent) {
        if self.first.active() {
            self.first.record(time, machine, event.clone());
        }
        if self.second.active() {
            self.second.record(time, machine, event);
        }
    }

    fn flush(&mut self) {
        self.first.flush();
        self.second.flush();
    }
}

/// JSONL sink: one compact JSON object per line, in emission order.
///
/// Because record payloads contain only deterministic data, two same-seed
/// runs write byte-identical streams.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    lines: u64,
}

impl<W: Write> JsonlSink<W> {
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, lines: 0 }
    }

    /// Number of records written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn accept(&mut self, record: &TraceRecord) {
        let line = serde_json::to_string(record).expect("trace records always serialize");
        // Trace I/O failures must not perturb the simulation; drop silently.
        let _ = self.writer.write_all(line.as_bytes());
        let _ = self.writer.write_all(b"\n");
        self.lines += 1;
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Bounded in-memory sink keeping the most recent `capacity` records.
#[derive(Debug, Clone)]
pub struct RingSink {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    total: u64,
}

impl RingSink {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingSink {
            records: VecDeque::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    /// Records currently retained (oldest first).
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Total records ever accepted, including evicted ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl Sink for RingSink {
    fn accept(&mut self, record: &TraceRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(record.clone());
        self.total += 1;
    }
}

/// Unbounded in-memory sink (tests and small runs).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    pub records: Vec<TraceRecord>,
}

impl Sink for VecSink {
    fn accept(&mut self, record: &TraceRecord) {
        self.records.push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> TraceEvent {
        TraceEvent::JobEnded { job: seq }
    }

    #[test]
    fn noop_observer_is_inactive_and_zero_sized() {
        let mut obs = NoopObserver;
        assert!(!obs.active());
        obs.emit_with(1, 0, || panic!("must not be constructed"));
        assert_eq!(std::mem::size_of::<NoopObserver>(), 0);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut observer = SinkObserver::new(JsonlSink::new(Vec::new()));
        observer.emit_with(5, 0, || sample(1));
        observer.emit_with(6, 1, || sample(2));
        let sink = observer.into_sink();
        assert_eq!(sink.lines(), 2);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn ring_sink_evicts_oldest() {
        let mut sink = RingSink::new(2);
        for seq in 0..5 {
            sink.accept(&TraceRecord {
                time: seq,
                machine: 0,
                event: sample(seq),
            });
        }
        assert_eq!(sink.total(), 5);
        assert_eq!(sink.len(), 2);
        let times: Vec<u64> = sink.records().map(|r| r.time).collect();
        assert_eq!(times, vec![3, 4]);
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut tee = TeeObserver::new(
            SinkObserver::new(VecSink::default()),
            SinkObserver::new(RingSink::new(8)),
        );
        assert!(tee.active());
        tee.emit_with(1, 0, || sample(9));
        assert_eq!(tee.first.sink().records.len(), 1);
        assert_eq!(tee.second.sink().total(), 1);
    }

    #[test]
    fn ring_sink_wraps_many_times_and_keeps_totals_exact() {
        // A long run through a small ring: `total()` keeps the true event
        // count while `len()` stays pinned at capacity, and the retained
        // window is exactly the trailing `capacity` records in order.
        let mut sink = RingSink::new(3);
        let n = 1_000u64;
        for seq in 0..n {
            sink.accept(&TraceRecord {
                time: seq,
                machine: (seq % 2) as usize,
                event: sample(seq),
            });
        }
        assert_eq!(sink.total(), n);
        assert_eq!(sink.len(), 3);
        assert!(!sink.is_empty());
        let times: Vec<u64> = sink.records().map(|r| r.time).collect();
        assert_eq!(times, vec![n - 3, n - 2, n - 1]);
    }

    #[test]
    fn ring_sink_below_capacity_keeps_everything() {
        let mut sink = RingSink::new(10);
        for seq in 0..4 {
            sink.accept(&TraceRecord {
                time: seq,
                machine: 0,
                event: sample(seq),
            });
        }
        assert_eq!(sink.total(), 4);
        assert_eq!(sink.len(), 4);
        let times: Vec<u64> = sink.records().map(|r| r.time).collect();
        assert_eq!(times, vec![0, 1, 2, 3]);
    }

    /// An observer that logs every call so tee ordering is directly
    /// inspectable.
    #[derive(Default)]
    struct LogObserver {
        tag: &'static str,
        log: std::rc::Rc<std::cell::RefCell<Vec<(&'static str, u64)>>>,
        active: bool,
    }

    impl Observer for LogObserver {
        fn active(&self) -> bool {
            self.active
        }

        fn record(&mut self, time: u64, _machine: usize, _event: TraceEvent) {
            self.log.borrow_mut().push((self.tag, time));
        }
    }

    #[test]
    fn tee_delivers_first_then_second_per_event() {
        // Delivery order is a guarantee, not an accident: the primary sink
        // (`first`) sees each event before any secondary consumer, so a
        // teed monitor can never observe state the trace has not recorded.
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut tee = TeeObserver::new(
            LogObserver {
                tag: "first",
                log: std::rc::Rc::clone(&log),
                active: true,
            },
            LogObserver {
                tag: "second",
                log: std::rc::Rc::clone(&log),
                active: true,
            },
        );
        for t in 0..4 {
            tee.record(t, 0, sample(t));
        }
        let calls = log.borrow().clone();
        assert_eq!(
            calls,
            vec![
                ("first", 0),
                ("second", 0),
                ("first", 1),
                ("second", 1),
                ("first", 2),
                ("second", 2),
                ("first", 3),
                ("second", 3),
            ]
        );
    }

    #[test]
    fn tee_skips_inactive_halves() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut tee = TeeObserver::new(
            LogObserver {
                tag: "first",
                log: std::rc::Rc::clone(&log),
                active: false,
            },
            LogObserver {
                tag: "second",
                log: std::rc::Rc::clone(&log),
                active: true,
            },
        );
        assert!(tee.active(), "one active half keeps the tee active");
        tee.record(7, 1, sample(7));
        assert_eq!(log.borrow().clone(), vec![("second", 7)]);

        let mut dead = TeeObserver::new(NoopObserver, NoopObserver);
        assert!(!dead.active());
        dead.emit_with(1, 0, || panic!("inactive tee must not construct events"));
    }
}
