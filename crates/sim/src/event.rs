//! Cancellable, deterministic event queue.
//!
//! Events are ordered by `(time, seq)` where `seq` is a monotonically
//! increasing insertion counter, so simultaneous events dispatch in FIFO
//! order. That makes simulations fully deterministic regardless of heap
//! internals. Cancellation is lazy: [`EventQueue::cancel`] records a
//! tombstone for the event's sequence number and [`EventQueue::pop`]
//! silently discards tombstoned entries. Lazy deletion is the standard DES
//! technique for timers that are usually rescheduled. Only cancelled events
//! are recorded, so a run that cancels nothing (every coupled simulation)
//! pushes, pops and peeks without touching the tombstone set.

use crate::idhash::IdHashSet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Opaque handle identifying a scheduled event, usable to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// The underlying sequence number (stable, deterministic; used as the
    /// event identity in traces).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// An event together with its dispatch time and identity.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The handle returned by [`EventQueue::push`].
    pub id: EventId,
    /// The payload.
    pub event: E,
}

struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    /// Reversed so the `BinaryHeap` max-heap yields the *earliest* entry.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority queue of timestamped events with FIFO tie-breaking and lazy
/// cancellation.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    /// Sequence numbers of cancelled events still in the heap. Every other
    /// heap entry is pending.
    tombstones: IdHashSet<u64>,
    next_seq: u64,
    high_water: usize,
    cancelled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            tombstones: IdHashSet::default(),
            next_seq: 0,
            high_water: 0,
            cancelled: 0,
        }
    }

    /// Schedule `event` to fire at `time`. Returns a handle that can be used
    /// to cancel it. Events pushed for the same instant fire in push order.
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
        self.high_water = self.high_water.max(self.len());
        EventId(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. not yet popped or cancelled). Cancelling an
    /// already-fired or already-cancelled event is a harmless no-op.
    ///
    /// Scans the heap to tell a pending event from a fired one, so it costs
    /// O(n); the simulators' hot paths never cancel.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let seq = id.0;
        let pending =
            !self.tombstones.contains(&seq) && self.heap.iter().any(|entry| entry.seq == seq);
        if pending {
            self.tombstones.insert(seq);
            self.cancelled += 1;
        }
        pending
    }

    /// Whether the heap entry `seq` was cancelled; drops its tombstone, as
    /// the caller is discarding the entry.
    fn discard_cancelled(&mut self, seq: u64) -> bool {
        !self.tombstones.is_empty() && self.tombstones.remove(&seq)
    }

    /// Remove and return the earliest pending event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        while let Some(entry) = self.heap.pop() {
            if self.discard_cancelled(entry.seq) {
                continue;
            }
            return Some(ScheduledEvent {
                time: entry.time,
                id: EventId(entry.seq),
                event: entry.event,
            });
        }
        None
    }

    /// The dispatch time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Purge cancelled entries off the top so the answer is accurate.
        while let Some(entry) = self.heap.peek() {
            let (time, seq) = (entry.time, entry.seq);
            if !self.discard_cancelled(seq) {
                return Some(time);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.tombstones.len()
    }

    /// True if no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest number of events ever simultaneously pending (throughput /
    /// memory diagnostics; surfaced in `SimulationReport`).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total events cancelled over the queue's lifetime.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().event, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelling_a_fired_event_is_rejected() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        assert_eq!(q.pop().unwrap().id, a);
        assert!(!q.cancel(a), "already fired");
        assert_eq!((q.len(), q.cancelled()), (1, 0));
        assert_eq!(q.pop().unwrap().event, "b");
        assert!(!q.cancel(a));
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_entries_leave_no_tombstone_once_discarded() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        let b = q.push(t(2), 2);
        q.push(t(3), 3);
        assert!(q.cancel(a));
        assert!(q.cancel(b));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(3)), "peek purges both tombstones");
        assert!(q.tombstones.is_empty());
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(b), "already cancelled and discarded");
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!((q.len(), q.cancelled(), q.high_water()), (0, 2, 3));
    }

    #[test]
    fn cancel_unknown_id_is_rejected() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(9)));
        assert_eq!(q.pop().unwrap().event, "b");
    }

    #[test]
    fn len_tracks_pushes_pops_and_cancels() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        q.push(t(2), 2);
        q.push(t(3), 3);
        assert_eq!(q.len(), 3);
        q.cancel(a);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn high_water_and_cancel_counters_track_lifetime() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        q.push(t(2), 2);
        q.push(t(3), 3);
        assert_eq!(q.high_water(), 3);
        q.cancel(a);
        q.cancel(a); // double cancel must not double count
        assert_eq!(q.cancelled(), 1);
        q.push(t(5), 5);
        assert_eq!(
            q.high_water(),
            3,
            "a cancelled entry in the heap is not pending"
        );
        q.pop();
        q.pop();
        // Draining does not lower the high-water mark.
        assert_eq!(q.high_water(), 3);
        q.push(t(4), 4);
        assert_eq!(q.high_water(), 3, "never exceeded 3 pending");
    }

    #[test]
    fn interleaved_push_pop_preserves_global_order() {
        let mut q = EventQueue::new();
        q.push(t(10), 10);
        q.push(t(5), 5);
        assert_eq!(q.pop().unwrap().event, 5);
        q.push(t(7), 7);
        q.push(t(6), 6);
        assert_eq!(q.pop().unwrap().event, 6);
        assert_eq!(q.pop().unwrap().event, 7);
        assert_eq!(q.pop().unwrap().event, 10);
    }
}
