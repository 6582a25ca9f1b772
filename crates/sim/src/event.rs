//! Deterministic event queue.
//!
//! Events are ordered by `(time, seq)` where `seq` is a monotonically
//! increasing insertion counter, so simultaneous events dispatch in FIFO
//! order. That makes simulations fully deterministic regardless of heap
//! internals.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event together with its dispatch time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
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

/// Priority queue of timestamped events with FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
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
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `time`. Events pushed for the same
    /// instant fire in push order.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let entry = self.heap.pop()?;
        Some(ScheduledEvent {
            time: entry.time,
            event: entry.event,
        })
    }

    /// The dispatch time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        assert_eq!(q.peek_time(), Some(t(10)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.peek_time(), None);
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
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        q.push(t(1), 1);
        q.push(t(2), 2);
        q.push(t(3), 3);
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
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
