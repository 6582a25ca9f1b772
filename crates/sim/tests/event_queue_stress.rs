//! Proptest stress test of the cancellable event queue under arbitrary
//! interleavings of push / cancel / pop.
//!
//! A reference model (`BTreeSet<(SimTime, seq)>` of pending events) is
//! driven in lockstep with the real queue, and every observable —
//! `pop` results, `cancel` return values, `len`, `peek_time` — is
//! cross-checked against it at each step. This pins the three invariants
//! the simulation engine leans on:
//!
//! * every pop yields the earliest pending `(time, EventId)` (FIFO within
//!   an instant), regardless of how pushes, cancels and pops interleave —
//!   and a full drain comes out in exact `(time, EventId)` order;
//! * a cancelled event never surfaces from `pop` or `peek_time`, even
//!   when it was lazily left inside the heap;
//! * counters (`len`, `cancelled`) agree with the model at every step.

use std::collections::BTreeSet;

use cosched_sim::{EventQueue, IdHashMap, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Push an event at this time (seconds).
    Push(u64),
    /// Cancel the k-th id handed out so far (may already be popped or
    /// cancelled — must then be a no-op that reports `false`).
    Cancel(usize),
    /// Pop the earliest pending event.
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..240).prop_map(Op::Push),
            (0usize..512).prop_map(Op::Cancel),
            Just(Op::Pop),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn queue_matches_model_under_interleaved_push_cancel_pop(ops in ops()) {
        let mut q = EventQueue::new();
        // Model: pending events as (time, raw id); `issued` maps every id
        // ever returned by push to its time, popped or not.
        let mut pending: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut issued: Vec<(u64, SimTime)> = Vec::new();
        let mut times: IdHashMap<u64, SimTime> = IdHashMap::default();
        let mut ids = Vec::new();
        let mut model_cancelled = 0u64;

        for op in &ops {
            match op {
                Op::Push(secs) => {
                    let t = SimTime::from_secs(*secs);
                    let id = q.push(t, *secs);
                    prop_assert!(
                        !times.contains_key(&id.raw()),
                        "push must hand out fresh ids"
                    );
                    pending.insert((t, id.raw()));
                    issued.push((id.raw(), t));
                    times.insert(id.raw(), t);
                    ids.push(id);
                }
                Op::Cancel(k) => {
                    if ids.is_empty() {
                        continue;
                    }
                    let id = ids[k % ids.len()];
                    let t = times[&id.raw()];
                    let was_pending = pending.remove(&(t, id.raw()));
                    if was_pending {
                        model_cancelled += 1;
                    }
                    prop_assert_eq!(
                        q.cancel(id),
                        was_pending,
                        "cancel must report whether the event was still pending"
                    );
                }
                Op::Pop => {
                    let expect = pending.iter().next().copied();
                    match (q.pop(), expect) {
                        (None, None) => {}
                        (Some(ev), Some((t, raw))) => {
                            prop_assert_eq!((ev.time, ev.id.raw()), (t, raw),
                                "pop must yield the earliest pending (time, id)");
                            prop_assert_eq!(ev.event, t.as_secs(),
                                "payload must travel with its event");
                            pending.remove(&(t, raw));
                        }
                        (got, want) => {
                            return Err(TestCaseError::fail(format!(
                                "pop mismatch: queue {:?}, model {:?}",
                                got.map(|e| (e.time, e.id.raw())),
                                want
                            )));
                        }
                    }
                }
            }
            prop_assert_eq!(q.len(), pending.len(), "len must track the model");
            prop_assert_eq!(q.is_empty(), pending.is_empty());
            prop_assert_eq!(q.cancelled(), model_cancelled);
            prop_assert_eq!(
                q.peek_time(),
                pending.iter().next().map(|&(t, _)| t),
                "peek_time must see through lazily cancelled entries"
            );
        }

        // Drain: everything still pending must come out in exact model
        // order, and nothing else (no cancelled event resurfaces).
        let expected: Vec<(SimTime, u64)> = pending.iter().copied().collect();
        let mut drained = Vec::new();
        while let Some(ev) = q.pop() {
            drained.push((ev.time, ev.id.raw()));
        }
        prop_assert_eq!(drained, expected, "drain must equal the pending model exactly");
        prop_assert!(q.is_empty());
        prop_assert!(q.pop().is_none(), "drained queue must stay empty");

        // The ids handed out are the contiguous sequence 0..pushes, so the
        // (time, EventId) pop order is exactly push order within an instant.
        for (i, &(raw, _)) in issued.iter().enumerate() {
            prop_assert_eq!(raw, i as u64);
        }
    }
}
