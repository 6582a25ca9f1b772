//! Proptest stress test of the event queue under arbitrary interleavings
//! of push / pop.
//!
//! A reference model (`BTreeSet<(SimTime, seq)>` of pending events, `seq`
//! being the push counter carried in the payload) is driven in lockstep
//! with the real queue, and every observable — `pop` results, `len`,
//! `peek_time` — is cross-checked against it at each step. This pins the
//! invariants the simulation loop leans on:
//!
//! * every pop yields the earliest pending `(time, seq)` (FIFO within an
//!   instant), however pushes and pops interleave — and a full drain comes
//!   out in exact `(time, seq)` order;
//! * the counters (`len`, `is_empty`) and `peek_time` agree with the model
//!   at every step.

use std::collections::BTreeSet;

use cosched_sim::{EventQueue, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Push an event at this time (seconds).
    Push(u64),
    /// Pop the earliest pending event.
    Pop,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![(0u64..240).prop_map(Op::Push), Just(Op::Pop)],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn queue_matches_model_under_interleaved_push_pop(ops in ops()) {
        let mut q = EventQueue::new();
        let mut pending: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut pushed = 0u64;

        for op in &ops {
            match op {
                Op::Push(secs) => {
                    let t = SimTime::from_secs(*secs);
                    q.push(t, pushed);
                    pending.insert((t, pushed));
                    pushed += 1;
                }
                Op::Pop => {
                    let got = q.pop().map(|ev| (ev.time, ev.event));
                    let want = pending.pop_first();
                    prop_assert_eq!(got, want,
                        "pop must yield the earliest pending (time, seq)");
                }
            }
            prop_assert_eq!(q.len(), pending.len(), "len must track the model");
            prop_assert_eq!(q.is_empty(), pending.is_empty());
            prop_assert_eq!(
                q.peek_time(),
                pending.first().map(|&(t, _)| t),
                "peek_time must name the earliest pending time"
            );
        }

        // Drain: everything still pending must come out in exact model
        // order, and nothing else.
        let expected: Vec<(SimTime, u64)> = pending.into_iter().collect();
        let drained: Vec<(SimTime, u64)> =
            std::iter::from_fn(|| q.pop()).map(|ev| (ev.time, ev.event)).collect();
        prop_assert_eq!(drained, expected, "drain must equal the pending model exactly");
        prop_assert!(q.is_empty());
        prop_assert!(q.pop().is_none(), "drained queue must stay empty");
    }
}
