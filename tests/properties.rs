//! Property-based tests (proptest) on the core data structures and on the
//! coscheduling invariants themselves.

use coupled_cosched::cosched::{CoschedConfig, CoupledConfig, CoupledSimulation, SchemeCombo};
use coupled_cosched::prelude::*;
use coupled_cosched::sched::alloc::{BuddyAllocator, FlatAllocator};
use coupled_cosched::sched::NodeAllocator;
use coupled_cosched::sim::{EventQueue, SimDuration, SimRng, SimTime};
use coupled_cosched::workload::pairing;
use proptest::prelude::*;

// ---------------------------------------------------------------- allocators

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc(u64),
    Release(usize),
}

fn alloc_ops(max_size: u64) -> impl Strategy<Value = Vec<AllocOp>> {
    prop::collection::vec(
        prop_oneof![
            (1..=max_size).prop_map(AllocOp::Alloc),
            (0usize..64).prop_map(AllocOp::Release),
        ],
        1..200,
    )
}

fn exercise_allocator(a: &mut dyn NodeAllocator, ops: &[AllocOp]) {
    let capacity = a.capacity();
    let mut live = Vec::new();
    for op in ops {
        match op {
            AllocOp::Alloc(size) => {
                let fits = a.can_fit(*size);
                match a.alloc(*size) {
                    Some(h) => {
                        assert!(fits, "alloc succeeded where can_fit said no");
                        live.push(h);
                    }
                    None => assert!(!fits, "can_fit said yes but alloc failed"),
                }
            }
            AllocOp::Release(i) => {
                if !live.is_empty() {
                    let h = live.remove(i % live.len());
                    a.release(h);
                }
            }
        }
        assert!(a.free_nodes() <= capacity, "free exceeded capacity");
    }
    for h in live {
        a.release(h);
    }
    assert_eq!(
        a.free_nodes(),
        capacity,
        "releases must restore all capacity"
    );
}

proptest! {
    #[test]
    fn flat_allocator_never_leaks_or_double_books(ops in alloc_ops(100)) {
        let mut a = FlatAllocator::new(100);
        exercise_allocator(&mut a, &ops);
    }

    #[test]
    fn buddy_allocator_never_leaks_or_double_books(ops in alloc_ops(4096)) {
        let mut a = BuddyAllocator::new(4096, 512);
        exercise_allocator(&mut a, &ops);
        // Full coalescing: after everything is released the whole machine
        // is one block again.
        prop_assert_eq!(a.largest_fit(), 4096);
    }

    #[test]
    fn buddy_charges_at_least_request(size in 1u64..40_960) {
        let a = BuddyAllocator::new(40_960, 512);
        let charged = a.charged_nodes(size);
        prop_assert!(charged >= size);
        prop_assert_eq!(charged % 512, 0);
        // Charging is the next power-of-two unit count.
        let units = charged / 512;
        prop_assert!(units.is_power_of_two());
        prop_assert!(units / 2 < size.div_ceil(512).max(1));
    }
}

// --------------------------------------------------------------- event queue

proptest! {
    #[test]
    fn event_queue_is_a_stable_total_order(times in prop::collection::vec(0u64..1_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(ev.time >= lt, "time order violated");
                if ev.time == lt {
                    prop_assert!(ev.event > li, "FIFO tie-break violated");
                }
            }
            last = Some((ev.time, ev.event));
        }
    }
}

// ------------------------------------------------------------------- pairing

fn arb_trace(machine: usize, n: core::ops::Range<usize>) -> impl Strategy<Value = Trace> {
    (prop::collection::vec((0u64..86_400, 1u64..50, 60u64..7_200), n)).prop_map(move |jobs| {
        Trace::from_jobs(
            MachineId(machine),
            jobs.iter()
                .enumerate()
                .map(|(i, &(submit, size, runtime))| {
                    Job::new(
                        JobId(i as u64),
                        MachineId(machine),
                        SimTime::from_secs(submit),
                        size,
                        SimDuration::from_secs(runtime),
                        SimDuration::from_secs(runtime * 2),
                    )
                })
                .collect(),
        )
    })
}

proptest! {
    #[test]
    fn window_pairing_is_always_valid_and_within_window(
        a in arb_trace(0, 5..60),
        b in arb_trace(1, 5..60),
        window_mins in 1u64..30,
    ) {
        let mut a = a;
        let mut b = b;
        let window = SimDuration::from_mins(window_mins);
        let n = pairing::pair_by_window(&mut a, &mut b, window);
        prop_assert!(pairing::validate_pairing(&a, &b).is_ok());
        prop_assert_eq!(a.paired_count(), n);
        prop_assert_eq!(b.paired_count(), n);
        for j in a.jobs().iter().filter(|j| j.is_paired()) {
            let mate = b.get(j.mate.unwrap().job).unwrap();
            prop_assert!(j.submit.abs_diff(mate.submit) <= window);
        }
    }

    #[test]
    fn exact_proportion_pairing_is_valid_and_exact(
        a in arb_trace(0, 10..80),
        b in arb_trace(1, 10..80),
        prop_pct in 0u32..=100,
        seed in 0u64..1_000,
    ) {
        let mut a = a;
        let mut b = b;
        let proportion = prop_pct as f64 / 100.0;
        let mut rng = SimRng::seed_from_u64(seed);
        let n = pairing::pair_exact_proportion(
            &mut a, &mut b, proportion, SimDuration::from_mins(2), &mut rng,
        );
        prop_assert!(pairing::validate_pairing(&a, &b).is_ok());
        let expect = (proportion * a.len().min(b.len()) as f64).round() as usize;
        prop_assert_eq!(n, expect);
        prop_assert_eq!(a.paired_count(), expect);
    }

    #[test]
    fn interval_scaling_preserves_order_and_first_submit(
        a in arb_trace(0, 3..50),
        factor_pct in 10u64..500,
    ) {
        let mut t = a;
        let first = t.first_submit();
        t.scale_intervals(factor_pct as f64 / 100.0);
        prop_assert_eq!(t.first_submit(), first);
        prop_assert!(t.jobs().windows(2).all(|w| w[0].submit <= w[1].submit));
    }
}

// ------------------------------------------------- coscheduling invariants

fn small_coupled_config(combo: SchemeCombo) -> CoupledConfig {
    CoupledConfig {
        machines: [
            MachineConfig::flat("A", MachineId(0), 50),
            MachineConfig::flat("B", MachineId(1), 50),
        ],
        cosched: [
            CoschedConfig::paper(combo.of(0)),
            CoschedConfig::paper(combo.of(1)),
        ],
        max_events: 500_000,
    }
}

fn arb_combo() -> impl Strategy<Value = SchemeCombo> {
    prop::sample::select(SchemeCombo::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline invariant under arbitrary workloads: every pair starts
    /// simultaneously, utilization stays within [0,1], sync times are
    /// non-negative (by construction of SimDuration), and yield-only
    /// configurations lose no service units.
    #[test]
    fn coscheduling_invariants_hold_for_random_workloads(
        a in arb_trace(0, 4..40),
        b in arb_trace(1, 4..40),
        combo in arb_combo(),
        prop_pct in 0u32..=50,
        seed in 0u64..1_000,
    ) {
        let mut a = a;
        let mut b = b;
        let mut rng = SimRng::seed_from_u64(seed);
        pairing::pair_exact_proportion(
            &mut a, &mut b, prop_pct as f64 / 100.0, SimDuration::from_mins(2), &mut rng,
        );
        let expected_pairs = a.paired_count();
        let report = CoupledSimulation::new(small_coupled_config(combo), [a, b]).run();

        prop_assert!(!report.aborted);
        prop_assert!(!report.deadlocked, "deadlock with breaker on ({})", combo.label());
        prop_assert_eq!(report.unfinished, [0, 0]);
        prop_assert_eq!(report.pair_offsets.len(), expected_pairs);
        prop_assert!(
            report.all_pairs_synchronized(),
            "{}: max offset {}",
            combo.label(),
            report.max_pair_offset()
        );
        for s in &report.summaries {
            prop_assert!((0.0..=1.0).contains(&s.utilization), "utilization {}", s.utilization);
            prop_assert!(s.lost_util_rate >= 0.0 && s.lost_util_rate <= 1.0);
            prop_assert!(s.avg_sync_mins >= 0.0);
        }
        if combo == SchemeCombo::YY {
            prop_assert_eq!(report.summaries[0].lost_node_hours, 0.0);
            prop_assert_eq!(report.summaries[1].lost_node_hours, 0.0);
        }
    }

    /// Job conservation: every submitted job finishes exactly once, with
    /// start ≥ submit and end = start + runtime.
    #[test]
    fn job_conservation_and_timing_sanity(
        a in arb_trace(0, 4..40),
        b in arb_trace(1, 4..40),
        combo in arb_combo(),
    ) {
        let (na, nb) = (a.len(), b.len());
        let jobs_a: std::collections::HashMap<_, _> =
            a.jobs().iter().map(|j| (j.id, j.clone())).collect();
        let report = CoupledSimulation::new(small_coupled_config(combo), [a, b]).run();
        prop_assert_eq!(report.records[0].len(), na);
        prop_assert_eq!(report.records[1].len(), nb);
        for r in &report.records[0] {
            let j = &jobs_a[&r.id];
            prop_assert!(r.start >= j.submit);
            prop_assert_eq!(r.end, r.start + j.runtime);
            prop_assert_eq!(r.size, j.size);
        }
    }
}

// ------------------------------------------------------------ protocol fuzz

proptest! {
    /// The frame decoder must never panic on arbitrary byte streams,
    /// arbitrarily chunked — it either yields messages, waits for more, or
    /// reports a structured error.
    #[test]
    fn frame_decoder_never_panics_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..64,
    ) {
        use coupled_cosched::proto::frame::FrameDecoder;
        let mut dec = FrameDecoder::new();
        for piece in bytes.chunks(chunk) {
            dec.extend(piece);
            // Drain until it wants more bytes or errors; both are fine.
            loop {
                match dec.next::<coupled_cosched::proto::Request>() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => return Ok(()), // poisoned stream: connection would drop
                }
            }
        }
    }

    /// Encoding then decoding any request/response through arbitrary
    /// chunking is the identity.
    #[test]
    fn frame_roundtrip_survives_chunking(job_id in any::<u64>(), chunk in 1usize..16) {
        use coupled_cosched::proto::frame::{encode, FrameDecoder};
        use coupled_cosched::proto::Request;
        let req = Request::GetMateStatus { job: JobId(job_id) };
        let wire = encode(&req);
        let mut dec = FrameDecoder::new();
        let mut got = None;
        for piece in wire.chunks(chunk) {
            dec.extend(piece);
            if let Some(msg) = dec.next::<Request>().unwrap() {
                got = Some(msg);
            }
        }
        prop_assert_eq!(got, Some(req));
    }

    /// Reservation capacity profiles never overbook and account exactly.
    #[test]
    fn capacity_profile_accounting(
        bookings in prop::collection::vec((0u64..5_000, 1u64..2_000, 1u64..100), 1..60),
    ) {
        use coupled_cosched::resv::CapacityProfile;
        let mut p = CapacityProfile::new(100);
        let mut expected = 0u64;
        for (after, dur, nodes) in bookings {
            let start = p
                .earliest_fit(SimTime::from_secs(after), SimDuration::from_secs(dur), nodes)
                .expect("nodes ≤ capacity always placeable");
            prop_assert!(p.fits(start, SimDuration::from_secs(dur), nodes));
            p.reserve(start, SimDuration::from_secs(dur), nodes);
            expected += nodes * dur;
            prop_assert!(start >= SimTime::from_secs(after));
        }
        prop_assert_eq!(p.committed_node_seconds(), expected);
    }
}
