//! Tier-1 determinism invariant of the campaign runner, the one path every
//! sweep takes: a sweep fanned out over 4 workers produces results
//! **byte-identical** to the 1-thread (serial) run — same `CaseResult`s,
//! same serialized JSON. Each cell owns its RNG seed and simulation state,
//! and the campaign folds outcomes in submission order, so this must stay
//! exactly true; any divergence means shared state or a
//! float-accumulation-order change leaked in.

use cosched_bench::harness::{Scale, SweepPoint};
use cosched_bench::{sweep, SweepKind};

fn tiny() -> Scale {
    Scale { days: 2, seeds: 2 }
}

fn to_json(points: &[SweepPoint]) -> String {
    serde_json::to_string(&points).expect("sweep points serialize")
}

/// The 1-thread and 4-thread runs of `kind` agree structurally and, pinned
/// separately in case the representation changes, byte for byte.
fn assert_thread_count_invariant(kind: SweepKind) {
    let serial = sweep(kind, tiny(), 1);
    let four = sweep(kind, tiny(), 4);
    assert_eq!(serial, four, "4-thread {} sweep == 1-thread", kind.label());
    assert_eq!(to_json(&serial), to_json(&four));
}

#[test]
fn parallel_load_sweep_is_byte_identical_to_serial() {
    assert_thread_count_invariant(SweepKind::Load);
}

#[test]
fn parallel_prop_sweep_is_byte_identical_to_serial() {
    assert_thread_count_invariant(SweepKind::Proportion);
}
