//! The committed campaign goldens under `tests/fixtures/` must match a
//! recomputation of every campaign cell. A mismatch names the first
//! differing cell and the fields that moved, not just a hash.
//!
//! The smoke-scale golden runs in tier-1. The quick-scale golden (120
//! ten-day cells) is `#[ignore]`d; run it in release:
//!
//! ```text
//! cargo test --release --test campaign_golden -- --ignored
//! ```
//!
//! After an *intentional* behaviour change, regenerate with
//! `cargo run --release --example regen_fixture` and commit the files with
//! the change.

#[path = "support/campaign_golden.rs"]
mod campaign_golden;

/// The `"key":value` fields of one golden line.
fn fields(line: &str) -> Vec<&str> {
    line.trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .collect()
}

/// Recompute golden number `which` of [`campaign_golden::goldens`] and
/// compare it with the committed file.
fn check(which: usize) {
    let (file, scale, cells) = campaign_golden::goldens()[which];
    let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("committed campaign golden");
    let committed: Vec<&str> = text.lines().collect();
    let fresh = campaign_golden::lines(scale);
    assert_eq!(committed.len(), cells, "{file} has {cells} cells");
    assert_eq!(
        fresh.len(),
        committed.len(),
        "cell count changed: {} recomputed vs {} committed",
        fresh.len(),
        committed.len()
    );
    for (old, new) in committed.iter().zip(&fresh) {
        if *old == new.as_str() {
            continue;
        }
        let (old_fields, new_fields) = (fields(old), fields(new));
        let cell = old_fields[..4].join(",");
        let diffs: Vec<String> = old_fields
            .iter()
            .zip(&new_fields)
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("committed {a}, recomputed {b}"))
            .collect();
        panic!("campaign cell {{{cell}}} differs: {}", diffs.join("; "));
    }
}

#[test]
fn campaign_cells_match_the_committed_golden() {
    check(0);
}

#[test]
#[ignore = "120 ten-day cells; run with --release -- --ignored"]
fn quick_campaign_cells_match_the_committed_golden() {
    check(1);
}
