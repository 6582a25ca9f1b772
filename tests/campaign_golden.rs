//! The committed campaign golden `tests/fixtures/campaign_smoke.jsonl` must
//! match a recomputation of every smoke-scale campaign cell. A mismatch
//! names the first differing cell and the fields that moved, not just a
//! hash.
//!
//! After an *intentional* behaviour change, regenerate with
//! `cargo run --example regen_fixture` and commit the file with the change.

#[path = "support/campaign_golden.rs"]
mod campaign_golden;

/// The `"key":value` fields of one golden line.
fn fields(line: &str) -> Vec<&str> {
    line.trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .collect()
}

#[test]
fn campaign_cells_match_the_committed_golden() {
    let path = format!(
        "{}/tests/fixtures/{}",
        env!("CARGO_MANIFEST_DIR"),
        campaign_golden::FILE
    );
    let text = std::fs::read_to_string(&path).expect("committed campaign golden");
    let committed: Vec<&str> = text.lines().collect();
    let fresh = campaign_golden::lines();
    assert_eq!(committed.len(), 40, "smoke scale has 40 cells");
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
