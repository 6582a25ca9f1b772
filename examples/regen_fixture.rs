//! Regenerate the golden trace fixtures under `tests/fixtures/`:
//! `hy_seed13.jsonl` and `hh_sweep.jsonl`.
//!
//! Run after an *intentional* trace-schema change:
//!
//! ```text
//! cargo run --example regen_fixture
//! ```
//!
//! The runs are defined once in `tests/support/golden.rs`, which
//! `tests/trace_analysis.rs` also uses to assert that the committed files
//! match a regenerated run byte for byte.

use coupled_cosched::obs::write_trace_string;

#[path = "../tests/support/golden.rs"]
mod golden;

fn main() {
    for (name, records) in golden::fixtures() {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, write_trace_string(&records)).expect("write fixture");
        println!("wrote {} records to {path}", records.len());
    }
}
