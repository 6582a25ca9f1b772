//! Regenerate the golden fixtures under `tests/fixtures/`: the trace
//! fixtures `hy_seed13.jsonl` and `hh_sweep.jsonl`, and the campaign goldens
//! `campaign_smoke.jsonl` and `campaign_quick.jsonl`.
//!
//! Run after an *intentional* trace-schema or behaviour change:
//!
//! ```text
//! cargo run --release --example regen_fixture
//! ```
//!
//! The trace runs are defined once in `tests/support/golden.rs`, which
//! `tests/trace_analysis.rs` also uses to assert that the committed files
//! match a regenerated run byte for byte. The campaign lines come from
//! `tests/support/campaign_golden.rs`, which `tests/campaign_golden.rs`
//! checks the same way.

use coupled_cosched::obs::write_trace_string;

#[path = "../tests/support/golden.rs"]
mod golden;

#[path = "../tests/support/campaign_golden.rs"]
mod campaign_golden;

fn main() {
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    for (name, records) in golden::fixtures() {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, write_trace_string(&records)).expect("write fixture");
        println!("wrote {} records to {path}", records.len());
    }
    for (file, scale, _) in campaign_golden::goldens() {
        let lines = campaign_golden::lines(scale);
        let path = format!("{dir}/{file}");
        std::fs::write(&path, lines.join("\n") + "\n").expect("write campaign golden");
        println!("wrote {} campaign cells to {path}", lines.len());
    }
}
