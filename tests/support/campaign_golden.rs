//! The campaign golden: one line per smoke-scale campaign cell, committed as
//! `tests/fixtures/campaign_smoke.jsonl`. Shared by
//! `examples/regen_fixture.rs`, which writes it, and
//! `tests/campaign_golden.rs`, which recomputes it and names the first
//! differing cell and the fields that moved.
//!
//! Each line identifies its cell (sweep, grid point, combo, seed) and
//! carries an FNV-1a 64 digest of the cell's `SeedOutcome` JSON, the
//! report's `events` and `queue_high_water`, and the headline numbers a
//! failing diff should name directly: mean wait, synchronization time and
//! lost node-hours per machine, `sync_ok` and `deadlocked`. Values never
//! contain a comma, so a line splits into its fields on `,`.

use cosched_bench::campaign::{sweep_cells, SweepKind};
use cosched_bench::harness::{run_seed_with_report, Scale};

/// File name under `tests/fixtures/`.
pub const FILE: &str = "campaign_smoke.jsonl";

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every smoke-scale cell of both sweeps, one JSON line each, in
/// submission order.
pub fn lines() -> Vec<String> {
    [SweepKind::Load, SweepKind::Proportion]
        .into_iter()
        .flat_map(|kind| sweep_cells(kind, Scale::smoke()))
        .map(|cell| {
            let (outcome, report) = run_seed_with_report(cell.combo, cell.traces());
            let json = serde_json::to_string(&outcome).expect("outcome serializes");
            let combo = cell.combo.map_or("baseline".to_string(), |c| c.label());
            let mut line = format!(
                "{{\"sweep\":\"{}\",\"x\":{:?},\"combo\":\"{combo}\",\"seed\":{},\
                 \"outcome_fnv\":\"{:016x}\",\"events\":{},\"queue_high_water\":{}",
                cell.kind.label(),
                cell.x,
                cell.seed,
                fnv1a64(json.as_bytes()),
                report.events,
                report.queue_high_water,
            );
            for s in [&outcome.intrepid, &outcome.eureka] {
                let m = s.machine.to_lowercase();
                line += &format!(
                    ",\"{m}_avg_wait_mins\":{:?},\"{m}_avg_sync_mins\":{:?},\
                     \"{m}_lost_node_hours\":{:?}",
                    s.avg_wait_mins, s.avg_sync_mins, s.lost_node_hours,
                );
            }
            line += &format!(
                ",\"sync_ok\":{},\"deadlocked\":{}}}",
                outcome.sync_ok, outcome.deadlocked
            );
            line
        })
        .collect()
}
