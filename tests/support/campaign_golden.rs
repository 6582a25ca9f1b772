//! The campaign goldens: one line per campaign cell, committed as
//! `tests/fixtures/campaign_smoke.jsonl` (smoke scale, 40 cells) and
//! `tests/fixtures/campaign_quick.jsonl` (quick scale, 120 ten-day cells).
//! Shared by `examples/regen_fixture.rs`, which writes them, and
//! `tests/campaign_golden.rs`, which recomputes them and names the first
//! differing cell and the fields that moved.
//!
//! Each line identifies its cell (sweep, grid point, combo, seed) and
//! carries an FNV-1a 64 digest of the cell's `SeedOutcome` JSON, an FNV-1a
//! 64 digest of the whole `SimulationReport` `Debug` text (records,
//! scheduler counters and metrics included), the report's `events` and
//! `queue_high_water`, and the headline numbers a failing diff should name
//! directly: mean wait, synchronization time and lost node-hours per
//! machine, `sync_ok` and `deadlocked`. Values never contain a comma, so a
//! line splits into its fields on `,`.

use cosched_bench::campaign::{sweep_cells, SweepKind};
use cosched_bench::harness::{run_seed_with_report, Scale};
use std::fmt::Write;

/// The committed goldens: file name under `tests/fixtures/`, scale and
/// cell count.
pub fn goldens() -> [(&'static str, Scale, usize); 2] {
    [
        ("campaign_smoke.jsonl", Scale::smoke(), 40),
        ("campaign_quick.jsonl", Scale::quick(), 120),
    ]
}

/// FNV-1a, 64-bit, fed through `fmt::Write` so a `Debug` rendering is
/// digested without materialising the text.
struct Fnv1a64(u64);

impl Fnv1a64 {
    fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a 64 of `value`'s `Debug` text.
fn debug_fnv(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv1a64::new();
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// Every cell of both sweeps at `scale`, one JSON line each, in
/// submission order.
pub fn lines(scale: Scale) -> Vec<String> {
    [SweepKind::Load, SweepKind::Proportion]
        .into_iter()
        .flat_map(|kind| sweep_cells(kind, scale))
        .map(|cell| {
            let (outcome, report) = run_seed_with_report(cell.combo, cell.traces());
            let json = serde_json::to_string(&outcome).expect("outcome serializes");
            let mut outcome_fnv = Fnv1a64::new();
            outcome_fnv.write_str(&json).expect("hashing never fails");
            let combo = cell.combo.map_or("baseline".to_string(), |c| c.label());
            let mut line = format!(
                "{{\"sweep\":\"{}\",\"x\":{:?},\"combo\":\"{combo}\",\"seed\":{},\
                 \"outcome_fnv\":\"{:016x}\",\"report_fnv\":\"{:016x}\",\
                 \"events\":{},\"queue_high_water\":{}",
                cell.kind.label(),
                cell.x,
                cell.seed,
                outcome_fnv.0,
                debug_fnv(&report),
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
