//! Benchmark of the coupled coscheduler: two workloads, end-to-end metrics
//! measured with tracing off, and a traced run that times every layer from
//! outside the program. `BENCHMARK.json` at the repository root defines the
//! contract; `README.md` beside this crate explains the workloads and the
//! metrics.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload load-sweep --seed 1 --seconds 40 --trace 0
//! ```

mod analyze;
mod inputs;
mod live;
mod reference;
mod report;
mod sim;
mod timing;

use analyze::ObsLayers;
use cosched_workload::Trace;
use inputs::WorkloadLayer;
use live::LiveLayers;
use report::{run_for, Report, END_TO_END, PER_LAYER};
use sim::Sweep;
use std::time::Duration;
use timing::SimLayers;

const USAGE: &str =
    "usage: cosched-perfbench --workload <load-sweep|pair-heavy> --seed <n> --seconds <s> --trace <0|1>";

/// The workload a `--workload` name selects.
fn parse_workload(name: &str) -> Option<Sweep> {
    match name {
        "load-sweep" => Some(Sweep::Load),
        "pair-heavy" => Some(Sweep::PairHeavy),
        _ => None,
    }
}

/// The traced run: per-layer metrics. The workload's cells are timed layer
/// by layer until the budget is spent. The layers no simulation cell runs,
/// `obs`, `trace`, `core::live` and `proto`, are then probed once on the
/// first trace set, so every per-layer metric is measured on this
/// workload's inputs.
fn layers(sweep: Sweep, seed: u64, budget: Duration) -> Report {
    let mut inputs = WorkloadLayer::default();
    let sets: Vec<[Trace; 2]> = sweep
        .trace_cells(seed)
        .iter()
        .map(|cell| inputs.build(cell))
        .collect();
    let (mut sim, mut obs, mut live) = (
        SimLayers::default(),
        ObsLayers::default(),
        LiveLayers::default(),
    );
    let passes = run_for(budget, 1, || {
        for traces in &sets {
            for combo in sim::COMBOS {
                sim.cell(&sim::config(combo), traces);
            }
        }
    });
    let probe = &sets[0];
    obs.cell(probe);
    live.cell(probe);
    let mut out = Report::default();
    out.notes.push(format!(
        "{} trace sets; {passes} timed passes; obs, trace, core::live and proto probed once on the first trace set (HY)",
        sets.len()
    ));
    inputs.emit(&mut out);
    sim.emit(&mut out);
    obs.emit(&mut out);
    live.emit(&mut out);
    live::pings(&mut out, probe);
    out.set("bench.trace_overhead_frac", sim.overhead());
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |value: &str| {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = number(&value)?,
            "--seconds" => parsed.seconds = number(&value)?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e));
    let sweep = parse_workload(&args.workload)
        .unwrap_or_else(|| usage_error(&format!("unknown workload {:?}", args.workload)));
    let budget = Duration::from_secs(args.seconds);
    let header = format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        layers(sweep, args.seed, budget).print(&header, PER_LAYER);
    } else {
        sim::run(sweep, args.seed, budget).print(&header, END_TO_END);
    }
}
