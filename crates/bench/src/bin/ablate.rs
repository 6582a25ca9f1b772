//! Ablations of the design choices DESIGN.md calls out:
//!
//! * release-period sweep (deadlock breaker granularity),
//! * maximum held-node fraction (hold → yield degradation),
//! * maximum yields before escalating to hold,
//! * scheduling policy (WFP vs FCFS) under coscheduling,
//! * backfilling on/off.
//!
//! Each ablation runs the HH (most sensitive) configuration on the standard
//! load-sweep workload at Eureka utilization 0.50.
use cosched_bench::{harness, Scale};
use cosched_core::{CoupledConfig, CoupledSimulation, SchemeCombo};
use cosched_metrics::table::{num, pct, Table};
use cosched_sched::PolicyKind;
use cosched_sim::SimDuration;

fn run_with(cfg: CoupledConfig, scale: Scale) -> (f64, f64, f64, f64, bool) {
    // Average over seeds: (intrepid wait, eureka wait, sync avg, loss rate I, sync_ok)
    let mut iw = 0.0;
    let mut ew = 0.0;
    let mut sync = 0.0;
    let mut loss = 0.0;
    let mut ok = true;
    for seed in 0..scale.seeds {
        let traces = harness::anl_load_traces(seed + 1, scale.days, 0.50);
        let r = CoupledSimulation::new(cfg.clone(), traces).run();
        iw += r.summaries[0].avg_wait_mins;
        ew += r.summaries[1].avg_wait_mins;
        sync += (r.summaries[0].avg_sync_mins + r.summaries[1].avg_sync_mins) / 2.0;
        loss += r.summaries[0].lost_util_rate;
        ok &= r.all_pairs_synchronized() && !r.deadlocked;
    }
    let n = scale.seeds as f64;
    (iw / n, ew / n, sync / n, loss / n, ok)
}

fn main() -> Result<(), String> {
    let scale = Scale::from_env()?;
    eprintln!("running ablations at {scale:?}…");

    let mut t = Table::new(
        "Ablation — release period (HH, Eureka util 0.50)",
        &[
            "release period",
            "I wait (min)",
            "E wait (min)",
            "avg sync (min)",
            "I loss rate",
            "ok",
        ],
    );
    for mins in [5u64, 10, 20, 40, 80] {
        let cfg = harness::anl_with(SchemeCombo::HH, |c| {
            c.release_period = Some(SimDuration::from_mins(mins));
        });
        let (iw, ew, sy, lo, ok) = run_with(cfg, scale);
        t.row(&[
            format!("{mins} min"),
            num(iw, 1),
            num(ew, 1),
            num(sy, 1),
            pct(lo),
            ok.to_string(),
        ]);
    }
    print!("{t}");

    let mut t = Table::new(
        "Ablation — max held-node fraction (HH)",
        &[
            "held cap",
            "I wait (min)",
            "E wait (min)",
            "avg sync (min)",
            "I loss rate",
            "ok",
        ],
    );
    for cap in [Some(0.1), Some(0.25), Some(0.5), None] {
        let cfg = harness::anl_with(SchemeCombo::HH, |c| c.max_held_fraction = cap);
        let (iw, ew, sy, lo, ok) = run_with(cfg, scale);
        let label = cap.map_or("off".to_string(), pct);
        t.row(&[
            label,
            num(iw, 1),
            num(ew, 1),
            num(sy, 1),
            pct(lo),
            ok.to_string(),
        ]);
    }
    print!("{t}");

    let mut t = Table::new(
        "Ablation — max yields before hold (YY)",
        &[
            "yield cap",
            "I wait (min)",
            "E wait (min)",
            "avg sync (min)",
            "I loss rate",
            "ok",
        ],
    );
    for cap in [Some(3u32), Some(10), Some(50), None] {
        let cfg = harness::anl_with(SchemeCombo::YY, |c| c.max_yields_before_hold = cap);
        let (iw, ew, sy, lo, ok) = run_with(cfg, scale);
        let label = cap.map_or("off".to_string(), |c| c.to_string());
        t.row(&[
            label,
            num(iw, 1),
            num(ew, 1),
            num(sy, 1),
            pct(lo),
            ok.to_string(),
        ]);
    }
    print!("{t}");

    let mut t = Table::new(
        "Ablation — queue policy under coscheduling (HH)",
        &[
            "policy",
            "I wait (min)",
            "E wait (min)",
            "avg sync (min)",
            "I loss rate",
            "ok",
        ],
    );
    for policy in [PolicyKind::Wfp, PolicyKind::Fcfs] {
        let mut cfg = CoupledConfig::anl(SchemeCombo::HH);
        cfg.machines[0].policy = policy;
        cfg.machines[1].policy = policy;
        let (iw, ew, sy, lo, ok) = run_with(cfg, scale);
        t.row(&[
            format!("{policy:?}"),
            num(iw, 1),
            num(ew, 1),
            num(sy, 1),
            pct(lo),
            ok.to_string(),
        ]);
    }
    print!("{t}");

    let mut t = Table::new(
        "Ablation — EASY backfilling (HH)",
        &[
            "backfill",
            "I wait (min)",
            "E wait (min)",
            "avg sync (min)",
            "I loss rate",
            "ok",
        ],
    );
    for bf in [true, false] {
        let mut cfg = CoupledConfig::anl(SchemeCombo::HH);
        cfg.machines[0].backfill = bf;
        cfg.machines[1].backfill = bf;
        let (iw, ew, sy, lo, ok) = run_with(cfg, scale);
        t.row(&[
            bf.to_string(),
            num(iw, 1),
            num(ew, 1),
            num(sy, 1),
            pct(lo),
            ok.to_string(),
        ]);
    }
    print!("{t}");
    Ok(())
}
