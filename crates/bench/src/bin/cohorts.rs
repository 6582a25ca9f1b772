//! Cohort analysis: who pays for coscheduling?
//!
//! The paper attributes the hold scheme's overall-average degradation to
//! *regular* jobs ("when the nodes are held by a job, they cannot be used
//! by other jobs … other regular jobs will suffer more waiting time",
//! §V-D). This harness splits each machine's records into paired and
//! regular cohorts and size classes under every scheme combination.
use cosched_bench::{harness, Scale};
use cosched_core::SchemeCombo;
use cosched_metrics::table::{num, Table};
use cosched_metrics::CohortBreakdown;

fn main() -> Result<(), String> {
    let scale = Scale::from_env()?;
    eprintln!("running cohort analysis at {scale:?}…");

    for (m, name, capacity) in [(0usize, "Intrepid", 40_960u64), (1, "Eureka", 100)] {
        let mut t = Table::new(
            format!("{name} cohorts (Eureka util 0.50, pair share 7.5 %)"),
            &[
                "combo",
                "paired n",
                "paired wait (min)",
                "regular n",
                "regular wait (min)",
                "regular − paired",
                "narrow wait",
                "medium wait",
                "wide wait",
            ],
        );
        for combo in [
            None,
            Some(SchemeCombo::HH),
            Some(SchemeCombo::HY),
            Some(SchemeCombo::YH),
            Some(SchemeCombo::YY),
        ] {
            // Average the cohort stats across seeds.
            let mut acc = [0.0f64; 6];
            let mut counts = [0usize; 2];
            for seed in 1..=scale.seeds {
                let traces = harness::anl_load_traces(seed, scale.days, 0.50);
                let report = harness::run_one(combo, traces);
                let b = CohortBreakdown::of(&report.records[m], capacity);
                counts[0] += b.paired.count;
                counts[1] += b.regular.count;
                acc[0] += b.paired.avg_wait_mins;
                acc[1] += b.regular.avg_wait_mins;
                acc[2] += b.regular_penalty_mins();
                for (i, c) in b.size_classes.iter().enumerate() {
                    acc[3 + i] += c.stats.avg_wait_mins;
                }
            }
            let n = scale.seeds as f64;
            t.row(&[
                combo.map_or("baseline".into(), |c| c.label()),
                (counts[0] / scale.seeds as usize).to_string(),
                num(acc[0] / n, 1),
                (counts[1] / scale.seeds as usize).to_string(),
                num(acc[1] / n, 1),
                num(acc[2] / n, 1),
                num(acc[3] / n, 1),
                num(acc[4] / n, 1),
                num(acc[5] / n, 1),
            ]);
        }
        print!("{t}");
        println!();
    }
    Ok(())
}
