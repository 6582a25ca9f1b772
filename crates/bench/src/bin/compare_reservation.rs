//! Protocol coscheduling versus advance co-reservation (the §III
//! comparator) on identical workloads.
//!
//! The paper argues co-reservation is unsuitable for coupled HEC systems
//! because fixed walltime-sized slots leave temporal fragmentation that
//! hurts regular jobs. This harness measures that argument: the same
//! paired workloads run through (a) the no-coordination baseline, (b) the
//! protocol coscheduler under YY and HH, and (c) the reservation-based
//! coupled scheduler from `cosched-resv`.
//!
//! Expected shape: both (b) and (c) synchronize all pairs; the reservation
//! scheduler pays a markedly higher regular-job waiting cost and loses far
//! more service units (entire walltime tails instead of hold windows).
use cosched_bench::{harness, Scale};
use cosched_core::SchemeCombo;
use cosched_metrics::table::{num, pct, Table};
use cosched_resv::ReservationSimulation;

fn main() -> Result<(), String> {
    let scale = Scale::from_env()?;
    eprintln!("running reservation comparison at {scale:?}…");

    let mut table = Table::new(
        format!(
            "Coscheduling vs advance co-reservation ({} days, {} seeds, Eureka util 0.50)",
            scale.days, scale.seeds
        ),
        &[
            "scheduler",
            "I wait (min)",
            "I slowdown",
            "E wait (min)",
            "E slowdown",
            "I loss rate",
            "E loss rate",
            "pairs sync'd",
        ],
    );

    // Accumulators: [intrepid wait, intrepid slow, eureka wait, eureka slow,
    // loss0, loss1], plus sync flag.
    let mut rows: Vec<(String, [f64; 6], bool)> = vec![
        ("baseline (no coordination)".into(), [0.0; 6], true),
        ("protocol cosched YY".into(), [0.0; 6], true),
        ("protocol cosched HH".into(), [0.0; 6], true),
        ("advance co-reservation".into(), [0.0; 6], true),
    ];

    for seed in 1..=scale.seeds {
        let traces = harness::anl_load_traces(seed, scale.days, 0.50);

        let add = |row: &mut (String, [f64; 6], bool),
                   s0: &cosched_metrics::MachineSummary,
                   s1: &cosched_metrics::MachineSummary,
                   sync: bool| {
            row.1[0] += s0.avg_wait_mins;
            row.1[1] += s0.avg_slowdown;
            row.1[2] += s1.avg_wait_mins;
            row.1[3] += s1.avg_slowdown;
            row.1[4] += s0.lost_util_rate;
            row.1[5] += s1.lost_util_rate;
            row.2 &= sync;
        };

        let r = harness::run_one(None, traces.clone());
        add(&mut rows[0], &r.summaries[0], &r.summaries[1], true);
        let r = harness::run_one(Some(SchemeCombo::YY), traces.clone());
        add(
            &mut rows[1],
            &r.summaries[0],
            &r.summaries[1],
            r.all_pairs_synchronized(),
        );
        let r = harness::run_one(Some(SchemeCombo::HH), traces.clone());
        add(
            &mut rows[2],
            &r.summaries[0],
            &r.summaries[1],
            r.all_pairs_synchronized(),
        );
        let r = ReservationSimulation::new(["Intrepid", "Eureka"], [40_960, 100], traces).run();
        add(
            &mut rows[3],
            &r.summaries[0],
            &r.summaries[1],
            r.all_pairs_synchronized(),
        );
    }

    let n = scale.seeds as f64;
    for (label, acc, sync) in rows {
        table.row(&[
            label.clone(),
            num(acc[0] / n, 1),
            num(acc[1] / n, 2),
            num(acc[2] / n, 1),
            num(acc[3] / n, 2),
            pct(acc[4] / n),
            pct(acc[5] / n),
            if label.starts_with("baseline") {
                "n/a".into()
            } else {
                sync.to_string()
            },
        ]);
    }
    print!("{table}");
    Ok(())
}
