//! The paper's evaluation as tables: builders that turn sweep points into
//! the rows each figure plots, the title of every figure, and [`report`],
//! which prints Figs. 3–10, the §V-B validation and the deadlock
//! demonstration from one run of the campaign cells (`cosched figures`).

use crate::campaign::{sweep, SweepKind};
use crate::harness::{anl_load_traces, anl_with, CaseResult, Scale, SweepPoint};
use cosched_core::{CoupledConfig, CoupledSimulation, SchemeCombo, SimulationReport};
use cosched_metrics::table::{num, pct, Table};
use cosched_metrics::MachineSummary;
use cosched_workload::Trace;

/// One sweep grid point as consumed by the table builders: the case label
/// (utilization or proportion), the baseline result, and the per-combination
/// results with their labels.
pub type CasePoint<'a> = (String, &'a CaseResult, Vec<(String, &'a CaseResult)>);

fn machine_of(case: &CaseResult, m: usize) -> &MachineSummary {
    if m == 0 {
        &case.intrepid
    } else {
        &case.eureka
    }
}

/// Fig. 3 / Fig. 7: average waiting time (minutes) with baseline and
/// difference, one table per machine.
pub fn fig_wait(points: &[CasePoint<'_>], m: usize, title: &str) -> Table {
    let mut t = Table::new(
        title,
        &["case", "combo", "cosched (min)", "base (min)", "diff (min)"],
    );
    for (label, base, combos) in points {
        for (combo, case) in combos {
            let c = machine_of(case, m).avg_wait_mins;
            let b = machine_of(base, m).avg_wait_mins;
            t.row(&[
                label.clone(),
                combo.clone(),
                num(c, 1),
                num(b, 1),
                num(c - b, 1),
            ]);
        }
    }
    t
}

/// Fig. 4 / Fig. 8: average slowdown with baseline and difference.
pub fn fig_slowdown(points: &[CasePoint<'_>], m: usize, title: &str) -> Table {
    let mut t = Table::new(title, &["case", "combo", "cosched", "base", "diff"]);
    for (label, base, combos) in points {
        for (combo, case) in combos {
            let c = machine_of(case, m).avg_slowdown;
            let b = machine_of(base, m).avg_slowdown;
            t.row(&[
                label.clone(),
                combo.clone(),
                num(c, 2),
                num(b, 2),
                num(c - b, 2),
            ]);
        }
    }
    t
}

/// Fig. 5 / Fig. 9: average paired-job synchronization time (minutes),
/// grouped by case / remote scheme, local hold vs local yield.
///
/// For machine `m`, the remote scheme is the other machine's letter; the
/// local scheme letter selects the bar within the group.
pub fn fig_sync(points: &[CasePoint<'_>], m: usize, title: &str) -> Table {
    let mut t = Table::new(
        title,
        &[
            "case / remote scheme",
            "local hold (min)",
            "local yield (min)",
        ],
    );
    for (label, _base, combos) in points {
        for remote in ["H", "Y"] {
            let mut hold = None;
            let mut yielded = None;
            for (combo, case) in combos {
                let local = &combo[m..=m];
                let rem = &combo[1 - m..=1 - m];
                if rem != remote {
                    continue;
                }
                let v = machine_of(case, m).avg_sync_mins;
                match local {
                    "H" => hold = Some(v),
                    _ => yielded = Some(v),
                }
            }
            t.row(&[
                format!("{label}/{remote}"),
                hold.map_or("-".into(), |v| num(v, 1)),
                yielded.map_or("-".into(), |v| num(v, 1)),
            ]);
        }
    }
    t
}

/// Fig. 6 / Fig. 10: service-unit loss (node-hours and lost utilization
/// rate) for cases where the local machine uses hold.
pub fn fig_loss(points: &[CasePoint<'_>], m: usize, title: &str) -> Table {
    let mut t = Table::new(
        title,
        &["case / remote scheme", "node-hours lost", "lost util rate"],
    );
    for (label, _base, combos) in points {
        for remote in ["H", "Y"] {
            for (combo, case) in combos {
                let local = &combo[m..=m];
                let rem = &combo[1 - m..=1 - m];
                if local != "H" || rem != remote {
                    continue;
                }
                let s = machine_of(case, m);
                t.row(&[
                    format!("{label}/{remote}"),
                    num(s.lost_node_hours, 0),
                    pct(s.lost_util_rate),
                ]);
            }
        }
    }
    t
}

/// Adapt a sweep's points into the generic point shape used by the
/// builders, labelling each case the way `kind` prints its grid.
pub fn case_points(kind: SweepKind, points: &[SweepPoint]) -> Vec<CasePoint<'_>> {
    points
        .iter()
        .map(|(x, base, combos)| {
            (
                kind.case_label(*x),
                base,
                combos.iter().map(|(c, r)| (c.label(), r)).collect(),
            )
        })
        .collect()
}

/// Capability-validation table (§V-B): per case, whether all pairs started
/// simultaneously and whether any deadlock occurred.
pub fn validation_table(points: &[CasePoint<'_>], title: &str) -> Table {
    let mut t = Table::new(
        title,
        &[
            "case",
            "combo",
            "pairs sync'd",
            "deadlock",
            "forced releases",
            "paired share",
            "anchored/direct/indep",
        ],
    );
    for (label, _base, combos) in points {
        for (combo, case) in combos {
            let (a, d, i) = case.rendezvous;
            t.row(&[
                label.clone(),
                combo.clone(),
                if case.sync_ok { "yes" } else { "NO" }.into(),
                if case.deadlocked { "YES" } else { "no" }.into(),
                case.forced_releases.to_string(),
                pct(case.paired_share),
                format!("{a}/{d}/{i}"),
            ]);
        }
    }
    t
}

/// A table builder: points, machine index, title.
pub type Plot = fn(&[CasePoint<'_>], usize, &str) -> Table;

/// One paper figure: its number, the sweep it reads, the table it plots,
/// and its title after the panel's machine name.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Figure number in the paper.
    pub number: u8,
    /// The sweep whose points the figure plots.
    pub sweep: SweepKind,
    /// The table builder.
    pub plot: Plot,
    /// Title text after `Fig. N(a) Intrepid `.
    pub title: &'static str,
}

/// Figs. 3–10, in paper order: every figure title the repository prints.
pub const FIGURES: [Figure; 8] = [
    Figure {
        number: 3,
        sweep: SweepKind::Load,
        plot: fig_wait,
        title: "avg wait by Eureka sys. util.",
    },
    Figure {
        number: 4,
        sweep: SweepKind::Load,
        plot: fig_slowdown,
        title: "avg slowdown by Eureka sys. util.",
    },
    Figure {
        number: 5,
        sweep: SweepKind::Load,
        plot: fig_sync,
        title: "avg job sync time by Eureka sys. util.",
    },
    Figure {
        number: 6,
        sweep: SweepKind::Load,
        plot: fig_loss,
        title: "service-unit loss by Eureka sys. util.",
    },
    Figure {
        number: 7,
        sweep: SweepKind::Proportion,
        plot: fig_wait,
        title: "avg wait by paired proportion",
    },
    Figure {
        number: 8,
        sweep: SweepKind::Proportion,
        plot: fig_slowdown,
        title: "avg slowdown by paired proportion",
    },
    Figure {
        number: 9,
        sweep: SweepKind::Proportion,
        plot: fig_sync,
        title: "avg job sync time by paired proportion",
    },
    Figure {
        number: 10,
        sweep: SweepKind::Proportion,
        plot: fig_loss,
        title: "service-unit loss by paired proportion",
    },
];

impl Figure {
    /// The figure numbered `number`, if the evaluation has one.
    pub fn numbered(number: u8) -> Option<Figure> {
        FIGURES.iter().find(|f| f.number == number).copied()
    }

    /// Panel (a), Intrepid, and panel (b), Eureka, over the sweep's points.
    pub fn tables(&self, points: &[CasePoint<'_>]) -> [Table; 2] {
        [(0, 'a', "Intrepid"), (1, 'b', "Eureka")].map(|(m, panel, machine)| {
            let title = format!("Fig. {}({panel}) {machine} {}", self.number, self.title);
            (self.plot)(points, m, &title)
        })
    }
}

/// The §V-B deadlock demonstration's workload: seed 1 of the load sweep at
/// Eureka utilization 0.50.
pub fn deadlock_traces(days: u64) -> [Trace; 2] {
    anl_load_traces(1, days, 0.50)
}

/// HH with the release enhancement off on [`deadlock_traces`]: the run the
/// paper expects to deadlock on spans beyond 10 days.
pub fn hh_without_release(days: u64) -> SimulationReport {
    let cfg = anl_with(SchemeCombo::HH, |c| c.release_period = None);
    CoupledSimulation::new(cfg, deadlock_traces(days)).run()
}

/// The `## Deadlock (§V-B)` section: HH on [`deadlock_traces`] with the
/// release enhancement off and with its 20-minute default.
fn deadlock_section(days: u64) -> String {
    let without = hh_without_release(days);
    let with =
        CoupledSimulation::new(CoupledConfig::anl(SchemeCombo::HH), deadlock_traces(days)).run();
    format!(
        "## Deadlock (§V-B)\n\n\
         | configuration | deadlocked | unfinished jobs |\n\
         |---------------|------------|-----------------|\n\
         | HH, release enhancement off | {} | {:?} |\n\
         | HH, 20-minute release       | {} | {:?} |\n",
        without.deadlocked, without.unfinished, with.deadlocked, with.unfinished
    )
}

/// The evaluation as markdown. With `figure`, that figure's two tables;
/// without, the scale line, both sweeps' validation tables, every figure's
/// tables and the deadlock demonstration. Each sweep the output needs runs
/// once, on `threads` workers; the text is the same at any worker count.
pub fn report(scale: Scale, figure: Option<Figure>, threads: usize) -> String {
    let mut out = String::new();
    let mut push = |tables: &[Table]| {
        for t in tables {
            out += &format!("{t}\n");
        }
    };
    if let Some(fig) = figure {
        let points = sweep(fig.sweep, scale, threads);
        push(&fig.tables(&case_points(fig.sweep, &points)));
        return out;
    }
    let load = sweep(SweepKind::Load, scale, threads);
    let prop = sweep(SweepKind::Proportion, scale, threads);
    let load = case_points(SweepKind::Load, &load);
    let prop = case_points(SweepKind::Proportion, &prop);
    let points = |kind| match kind {
        SweepKind::Load => &load,
        SweepKind::Proportion => &prop,
    };
    push(&[
        validation_table(&load, "Validation — load sweep"),
        validation_table(&prop, "Validation — proportion sweep"),
    ]);
    for fig in FIGURES {
        push(&fig.tables(points(fig.sweep)));
    }
    format!(
        "# Reproduction run — all experiments\n\n\
         Scale: {} days per trace, {} seeds per case.\n\n\
         {out}{}",
        scale.days,
        scale.seeds,
        deadlock_section(scale.days)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::smoke_case;

    type OwnedPoint = (String, CaseResult, Vec<(String, CaseResult)>);

    fn tiny_points() -> Vec<OwnedPoint> {
        vec![(
            "0.50".to_string(),
            smoke_case(None, 0.5),
            vec![
                ("HH".to_string(), smoke_case(Some(SchemeCombo::HH), 0.5)),
                ("YY".to_string(), smoke_case(Some(SchemeCombo::YY), 0.5)),
            ],
        )]
    }

    fn as_refs(pts: &[OwnedPoint]) -> Vec<CasePoint<'_>> {
        pts.iter()
            .map(|(l, b, cs)| {
                (
                    l.clone(),
                    b,
                    cs.iter().map(|(c, r)| (c.clone(), r)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn tables_render_with_expected_rows() {
        let pts = tiny_points();
        let refs = as_refs(&pts);
        let wait = fig_wait(&refs, 0, "wait");
        assert_eq!(wait.len(), 2); // 2 combos × 1 point
        let slow = fig_slowdown(&refs, 1, "slowdown");
        assert_eq!(slow.len(), 2);
        let sync = fig_sync(&refs, 0, "sync");
        assert_eq!(sync.len(), 2); // remote H and remote Y rows
        let loss = fig_loss(&refs, 0, "loss");
        assert_eq!(loss.len(), 1); // only HH has local-hold on machine 0 here
        let val = validation_table(&refs, "validation");
        assert!(val.render().contains("yes"));
    }

    #[test]
    fn figures_are_numbered_three_to_ten_in_order() {
        let numbers: Vec<u8> = FIGURES.iter().map(|f| f.number).collect();
        assert_eq!(numbers, (3..=10).collect::<Vec<u8>>());
        assert!(Figure::numbered(2).is_none());
        assert!(Figure::numbered(11).is_none());
        assert_eq!(
            Figure::numbered(9).map(|f| f.sweep),
            Some(SweepKind::Proportion)
        );
    }

    #[test]
    fn each_figure_prints_as_it_appears_in_the_full_report() {
        let scale = Scale::smoke();
        let full = report(scale, None, 2);
        assert_eq!(full.matches("## Fig. ").count(), 16);
        assert!(full.contains("## Deadlock (§V-B)"));
        for fig in FIGURES {
            let one = report(scale, Some(fig), 1);
            assert!(one.starts_with(&format!("## Fig. {}(a) Intrepid", fig.number)));
            assert!(full.contains(&one), "Fig. {} differs", fig.number);
        }
    }
}
