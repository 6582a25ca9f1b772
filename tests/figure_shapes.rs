//! Figure-shape oracle: the verdicts EXPERIMENTS.md draws from Figs. 6 and
//! 10 and §V-B, checked against the committed quick-scale campaign golden
//! (`tests/fixtures/campaign_quick.jsonl`, 10-day traces × 3 seeds). Runs
//! no simulation: it reads the golden as data and averages each (sweep,
//! combo, grid point) case over its seeds, as the figure tables do.
//!
//! Each test names the scale its verdict is checked at. A verdict that
//! does not hold at quick scale is recorded in EXPERIMENTS.md as scale
//! dependent, and `quick_scale_dips_match_experiments_md` pins the dips so
//! that note stays true.

use serde_json::Value;

/// Machine index of each lost-node-hours column, as in the golden.
const MACHINES: [&str; 2] = ["intrepid", "eureka"];
const INTREPID: usize = 0;
const EUREKA: usize = 1;

/// One (sweep, combo, grid point) case of the golden.
#[derive(Debug)]
struct Case {
    sweep: String,
    combo: String,
    x: f64,
    /// Lost node-hours per machine, averaged over the seeds.
    lost_node_hours: [f64; 2],
    /// Every seed of a coscheduled case started its pairs together.
    sync_ok: bool,
    /// Some seed deadlocked.
    deadlocked: bool,
}

impl Case {
    /// The scheme letter machine `m` runs (`H` or `Y`); `None` for the
    /// no-coscheduling baseline.
    fn scheme(&self, m: usize) -> Option<char> {
        (self.combo != "baseline").then(|| self.combo.as_bytes()[m] as char)
    }
}

/// The quick golden's cases in file order (grid points ascending).
fn quick_cases() -> Vec<Case> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/campaign_quick.jsonl"
    );
    let text = std::fs::read_to_string(path).expect("committed quick campaign golden");
    let mut cases: Vec<Case> = Vec::new();
    let mut seeds = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("campaign_quick.jsonl line {}: {e}", n + 1));
        let field = |key: &str| {
            v.get(key)
                .unwrap_or_else(|| panic!("campaign_quick.jsonl line {} lacks {key}", n + 1))
        };
        let sweep = field("sweep").as_str().expect("sweep is a string");
        let combo = field("combo").as_str().expect("combo is a string");
        let x = field("x").as_f64().expect("x is a number");
        let lost = MACHINES.map(|m| {
            field(&format!("{m}_lost_node_hours"))
                .as_f64()
                .expect("lost node-hours is a number")
        });
        let sync_ok = field("sync_ok").as_bool().expect("sync_ok is a bool");
        let deadlocked = field("deadlocked").as_bool().expect("deadlocked is a bool");
        match cases.last_mut() {
            Some(c) if c.sweep == sweep && c.combo == combo && c.x == x => {
                for (sum, l) in c.lost_node_hours.iter_mut().zip(lost) {
                    *sum += l;
                }
                c.sync_ok &= sync_ok;
                c.deadlocked |= deadlocked;
                *seeds.last_mut().expect("one count per case") += 1;
            }
            _ => {
                cases.push(Case {
                    sweep: sweep.to_string(),
                    combo: combo.to_string(),
                    x,
                    lost_node_hours: lost,
                    sync_ok,
                    deadlocked,
                });
                seeds.push(1);
            }
        }
    }
    for (case, n) in cases.iter_mut().zip(seeds) {
        case.lost_node_hours = case.lost_node_hours.map(|sum| sum / f64::from(n));
    }
    assert_eq!(cases.len(), 40, "3 + 5 grid points × baseline and 4 combos");
    cases
}

/// Machine `m`'s mean lost node-hours over `sweep`'s grid, for `combo`.
fn loss_series(cases: &[Case], sweep: &str, combo: &str, m: usize) -> Vec<(f64, f64)> {
    let series: Vec<(f64, f64)> = cases
        .iter()
        .filter(|c| c.sweep == sweep && c.combo == combo)
        .map(|c| (c.x, c.lost_node_hours[m]))
        .collect();
    assert!(series.len() >= 3, "{sweep} {combo} has a grid");
    series
}

/// The first grid step where the series does not grow, if any.
fn first_non_increase(series: &[(f64, f64)]) -> Option<((f64, f64), (f64, f64))> {
    series
        .windows(2)
        .find(|w| w[1].1 <= w[0].1)
        .map(|w| (w[0], w[1]))
}

/// §V-B at quick scale: every coscheduled cell starts all its pairs
/// together, and no cell, baseline included, deadlocks.
#[test]
fn quick_scale_every_combo_synchronizes_without_deadlock() {
    for case in quick_cases() {
        assert!(!case.deadlocked, "{case:?} deadlocked");
        if case.combo != "baseline" {
            assert!(case.sync_ok, "{case:?} started a pair apart");
        }
    }
}

/// Figs. 6 and 10 at quick scale: only hold loses service units. The
/// yield side (both machines under YY and the baseline, Eureka under HY,
/// Intrepid under YH) loses exactly zero in every case, and the hold side
/// loses some in every case.
#[test]
fn quick_scale_only_the_hold_side_loses_service_units() {
    for case in quick_cases() {
        for (m, &lost) in case.lost_node_hours.iter().enumerate() {
            if case.scheme(m) == Some('H') {
                assert!(
                    lost > 0.0,
                    "{case:?}: {} holds but loses nothing",
                    MACHINES[m]
                );
            } else {
                assert_eq!(lost, 0.0, "{case:?}: yield-side {} loses", MACHINES[m]);
            }
        }
    }
}

/// Fig. 10 at quick scale: hold-side loss grows strictly with the paired
/// proportion for HH on both machines and for HY on Intrepid. (YH on
/// Eureka does not; see `quick_scale_dips_match_experiments_md`.)
#[test]
fn quick_scale_hold_loss_grows_with_the_paired_proportion() {
    let cases = quick_cases();
    for (combo, m) in [("HH", INTREPID), ("HH", EUREKA), ("HY", INTREPID)] {
        let series = loss_series(&cases, "prop", combo, m);
        assert_eq!(
            first_non_increase(&series),
            None,
            "{combo} {} loss by proportion: {series:?}",
            MACHINES[m]
        );
    }
}

/// Fig. 6 at quick scale: hold-side loss grows strictly with Eureka's
/// utilization for HY on Intrepid and HH on Eureka. (HH on Intrepid and
/// YH on Eureka do not; see `quick_scale_dips_match_experiments_md`.)
#[test]
fn quick_scale_hold_loss_grows_with_eureka_load_where_it_holds() {
    let cases = quick_cases();
    for (combo, m) in [("HY", INTREPID), ("HH", EUREKA)] {
        let series = loss_series(&cases, "load", combo, m);
        assert_eq!(
            first_non_increase(&series),
            None,
            "{combo} {} loss by Eureka utilization: {series:?}",
            MACHINES[m]
        );
    }
}

/// The monotone-growth verdicts EXPERIMENTS.md records as scale dependent:
/// at quick scale each of these series dips at exactly the step the
/// document names. If a series starts growing, the note is stale.
#[test]
fn quick_scale_dips_match_experiments_md() {
    let cases = quick_cases();
    for (sweep, combo, m, from, to) in [
        ("prop", "YH", EUREKA, 0.025, 0.05),
        ("load", "HH", INTREPID, 0.50, 0.75),
        ("load", "YH", EUREKA, 0.50, 0.75),
    ] {
        let series = loss_series(&cases, sweep, combo, m);
        let dip = first_non_increase(&series).map(|(a, b)| (a.0, b.0));
        assert_eq!(
            dip,
            Some((from, to)),
            "{sweep} {combo} {}: {series:?}",
            MACHINES[m]
        );
    }
}
