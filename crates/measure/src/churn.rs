//! Churn analysis: Fig. 7.
//!
//! "Percentage of peers that we see in the network continuously or
//! intermittently for n days" (Hoang et al. §5.2.1). The analysis is a
//! cohort survival over the fleet's sighting matrix: for every peer
//! first seen on some day `d0`, the *continuous* streak is the run of
//! consecutive sighted days starting at `d0`; the *intermittent* span
//! runs to the last day the peer is ever sighted.

use crate::engine::HarvestEngine;
use crate::fleet::Fleet;
use crate::fold::{self, DayFold, DayView};
use crate::source::SnapshotSource;
use i2p_data::FxHashMap;
use i2p_sim::world::World;

/// The survival curves.
#[derive(Clone, Debug, Default)]
pub struct ChurnCurves {
    /// `continuous[n]` = % of peers seen continuously for > n days.
    pub continuous: Vec<f64>,
    /// `intermittent[n]` = % of peers whose sighting span exceeds n days.
    pub intermittent: Vec<f64>,
    /// Cohort size.
    pub cohort: usize,
}

impl ChurnCurves {
    /// Survival at `n` days (continuous).
    pub fn continuous_at(&self, n: usize) -> f64 {
        self.continuous.get(n).copied().unwrap_or(0.0)
    }

    /// Survival at `n` days (intermittent).
    pub fn intermittent_at(&self, n: usize) -> f64 {
        self.intermittent.get(n).copied().unwrap_or(0.0)
    }
}

/// Computes Fig. 7 over a measurement window.
///
/// Only peers first seen early enough to have `horizon` days of
/// follow-up are included, so late joiners do not truncate the curves.
pub fn churn_curves(world: &World, fleet: &Fleet, days: u64, horizon: usize) -> ChurnCurves {
    let engine = HarvestEngine::build(world, fleet, 0..days);
    churn_curves_from(&engine, horizon)
}

/// [`churn_curves`] off any source, over the source's own day range.
pub fn churn_curves_from<S: SnapshotSource + ?Sized>(src: &S, horizon: usize) -> ChurnCurves {
    let mut churn = ChurnFold::default();
    fold::run(src, src.days(), &mut churn);
    churn.finish(horizon)
}

/// One peer's sighting history, in fixed size: survival needs only the
/// first and last sighted days and the length of the streak that opens
/// at the first sighting (still running while it ends on `last`).
#[derive(Clone, Copy)]
struct PeerSpan {
    first: u64,
    last: u64,
    streak: u64,
}

/// Fig. 7 as a per-day fold over the fleet's sighting sets. Days must
/// arrive in ascending order (the driver's contract); membership is all
/// it reads, so no observation records are materialized for it alone.
#[derive(Default)]
pub struct ChurnFold {
    peers: FxHashMap<u32, PeerSpan>,
    /// One past the last day folded.
    end: u64,
}

impl DayFold for ChurnFold {
    fn day(&mut self, day: u64, view: &DayView<'_>) {
        self.end = day + 1;
        view.for_each_union_id(|id| {
            self.peers
                .entry(id)
                .and_modify(|p| {
                    if day == p.last + 1 && p.last == p.first + p.streak - 1 {
                        p.streak += 1;
                    }
                    p.last = day;
                })
                .or_insert(PeerSpan { first: day, last: day, streak: 1 });
        });
    }
}

impl ChurnFold {
    /// The survival curves to `horizon` days. Only peers first seen
    /// early enough to have `horizon` days of follow-up before the end
    /// of the folded window form the cohort.
    pub fn finish(self, horizon: usize) -> ChurnCurves {
        let max_first = self.end.saturating_sub(horizon as u64);
        let mut cont_hist = vec![0usize; horizon + 1];
        let mut int_hist = vec![0usize; horizon + 1];
        let mut cohort = 0usize;
        for p in self.peers.values().filter(|p| p.first <= max_first) {
            cohort += 1;
            // Intermittent span: first to last sighting, inclusive.
            let span = (p.last - p.first) as usize + 1;
            cont_hist[(p.streak as usize).min(horizon)] += 1;
            int_hist[span.min(horizon)] += 1;
        }
        survival(cont_hist, int_hist, cohort, horizon)
    }
}

/// Converts duration histograms to survival percentages:
/// S(n) = %{duration > n}.
fn survival(cont_hist: Vec<usize>, int_hist: Vec<usize>, cohort: usize, horizon: usize) -> ChurnCurves {
    let to_survival = |hist: &[usize]| -> Vec<f64> {
        let total = cohort.max(1) as f64;
        let mut remaining = cohort;
        let mut out = Vec::with_capacity(horizon + 1);
        for n in 0..=horizon {
            out.push(100.0 * remaining as f64 / total);
            remaining -= hist[n.min(hist.len() - 1)];
        }
        out
    };
    ChurnCurves {
        continuous: to_survival(&cont_hist),
        intermittent: to_survival(&int_hist),
        cohort,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_sim::world::WorldConfig;

    /// The sighted-days computation the fixed-size fold replaced: every
    /// peer's full list of sighted days, walked once at the end. Kept
    /// as the oracle the fold must match exactly.
    fn churn_curves_oracle<S: SnapshotSource + ?Sized>(src: &S, horizon: usize) -> ChurnCurves {
        let span = src.days();
        let k = src.vantage_count();
        let mut sightings: FxHashMap<u32, Vec<u64>> = FxHashMap::default();
        for d in span.clone() {
            src.for_each_union_id(d, k, &mut |id| {
                sightings.entry(id).or_default().push(d);
            });
        }
        let max_first = span.end.saturating_sub(horizon as u64);
        let mut cont_hist = vec![0usize; horizon + 1];
        let mut int_hist = vec![0usize; horizon + 1];
        let mut cohort = 0usize;
        for days_seen in sightings.values() {
            let first = days_seen[0];
            if first > max_first {
                continue;
            }
            cohort += 1;
            let mut streak = 1usize;
            for w in days_seen.windows(2) {
                if w[1] == w[0] + 1 {
                    streak += 1;
                } else {
                    break;
                }
            }
            let span = (days_seen[days_seen.len() - 1] - first) as usize + 1;
            cont_hist[streak.min(horizon)] += 1;
            int_hist[span.min(horizon)] += 1;
        }
        survival(cont_hist, int_hist, cohort, horizon)
    }

    #[test]
    fn fixed_size_fold_matches_the_sighted_days_oracle() {
        use crate::engine::HarvestEngine;
        use crate::keyspace::VisibilityModel;
        use i2p_faults::{FaultPlane, FaultSpec};
        let w = World::generate(WorldConfig { days: 40, scale: 0.015, seed: 23 });
        // Vantage outages darken whole days, which breaks streaks that
        // the clean harvest would keep running.
        let outages = FaultPlane::new(FaultSpec::parse("outage=0.3").expect("spec"), 9);
        for (fleet, plane) in [
            (Fleet::paper_main(), FaultPlane::zero()),
            (Fleet::alternating(3), FaultPlane::zero()),
            (Fleet::alternating(3), outages),
        ] {
            let engine =
                HarvestEngine::build_faulted(&w, &fleet, 0..40, &VisibilityModel::Uniform, &plane);
            for horizon in [0, 1, 7, 30, 39, 45] {
                let fold = churn_curves_from(&engine, horizon);
                let oracle = churn_curves_oracle(&engine, horizon);
                assert_eq!(fold.cohort, oracle.cohort, "horizon {horizon}");
                assert_eq!(fold.continuous, oracle.continuous, "horizon {horizon}");
                assert_eq!(fold.intermittent, oracle.intermittent, "horizon {horizon}");
            }
        }
    }

    fn curves() -> ChurnCurves {
        let w = World::generate(WorldConfig { days: 60, scale: 0.015, seed: 21 });
        let fleet = Fleet::paper_main();
        churn_curves(&w, &fleet, 60, 40)
    }

    #[test]
    fn survival_monotone_and_bounded() {
        let c = curves();
        assert!(c.cohort > 100, "cohort {}", c.cohort);
        for curve in [&c.continuous, &c.intermittent] {
            assert!((curve[0] - 100.0).abs() < 1e-9);
            for w in curve.windows(2) {
                assert!(w[1] <= w[0] + 1e-9, "survival must decline");
            }
        }
    }

    #[test]
    fn intermittent_dominates_continuous() {
        let c = curves();
        for n in 1..=40 {
            assert!(
                c.intermittent_at(n) >= c.continuous_at(n) - 1e-9,
                "at {n}: int {} < cont {}",
                c.intermittent_at(n),
                c.continuous_at(n)
            );
        }
    }

    #[test]
    fn anchors_have_paper_shape() {
        // Paper: cont >7d ≈ 56 %, int >7d ≈ 74 %; cont >30d ≈ 20 %,
        // int >30d ≈ 31 %. Generous tolerances at test scale; the
        // full-scale numbers come from the `fig07_churn` bench.
        let c = curves();
        let c7 = c.continuous_at(7);
        let i7 = c.intermittent_at(7);
        let c30 = c.continuous_at(30);
        let i30 = c.intermittent_at(30);
        assert!((35.0..75.0).contains(&c7), "cont@7 {c7}");
        assert!((55.0..90.0).contains(&i7), "int@7 {i7}");
        assert!((8.0..35.0).contains(&c30), "cont@30 {c30}");
        assert!((15.0..50.0).contains(&i30), "int@30 {i30}");
        assert!(i7 > c7 && i30 > c30);
    }
}
