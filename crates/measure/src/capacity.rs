//! Capacity-flag analyses: Fig. 9 and Table 1, plus the §5.3.1
//! qualified-floodfill population estimate.

use crate::fold::{self, DayFold, DayView};
use crate::observed::ObservedRouterInfo;
use crate::source::SnapshotSource;
use i2p_data::{BandwidthClass, Caps};

/// Index of a class in K..X order.
fn idx(c: BandwidthClass) -> usize {
    c.index()
}

/// Fig. 9: average daily count of peers per *published* bandwidth
/// letter. A P/X peer that also publishes the compat `O` counts under
/// both letters — this is why Table 1 columns sum past 100 % (§5.3.1).
#[derive(Clone, Debug, Default)]
pub struct CapacityHistogram {
    /// Counts per letter K..X.
    pub counts: [usize; 7],
    /// Days averaged.
    pub days: usize,
}

/// Computes Fig. 9 averaged over the window.
pub fn capacity_histogram<S: SnapshotSource + ?Sized>(
    src: &S,
    days: std::ops::Range<u64>,
) -> CapacityHistogram {
    let mut hist = CapacityFold::default();
    fold::run(src, days, &mut hist);
    hist.finish()
}

/// Fig. 9 as a per-day fold: published-letter totals over the days
/// folded.
#[derive(Default)]
pub struct CapacityFold {
    totals: [usize; 7],
    days: usize,
}

impl CapacityFold {
    /// The daily average per letter.
    pub fn finish(self) -> CapacityHistogram {
        let day_count = self.days.max(1);
        CapacityHistogram { counts: self.totals.map(|t| t / day_count), days: day_count }
    }
}

impl DayFold for CapacityFold {
    fn day(&mut self, _day: u64, view: &DayView<'_>) {
        self.days += 1;
        for rec in view.observations() {
            for ch in rec.caps.chars() {
                if let Some(b) = BandwidthClass::from_letter(ch) {
                    self.totals[idx(b)] += 1;
                }
            }
        }
    }
}

/// Table 1: percentage of routers per bandwidth letter within the
/// floodfill / reachable / unreachable groups.
#[derive(Clone, Debug, Default)]
pub struct BandwidthTable {
    /// Per-letter percentages in the floodfill group.
    pub floodfill: [f64; 7],
    /// Per-letter percentages in the reachable group.
    pub reachable: [f64; 7],
    /// Per-letter percentages in the unreachable group.
    pub unreachable: [f64; 7],
    /// Per-letter percentages over everyone.
    pub total: [f64; 7],
    /// Raw group sizes (floodfill, reachable, unreachable, total).
    pub group_sizes: [usize; 4],
}

/// Computes Table 1 for one day.
pub fn bandwidth_table<S: SnapshotSource + ?Sized>(src: &S, day: u64) -> BandwidthTable {
    let mut table = BandwidthTable::default();
    fold::run(src, day..day + 1, &mut |_, view: &DayView<'_>| {
        table = BandwidthTable::of(view.observations());
    });
    table
}

impl BandwidthTable {
    /// Table 1 over one day's full-fleet union observations.
    pub fn of(observations: &[ObservedRouterInfo]) -> BandwidthTable {
        let mut counts = [[0usize; 7]; 4]; // ff, reach, unreach, total
        let mut sizes = [0usize; 4];
        for rec in observations {
            let caps: Caps = rec.parsed_caps();
            let mut groups = [3usize, 0, 0];
            let mut n_groups = 1;
            if caps.floodfill {
                groups[n_groups] = 0;
                n_groups += 1;
            }
            groups[n_groups] = if caps.reachable { 1 } else { 2 };
            n_groups += 1;
            let groups = &groups[..n_groups];
            for &g in groups {
                sizes[g] += 1;
            }
            for ch in rec.caps.chars() {
                if let Some(b) = BandwidthClass::from_letter(ch) {
                    for &g in groups {
                        counts[g][idx(b)] += 1;
                    }
                }
            }
        }
        let pct = |g: usize| -> [f64; 7] {
            let mut out = [0.0; 7];
            for i in 0..7 {
                out[i] = 100.0 * counts[g][i] as f64 / sizes[g].max(1) as f64;
            }
            out
        };
        BandwidthTable {
            floodfill: pct(0),
            reachable: pct(1),
            unreachable: pct(2),
            total: pct(3),
            group_sizes: sizes,
        }
    }
}

/// The §5.3.1 back-of-envelope population estimate.
#[derive(Clone, Debug)]
pub struct FloodfillEstimate {
    /// Observed floodfills on the day.
    pub observed_floodfills: usize,
    /// Share of floodfills that are qualified (pure N/O/P/X) — the
    /// paper's 71 %.
    pub qualified_share: f64,
    /// Qualified floodfills (paper: ≈1 917).
    pub qualified_floodfills: usize,
    /// Estimated network population: qualified ÷ 6 % (paper: ≈31 950).
    pub estimated_population: f64,
}

/// Reproduces the §5.3.1 arithmetic: count observed floodfills, take the
/// qualified (N/O/P/X) share, and divide by the 6 % automatic-floodfill
/// fraction reported on the I2P site.
pub fn floodfill_estimate<S: SnapshotSource + ?Sized>(src: &S, day: u64) -> FloodfillEstimate {
    let mut est = FloodfillEstimate::of(&[]);
    fold::run(src, day..day + 1, &mut |_, view: &DayView<'_>| {
        est = FloodfillEstimate::of(view.observations());
    });
    est
}

impl FloodfillEstimate {
    /// The §5.3.1 estimate from one day's full-fleet union observations.
    pub fn of(observations: &[ObservedRouterInfo]) -> FloodfillEstimate {
        let mut ff = 0usize;
        let mut qualified = 0usize;
        for rec in observations {
            let caps = rec.parsed_caps();
            if caps.floodfill {
                ff += 1;
                if caps.qualified_floodfill() {
                    qualified += 1;
                }
            }
        }
        let share = qualified as f64 / ff.max(1) as f64;
        FloodfillEstimate {
            observed_floodfills: ff,
            qualified_share: share,
            qualified_floodfills: qualified,
            estimated_population: qualified as f64 / 0.06,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HarvestEngine;
    use crate::fleet::Fleet;
    use i2p_sim::world::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig { days: 10, scale: 0.05, seed: 41 })
    }

    fn engine(w: &World) -> HarvestEngine<'_> {
        HarvestEngine::build(w, &Fleet::paper_main(), 0..10)
    }

    #[test]
    fn fig9_order_matches_paper() {
        let w = world();
        let h = capacity_histogram(&engine(&w), 2..6);
        let [k, l, m, n, o, p, x] = h.counts;
        assert!(l > n, "L dominates ({l} vs {n})");
        assert!(n > p && p > x, "N > P > X ({n}, {p}, {x})");
        assert!(x > m && x > k, "X above M and K");
        // O sits between X and M once compat-O letters are included.
        assert!(o > m, "O ({o}) above M ({m})");
    }

    #[test]
    fn table1_floodfill_group_n_dominant() {
        let w = world();
        let t = bandwidth_table(&engine(&w), 5);
        let n_i = idx(BandwidthClass::N);
        let l_i = idx(BandwidthClass::L);
        assert!(
            t.floodfill[n_i] > t.floodfill[l_i],
            "floodfill group: N {} must beat L {}",
            t.floodfill[n_i],
            t.floodfill[l_i]
        );
        // Overall and per reachability group, L dominates.
        assert!(t.total[l_i] > t.total[n_i]);
        assert!(t.reachable[l_i] > t.reachable[n_i]);
        assert!(t.unreachable[l_i] > t.unreachable[n_i]);
    }

    #[test]
    fn table1_totals_exceed_100_percent() {
        // The compat-O rule makes the column sums exceed 100 %.
        let w = world();
        let t = bandwidth_table(&engine(&w), 5);
        let sum: f64 = t.total.iter().sum();
        assert!(sum > 100.0, "total column sums to {sum}");
        assert!(sum < 130.0, "but not absurdly ({sum})");
    }

    #[test]
    fn floodfill_estimate_recovers_population() {
        let w = world();
        let est = floodfill_estimate(&engine(&w), 5);
        assert!(est.observed_floodfills > 20);
        assert!(
            (0.55..0.85).contains(&est.qualified_share),
            "qualified share {} (paper: 0.71)",
            est.qualified_share
        );
        // The estimate should land near the actual online population.
        let actual = w.online_count(5) as f64;
        let ratio = est.estimated_population / actual;
        assert!((0.6..1.5).contains(&ratio), "estimate/actual = {ratio}");
    }
}
