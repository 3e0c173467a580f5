//! Population analyses: Figs. 2–6, on the indexed harvest engine.
//!
//! Each figure has a `*_from` variant that runs off any
//! [`SnapshotSource`] — a live engine or a loaded `i2p-store` snapshot —
//! with bit-identical results; the `(world, fleet, …)` entrypoints are
//! thin wrappers that fill an engine and delegate. Figs. 4–6 are
//! per-day folds ([`crate::fold`]): a `*_from` runs its fold alone, and
//! the CLI's figure suite runs them all in one walk.

use crate::engine::HarvestEngine;
use crate::fleet::{Fleet, Vantage, VantageMode};
use crate::fold::{self, DayFold, DayView};
use crate::observed::ObservedRouterInfo;
use crate::source::SnapshotSource;
use i2p_data::{FxHashSet, PeerIp};
use i2p_sim::world::World;

/// Fig. 2: a single high-end router, five days per mode.
#[derive(Clone, Debug)]
pub struct SingleRouterSeries {
    /// (day, peers observed) for the floodfill half.
    pub floodfill: Vec<(u64, usize)>,
    /// (day, peers observed) for the non-floodfill half.
    pub non_floodfill: Vec<(u64, usize)>,
}

/// Runs the Fig. 2 experiment: one 8 MB/s router, 5 days in floodfill
/// mode then 5 days in non-floodfill mode.
pub fn single_router_experiment(world: &World, salt: u64) -> SingleRouterSeries {
    let ff = Vantage::monitoring(VantageMode::Floodfill, salt);
    let nf = Vantage::monitoring(VantageMode::NonFloodfill, salt);
    // One single-lane engine per phase: the floodfill half runs days
    // 0..5, the non-floodfill half days 5..10.
    let eng_ff = HarvestEngine::with_vantages(world, vec![ff], 0..5);
    let eng_nf = HarvestEngine::with_vantages(world, vec![nf], 5..10);
    SingleRouterSeries {
        floodfill: (0..5).map(|d| (d + 1, eng_ff.count_one(0, d))).collect(),
        non_floodfill: (5..10).map(|d| (d + 1, eng_nf.count_one(0, d))).collect(),
    }
}

/// One row of the Fig. 3 bandwidth sweep.
#[derive(Clone, Debug)]
pub struct BandwidthSweepRow {
    /// Shared bandwidth in KB/s.
    pub shared_kbps: u32,
    /// Peers seen by the floodfill vantage.
    pub floodfill: usize,
    /// Peers seen by the non-floodfill vantage.
    pub non_floodfill: usize,
    /// Union of the pair.
    pub both: usize,
}

/// Fig. 3: 7 floodfill + 7 non-floodfill routers at increasing shared
/// bandwidths (§4.2). Results are averaged over `days` to damp noise.
pub fn bandwidth_sweep(world: &World, days: std::ops::Range<u64>) -> Vec<BandwidthSweepRow> {
    const BANDWIDTHS: [u32; 7] = [128, 256, 1024, 2048, 3072, 4096, 5120];
    let day_count = days.clone().count().max(1);
    // All 14 vantages fill one engine; lanes 2i / 2i+1 are the
    // floodfill / non-floodfill pair at BANDWIDTHS[i], and the pair
    // union is two lanes OR-ed — no per-day re-harvest, no id sets.
    let vantages: Vec<Vantage> = BANDWIDTHS
        .iter()
        .enumerate()
        .flat_map(|(i, &b)| {
            [
                Vantage { mode: VantageMode::Floodfill, shared_kbps: b, salt: 0x3_000 + i as u64 },
                Vantage {
                    mode: VantageMode::NonFloodfill,
                    shared_kbps: b,
                    salt: 0x4_000 + i as u64,
                },
            ]
        })
        .collect();
    let engine = HarvestEngine::with_vantages(world, vantages, days.clone());
    BANDWIDTHS
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let (mut sf, mut sn, mut sb) = (0usize, 0usize, 0usize);
            for d in days.clone() {
                sf += engine.count_one(2 * i, d);
                sn += engine.count_one(2 * i + 1, d);
                sb += engine.count_union_subset(d, &[2 * i, 2 * i + 1]);
            }
            BandwidthSweepRow {
                shared_kbps: b,
                floodfill: sf / day_count,
                non_floodfill: sn / day_count,
                both: sb / day_count,
            }
        })
        .collect()
}

/// Fig. 4: cumulative peers observed when operating 1..=n routers
/// (half floodfill, half non-floodfill), averaged over `days`.
pub fn cumulative_by_router_count(
    world: &World,
    max_routers: usize,
    days: std::ops::Range<u64>,
) -> Vec<(usize, usize)> {
    let fleet = Fleet::alternating(max_routers);
    let engine = HarvestEngine::build(world, &fleet, days.clone());
    cumulative_by_router_count_from(&engine, days)
}

/// [`cumulative_by_router_count`] off any source; the curve spans the
/// source's own vantage list.
pub fn cumulative_by_router_count_from<S: SnapshotSource + ?Sized>(
    src: &S,
    days: std::ops::Range<u64>,
) -> Vec<(usize, usize)> {
    let mut curve = RouterCountFold::new(src.vantage_count());
    fold::run(src, days, &mut curve);
    curve.finish()
}

/// Fig. 4 as a per-day fold: one cumulative-OR pass per day yields the
/// whole 1..=n curve at once, summed over the days folded.
pub struct RouterCountFold {
    totals: Vec<usize>,
    days: usize,
}

impl RouterCountFold {
    /// An empty curve over `vantages` routers.
    pub fn new(vantages: usize) -> Self {
        RouterCountFold { totals: vec![0; vantages], days: 0 }
    }

    /// `(routers, mean peers observed)` for 1..=n routers.
    pub fn finish(self) -> Vec<(usize, usize)> {
        let day_count = self.days.max(1);
        self.totals.into_iter().enumerate().map(|(i, t)| (i + 1, t / day_count)).collect()
    }
}

impl DayFold for RouterCountFold {
    fn day(&mut self, _day: u64, view: &DayView<'_>) {
        self.days += 1;
        for (t, c) in self.totals.iter_mut().zip(view.coverage_curve()) {
            *t += c;
        }
    }
}

/// One day of the Fig. 5 census.
#[derive(Clone, Debug, Default)]
pub struct DailyCensus {
    /// Distinct peers (by hash).
    pub peers: usize,
    /// Distinct addresses of any family.
    pub all_ips: usize,
    /// Distinct IPv4 addresses.
    pub ipv4: usize,
    /// Distinct IPv6 addresses.
    pub ipv6: usize,
    /// Unknown-IP peers (Fig. 6).
    pub unknown_ip: usize,
    /// Firewalled peers (introducers listed).
    pub firewalled: usize,
    /// Hidden peers (no introducers).
    pub hidden: usize,
}

/// Fig. 5 + Fig. 6 (single day): full-fleet census of peers and IPs.
pub fn daily_census(world: &World, fleet: &Fleet, day: u64) -> DailyCensus {
    let engine = HarvestEngine::build(world, fleet, day..day + 1);
    daily_census_from(&engine, day)
}

/// [`daily_census`] off any source (full-fleet union on `day`).
pub fn daily_census_from<S: SnapshotSource + ?Sized>(src: &S, day: u64) -> DailyCensus {
    let mut census = DailyCensus::default();
    fold::run(src, day..day + 1, &mut |_, view: &DayView<'_>| {
        census = DailyCensus::of(view.observations());
    });
    census
}

impl DailyCensus {
    /// The census of one day's full-fleet union observations.
    pub fn of(observations: &[ObservedRouterInfo]) -> DailyCensus {
        let mut v4: FxHashSet<PeerIp> = FxHashSet::default();
        let mut v6: FxHashSet<PeerIp> = FxHashSet::default();
        let mut census = DailyCensus::default();
        for rec in observations {
            census.peers += 1;
            if let Some(ip) = rec.ipv4 {
                v4.insert(ip);
            }
            if let Some(ip) = rec.ipv6 {
                v6.insert(ip);
            }
            if rec.is_unknown_ip() {
                census.unknown_ip += 1;
                if rec.is_firewalled() {
                    census.firewalled += 1;
                } else {
                    census.hidden += 1;
                }
            }
        }
        census.ipv4 = v4.len();
        census.ipv6 = v6.len();
        census.all_ips = v4.len() + v6.len();
        census
    }
}

/// Fig. 6's overlap group: peers seen as firewalled on one day and
/// hidden on another within the window.
pub fn firewalled_hidden_overlap(world: &World, fleet: &Fleet, days: std::ops::Range<u64>) -> usize {
    let engine = HarvestEngine::build(world, fleet, days.clone());
    firewalled_hidden_overlap_from(&engine, days)
}

/// [`firewalled_hidden_overlap`] off any source. The observation
/// predicates mirror the world's reachability postures exactly
/// (`Reach::Firewalled` ⇔ `is_firewalled`, `Reach::Hidden` ⇔
/// `is_hidden` for observed online peers), so this needs only archived
/// records — no `PeerRecord` access.
pub fn firewalled_hidden_overlap_from<S: SnapshotSource + ?Sized>(
    src: &S,
    days: std::ops::Range<u64>,
) -> usize {
    let mut overlap = OverlapFold::default();
    fold::run(src, days, &mut overlap);
    overlap.finish()
}

/// Fig. 6's overlap group as a per-day fold: the peers seen firewalled
/// and the peers seen hidden so far.
#[derive(Default)]
pub struct OverlapFold {
    firewalled: FxHashSet<u32>,
    hidden: FxHashSet<u32>,
}

impl OverlapFold {
    /// Peers seen in both groups.
    pub fn finish(self) -> usize {
        self.firewalled.intersection(&self.hidden).count()
    }
}

impl DayFold for OverlapFold {
    fn day(&mut self, _day: u64, view: &DayView<'_>) {
        for rec in view.observations() {
            if rec.is_firewalled() {
                self.firewalled.insert(rec.peer_id);
            } else if rec.is_hidden() {
                self.hidden.insert(rec.peer_id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_sim::world::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig { days: 12, scale: 0.04, seed: 11 })
    }

    #[test]
    fn fig2_modes_comparable_and_stable() {
        let w = world();
        let s = single_router_experiment(&w, 0xF162);
        assert_eq!(s.floodfill.len(), 5);
        assert_eq!(s.non_floodfill.len(), 5);
        // Both modes observe a large, similar population (Fig. 2 shows
        // 15–16 K of ~32 K; tolerances generous at test scale).
        for (_, n) in s.floodfill.iter().chain(&s.non_floodfill) {
            let frac = *n as f64 / w.online_count(5) as f64;
            assert!((0.30..0.65).contains(&frac), "coverage {frac}");
        }
    }

    #[test]
    fn fig3_union_flatter_than_parts() {
        let w = world();
        let rows = bandwidth_sweep(&w, 2..6);
        // Non-floodfill coverage grows with bandwidth.
        assert!(rows.last().unwrap().non_floodfill > rows[0].non_floodfill);
        // The pair union varies less (relatively) than the non-floodfill
        // curve — the paper's "constant 17–18 K" plateau.
        let nf_rel = rows.last().unwrap().non_floodfill as f64 / rows[0].non_floodfill as f64;
        let both_rel = rows.last().unwrap().both as f64 / rows[0].both as f64;
        assert!(both_rel < nf_rel, "union must be flatter: {both_rel} vs {nf_rel}");
        // Union exceeds each part.
        for r in &rows {
            assert!(r.both >= r.floodfill.max(r.non_floodfill));
        }
    }

    #[test]
    fn fig4_concave_and_saturating() {
        let w = world();
        let curve = cumulative_by_router_count(&w, 12, 3..5);
        // Monotone non-decreasing.
        for win in curve.windows(2) {
            assert!(win[1].1 >= win[0].1);
        }
        // Concave-ish: the first half of the routers contribute more
        // than the second half (logarithmic growth, §4.3).
        let first_half = curve[5].1 - curve[0].1;
        let second_half = curve[11].1 - curve[5].1;
        assert!(first_half > second_half, "{first_half} vs {second_half}");
    }

    #[test]
    fn fig5_ips_below_peers() {
        let w = world();
        let fleet = Fleet::paper_main();
        let c = daily_census(&w, &fleet, 6);
        assert!(c.all_ips < c.peers, "unique IPs ({}) below peers ({})", c.all_ips, c.peers);
        assert!(c.ipv6 < c.ipv4, "IPv6 well below IPv4");
        assert!(c.peers > 0 && c.ipv4 > 0 && c.ipv6 > 0);
    }

    #[test]
    fn fig6_firewalled_dominate_unknown_ip() {
        let w = world();
        let fleet = Fleet::paper_main();
        let c = daily_census(&w, &fleet, 6);
        assert_eq!(c.unknown_ip, c.firewalled + c.hidden);
        assert!(c.firewalled > c.hidden * 2, "fw {} vs hidden {}", c.firewalled, c.hidden);
        // Roughly half the network has no published IP.
        let share = c.unknown_ip as f64 / c.peers as f64;
        assert!((0.35..0.60).contains(&share), "unknown-IP share {share}");
    }

    #[test]
    fn fig6_overlap_nonempty() {
        let w = world();
        let fleet = Fleet::paper_main();
        let overlap = firewalled_hidden_overlap(&w, &fleet, 0..10);
        assert!(overlap > 0, "switching peers must appear in both groups");
    }
}
