//! IP-churn analyses: Fig. 8 (distinct IPs per peer) and Fig. 12
//! (distinct ASes for multi-IP peers).
//!
//! §5.2.2: over three months, 45 % of known-IP peers kept a single
//! address, 55 % had at least two, and a small group of ~460 peers
//! (0.65 %) exceeded one hundred addresses; §5.3.2 traces the multi-AS
//! tail to VPN/Tor-routed routers.

use crate::engine::HarvestEngine;
use crate::fleet::Fleet;
use crate::fold::{self, DayFold, DayView};
use crate::source::SnapshotSource;
use i2p_data::{FxHashMap, FxHashSet, PeerIp};
use i2p_sim::world::World;

/// Per-peer address/AS accumulation over the window.
#[derive(Clone, Debug, Default)]
pub struct PeerIpStats {
    /// Distinct addresses observed.
    pub ips: FxHashSet<PeerIp>,
    /// Distinct ASes those addresses resolve to (unresolvable addresses
    /// are skipped, as with MaxMind misses).
    pub ases: FxHashSet<u32>,
    /// Distinct countries.
    pub countries: FxHashSet<usize>,
}

/// The Fig. 8 / Fig. 12 aggregate.
#[derive(Clone, Debug)]
pub struct IpChurnReport {
    /// Histogram: `ip_hist[k]` = peers with exactly `k` distinct IPs
    /// (index 0 unused; last bucket aggregates overflow).
    pub ip_hist: Vec<usize>,
    /// Histogram over distinct AS counts for multi-IP peers.
    pub as_hist: Vec<usize>,
    /// Known-IP peers in the window.
    pub known_ip_peers: usize,
    /// Peers with ≥ 2 addresses.
    pub multi_ip_peers: usize,
    /// Peers with > 100 addresses (the paper's 460-peer group).
    pub over_100_ips: usize,
    /// Maximum distinct ASes for one peer (paper: 39).
    pub max_ases: usize,
    /// Maximum distinct countries for one peer (paper: 25).
    pub max_countries: usize,
}

/// Accumulates per-peer IP/AS observations over a window.
pub fn collect_ip_stats(
    world: &World,
    fleet: &Fleet,
    days: std::ops::Range<u64>,
) -> FxHashMap<u32, PeerIpStats> {
    let engine = HarvestEngine::build(world, fleet, days.clone());
    collect_ip_stats_from(&engine, days)
}

/// [`collect_ip_stats`] off any source. A record publishes an address
/// iff its `ipv4` field is set (capture fills it exactly when the peer
/// publishes that day), so the observation stream carries everything
/// the accumulation needs.
pub fn collect_ip_stats_from<S: SnapshotSource + ?Sized>(
    src: &S,
    days: std::ops::Range<u64>,
) -> FxHashMap<u32, PeerIpStats> {
    let mut stats = IpStatsFold::default();
    fold::run(src, days, &mut stats);
    stats.finish()
}

/// The per-peer IP/AS map as a per-day fold — one map feeds Figs. 8,
/// 10, 11 and 12.
///
/// Insertion order is part of the output: Figs. 10 and 11 break
/// ranking ties by the map's iteration order, so entries go in by day
/// ascending, then observation row (peer id) ascending, then
/// [`ObservedRouterInfo::ips`](crate::observed::ObservedRouterInfo::ips)
/// order.
#[derive(Default)]
pub struct IpStatsFold {
    stats: FxHashMap<u32, PeerIpStats>,
}

impl IpStatsFold {
    /// The accumulated per-peer map.
    pub fn finish(self) -> FxHashMap<u32, PeerIpStats> {
        self.stats
    }
}

impl DayFold for IpStatsFold {
    fn day(&mut self, _day: u64, view: &DayView<'_>) {
        let geo = view.geo();
        for rec in view.observations() {
            if rec.ipv4.is_none() {
                continue;
            }
            let entry = self.stats.entry(rec.peer_id).or_default();
            for ip in rec.ips() {
                entry.ips.insert(ip);
                if let Some(loc) = geo.lookup(ip) {
                    entry.ases.insert(geo.asn(loc.asn_id));
                    entry.countries.insert(loc.country);
                }
            }
        }
    }
}

/// Builds the Fig. 8 / Fig. 12 report.
pub fn ip_churn_report(world: &World, fleet: &Fleet, days: std::ops::Range<u64>) -> IpChurnReport {
    let engine = HarvestEngine::build(world, fleet, days.clone());
    ip_churn_report_from(&engine, days)
}

/// [`ip_churn_report`] off any source.
pub fn ip_churn_report_from<S: SnapshotSource + ?Sized>(
    src: &S,
    days: std::ops::Range<u64>,
) -> IpChurnReport {
    IpChurnReport::of(&collect_ip_stats_from(src, days))
}

impl IpChurnReport {
    /// The Fig. 8 / Fig. 12 aggregate of a per-peer map.
    pub fn of(stats: &FxHashMap<u32, PeerIpStats>) -> IpChurnReport {
        const IP_BUCKETS: usize = 16;
        const AS_BUCKETS: usize = 10;
        let mut ip_hist = vec![0usize; IP_BUCKETS + 1];
        let mut as_hist = vec![0usize; AS_BUCKETS + 1];
        let mut multi = 0;
        let mut over100 = 0;
        let mut max_ases = 0;
        let mut max_countries = 0;
        for s in stats.values() {
            let n_ips = s.ips.len();
            ip_hist[n_ips.min(IP_BUCKETS)] += 1;
            if n_ips >= 2 {
                multi += 1;
                as_hist[s.ases.len().min(AS_BUCKETS)] += 1;
            }
            if n_ips > 100 {
                over100 += 1;
            }
            max_ases = max_ases.max(s.ases.len());
            max_countries = max_countries.max(s.countries.len());
        }
        IpChurnReport {
            ip_hist,
            as_hist,
            known_ip_peers: stats.len(),
            multi_ip_peers: multi,
            over_100_ips: over100,
            max_ases,
            max_countries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_sim::world::WorldConfig;

    fn report() -> IpChurnReport {
        let w = World::generate(WorldConfig { days: 89, scale: 0.01, seed: 31 });
        let fleet = Fleet::paper_main();
        ip_churn_report(&w, &fleet, 0..89)
    }

    #[test]
    fn single_ip_share_near_45_percent() {
        let r = report();
        assert!(r.known_ip_peers > 200, "known-IP peers {}", r.known_ip_peers);
        let single = r.ip_hist[1] as f64 / r.known_ip_peers as f64;
        assert!((0.30..0.62).contains(&single), "single-IP share {single}");
        let multi = r.multi_ip_peers as f64 / r.known_ip_peers as f64;
        assert!(((single + multi) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heavy_rotators_exist_but_are_rare() {
        let r = report();
        let share = r.over_100_ips as f64 / r.known_ip_peers.max(1) as f64;
        assert!(share < 0.03, "over-100-IP share {share}");
        // With roamers rotating roughly daily over 89 days, at least one
        // peer should pass 60 addresses even at test scale.
        let heavy = r.ip_hist[16];
        assert!(heavy > 0, "bucket 16+ must be populated");
    }

    #[test]
    fn most_multi_ip_peers_stay_in_one_as() {
        let r = report();
        let one_as = r.as_hist[1] as f64 / r.multi_ip_peers.max(1) as f64;
        assert!(one_as > 0.65, "one-AS share among multi-IP peers {one_as}");
        assert!(r.max_ases >= 3, "roamers must span ASes (max {})", r.max_ases);
        assert!(r.max_countries >= 2);
    }

    #[test]
    fn histogram_accounts_everyone() {
        let r = report();
        let total: usize = r.ip_hist.iter().sum();
        assert_eq!(total, r.known_ip_peers);
    }
}
