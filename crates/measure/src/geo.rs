//! Geographic analyses: Fig. 10 (countries) and Fig. 11 (ASes).
//!
//! §5.3.2's counting rule for multi-IP peers: "for each peer associated
//! with many IP addresses, we resolve these IP addresses into ASNs and
//! countries before counting them … If two IP addresses of the same
//! peer reside in the same ASN/country, we count the peer only once.
//! Otherwise, each different IP is counted."

use crate::engine::HarvestEngine;
use crate::fleet::Fleet;
use crate::ipchurn::{collect_ip_stats_from, PeerIpStats};
use crate::source::SnapshotSource;
use i2p_data::FxHashMap;
use i2p_geoip::GeoDb;
use i2p_sim::world::World;

/// A ranked distribution row.
#[derive(Clone, Debug)]
pub struct RankedRow {
    /// Display label (country name or AS number).
    pub label: String,
    /// Peers counted under the §5.3.2 rule.
    pub peers: usize,
    /// Cumulative percentage through this rank.
    pub cumulative_pct: f64,
}

/// Country-level result (Fig. 10).
#[derive(Clone, Debug)]
pub struct GeoReport {
    /// All countries, descending.
    pub rows: Vec<RankedRow>,
    /// Total peer-country count (denominator).
    pub total: usize,
    /// Peers in censored (press-freedom > 50) countries.
    pub censored_peers: usize,
    /// Number of censored countries observed.
    pub censored_countries: usize,
    /// Number of distinct countries observed.
    pub countries_observed: usize,
    /// Addresses the geo database could not resolve (§5.3.2's ~2 K).
    pub unresolved_addresses: usize,
}

/// Computes Fig. 10 over the window.
pub fn country_distribution(world: &World, fleet: &Fleet, days: std::ops::Range<u64>) -> GeoReport {
    let engine = HarvestEngine::build(world, fleet, days.clone());
    country_distribution_from(&engine, days)
}

/// [`country_distribution`] off any source.
pub fn country_distribution_from<S: SnapshotSource + ?Sized>(
    src: &S,
    days: std::ops::Range<u64>,
) -> GeoReport {
    GeoReport::of(&collect_ip_stats_from(src, days), src.geo())
}

impl GeoReport {
    /// Fig. 10 from the per-peer IP map (see
    /// [`IpStatsFold`](crate::ipchurn::IpStatsFold)).
    pub fn of(stats: &FxHashMap<u32, PeerIpStats>, geo: &GeoDb) -> GeoReport {
        let mut per_country: FxHashMap<usize, usize> = FxHashMap::default();
        let mut unresolved = 0usize;
        for s in stats.values() {
            // The §5.3.2 rule: one count per (peer, country).
            for &c in &s.countries {
                *per_country.entry(c).or_default() += 1;
            }
            // Addresses without any resolution.
            if s.countries.is_empty() && !s.ips.is_empty() {
                unresolved += s.ips.len();
            }
        }
        let total: usize = per_country.values().sum();
        let mut items: Vec<(usize, usize)> = per_country.into_iter().collect();
        items.sort_by_key(|item| std::cmp::Reverse(item.1));
        let mut cum = 0usize;
        let mut censored_peers = 0;
        let mut censored_countries = 0;
        let rows = items
            .iter()
            .map(|&(c, n)| {
                cum += n;
                if geo.is_censored(c) {
                    censored_peers += n;
                    censored_countries += 1;
                }
                RankedRow {
                    label: geo.country_name(c).to_string(),
                    peers: n,
                    cumulative_pct: 100.0 * cum as f64 / total.max(1) as f64,
                }
            })
            .collect::<Vec<_>>();
        GeoReport {
            countries_observed: rows.len(),
            rows,
            total,
            censored_peers,
            censored_countries,
            unresolved_addresses: unresolved,
        }
    }
}

/// AS-level result (Fig. 11).
#[derive(Clone, Debug)]
pub struct AsReport {
    /// All ASes, descending.
    pub rows: Vec<RankedRow>,
    /// Total peer-AS count.
    pub total: usize,
}

/// Computes Fig. 11 over the window.
pub fn as_distribution(world: &World, fleet: &Fleet, days: std::ops::Range<u64>) -> AsReport {
    let engine = HarvestEngine::build(world, fleet, days.clone());
    as_distribution_from(&engine, days)
}

/// [`as_distribution`] off any source.
pub fn as_distribution_from<S: SnapshotSource + ?Sized>(
    src: &S,
    days: std::ops::Range<u64>,
) -> AsReport {
    AsReport::of(&collect_ip_stats_from(src, days))
}

impl AsReport {
    /// Fig. 11 from the per-peer IP map.
    pub fn of(stats: &FxHashMap<u32, PeerIpStats>) -> AsReport {
        let mut per_as: FxHashMap<u32, usize> = FxHashMap::default();
        for s in stats.values() {
            for &a in &s.ases {
                *per_as.entry(a).or_default() += 1;
            }
        }
        let total: usize = per_as.values().sum();
        let mut items: Vec<(u32, usize)> = per_as.into_iter().collect();
        items.sort_by_key(|item| std::cmp::Reverse(item.1));
        let mut cum = 0usize;
        let rows = items
            .iter()
            .map(|&(a, n)| {
                cum += n;
                RankedRow {
                    label: a.to_string(),
                    peers: n,
                    cumulative_pct: 100.0 * cum as f64 / total.max(1) as f64,
                }
            })
            .collect();
        AsReport { rows, total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipchurn::collect_ip_stats;
    use i2p_sim::world::WorldConfig;

    fn setup() -> (World, Fleet) {
        (
            World::generate(WorldConfig { days: 30, scale: 0.03, seed: 51 }),
            Fleet::paper_main(),
        )
    }

    #[test]
    fn fig10_us_leads_top20_majority() {
        let (w, fleet) = setup();
        let rep = country_distribution(&w, &fleet, 0..30);
        assert_eq!(rep.rows[0].label, "United States", "US tops Fig. 10");
        // Top-20 carry the majority (paper: >60 %).
        let top20 = rep.rows.get(19).map(|r| r.cumulative_pct).unwrap_or(100.0);
        assert!((45.0..80.0).contains(&top20), "top-20 cumulative {top20}");
        assert!(rep.countries_observed > 50, "long tail observed ({})", rep.countries_observed);
    }

    #[test]
    fn fig10_censored_countries_present() {
        let (w, fleet) = setup();
        let rep = country_distribution(&w, &fleet, 0..30);
        assert!(rep.censored_countries >= 10, "censored countries {}", rep.censored_countries);
        let share = rep.censored_peers as f64 / rep.total as f64;
        // Paper: ~6 K of ~170 K cumulative ≈ 3.5 %.
        assert!((0.01..0.09).contains(&share), "censored share {share}");
        // China leads the censored group (§5.3.2).
        let cn_rank = rep.rows.iter().position(|r| r.label == "China");
        let top_censored = rep
            .rows
            .iter()
            .find(|r| {
                w.geo
                    .country_by_code("CN")
                    .map(|c| w.geo.country_name(c) == r.label)
                    .unwrap_or(false)
            })
            .map(|r| r.peers)
            .unwrap_or(0);
        assert!(cn_rank.is_some());
        assert!(top_censored > 0);
    }

    #[test]
    fn fig11_comcast_leads() {
        let (w, fleet) = setup();
        let rep = as_distribution(&w, &fleet, 0..30);
        assert_eq!(rep.rows[0].label, "7922", "AS7922 tops Fig. 11");
        // Top-20 ASes: paper says >30 % of peers.
        let top20 = rep.rows.get(19).map(|r| r.cumulative_pct).unwrap_or(100.0);
        assert!((20.0..60.0).contains(&top20), "top-20 AS cumulative {top20}");
    }

    #[test]
    fn multi_country_peers_counted_once_per_country() {
        let (w, fleet) = setup();
        let rep = country_distribution(&w, &fleet, 0..30);
        let stats = collect_ip_stats(&w, &fleet, 0..30);
        let naive: usize = stats.values().map(|s| s.countries.len()).sum();
        assert_eq!(rep.total, naive, "counting rule: once per (peer, country)");
        // And the total exceeds the number of peers (roamers add
        // multiple country entries).
        assert!(rep.total >= stats.len());
    }
}
