//! The replay abstraction: one query surface for live harvests and
//! archived snapshots.
//!
//! The paper's analyses all ran *offline*, against an archive of netDb
//! harvests collected over weeks — the fleet ran once, the figures ran
//! forever. [`SnapshotSource`] is that separation line in this
//! reproduction: every figure function consumes this trait, so the same
//! pipeline runs off either a freshly filled [`HarvestEngine`] (live) or
//! a loaded `i2p-store` snapshot (replay) with **bit-identical** output.
//!
//! The surface is split in two, and the split is the contract:
//!
//! * the **window** ([`SnapshotSource`]) knows its day range, its
//!   vantage count and its geo database, and walks its days in
//!   ascending order ([`SnapshotSource::visit_days`]) — nothing on it
//!   takes a day;
//! * the **day** ([`SnapshotDay`]) is the handle that walk hands out,
//!   and the only place per-day queries live: per-vantage counts, the
//!   full-fleet union count, the coverage curve, the union's peer ids
//!   ascending, and the union's observation records ascending by peer
//!   id — exactly the sets and [`ObservedRouterInfo`]s the engine
//!   computes (the snapshot archives them verbatim).
//!
//! `tests/store_replay.rs` in the umbrella crate pins the byte-identity
//! end to end (text and CSV figure renders, live vs replayed).

use crate::engine::HarvestEngine;
use crate::fold::{self, DayFold, DayView};
use crate::observed::ObservedRouterInfo;
use i2p_geoip::GeoDb;
use std::ops::Range;

/// How completely a dataset covers its (vantage, day) grid — the
/// degraded-mode ledger the figure renderers annotate from.
///
/// Derived purely from the data (a cell is *dark* when its vantage saw
/// nothing that day), so a live engine and its replayed snapshot agree
/// by construction, and archives need no format change to carry it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Days the dataset spans.
    pub days_expected: usize,
    /// Days where every vantage reported sightings.
    pub days_full: usize,
    /// Days where some, but not all, vantages reported.
    pub days_partial: usize,
    /// Days where no vantage reported anything.
    pub days_dark: usize,
    /// (vantage, day) cells in the grid.
    pub cells_expected: usize,
    /// Cells with at least one sighting.
    pub cells_observed: usize,
}

impl Coverage {
    /// Whether any cell is dark — i.e. the figures run on a partial
    /// harvest and should say so.
    pub fn is_degraded(&self) -> bool {
        self.cells_observed < self.cells_expected
    }

    /// The one-line annotation degraded figure renders carry.
    pub fn annotation(&self) -> String {
        format!(
            "degraded harvest: days observed {}/{} (full {}, partial {}, dark {}); \
             vantage-day cells {}/{}",
            self.days_full + self.days_partial,
            self.days_expected,
            self.days_full,
            self.days_partial,
            self.days_dark,
            self.cells_observed,
            self.cells_expected,
        )
    }
}

/// A queryable harvested dataset — either a live [`HarvestEngine`] or
/// a loaded snapshot — seen as a window of days.
pub trait SnapshotSource {
    /// The day range the dataset covers.
    fn days(&self) -> Range<u64>;

    /// Number of vantages harvested (prefix order is fixed).
    fn vantage_count(&self) -> usize;

    /// The geo database observations resolve against. Live sources
    /// return the world's; snapshots rebuild the (deterministic,
    /// parameter-free) synthetic database.
    fn geo(&self) -> &GeoDb;

    /// Visits each day of `days` in ascending order, handing `f` that
    /// day's [`SnapshotDay`]. Every reader goes through this visit (the
    /// figure driver in [`crate::fold`], [`coverage`](Self::coverage)),
    /// so a file-backed source loads each day once per walk and holds
    /// only that day.
    fn visit_days(&self, days: Range<u64>, f: &mut dyn FnMut(u64, &dyn SnapshotDay));

    /// The dataset's (vantage, day) coverage ledger; see [`Coverage`].
    fn coverage(&self) -> Coverage {
        let mut cov = CoverageFold::default();
        fold::run(self, self.days(), &mut cov);
        cov.finish()
    }
}

/// One day of a [`SnapshotSource`], as its day walk hands it out. Every
/// union below is the whole fleet's.
pub trait SnapshotDay {
    /// Peers a single vantage saw.
    fn count_one(&self, vantage: usize) -> usize;

    /// Peers the whole fleet saw.
    fn count_union(&self) -> usize;

    /// Fig. 4's cumulative coverage: `curve[k-1]` = peers seen by the
    /// first `k` vantages.
    fn coverage_curve(&self) -> Vec<usize>;

    /// Visits the id of every peer the fleet saw, ascending.
    fn for_each_union_id(&self, f: &mut dyn FnMut(u32));

    /// Visits the observation record of every peer the fleet saw,
    /// ascending by peer id.
    fn for_each_observation(&self, f: &mut dyn FnMut(&ObservedRouterInfo));
}

/// The [`Coverage`] ledger as a per-day fold.
#[derive(Default)]
pub struct CoverageFold(Coverage);

impl CoverageFold {
    /// The ledger over the days folded so far.
    pub fn finish(self) -> Coverage {
        self.0
    }
}

impl DayFold for CoverageFold {
    fn day(&mut self, _day: u64, view: &DayView<'_>) {
        let n_v = view.vantage_count();
        let observed = (0..n_v).filter(|&v| view.count_one(v) > 0).count();
        let cov = &mut self.0;
        cov.days_expected += 1;
        cov.cells_expected += n_v;
        cov.cells_observed += observed;
        if observed == n_v {
            cov.days_full += 1;
        } else if observed > 0 {
            cov.days_partial += 1;
        } else {
            cov.days_dark += 1;
        }
    }
}

impl SnapshotSource for HarvestEngine<'_> {
    fn days(&self) -> Range<u64> {
        HarvestEngine::days(self)
    }

    fn vantage_count(&self) -> usize {
        self.vantages().len()
    }

    fn geo(&self) -> &GeoDb {
        &self.world().geo
    }

    fn visit_days(&self, days: Range<u64>, f: &mut dyn FnMut(u64, &dyn SnapshotDay)) {
        for day in days {
            f(day, &EngineDay { engine: self, day });
        }
    }
}

/// One filled day of a [`HarvestEngine`]: the engine's `(day, k)`
/// queries with the day fixed and `k` the whole fleet.
struct EngineDay<'a, 'w> {
    engine: &'a HarvestEngine<'w>,
    day: u64,
}

impl SnapshotDay for EngineDay<'_, '_> {
    fn count_one(&self, vantage: usize) -> usize {
        self.engine.count_one(vantage, self.day)
    }

    fn count_union(&self) -> usize {
        self.engine.count_union(self.day)
    }

    fn coverage_curve(&self) -> Vec<usize> {
        self.engine.coverage_curve(self.day)
    }

    fn for_each_union_id(&self, f: &mut dyn FnMut(u32)) {
        let k = self.engine.vantages().len();
        self.engine.for_each_union_peer(self.day, k, |peer| f(peer.id));
    }

    fn for_each_observation(&self, f: &mut dyn FnMut(&ObservedRouterInfo)) {
        let k = self.engine.vantages().len();
        self.engine.for_each_observation(self.day, k, |rec| f(&rec));
    }
}
