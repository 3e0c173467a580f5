//! One pass per day: the figure suite as per-day folds.
//!
//! Every figure of §4.3 and §5 is computed from the same daily netDb
//! snapshots, so the figure layer is shaped like the study itself: a
//! driver ([`run`]) owns the day clock and walks the window once, and
//! each analysis is a [`DayFold`] that sees one day at a time and keeps
//! only its own running state. Several folds fed from one walk share
//! the day's work — a file-backed source loads each day segment once,
//! and the day's union observations are materialized once, however
//! many folds read them.
//!
//! A fold run alone through the same driver is the single-figure path
//! (every `*_from` function in this crate), so the fused suite and a
//! lone figure compute with one code path and render the same bytes.

use crate::observed::ObservedRouterInfo;
use crate::source::SnapshotSource;
use i2p_geoip::GeoDb;
use std::cell::OnceCell;
use std::ops::Range;

/// One day of a dataset, as the driver hands it to every fold.
///
/// Cheap queries (per-vantage counts, the coverage curve) go straight
/// to the day's source; the full-fleet union observations are
/// materialized on first use and then shared by every later reader.
pub struct DayView<'a> {
    day: u64,
    src: &'a dyn SnapshotSource,
    observations: OnceCell<Vec<ObservedRouterInfo>>,
}

impl<'a> DayView<'a> {
    /// Wraps `src`, which must answer queries for `day`.
    pub fn new(day: u64, src: &'a dyn SnapshotSource) -> DayView<'a> {
        DayView { day, src, observations: OnceCell::new() }
    }

    /// Number of vantages harvested.
    pub fn vantage_count(&self) -> usize {
        self.src.vantage_count()
    }

    /// The geo database observations resolve against.
    pub fn geo(&self) -> &GeoDb {
        self.src.geo()
    }

    /// Peers a single vantage saw on the day.
    pub fn count_one(&self, vantage: usize) -> usize {
        self.src.count_one(vantage, self.day)
    }

    /// Peers the whole fleet saw on the day.
    pub fn count_union(&self) -> usize {
        self.src.count_union_prefix(self.day, self.vantage_count())
    }

    /// Fig. 4's cumulative coverage for the day (see
    /// [`SnapshotSource::coverage_curve`]).
    pub fn coverage_curve(&self) -> Vec<usize> {
        self.src.coverage_curve(self.day)
    }

    /// The observation record of every peer the whole fleet saw on the
    /// day, ascending by peer id — materialized once per day.
    pub fn observations(&self) -> &[ObservedRouterInfo] {
        self.observations.get_or_init(|| {
            let mut out = Vec::new();
            self.src.for_each_observation_ref(self.day, self.vantage_count(), &mut |rec| {
                out.push(rec.clone());
            });
            out
        })
    }

    /// Visits the id of every peer the whole fleet saw on the day,
    /// ascending, off the source's membership sets.
    pub fn for_each_union_id(&self, mut f: impl FnMut(u32)) {
        self.src.for_each_union_id(self.day, self.vantage_count(), &mut f);
    }
}

/// A per-day accumulator: the driver calls [`day`](DayFold::day) once
/// per day of the window, in ascending order; each fold then exposes
/// its own `finish` for the result.
pub trait DayFold {
    /// Folds one day into the running state.
    fn day(&mut self, day: u64, view: &DayView<'_>);
}

/// Closures are folds, for one-off accumulations.
impl<F: FnMut(u64, &DayView<'_>)> DayFold for F {
    fn day(&mut self, day: u64, view: &DayView<'_>) {
        self(day, view)
    }
}

/// The driver: walks `days` of `src` once, ascending, and feeds each
/// day to `fold`. A suite of folds is one fold that forwards to its
/// members, so they all share the one walk.
pub fn run<S: SnapshotSource + ?Sized>(src: &S, days: Range<u64>, fold: &mut dyn DayFold) {
    src.visit_days(days, &mut |day, day_src| fold.day(day, &DayView::new(day, day_src)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HarvestEngine;
    use crate::fleet::Fleet;
    use i2p_sim::world::{World, WorldConfig};

    #[test]
    fn the_driver_visits_each_day_once_in_order_and_views_match_the_source() {
        let world = World::generate(WorldConfig { days: 6, scale: 0.01, seed: 5 });
        let fleet = Fleet::alternating(4);
        let engine = HarvestEngine::build(&world, &fleet, 0..6);
        let mut seen = Vec::new();
        run(&engine, 1..5, &mut |day: u64, view: &DayView<'_>| {
            assert_eq!(view.coverage_curve(), engine.coverage_curve(day));
            assert_eq!(view.count_union(), engine.count_union(day));
            let mut ids = Vec::new();
            view.for_each_union_id(|id| ids.push(id));
            assert_eq!(ids, engine.union_prefix_ids(day, 4));
            assert_eq!(view.observations().len(), view.count_union());
            seen.push(day);
        });
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }
}
