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
//! (each figure function in this crate), so the fused suite and a lone
//! figure compute with one code path and render the same bytes.

use crate::observed::ObservedRouterInfo;
use crate::source::{SnapshotDay, SnapshotSource};
use i2p_geoip::GeoDb;
use std::cell::{Cell, OnceCell};
use std::ops::Range;

/// One day of a dataset, as the driver hands it to every fold.
///
/// Cheap queries (per-vantage counts, the coverage curve) go straight
/// to the day's handle; the full-fleet union observations are
/// materialized on first use and then shared by every later reader.
pub struct DayView<'a> {
    vantage_count: usize,
    geo: &'a GeoDb,
    day: &'a dyn SnapshotDay,
    observations: OnceCell<Vec<ObservedRouterInfo>>,
    /// The previous day's observation buffer, refilled on first use.
    spare: Cell<Vec<ObservedRouterInfo>>,
}

impl DayView<'_> {
    /// Number of vantages harvested.
    pub fn vantage_count(&self) -> usize {
        self.vantage_count
    }

    /// The geo database observations resolve against.
    pub fn geo(&self) -> &GeoDb {
        self.geo
    }

    /// Peers a single vantage saw on the day.
    pub fn count_one(&self, vantage: usize) -> usize {
        self.day.count_one(vantage)
    }

    /// Peers the whole fleet saw on the day.
    pub fn count_union(&self) -> usize {
        self.day.count_union()
    }

    /// Fig. 4's cumulative coverage for the day (see
    /// [`SnapshotDay::coverage_curve`]).
    pub fn coverage_curve(&self) -> Vec<usize> {
        self.day.coverage_curve()
    }

    /// The observation record of every peer the whole fleet saw on the
    /// day, ascending by peer id — materialized once per day.
    pub fn observations(&self) -> &[ObservedRouterInfo] {
        self.observations.get_or_init(|| {
            let mut out = self.spare.take();
            out.clear();
            self.day.for_each_observation(&mut |rec| out.push(rec.clone()));
            out
        })
    }

    /// Visits the id of every peer the whole fleet saw on the day,
    /// ascending, off the source's membership sets.
    pub fn for_each_union_id(&self, mut f: impl FnMut(u32)) {
        self.day.for_each_union_id(&mut f);
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
    let (vantage_count, geo) = (src.vantage_count(), src.geo());
    // One observation buffer serves the whole walk.
    let mut spare = Vec::new();
    src.visit_days(days, &mut |day, handle| {
        let view = DayView {
            vantage_count,
            geo,
            day: handle,
            observations: OnceCell::new(),
            spare: Cell::new(std::mem::take(&mut spare)),
        };
        fold.day(day, &view);
        spare = view.observations.into_inner().unwrap_or_else(|| view.spare.take());
    });
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
