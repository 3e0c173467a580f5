//! The fused figure pass: `render_figures` walks the source's days once
//! and feeds every requested figure's per-day fold from that one walk.
//!
//! Pins the two contracts the fusion rests on:
//!
//! * **A figure alone is its block of the suite** — each `FigId`
//!   rendered by itself equals its block of the full-suite render, in
//!   both formats, over a live engine, an eager `Snapshot` and a lazy
//!   `LazySnapshot`, with and without vantage outages (so the degraded
//!   header is covered).
//! * **One load per day** — a full render over a `LazySnapshot` loads
//!   each day segment exactly once.
//!
//! It also holds each figure function of `i2p-measure` to one result on
//! every source.

use i2pscope::cli::{self, FigId, Format};
use i2pscope::faults::{FaultPlane, FaultSpec};
use i2pscope::measure::fleet::Fleet;
use i2pscope::measure::keyspace::VisibilityModel;
use i2pscope::measure::source::SnapshotSource;
use i2pscope::measure::{capacity, churn, geo, ipchurn, population, HarvestEngine};
use i2pscope::sim::world::{World, WorldConfig};
use i2pscope::store::{LazySnapshot, Snapshot};
use std::path::PathBuf;

const DAYS: u64 = 12;

/// A self-cleaning archive path of the caller's own under the system
/// temp dir.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("i2pscope-pass-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir scratch");
        Scratch(dir.join(name))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn world() -> World {
    World::generate(WorldConfig { days: DAYS, scale: 0.02, seed: 20_180_201 })
}

fn engine<'w>(world: &'w World, faults: &str) -> HarvestEngine<'w> {
    let spec = FaultSpec::parse(faults).expect("fault spec");
    HarvestEngine::build_faulted(
        world,
        &Fleet::alternating(6),
        0..DAYS,
        &VisibilityModel::Uniform,
        &FaultPlane::new(spec, 7),
    )
}

/// The degraded-harvest header `render_figures` opens with, if any.
fn header(src: &dyn SnapshotSource, format: Format) -> String {
    let cov = src.coverage();
    match (cov.is_degraded(), format) {
        (false, _) => String::new(),
        (true, Format::Text) => format!("{}\n\n", cov.annotation()),
        (true, Format::Csv) => format!("# {}\n", cov.annotation()),
    }
}

fn assert_alone_matches_suite(src: &dyn SnapshotSource, label: &str, degraded: bool) {
    for format in [Format::Text, Format::Csv] {
        let head = header(src, format);
        assert_eq!(!head.is_empty(), degraded, "{label} {format:?}: degraded header");
        let suite = cli::render_figures(src, format, &FigId::ALL);
        let mut blocks = head.clone();
        for fig in FigId::ALL {
            let alone = cli::render_figures(src, format, &[fig]);
            let block = alone.strip_prefix(&head).unwrap_or_else(|| {
                panic!("{label} {format:?} {fig:?}: alone render lacks the header")
            });
            assert!(!block.trim().is_empty(), "{label} {format:?} {fig:?}: empty block");
            blocks.push_str(block);
        }
        assert_eq!(suite, blocks, "{label} {format:?}: suite is not its figures' blocks");
    }
}

#[test]
fn each_figure_alone_is_its_block_of_the_suite_on_every_source() {
    let world = world();
    for (faults, degraded) in [("", false), ("outage=0.3", true)] {
        let live = engine(&world, faults);
        let eager = Snapshot::capture(&live);
        let scratch = Scratch::new(&format!("parity-{}.i2ps", degraded as u8));
        eager.write_to(&scratch.0).expect("write archive");
        let lazy = LazySnapshot::open(&scratch.0).expect("lazy open");
        assert_alone_matches_suite(&live, &format!("live [{faults}]"), degraded);
        assert_alone_matches_suite(&eager, &format!("eager [{faults}]"), degraded);
        assert_alone_matches_suite(&lazy, &format!("lazy [{faults}]"), degraded);
        assert_eq!(
            cli::render_figures(&lazy, Format::Text, &FigId::ALL),
            cli::render_figures(&live, Format::Text, &FigId::ALL),
            "[{faults}]: lazy replay diverged from the live render"
        );
    }
}

/// Every figure function's result over a sub-window of `src`, as
/// `{:?}` text.
fn figure_results(src: &dyn SnapshotSource) -> Vec<String> {
    let window = 2..DAYS - 1;
    let day = DAYS / 2;
    vec![
        format!("{:?}", population::cumulative_by_router_count(src, window.clone())),
        format!("{:?}", population::daily_census(src, day)),
        format!("{:?}", population::firewalled_hidden_overlap(src, window.clone())),
        format!("{:?}", churn::churn_curves(src, 7)),
        format!("{:?}", ipchurn::collect_ip_stats(src, window.clone())),
        format!("{:?}", ipchurn::ip_churn_report(src, window.clone())),
        format!("{:?}", geo::country_distribution(src, window.clone())),
        format!("{:?}", geo::as_distribution(src, window.clone())),
        format!("{:?}", capacity::capacity_histogram(src, window)),
        format!("{:?}", capacity::bandwidth_table(src, day)),
        format!("{:?}", capacity::floodfill_estimate(src, day)),
    ]
}

#[test]
fn each_figure_function_gives_one_result_on_every_source() {
    let world = world();
    for faults in ["", "outage=0.3"] {
        let live = engine(&world, faults);
        let eager = Snapshot::capture(&live);
        let scratch = Scratch::new(&format!("functions-{}.i2ps", faults.len()));
        eager.write_to(&scratch.0).expect("write archive");
        let lazy = LazySnapshot::open(&scratch.0).expect("lazy open");
        let expected = figure_results(&live);
        assert_eq!(expected.len(), 11);
        assert_eq!(figure_results(&eager), expected, "[{faults}]: eager snapshot");
        assert_eq!(figure_results(&lazy), expected, "[{faults}]: lazy snapshot");
    }
}

#[test]
fn a_full_render_over_a_lazy_snapshot_loads_each_day_once() {
    let world = world();
    let scratch = Scratch::new("loads.i2ps");
    Snapshot::capture(&engine(&world, "")).write_to(&scratch.0).expect("write archive");
    for format in [Format::Text, Format::Csv] {
        // The reader's own ledger: other tests in this binary load
        // segments concurrently, so the process-wide counter would race.
        let lazy = LazySnapshot::open(&scratch.0).expect("lazy open");
        cli::render_figures(&lazy, format, &FigId::ALL);
        assert_eq!(lazy.segment_loads(), DAYS, "{format:?}: one load per day");
    }
}
