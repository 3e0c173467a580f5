//! The `--threads` knob reaches the engine fill.
//!
//! The worker count is read back from the timing plane's
//! `measure.engine_workers` gauge, which is process-global, so this
//! file holds a single test: no other fill in the binary can overwrite
//! the gauge between a run and its check.

use i2p_faults::FaultSpec;
use i2pscope::cli::{self, FigId, Format, Knobs, Model};
use i2pscope::telemetry::timing;

fn knobs(threads: usize) -> Knobs {
    Knobs {
        scale: 0.01,
        seed: 41,
        days: 3,
        fleet: 4,
        replicates: 1,
        threads,
        model: Model::Uniform,
        faults: FaultSpec::default(),
    }
}

fn engine_workers() -> u64 {
    timing::report()
        .gauges
        .iter()
        .find(|(name, _)| *name == "measure.engine_workers")
        .map(|(_, workers)| *workers)
        .expect("the fill records its worker count")
}

#[test]
fn the_threads_knob_sets_the_fill_workers_and_changes_no_byte() {
    timing::enable();
    let path =
        std::env::temp_dir().join(format!("i2ps-engine-threads-{}.i2ps", std::process::id()));
    let mut outputs = Vec::new();
    for threads in [1usize, 3] {
        let k = knobs(threads);
        let figures = cli::figures_live(&k, Format::Text, &FigId::ALL);
        assert_eq!(
            engine_workers(),
            threads as u64,
            "figures --live --threads {threads}"
        );
        let summary = cli::harvest(&k, &path, false).expect("harvest");
        assert_eq!(
            engine_workers(),
            threads as u64,
            "harvest --threads {threads}"
        );
        let archive = std::fs::read(&path).expect("archive");
        outputs.push((figures, summary, archive));
    }
    let _ = std::fs::remove_file(&path);
    assert!(
        outputs[0] == outputs[1],
        "the worker count changed an output byte"
    );
}
