//! The store's counter accounting for one `harvest --out` sequence.
//!
//! The counter plane is process-global, so this file holds a single
//! test: no other test in the binary can move the counters while it
//! takes its deltas.

use i2pscope::faults::FaultPlane;
use i2pscope::measure::fleet::Fleet;
use i2pscope::measure::HarvestEngine;
use i2pscope::sim::world::{World, WorldConfig};
use i2pscope::store::Snapshot;
use i2pscope::telemetry::counters::{self, Counter};

#[test]
fn each_day_is_encoded_once_and_each_written_byte_counted_once() {
    let world = World::generate(WorldConfig {
        days: 5,
        scale: 0.01,
        seed: 31,
    });
    let fleet = Fleet::alternating(4);
    let engine = HarvestEngine::build(&world, &fleet, 0..5);
    let path =
        std::env::temp_dir().join(format!("i2ps-store-accounting-{}.i2ps", std::process::id()));

    // The calls `cli::harvest` makes, in its order.
    let base = counters::snapshot();
    let snapshot = Snapshot::capture(&engine);
    let captured = counters::snapshot().delta_since(&base);
    let bytes = snapshot.to_bytes().expect("encode");
    let encoded = counters::snapshot().delta_since(&base);
    snapshot
        .write_to_with(&path, &FaultPlane::zero())
        .expect("write");
    let written = counters::snapshot().delta_since(&base);
    let file = std::fs::read(&path).expect("archive");
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        captured.get(Counter::SegmentsEncoded),
        5,
        "capture encodes each day once"
    );
    assert_eq!(
        encoded.get(Counter::SegmentsEncoded),
        5,
        "to_bytes copies the stored segments instead of encoding them again"
    );
    assert_eq!(
        encoded.get(Counter::StoreBytesWritten),
        0,
        "to_bytes writes no file"
    );
    assert_eq!(
        written.get(Counter::SegmentsEncoded),
        5,
        "the writer encodes nothing"
    );
    assert_eq!(file, bytes, "the file holds exactly the to_bytes image");
    assert_eq!(
        written.get(Counter::StoreBytesWritten),
        file.len() as u64,
        "every written byte is counted once"
    );
}
