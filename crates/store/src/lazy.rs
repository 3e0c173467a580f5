//! Lazy, file-backed snapshot replay.
//!
//! [`Snapshot::read_from`](crate::Snapshot::read_from) materializes the
//! whole archive — every observation row, RouterInfo wire record and
//! sighting lane of every day — before the first figure is computed. At
//! million-router scale that is the dominant peak allocation of the
//! replay pipeline, and almost all of it is dead weight: a figure query
//! touches one day at a time.
//!
//! [`LazySnapshot`] keeps the file open instead. At `open` it decodes
//! the checksummed prelude (magic, version, header) eagerly, walks the
//! segment stream recording only each day's byte extent (validating tag
//! structure and day sequence as it goes), and verifies the whole-file
//! trailer checksum through the streaming [`format::Hasher`] in
//! O(chunk) memory. Day segments are then seeked, checksummed and
//! decoded on demand behind [`SnapshotSource`] and dropped as soon as
//! the query that loaded them returns — so peak memory is O(largest
//! day), not O(archive), and replayed figures remain byte-identical to
//! the eager loader's (pinned by `tests/scale_parity.rs`).
//!
//! There is no segment cache. Whole-window readers walk the archive
//! through [`SnapshotSource::visit_days`], which loads each day exactly
//! once and drops it before loading the next; a full figure render is
//! one such walk (`i2p_measure::fold`). Every load is ledgered by the
//! `segments_lazy_loaded` counter and by the reader's own
//! [`LazySnapshot::segment_loads`].

use crate::format::{checksum, Hasher, CHECKSUM_LEN, MAGIC, SEGMENT_TAG, TRAILER_TAG};
use crate::snapshot::{verify_segment_router_infos, DaySegment, SegmentDay};
use crate::{SnapshotMeta, StoreError};
use i2p_data::codec::Reader;
use i2p_geoip::GeoDb;
use i2p_measure::observed::ObservedRouterInfo;
use i2p_measure::source::SnapshotSource;
use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::ops::Range;
use std::path::Path;

/// Chunk size of the streaming trailer verification at open.
const VERIFY_CHUNK: usize = 1 << 16;

/// Fixed prelude prefix: magic, version, header length field.
const PRELUDE_FIXED: usize = MAGIC.len() + 2 + 4;

/// Byte extent of one day segment's body within the file (its checksum
/// follows immediately after).
struct SegmentLoc {
    body_offset: u64,
    body_len: usize,
}

/// A snapshot replayed straight off its file, one day segment at a
/// time. See the module docs for the loading contract.
pub struct LazySnapshot {
    meta: SnapshotMeta,
    geo: GeoDb,
    file: RefCell<File>,
    segments: Vec<SegmentLoc>,
    /// Day segments this reader has loaded.
    loads: Cell<u64>,
}

impl LazySnapshot {
    /// Opens an archive lazily: eager prelude decode, a structural walk
    /// of the segment stream (tags, lengths, day sequence), and a
    /// streaming whole-file trailer check — but no segment bodies are
    /// decoded, so open-time memory is O(header + chunk).
    pub fn open(path: impl AsRef<Path>) -> Result<LazySnapshot, StoreError> {
        let _span = i2p_telemetry::span("store.lazy_open");
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();

        // Prelude, strictly: read the fixed prefix for the header
        // length, bound it by the file size (a hostile length field
        // must not force an allocation the file cannot back), then let
        // the wire decoder validate the whole prelude.
        let mut pre = vec![0u8; PRELUDE_FIXED];
        file.read_exact(&mut pre)?;
        let header_len = {
            let mut r = Reader::new(&pre);
            r.bytes(MAGIC.len(), "snapshot.magic")?;
            r.u16("snapshot.version")?;
            r.u32("snapshot.header-len")? as usize
        };
        if (PRELUDE_FIXED + header_len + CHECKSUM_LEN) as u64 > file_len {
            return Err(StoreError::Corrupt { what: "header length" });
        }
        pre.resize(PRELUDE_FIXED + header_len + CHECKSUM_LEN, 0);
        file.read_exact(&mut pre[PRELUDE_FIXED..])?;
        let meta = crate::wire::decode_prelude(&mut Reader::new(&pre))?;

        // Structural walk: record each segment's extent and check the
        // day sequence (each body leads with its absolute day), seeking
        // over the bodies instead of reading them.
        let mut segments = Vec::new();
        let mut pos = pre.len() as u64;
        loop {
            let mut tag = 0u8;
            file.read_exact(std::slice::from_mut(&mut tag))?;
            pos += 1;
            match tag {
                SEGMENT_TAG => {
                    let mut len4 = [0u8; 4];
                    file.read_exact(&mut len4)?;
                    pos += 4;
                    let body_len =
                        Reader::new(&len4).u32("snapshot.segment-len")? as usize;
                    if pos + (body_len + CHECKSUM_LEN) as u64 > file_len || body_len < 8 {
                        return Err(StoreError::Corrupt { what: "segment length" });
                    }
                    let mut day8 = [0u8; 8];
                    file.read_exact(&mut day8)?;
                    let day = Reader::new(&day8).u64("segment.day")?;
                    if day != meta.day_start + segments.len() as u64 {
                        return Err(StoreError::Corrupt { what: "day sequence" });
                    }
                    segments.push(SegmentLoc { body_offset: pos, body_len });
                    pos += (body_len + CHECKSUM_LEN) as u64;
                    file.seek(SeekFrom::Start(pos))?;
                }
                TRAILER_TAG => {
                    let covered = pos - 1;
                    let mut sum = [0u8; CHECKSUM_LEN];
                    file.read_exact(&mut sum)?;
                    pos += CHECKSUM_LEN as u64;
                    if pos != file_len {
                        return Err(StoreError::Corrupt { what: "trailing bytes" });
                    }
                    // Whole-file integrity in O(chunk) memory: the
                    // streaming hasher needs the covered length up
                    // front, which file metadata already gave us.
                    file.seek(SeekFrom::Start(0))?;
                    let mut hasher = Hasher::new(covered as usize);
                    let mut buf = vec![0u8; VERIFY_CHUNK];
                    let mut remaining = covered as usize;
                    while remaining > 0 {
                        let take = VERIFY_CHUNK.min(remaining);
                        file.read_exact(&mut buf[..take])?;
                        hasher.update(&buf[..take]);
                        remaining -= take;
                    }
                    if hasher.finish() != sum {
                        return Err(StoreError::Corrupt { what: "file checksum" });
                    }
                    break;
                }
                _ => return Err(StoreError::Corrupt { what: "unknown tag" }),
            }
        }
        if segments.len() != meta.n_days as usize {
            return Err(StoreError::Corrupt { what: "day count" });
        }
        i2p_telemetry::count(i2p_telemetry::Counter::StoreBytesRead, file_len);
        Ok(LazySnapshot {
            meta,
            geo: GeoDb::new(),
            file: RefCell::new(file),
            segments,
            loads: Cell::new(0),
        })
    }

    /// The snapshot's metadata (decoded eagerly at open).
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// Day segments this reader has loaded so far — the per-instance
    /// twin of the process-wide `segments_lazy_loaded` counter.
    pub fn segment_loads(&self) -> u64 {
        self.loads.get()
    }

    /// Seeks, checksums and decodes one day segment. Each call is a
    /// `segments_lazy_loaded` event.
    fn load_segment(&self, di: usize) -> Result<DaySegment, StoreError> {
        let loc = &self.segments[di];
        let mut buf = vec![0u8; loc.body_len + CHECKSUM_LEN];
        {
            let mut file = self.file.borrow_mut();
            file.seek(SeekFrom::Start(loc.body_offset))?;
            file.read_exact(&mut buf)?;
        }
        let (body, sum) = buf.split_at(loc.body_len);
        if checksum(body) != sum {
            return Err(StoreError::Corrupt { what: "segment checksum" });
        }
        let seg = crate::wire::decode_segment(body, self.meta.vantages.len())?;
        self.loads.set(self.loads.get() + 1);
        i2p_telemetry::count_one(i2p_telemetry::Counter::SegmentsLazyLoaded);
        i2p_telemetry::count_one(i2p_telemetry::Counter::SegmentsDecoded);
        Ok(seg)
    }

    /// Loads the segment of `day` and answers `f` off it, for replay
    /// queries, which have no error channel: the archive was fully
    /// checksummed at open, so a failure here means the file was
    /// truncated or rewritten underneath the replay — abort loudly
    /// rather than return figures off a file that is no longer the one
    /// that was opened.
    fn with_day<T>(&self, day: u64, f: impl FnOnce(&SegmentDay<'_>) -> T) -> T {
        let di = self.di(day);
        let seg = self.load_segment(di).unwrap_or_else(|e| {
            panic!("lazy snapshot: day segment {di} unreadable after a verified open: {e}") // i2plint: allow(panic-audit) -- the file verified at open; losing it mid-replay is unrecoverable external interference
        });
        f(&SegmentDay { seg: &seg, geo: &self.geo })
    }

    /// Streaming [`crate::Snapshot::verify_router_infos`]: decodes and
    /// signature-verifies every archived RouterInfo one day segment at
    /// a time, so verification of a huge archive never holds more than
    /// one segment.
    pub fn verify_router_infos(&self) -> Result<usize, StoreError> {
        let _span = i2p_telemetry::span("store.verify");
        let mut verified = 0usize;
        for di in 0..self.segments.len() {
            let seg = self.load_segment(di)?;
            verified += verify_segment_router_infos(&seg)?;
        }
        i2p_telemetry::count(i2p_telemetry::Counter::RecordsVerified, verified as u64);
        Ok(verified)
    }

    fn di(&self, day: u64) -> usize {
        let span = SnapshotSource::days(self);
        assert!(
            span.contains(&day),
            "day {day} outside the snapshot's range {span:?}"
        );
        (day - span.start) as usize
    }
}

impl SnapshotSource for LazySnapshot {
    fn days(&self) -> Range<u64> {
        self.meta.day_start..self.meta.day_start + self.meta.n_days as u64
    }

    fn vantage_count(&self) -> usize {
        self.meta.vantages.len()
    }

    fn geo(&self) -> &GeoDb {
        &self.geo
    }

    fn count_one(&self, vantage: usize, day: u64) -> usize {
        self.with_day(day, |seg| seg.count_one(vantage, day))
    }

    fn count_union_prefix(&self, day: u64, k: usize) -> usize {
        self.with_day(day, |seg| seg.count_union_prefix(day, k))
    }

    fn coverage_curve(&self, day: u64) -> Vec<usize> {
        self.with_day(day, |seg| seg.coverage_curve(day))
    }

    fn for_each_union_id(&self, day: u64, k: usize, f: &mut dyn FnMut(u32)) {
        self.with_day(day, |seg| seg.for_each_union_id(day, k, f))
    }

    fn for_each_observation_ref(
        &self,
        day: u64,
        k: usize,
        f: &mut dyn FnMut(&ObservedRouterInfo),
    ) {
        self.with_day(day, |seg| seg.for_each_observation_ref(day, k, f))
    }

    /// Loads each day's segment once, hands it out, and drops it before
    /// loading the next: a walk holds one day at a time.
    fn visit_days(&self, days: Range<u64>, f: &mut dyn FnMut(u64, &dyn SnapshotSource)) {
        for day in days {
            self.with_day(day, |seg| f(day, seg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;
    use i2p_measure::engine::HarvestEngine;
    use i2p_measure::fleet::Fleet;
    use i2p_sim::world::{World, WorldConfig};

    /// A scratch path in the system temp dir, cleaned up on drop.
    struct Scratch(std::path::PathBuf);
    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let p = std::env::temp_dir()
                .join(format!("i2ps-lazy-{}-{tag}.i2ps", std::process::id()));
            let _ = std::fs::remove_file(&p);
            Scratch(p)
        }
    }
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// A 4-day archive at a path of the caller's own: tests run in
    /// parallel, and one test's cleanup must never delete the archive
    /// another is reading.
    fn archived(tag: &str) -> (Snapshot, Scratch) {
        let world = World::generate(WorldConfig { days: 4, scale: 0.01, seed: 99 });
        let fleet = Fleet::alternating(4);
        let engine = HarvestEngine::build(&world, &fleet, 0..4);
        let snap = Snapshot::capture(&engine);
        let scratch = Scratch::new(tag);
        snap.write_to(&scratch.0).expect("write archive");
        (snap, scratch)
    }

    #[test]
    fn lazy_replay_matches_the_eager_loader_query_for_query() {
        let (eager, scratch) = archived("query-parity");
        let lazy = LazySnapshot::open(&scratch.0).expect("lazy open");
        assert_eq!(lazy.meta(), eager.meta());
        assert_eq!(SnapshotSource::days(&lazy), SnapshotSource::days(&eager));
        assert_eq!(lazy.vantage_count(), eager.vantage_count());
        for day in 0..4 {
            assert_eq!(lazy.coverage_curve(day), eager.coverage_curve(day), "day {day}");
            for k in 1..=4 {
                assert_eq!(
                    SnapshotSource::count_union_prefix(&lazy, day, k),
                    SnapshotSource::count_union_prefix(&eager, day, k)
                );
            }
            for v in 0..4 {
                assert_eq!(
                    SnapshotSource::count_one(&lazy, v, day),
                    SnapshotSource::count_one(&eager, v, day)
                );
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            lazy.for_each_union_id(day, 4, &mut |id| a.push(id));
            eager.for_each_union_id(day, 4, &mut |id| b.push(id));
            assert_eq!(a, b, "day {day} union ids");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            lazy.for_each_observation_ref(day, 4, &mut |r| a.push(r.clone()));
            eager.for_each_observation_ref(day, 4, &mut |r| b.push(r.clone()));
            assert_eq!(a, b, "day {day} observations");
        }
        assert_eq!(
            lazy.verify_router_infos().expect("streaming verify"),
            eager.verify_router_infos().expect("eager verify")
        );
    }

    #[test]
    fn a_day_walk_loads_each_segment_once() {
        let (eager, scratch) = archived("day-walk");
        let lazy = LazySnapshot::open(&scratch.0).expect("lazy open");
        assert_eq!(lazy.segment_loads(), 0, "open decodes no segment");
        // A walk loads each visited day once, however many queries the
        // visitor makes of it.
        let mut curves = Vec::new();
        lazy.visit_days(1..4, &mut |day, src| {
            curves.push(src.coverage_curve(day));
            assert_eq!(src.count_union_prefix(day, 4), curves[curves.len() - 1][3]);
        });
        assert_eq!(lazy.segment_loads(), 3);
        assert_eq!(curves, (1..4).map(|d| eager.coverage_curve(d)).collect::<Vec<_>>());
        // The coverage ledger is one walk of the whole archive.
        assert_eq!(lazy.coverage(), eager.coverage());
        assert_eq!(lazy.segment_loads(), 3 + 4);
        // A lone query loads its day and keeps nothing.
        lazy.coverage_curve(2);
        lazy.coverage_curve(2);
        assert_eq!(lazy.segment_loads(), 3 + 4 + 2);
    }

    #[test]
    fn lazy_open_rejects_corruption_everywhere() {
        let (_eager, scratch) = archived("corruption-source");
        let bytes = std::fs::read(&scratch.0).expect("read archive");
        let bad_path = Scratch::new("corruption-planted");
        // Structural and checksum damage at a stride through the file,
        // plus truncations: open must refuse them all (the walk catches
        // structure, the streaming trailer check catches everything
        // else before any query runs).
        let stride = (bytes.len() / 97).max(1);
        for pos in (0..bytes.len()).step_by(stride) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            std::fs::write(&bad_path.0, &bad).expect("plant corrupt");
            assert!(LazySnapshot::open(&bad_path.0).is_err(), "flip at {pos} undetected");
        }
        for cut in [0, PRELUDE_FIXED, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&bad_path.0, &bytes[..cut]).expect("plant truncated");
            assert!(LazySnapshot::open(&bad_path.0).is_err(), "cut {cut} undetected");
        }
    }
}
