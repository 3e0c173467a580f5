//! The analyst's workflow at paper shape, timed end to end and broken
//! into layers.
//!
//! Every run uses the paper's shape: scale 1, 89 days, the 20-vantage
//! `Fleet::paper_main`, the uniform visibility model, no faults, and
//! two worker threads. The seed comes from `--seed` (the paper's
//! study start, 20180201, has committed output digests).
//!
//! Workloads — each runs alone in its own process, because the counter
//! plane is process-global:
//!
//! * `census-live` — `cli::figures_live`, all ten figures as text: world
//!   generation, engine fill and the figure folds; the store is idle.
//! * `archive` — set-up writes a fresh archive with `cli::harvest`; the
//!   timed command replays it with `cli::figures_from`. The store is
//!   written in set-up and read when timed. Every archive goes to a fresh
//!   path under `.bench_out/` and is deleted when the run ends.
//! * `censorship` — `cli::adversary("censor")` (Fig. 13),
//!   `cli::adversary("closedloop")` (Fig. 13→14) and `cli::sweep` with
//!   64 replicates (Fig. 14): the adversary registry and the TestNet;
//!   the store and the figure folds are idle.
//!
//! A run first sets up: [`SETUP_RUNS`] warm-up calls of the timed
//! command for `census-live` and `censorship`, one harvest for
//! `archive`. It then calls the timed command back to back
//! (a closed loop, one caller) for `--seconds` seconds and at least
//! [`MIN_TIMED_RUNS`] times, and reports medians: `wall_s`, `peak_rss_mb`
//! (the resident high-water mark, reset before each call, with glibc's
//! allocator thresholds fixed; see `sys.rs`), `setup_s`, `setup_rss_mb`.
//! With `--trace 1` it then enables the timing plane and replays each
//! entrypoint as the sequence of public calls it makes, each wrapped in a
//! benchmark-owned span (see `trace.rs`), and reports per-layer self
//! times and counts instead of the end-to-end metrics. The Chrome trace
//! of the replay goes to `.bench_out/trace-<workload>-<seed>.json`.
//!
//! Every output is checked (digests, paper anchors, counter repeats; see
//! `checks.rs`). The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod checks;
mod sys;
mod trace;

use checks::{Cmd, Ledger, ARCHIVE_MASK, DEFAULT_SEED};
use i2pscope::cli::{self, FigId, Format, Knobs, Model};
use i2pscope::faults::FaultSpec;
use i2pscope::measure::adversary::{self, AdversaryLab};
use i2pscope::measure::engine::HarvestEngine;
use i2pscope::measure::report;
use i2pscope::measure::usability::{self, UsabilityConfig};
use i2pscope::store::{LazySnapshot, Snapshot};
use i2pscope::telemetry::counters::{self, Counter, Snapshot as Counters};
use i2pscope::telemetry::{self, span};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads for the engine fill and the scenario sweeps.
const THREADS: usize = 2;
/// Fig. 14 replicates per blocking rate in the timed `sweep`.
const REPLICATES: usize = 64;
/// Warm-up calls per run for `census-live` and `censorship`; `setup_s`
/// is their median. Five, so that neither the first (cold) call nor any
/// other single call decides the median.
const SETUP_RUNS: usize = 5;
/// Fewest timed calls per run, however short `--seconds` is.
const MIN_TIMED_RUNS: usize = 3;
/// Directory (under the repository root) for archives and traces.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: workflow --workload census-live|archive|censorship \
                     --seed N --seconds N --trace 0|1";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    CensusLive,
    Archive,
    Censorship,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::CensusLive => "census-live",
            Workload::Archive => "archive",
            Workload::Censorship => "censorship",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        // `cargo bench` appends `--bench` to the arguments it forwards.
        if flag == "--bench" {
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "census-live" => Workload::CensusLive,
                    "archive" => Workload::Archive,
                    "censorship" => Workload::Censorship,
                    _ => return Err(bad("census-live, archive or censorship")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u32>().map_err(|_| bad("whole seconds"))? as f64)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The paper-shaped knobs every workload runs with.
fn paper_knobs(seed: u64) -> Knobs {
    Knobs {
        scale: 1.0,
        seed,
        days: 89,
        fleet: 20,
        replicates: REPLICATES,
        threads: THREADS,
        model: Model::Uniform,
        faults: FaultSpec::default(),
    }
}

// ------------------------------------------------------------ sampling

/// One measured call: wall time, resident high-water mark, counter
/// delta, and what the call returned.
struct Sample<T> {
    wall_s: f64,
    peak_rss_mb: f64,
    counters: Counters,
    out: T,
}

fn sample<T>(f: impl FnOnce() -> T) -> Result<Sample<T>, String> {
    // Each call starts from a trimmed heap, as a fresh CLI process would,
    // so its high-water mark holds nothing an earlier call left behind.
    sys::release_free_heap();
    sys::reset_peak_rss()?;
    let before = counters::snapshot();
    let start = Instant::now();
    let out = black_box(f());
    let wall_s = start.elapsed().as_secs_f64();
    let counters = counters::snapshot().delta_since(&before);
    Ok(Sample {
        wall_s,
        peak_rss_mb: sys::peak_rss_mb()?,
        counters,
        out,
    })
}

impl<T, E: std::fmt::Display> Sample<Result<T, E>> {
    /// The sample of a call that succeeded; a failed call is an error.
    fn ok_or(self, what: &str) -> Result<Sample<T>, String> {
        let out = self.out.map_err(|e| format!("{what}: {e}"))?;
        Ok(Sample {
            wall_s: self.wall_s,
            peak_rss_mb: self.peak_rss_mb,
            counters: self.counters,
            out,
        })
    }
}

/// Median wall time of `samples`.
fn median_wall<T>(samples: &[Sample<T>]) -> f64 {
    median(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>())
}

/// Calls `f` back to back for `seconds` and at least [`MIN_TIMED_RUNS`]
/// times.
fn timed_loop<T>(seconds: f64, mut f: impl FnMut() -> T) -> Result<Vec<Sample<T>>, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_TIMED_RUNS || start.elapsed().as_secs_f64() < seconds {
        samples.push(sample(&mut f)?);
    }
    Ok(samples)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Records each sample as an attempted command and checks that all of
/// them printed the same bytes and moved the counters identically, and,
/// at the default seed, that the output matches the committed digest.
fn check_repeats<T>(
    ledger: &mut Ledger,
    seed: u64,
    label: &str,
    samples: &[&Sample<T>],
    text: impl Fn(&T) -> String,
    committed: u64,
) -> Vec<Cmd> {
    let first = samples
        .first()
        .map(|s| (checks::digest(text(&s.out).as_bytes()), &s.counters));
    let mut cmds = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let cmd = ledger.attempt();
        cmds.push(cmd);
        let Some((digest, counters)) = first else {
            continue;
        };
        let d = checks::digest(text(&s.out).as_bytes());
        ledger.check(cmd, d == digest, || {
            format!("{label}: call {i} printed digest {d:#018x}, call 0 printed {digest:#018x}")
        });
        ledger.check(cmd, &s.counters == counters, || {
            format!("{label}: call {i} moved the counters differently from call 0")
        });
        if i == 0 && seed == DEFAULT_SEED {
            ledger.check(cmd, d == committed, || {
                format!("{label}: digest {d:#018x} differs from the committed {committed:#018x}")
            });
        }
    }
    cmds
}

// -------------------------------------------------------------- results

#[derive(Default)]
struct Outcome {
    /// End-to-end metrics: (name, value, unit).
    e2e: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    layers: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    info: Vec<String>,
}

impl Outcome {
    fn end_to_end(&mut self, setup: &[Sample<impl Sized>], timed: &[Sample<impl Sized>]) {
        let wall: Vec<f64> = timed.iter().map(|s| s.wall_s).collect();
        let rss: Vec<f64> = timed.iter().map(|s| s.peak_rss_mb).collect();
        let setup_wall: Vec<f64> = setup.iter().map(|s| s.wall_s).collect();
        let setup_rss: Vec<f64> = setup.iter().map(|s| s.peak_rss_mb).collect();
        self.e2e = vec![
            ("wall_s", median(&wall), "s"),
            ("peak_rss_mb", median(&rss), "MiB"),
            ("setup_s", median(&setup_wall), "s"),
            ("setup_rss_mb", median(&setup_rss), "MiB"),
        ];
        self.info.push(format!(
            "samples: {} timed calls, {} set-up calls (medians reported)",
            timed.len(),
            setup.len()
        ));
        self.info.push(format!("timed wall_s samples: {wall:?}"));
        self.info
            .push(format!("set-up wall_s samples: {setup_wall:?}"));
        self.info
            .push(format!("timed peak_rss_mb samples: {rss:?}"));
    }
}

/// Per-layer metrics in output order, with units; a layer the workload
/// leaves idle reads 0.
const LAYER_UNITS: [(&str, &str); 34] = [
    ("sim.world_gen_s", "s"),
    ("engine.fill_s", "s"),
    ("engine.harvest_draws", "count"),
    ("figures.render_s", "s"),
    ("figures.fig4_s", "s"),
    ("figures.fig5_s", "s"),
    ("figures.fig6_s", "s"),
    ("figures.fig7_s", "s"),
    ("figures.fig8_s", "s"),
    ("figures.fig9_s", "s"),
    ("figures.fig10_s", "s"),
    ("figures.fig11_s", "s"),
    ("figures.fig12_s", "s"),
    ("figures.table1_s", "s"),
    ("figures.bitset_words_or", "count"),
    ("store.capture_s", "s"),
    ("store.encode_s", "s"),
    ("store.write_s", "s"),
    ("store.write_amplification", "ratio"),
    ("store.segments_encoded_per_day", "1/day"),
    ("store.archive_bytes_per_row", "B/row"),
    ("store.open_s", "s"),
    ("store.segment_loads_per_day", "1/day"),
    ("store.read_amplification", "ratio"),
    ("adversary.censor_s", "s"),
    ("adversary.closedloop_s", "s"),
    ("adversary.sweep_cells", "count"),
    ("testnet.warm_s", "s"),
    ("testnet.sweep_s", "s"),
    ("testnet.messages_sent", "count"),
    ("testnet.lookup_retry_ratio", "ratio"),
    ("cli.glue_s", "s"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// What a traced replay measured beyond the span tree.
struct Traced {
    /// Counter-derived and ratio metrics by name.
    values: Vec<(&'static str, f64)>,
    /// Untraced median wall of the timed command, for the overhead.
    untraced_wall_s: f64,
    /// Entry spans whose summed wall is the traced timed command.
    timed_entries: &'static [&'static str],
}

/// Turns the timing plane's record of the replay into per-layer metrics,
/// checks the worker gauge, and exports the Chrome trace.
fn finish_trace(
    args: &Args,
    ledger: &mut Ledger,
    replay: Cmd,
    traced: Traced,
    out: &mut Outcome,
) -> Result<(), String> {
    let report = telemetry::timing::report();
    let attribution = trace::attribute(&report)?;
    let workers = report
        .gauges
        .iter()
        .find(|(name, _)| *name == "measure.engine_workers")
        .map(|(_, v)| *v);
    ledger.check(replay, workers == Some(THREADS as u64), || {
        format!("measure.engine_workers gauge {workers:?} != pinned threads {THREADS}")
    });
    out.info.push(format!(
        "trace: measure.engine_workers gauge {workers:?}, pinned threads {THREADS}"
    ));
    let traced_wall: f64 = traced
        .timed_entries
        .iter()
        .map(|e| attribution.entry_s.get(e).copied().unwrap_or(0.0))
        .sum();
    let mut values: Vec<(&'static str, f64)> = attribution.self_s.into_iter().collect();
    values.extend(traced.values);
    values.push(("trace.unattributed_pct", attribution.unattributed_pct));
    values.push((
        "trace.overhead_pct",
        (traced_wall - traced.untraced_wall_s) * 100.0 / traced.untraced_wall_s,
    ));
    out.layers = LAYER_UNITS
        .iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, v, *unit)
        })
        .collect();
    if attribution.off_thread_spans > 0 {
        out.info.push(format!(
            "trace: {} spans on worker threads left out of the attribution",
            attribution.off_thread_spans
        ));
    }
    let path =
        Path::new(OUT_DIR).join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(
        &path,
        i2pscope::telemetry::manifest::chrome_trace_json(&report),
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.info
        .push(format!("trace: chrome trace written to {}", path.display()));
    Ok(())
}

// ------------------------------------------------------------ workloads

fn figures_text(knobs: &Knobs) -> String {
    cli::figures_live(knobs, Format::Text, &FigId::ALL)
}

/// `census-live`: the figure suite from a live world and harvest.
fn census_live(args: &Args, ledger: &mut Ledger, out: &mut Outcome) -> Result<(), String> {
    let knobs = paper_knobs(args.seed);
    let setup = (0..SETUP_RUNS)
        .map(|_| sample(|| figures_text(&knobs)))
        .collect::<Result<Vec<_>, _>>()?;
    let timed = timed_loop(args.seconds, || figures_text(&knobs))?;
    out.end_to_end(&setup, &timed);

    let all: Vec<_> = setup.iter().chain(&timed).collect();
    let cmds = check_repeats(
        ledger,
        args.seed,
        "figures --live",
        &all,
        String::clone,
        checks::FIGURES_DIGEST,
    );
    let reference = &timed[0];
    out.info.push(format!(
        "digest figures: {:#018x}",
        checks::digest(reference.out.as_bytes())
    ));
    ledger.check(
        cmds[0],
        checks::check_daily_peers(&reference.out).is_ok(),
        || checks::check_daily_peers(&reference.out).unwrap_err(),
    );
    for (cmd, s) in cmds.iter().zip(&all) {
        let store = store_counter_total(&s.counters);
        ledger.check(*cmd, store == 0, || {
            format!("figures --live moved store counters by {store}")
        });
    }
    if !args.trace {
        return Ok(());
    }

    telemetry::enable();
    let replay = ledger.attempt();
    let before = counters::snapshot();
    let (text, render) = {
        let _entry = span("bench.entry.figures_live");
        let world = {
            let _s = span(trace::WORLD);
            knobs.world()
        };
        let fleet = {
            let _s = span(trace::GLUE);
            knobs.fleet()
        };
        let engine = {
            let _s = span(trace::ENGINE);
            HarvestEngine::build_faulted(
                &world,
                &fleet,
                0..knobs.days,
                &knobs.model.visibility(),
                &knobs.plane(),
            )
        };
        let render_before = counters::snapshot();
        let text = {
            let _s = span(trace::RENDER);
            cli::render_figures(&engine, Format::Text, &FigId::ALL)
        };
        let render = counters::snapshot().delta_since(&render_before);
        drop_in(trace::ENGINE, engine);
        drop_in(trace::WORLD, world);
        (text, render)
    };
    let delta = counters::snapshot().delta_since(&before);
    check_replay(
        ledger,
        replay,
        "figures --live",
        &text,
        &reference.out,
        &delta,
        &reference.counters,
    );
    let traced = Traced {
        values: vec![
            (
                "engine.harvest_draws",
                delta.get(Counter::HarvestDraws) as f64,
            ),
            (
                "figures.bitset_words_or",
                render.get(Counter::BitsetWordsOr) as f64,
            ),
        ],
        untraced_wall_s: median_wall(&timed),
        timed_entries: &["bench.entry.figures_live"],
    };
    finish_trace(args, ledger, replay, traced, out)
}

/// `archive`: harvest to a fresh archive in set-up, replay it timed.
fn archive(args: &Args, ledger: &mut Ledger, out: &mut Outcome) -> Result<(), String> {
    let knobs = paper_knobs(args.seed);
    let work = WorkDir::create(args)?;
    let mount = sys::filesystem_of(work.path())?;
    out.info.push(format!(
        "archive filesystem: {} mounted at {} ({})",
        mount.fstype, mount.point, mount.options
    ));

    // One harvest per run: every archive is 566 MB that the run must
    // delete again, and on a `discard`-mounted filesystem that deletion
    // proceeds at 20–75 MB/s. The harvest writes a fresh path (replacing
    // a just-written archive stalls the harvest on the old file's
    // release) and the store fsyncs it before returning, so no writeback
    // of ours is pending when timing starts. The archive is removed once
    // the run is over.
    let archive = work.path().join("harvest.i2ps");
    let mut harvest = sample(|| cli::harvest(&knobs, &archive, false))?.ok_or("harvest --out")?;
    harvest.out = harvest
        .out
        .replace(&archive.display().to_string(), ARCHIVE_MASK);
    let setup = [harvest];
    sync_dir(work.path())?;
    let file_bytes = std::fs::metadata(&archive)
        .map_err(|e| e.to_string())?
        .len();

    let replay_once = || cli::figures_from(&archive, Format::Text, &FigId::ALL, false);
    let timed = timed_loop(args.seconds, replay_once)?
        .into_iter()
        .map(|s| s.ok_or("figures --from"))
        .collect::<Result<Vec<_>, _>>()?;
    out.end_to_end(&setup, &timed);

    let summary = &setup[0].out;
    let setup_cmd = ledger.attempt();
    let harvest_digest = checks::digest(summary.as_bytes());
    if args.seed == DEFAULT_SEED {
        ledger.check(setup_cmd, harvest_digest == checks::HARVEST_DIGEST, || {
            format!(
                "harvest --out: digest {harvest_digest:#018x} differs from the committed {:#018x}",
                checks::HARVEST_DIGEST
            )
        });
    }
    let replays: Vec<_> = timed.iter().collect();
    let replay_cmds = check_repeats(
        ledger,
        args.seed,
        "figures --from",
        &replays,
        String::clone,
        checks::FIGURES_DIGEST,
    );
    let reference = &timed[0].out;
    out.info
        .push(format!("digest harvest: {harvest_digest:#018x}"));
    out.info.push(format!(
        "digest figures: {:#018x}",
        checks::digest(reference.as_bytes())
    ));
    ledger.check(
        replay_cmds[0],
        checks::check_daily_peers(reference).is_ok(),
        || checks::check_daily_peers(reference).unwrap_err(),
    );

    // Replay bytes equal live bytes, for any seed.
    let live_cmd = ledger.attempt();
    let live = figures_text(&knobs);
    ledger.check(live_cmd, &live == reference, || {
        "figures --from differs from figures --live".into()
    });

    // The archive's audit line equals the one computed off the replay.
    let audit_cmd = ledger.attempt();
    let lazy = LazySnapshot::open(&archive).map_err(|e| format!("reopening the archive: {e}"))?;
    let replayed = cli::audit_line(&knobs, &lazy);
    drop(lazy);
    let rows = checks::audit_rows(summary);
    ledger.check(
        audit_cmd,
        rows.is_some() && rows == checks::audit_rows(&replayed),
        || format!("archive audit rows {rows:?} != replayed {replayed:?}"),
    );
    ledger.check(audit_cmd, summary.lines().any(|l| l == replayed), || {
        format!("replayed audit line {replayed:?} not in the harvest summary")
    });
    let bytes_per_row = file_bytes as f64 / rows.unwrap_or(1).max(1) as f64;
    out.info.push(format!(
        "archive_bytes_per_row = {bytes_per_row} B/row ({file_bytes} archive bytes)"
    ));
    if !args.trace {
        return work.remove_all(out);
    }

    // The traced replay of the timed command runs first, in the heap
    // state the timed calls ran in, so `trace.overhead_pct` compares
    // like with like.
    telemetry::enable();
    let replay_cmd = ledger.attempt();
    let before = counters::snapshot();
    let read_before = sys::bytes_read()?;
    let text = {
        let _entry = span("bench.entry.figures_from");
        let lazy = {
            let _s = span(trace::OPEN);
            LazySnapshot::open(&archive)
        }
        .map_err(|e| format!("figures --from: {e}"))?;
        let text = {
            let _s = span(trace::RENDER);
            cli::render_figures(&lazy, Format::Text, &FigId::ALL)
        };
        drop_in(trace::OPEN, lazy);
        text
    };
    let read = sys::bytes_read()? - read_before;
    let delta = counters::snapshot().delta_since(&before);
    check_replay(
        ledger,
        replay_cmd,
        "figures --from",
        &text,
        reference,
        &delta,
        &timed[0].counters,
    );

    let traced_path = work.path().join("harvest-traced.i2ps");
    let harvest_cmd = ledger.attempt();
    let before = counters::snapshot();
    let traced_summary = replay_harvest(&knobs, &traced_path)?;
    let harvest_delta = counters::snapshot().delta_since(&before);
    check_replay(
        ledger,
        harvest_cmd,
        "harvest --out",
        &traced_summary.replace(&traced_path.display().to_string(), ARCHIVE_MASK),
        summary,
        &harvest_delta,
        &setup[0].counters,
    );
    let same =
        same_bytes(&archive, &traced_path).map_err(|e| format!("comparing archives: {e}"))?;
    ledger.check(harvest_cmd, same, || {
        "the replayed harvest wrote different archive bytes".into()
    });

    let days = knobs.days as f64;
    let traced = Traced {
        values: vec![
            (
                "engine.harvest_draws",
                harvest_delta.get(Counter::HarvestDraws) as f64,
            ),
            (
                "figures.bitset_words_or",
                delta.get(Counter::BitsetWordsOr) as f64,
            ),
            (
                "store.write_amplification",
                harvest_delta.get(Counter::StoreBytesWritten) as f64 / file_bytes as f64,
            ),
            (
                "store.segments_encoded_per_day",
                harvest_delta.get(Counter::SegmentsEncoded) as f64 / days,
            ),
            ("store.archive_bytes_per_row", bytes_per_row),
            (
                "store.segment_loads_per_day",
                delta.get(Counter::SegmentsLazyLoaded) as f64 / days,
            ),
            ("store.read_amplification", read as f64 / file_bytes as f64),
        ],
        untraced_wall_s: median_wall(&timed),
        timed_entries: &["bench.entry.figures_from"],
    };
    finish_trace(args, ledger, replay_cmd, traced, out)?;
    work.remove_all(out)
}

/// `cli::harvest(knobs, path, false)` as the sequence of public calls it
/// makes, each in its own span.
fn replay_harvest(knobs: &Knobs, path: &Path) -> Result<String, String> {
    let _entry = span("bench.entry.harvest");
    let (plane, fleet) = {
        let _s = span(trace::GLUE);
        (knobs.plane(), knobs.fleet())
    };
    let world = {
        let _s = span(trace::WORLD);
        knobs.world()
    };
    let engine = {
        let _s = span(trace::ENGINE);
        HarvestEngine::build_faulted(
            &world,
            &fleet,
            0..knobs.days,
            &knobs.model.visibility(),
            &plane,
        )
    };
    let snapshot = {
        let _s = span(trace::CAPTURE);
        Snapshot::capture(&engine)
    };
    drop_in(trace::ENGINE, engine);
    let bytes = {
        let _s = span(trace::ENCODE);
        snapshot.to_bytes()
    }
    .map_err(|e| format!("encoding the snapshot: {e}"))?;
    {
        let _s = span(trace::WRITE);
        snapshot.write_to_with(path, &plane)
    }
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let text = {
        let _s = span(trace::GLUE);
        let rows = snapshot.total_rows();
        let mut text = String::new();
        let _ = writeln!(
            text,
            "archived {rows} observation rows over {} days ({} vantages) to {}",
            knobs.days,
            fleet.vantages.len(),
            path.display()
        );
        let _ = writeln!(
            text,
            "snapshot: {} bytes ({:.1} B/row), world seed {} scale {}",
            bytes.len(),
            bytes.len() as f64 / rows.max(1) as f64,
            knobs.seed,
            knobs.scale
        );
        let _ = writeln!(text, "{}", cli::audit_line(knobs, &snapshot));
        text
    };
    drop_in(trace::ENCODE, bytes);
    drop_in(trace::CAPTURE, snapshot);
    drop_in(trace::WORLD, world);
    Ok(text)
}

/// The three censorship commands, in order.
fn censorship_once(knobs: &Knobs) -> Result<[String; 3], String> {
    Ok([
        cli::adversary(knobs, "censor", Format::Text, None)?,
        cli::adversary(knobs, "closedloop", Format::Text, None)?,
        cli::sweep(knobs, Format::Text),
    ])
}

/// `censorship`: Fig. 13, the Fig. 13→14 closed loop, and Fig. 14.
fn censorship(args: &Args, ledger: &mut Ledger, out: &mut Outcome) -> Result<(), String> {
    let knobs = paper_knobs(args.seed);
    let setup = (0..SETUP_RUNS)
        .map(|_| sample(|| censorship_once(&knobs))?.ok_or("censorship"))
        .collect::<Result<Vec<_>, _>>()?;
    let timed = timed_loop(args.seconds, || censorship_once(&knobs))?
        .into_iter()
        .map(|s| s.ok_or("censorship"))
        .collect::<Result<Vec<_>, _>>()?;
    out.end_to_end(&setup, &timed);

    let all: Vec<_> = setup.iter().chain(&timed).collect();
    let cmds = check_repeats(
        ledger,
        args.seed,
        "censorship",
        &all,
        |o| o.concat(),
        checks::CENSORSHIP_DIGEST,
    );
    let reference = &timed[0];
    out.info.push(format!(
        "digest censorship: {:#018x}",
        checks::digest(reference.out.concat().as_bytes())
    ));
    let [fig13, _, _] = &reference.out;
    ledger.check(cmds[0], checks::check_blocking(fig13).is_ok(), || {
        checks::check_blocking(fig13).unwrap_err()
    });
    if !args.trace {
        return Ok(());
    }

    telemetry::enable();
    let replay = ledger.attempt();
    let before = counters::snapshot();
    let censor = replay_adversary(
        &knobs,
        "censor",
        "bench.entry.adversary_censor",
        trace::CENSOR,
    )?;
    let closedloop = replay_adversary(
        &knobs,
        "closedloop",
        "bench.entry.adversary_closedloop",
        trace::CLOSEDLOOP,
    )?;
    let adversary_delta = counters::snapshot().delta_since(&before);
    let sweep = {
        let _entry = span("bench.entry.sweep");
        // `cli::sweep` = its config, then `usability::evaluate`, which is
        // `warm_substrate` followed by `evaluate_on`, then the renderer.
        let cfg = {
            let _s = span(trace::GLUE);
            let scale = knobs.scale.min(1.0);
            UsabilityConfig {
                relays: ((64.0 * scale).round() as usize).max(24),
                floodfills: ((12.0 * scale).round() as usize).max(6),
                fetches_per_rate: ((10.0 * scale).round() as usize).max(2),
                replicates: knobs.replicates,
                threads: knobs.threads,
                seed: knobs.seed,
                faults: knobs.plane(),
                ..Default::default()
            }
        };
        let substrate = {
            let _s = span(trace::WARM);
            usability::warm_substrate(&cfg)
        };
        let points = {
            let _s = span(trace::SWEEP);
            usability::evaluate_on(&substrate, &cfg)
        };
        drop_in(trace::WARM, substrate);
        let _s = span(trace::GLUE);
        report::render_fig14(&points)
    };
    let delta = counters::snapshot().delta_since(&before);
    let text = [censor, closedloop, sweep].concat();
    check_replay(
        ledger,
        replay,
        "censorship",
        &text,
        &reference.out.concat(),
        &delta,
        &reference.counters,
    );

    let queries = delta.get(Counter::LookupQueries);
    let traced = Traced {
        values: vec![
            (
                "engine.harvest_draws",
                delta.get(Counter::HarvestDraws) as f64,
            ),
            (
                "adversary.sweep_cells",
                adversary_delta.get(Counter::SweepCells) as f64,
            ),
            (
                "testnet.messages_sent",
                delta.get(Counter::MessagesSent) as f64,
            ),
            (
                "testnet.lookup_retry_ratio",
                if queries == 0 {
                    0.0
                } else {
                    delta.get(Counter::LookupRetries) as f64 / queries as f64
                },
            ),
        ],
        untraced_wall_s: median_wall(&timed),
        timed_entries: &[
            "bench.entry.adversary_censor",
            "bench.entry.adversary_closedloop",
            "bench.entry.sweep",
        ],
    };
    finish_trace(args, ledger, replay, traced, out)
}

/// `cli::adversary(knobs, name, Text, None)` as the sequence of public
/// calls it makes, with `Adversary::run` in the span `run_span`.
fn replay_adversary(
    knobs: &Knobs,
    name: &str,
    entry: &'static str,
    run_span: &'static str,
) -> Result<String, String> {
    let _entry = span(entry);
    let adv = {
        let _s = span(trace::GLUE);
        adversary::parse_spec(name)
    }?;
    let world = {
        let _s = span(trace::WORLD);
        knobs.world()
    };
    let fleet = {
        let _s = span(trace::GLUE);
        knobs.fleet()
    };
    let lab = {
        let _s = span(trace::GLUE);
        AdversaryLab::new(&world, &fleet, 0..knobs.days, knobs.threads)
    };
    let outcome = {
        let _s = span(run_span);
        adv.run(&lab)
    };
    drop(lab);
    drop_in(trace::WORLD, world);
    let _s = span(trace::GLUE);
    Ok(format!("{}{}\n", outcome.figure, outcome.audit_line()))
}

// -------------------------------------------------------------- helpers

/// Drops `value` inside the span `name`, so freeing what a layer built
/// is charged to that layer rather than left unattributed.
fn drop_in<T>(name: &'static str, value: T) {
    let _s = span(name);
    drop(value);
}

/// Sum of the store's counters in `c` (all zero when the store is idle).
fn store_counter_total(c: &Counters) -> u64 {
    [
        Counter::SegmentsEncoded,
        Counter::SegmentsDecoded,
        Counter::SegmentsLazyLoaded,
        Counter::StoreBytesWritten,
        Counter::StoreBytesRead,
        Counter::RecordsVerified,
        Counter::SnapshotsRecovered,
    ]
    .iter()
    .map(|k| c.get(*k))
    .sum()
}

/// A traced replay must print the entrypoint's bytes and move the
/// counters exactly as the untraced entrypoint did.
fn check_replay(
    ledger: &mut Ledger,
    cmd: Cmd,
    label: &str,
    replayed: &str,
    entrypoint: &str,
    replay_counters: &Counters,
    entry_counters: &Counters,
) {
    ledger.check(cmd, replayed == entrypoint, || {
        format!("traced {label} replay printed different bytes")
    });
    ledger.check(cmd, replay_counters == entry_counters, || {
        format!("traced {label} replay moved the counters differently from the entrypoint")
    });
}

/// Whether two files hold the same bytes (streamed, O(chunk) memory).
fn same_bytes(a: &Path, b: &Path) -> std::io::Result<bool> {
    let (mut fa, mut fb) = (std::fs::File::open(a)?, std::fs::File::open(b)?);
    if fa.metadata()?.len() != fb.metadata()?.len() {
        return Ok(false);
    }
    let (mut ba, mut bb) = (vec![0u8; 1 << 22], vec![0u8; 1 << 22]);
    loop {
        let n = fa.read(&mut ba)?;
        if n == 0 {
            return Ok(true);
        }
        fb.read_exact(&mut bb[..n])?;
        if ba[..n] != bb[..n] {
            return Ok(false);
        }
    }
}

fn sync_dir(dir: &Path) -> Result<(), String> {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("syncing {}: {e}", dir.display()))
}

/// This run's working directory under [`OUT_DIR`], removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(args: &Args) -> Result<WorkDir, String> {
        let dir = Path::new(OUT_DIR).join(format!(
            "work-{}-{}",
            args.workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }

    /// Deletes the directory and its archives, and reports how long that
    /// took: unlinking a large archive waits on the device's discards.
    fn remove_all(&self, out: &mut Outcome) -> Result<(), String> {
        let start = Instant::now();
        std::fs::remove_dir_all(&self.0)
            .map_err(|e| format!("removing {}: {e}", self.0.display()))?;
        out.info.push(format!(
            "archive removal: {:.1} s",
            start.elapsed().as_secs_f64()
        ));
        Ok(())
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Already gone after `remove_all`; otherwise best effort.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<(Ledger, Outcome), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let mut ledger = Ledger::default();
    let mut out = Outcome::default();
    out.info.push(format!(
        "workload {} seed {} threads {THREADS} (available cores {}) scale 1 days 89 fleet 20 \
         model uniform faults none",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    match args.workload {
        Workload::CensusLive => census_live(args, &mut ledger, &mut out)?,
        Workload::Archive => archive(args, &mut ledger, &mut out)?,
        Workload::Censorship => censorship(args, &mut ledger, &mut out)?,
    }
    Ok((ledger, out))
}

fn json_metrics(metrics: &[(&'static str, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    // The engine fill reads its worker count from this knob; pin it
    // before any thread exists.
    std::env::set_var("I2PSCOPE_THREADS", THREADS.to_string());
    sys::fix_malloc_thresholds();
    // `cargo bench` starts benches in the package directory; archives
    // and traces go under the repository root instead.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("workflow: cannot enter {}: {e}", root.display());
        std::process::exit(1);
    }
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("workflow: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (ledger, out) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("workflow: {e}");
            std::process::exit(1);
        }
    };
    for line in &out.info {
        println!("{line}");
    }
    println!("run wall: {:.1} s", started.elapsed().as_secs_f64());
    for problem in ledger.problems() {
        println!("check failed: {problem}");
    }
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    for (name, value, unit) in metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "error_rate = {} ({} failed / {} attempted)",
        ledger.failed() as f64 / ledger.attempted().max(1) as f64,
        ledger.failed(),
        ledger.attempted()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.failed() == 0,
        ledger.attempted(),
        ledger.failed(),
        json_metrics(metrics)
    );
}
