//! Per-layer attribution of a traced replay.
//!
//! The replay wraps every public call an entrypoint makes in a span
//! owned by this benchmark (`bench.*`); the program's own spans
//! (`measure.*`, `store.*`) nest under them. A span's self time is its
//! duration minus its children's; each span's self time is charged to
//! the layer metric its name maps to, or, for a span whose name maps to
//! none (`measure.sweep`, the scenario sweep), to its parent's layer.
//! The self time of the `bench.entry.*` span around a whole entrypoint
//! is the time no layer claims: `trace.unattributed_pct`.
//!
//! Limit on `archive`: `LazySnapshot` loads day segments on demand
//! inside the figure folds and opens no span of its own, so the seeks,
//! checksums and decodes of those loads are charged to the figure that
//! asked for them (`figures.fig*_s`, `figures.render_s`). The store-read
//! layer's time is only `store.open_s`; its share inside the folds shows
//! in `store.segment_loads_per_day` and `store.read_amplification`.

use i2pscope::telemetry::timing::{SpanRecord, TimingReport};
use std::collections::BTreeMap;

/// Prefix of the span wrapping one whole entrypoint replay.
pub const ENTRY: &str = "bench.entry.";

/// Benchmark-owned span around `Knobs::world`.
pub const WORLD: &str = "bench.world";
/// Around `HarvestEngine::build_faulted`.
pub const ENGINE: &str = "bench.engine";
/// Around `cli::render_figures`.
pub const RENDER: &str = "bench.render";
/// Around `Snapshot::capture`.
pub const CAPTURE: &str = "bench.capture";
/// Around `Snapshot::to_bytes`.
pub const ENCODE: &str = "bench.encode";
/// Around `Snapshot::write_to_with`.
pub const WRITE: &str = "bench.write";
/// Around `LazySnapshot::open`.
pub const OPEN: &str = "bench.open";
/// Around `Adversary::run` for `censor`.
pub const CENSOR: &str = "bench.adversary.censor";
/// Around `Adversary::run` for `closedloop`.
pub const CLOSEDLOOP: &str = "bench.adversary.closedloop";
/// Around `usability::warm_substrate`.
pub const WARM: &str = "bench.testnet.warm";
/// Around `usability::evaluate_on`.
pub const SWEEP: &str = "bench.testnet.sweep";
/// Around the entrypoints' own glue: spec parsing, fleet and lab
/// construction, config assembly, text assembly and audit lines.
pub const GLUE: &str = "bench.glue";

/// The figure render spans the program opens, and their metrics.
const FIGURES: [(&str, &str); 10] = [
    ("measure.render_fig4", "figures.fig4_s"),
    ("measure.render_fig5", "figures.fig5_s"),
    ("measure.render_fig6", "figures.fig6_s"),
    ("measure.render_fig7", "figures.fig7_s"),
    ("measure.render_fig8", "figures.fig8_s"),
    ("measure.render_fig9", "figures.fig9_s"),
    ("measure.render_fig10", "figures.fig10_s"),
    ("measure.render_fig11", "figures.fig11_s"),
    ("measure.render_fig12", "figures.fig12_s"),
    ("measure.render_table1", "figures.table1_s"),
];

/// The layer metrics a span's self time is charged to; empty for a span
/// that inherits its parent's layer. A figure span counts toward its own
/// figure and toward the figures layer.
fn metrics_of(name: &str) -> Vec<&'static str> {
    if let Some((_, figure)) = FIGURES.iter().find(|(span, _)| *span == name) {
        return vec![*figure, "figures.render_s"];
    }
    let layer = match name {
        WORLD => "sim.world_gen_s",
        ENGINE | "measure.engine_fill" => "engine.fill_s",
        RENDER => "figures.render_s",
        CAPTURE | "store.capture" => "store.capture_s",
        ENCODE | "store.encode" => "store.encode_s",
        WRITE | "store.write" => "store.write_s",
        OPEN | "store.lazy_open" => "store.open_s",
        CENSOR => "adversary.censor_s",
        CLOSEDLOOP => "adversary.closedloop_s",
        WARM => "testnet.warm_s",
        SWEEP => "testnet.sweep_s",
        GLUE => "cli.glue_s",
        _ => return Vec::new(),
    };
    vec![layer]
}

/// Self time per layer metric over every entrypoint replayed.
pub struct Attribution {
    /// Seconds of self time per layer metric (absent: no span ran).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Share of the replays' wall time no layer claims, percent.
    pub unattributed_pct: f64,
    /// Wall seconds of each `bench.entry.*` span, by name.
    pub entry_s: BTreeMap<&'static str, f64>,
    /// Spans recorded off the replay thread (worker threads); their time
    /// overlaps the replay thread's and is not attributed.
    pub off_thread_spans: usize,
}

/// Attributes the spans of `report` to layers.
pub fn attribute(report: &TimingReport) -> Result<Attribution, String> {
    let spans: BTreeMap<u32, &SpanRecord> = report.spans.iter().map(|s| (s.id, s)).collect();
    let entries: Vec<&SpanRecord> = report
        .spans
        .iter()
        .filter(|s| s.name.starts_with(ENTRY))
        .collect();
    let tid = match entries.first() {
        Some(first) => first.tid,
        None => return Err("the traced replay recorded no entrypoint span".into()),
    };
    let mut child_us: BTreeMap<u32, u64> = BTreeMap::new();
    for s in report
        .spans
        .iter()
        .filter(|s| s.tid == tid && s.parent != 0)
    {
        *child_us.entry(s.parent).or_default() += s.dur_us;
    }
    let mut self_us: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut unattributed_us = 0u64;
    let mut off_thread_spans = 0usize;
    for s in &report.spans {
        if s.tid != tid {
            off_thread_spans += 1;
            continue;
        }
        let own = s
            .dur_us
            .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
        // Walk up to the nearest span that names a layer.
        let mut at: &SpanRecord = s;
        let metrics = loop {
            let m = metrics_of(at.name);
            if !m.is_empty() || at.name.starts_with(ENTRY) {
                break m;
            }
            match spans.get(&at.parent) {
                Some(parent) => at = parent,
                None => break m,
            }
        };
        if metrics.is_empty() {
            unattributed_us += own;
        }
        for m in metrics {
            *self_us.entry(m).or_default() += own;
        }
    }
    let total_us: u64 = entries.iter().map(|s| s.dur_us).sum();
    let entry_s = entries
        .iter()
        .map(|s| (s.name, s.dur_us as f64 / 1e6))
        .collect();
    Ok(Attribution {
        self_s: self_us
            .into_iter()
            .map(|(m, us)| (m, us as f64 / 1e6))
            .collect(),
        unattributed_pct: if total_us == 0 {
            0.0
        } else {
            unattributed_us as f64 * 100.0 / total_us as f64
        },
        entry_s,
        off_thread_spans,
    })
}
