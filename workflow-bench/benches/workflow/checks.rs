//! Output checks: digests, paper anchors, and the ledger that turns
//! failed checks into the benchmark's `failed` / `error_rate`.

/// The seed the committed digests below were taken at (the paper's
/// study start, 2018-02-01).
pub const DEFAULT_SEED: u64 = 20_180_201;

/// FNV-1a digest of the text every figure command prints (`figures
/// --live` and `figures --from` alike) at [`DEFAULT_SEED`].
pub const FIGURES_DIGEST: u64 = 0x2e81_7b10_43b7_ef20;
/// FNV-1a digest of `harvest --out`'s summary, archive path masked as
/// [`ARCHIVE_MASK`], at [`DEFAULT_SEED`].
pub const HARVEST_DIGEST: u64 = 0x7cbb_04ea_f300_0d3e;
/// FNV-1a digest of `adversary censor`, `adversary closedloop` and
/// `sweep --replicates 64`, concatenated, at [`DEFAULT_SEED`].
pub const CENSORSHIP_DIGEST: u64 = 0x1380_8f67_207b_7b95;

/// Stand-in for the archive path in digested harvest summaries (each
/// invocation writes to a fresh path).
pub const ARCHIVE_MASK: &str = "<archive>";

/// The paper's daily peer count (Fig. 5, "about 32K daily peers").
pub const PAPER_DAILY_PEERS: f64 = 32_000.0;
/// Allowed relative deviation of every sampled Fig. 5 day from
/// [`PAPER_DAILY_PEERS`].
pub const DAILY_PEERS_TOLERANCE: f64 = 0.10;
/// Fig. 13: blocking rate the paper reports for 10 routers with a
/// 30-day blacklist window ("more than 95%").
pub const MIN_BLOCKING_PCT_10_ROUTERS_30_DAYS: f64 = 95.0;

/// 64-bit FNV-1a over `bytes`.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Commands attempted and the ones whose output failed a check.
#[derive(Default)]
pub struct Ledger {
    attempted: u64,
    failed: Vec<bool>,
    problems: Vec<String>,
}

/// Handle of one attempted command in the [`Ledger`].
#[derive(Clone, Copy)]
pub struct Cmd(usize);

impl Ledger {
    /// Records one attempted command.
    pub fn attempt(&mut self) -> Cmd {
        self.attempted += 1;
        self.failed.push(false);
        Cmd(self.failed.len() - 1)
    }

    /// Marks `cmd` failed unless `ok`; `what` explains the failure.
    pub fn check(&mut self, cmd: Cmd, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed[cmd.0] = true;
            self.problems.push(what());
        }
    }

    /// Commands attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Commands with at least one failed check.
    pub fn failed(&self) -> u64 {
        self.failed.iter().filter(|&&f| f).count() as u64
    }

    /// One line per failed check.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}

/// The peers column of the Fig. 5 block in a figure suite's text.
pub fn fig5_daily_peers(text: &str) -> Vec<u64> {
    let Some(start) = text.find("Figure 5:") else {
        return Vec::new();
    };
    text[start..]
        .lines()
        .skip(3) // title, rule, column header
        .map_while(|line| {
            let mut cols = line.split_whitespace();
            cols.next()?.parse::<u64>().ok()?;
            cols.next()?.parse::<u64>().ok()
        })
        .collect()
}

/// Checks every sampled Fig. 5 day against the paper's daily peers.
pub fn check_daily_peers(text: &str) -> Result<(), String> {
    let peers = fig5_daily_peers(text);
    if peers.is_empty() {
        return Err("Fig. 5 block missing or empty".into());
    }
    for p in peers {
        let dev = (p as f64 - PAPER_DAILY_PEERS).abs() / PAPER_DAILY_PEERS;
        if dev > DAILY_PEERS_TOLERANCE {
            return Err(format!(
                "Fig. 5: {p} daily peers is {:.1}% off the paper's {PAPER_DAILY_PEERS} \
                 (tolerance {:.0}%)",
                dev * 100.0,
                DAILY_PEERS_TOLERANCE * 100.0
            ));
        }
    }
    Ok(())
}

/// The Fig. 13 blocking rate (percent) for `routers` monitoring routers
/// and a `window`-day blacklist, read from `adversary censor`'s text.
pub fn fig13_blocking_pct(text: &str, routers: u64, window: u64) -> Option<f64> {
    let mut lines = text.lines().skip_while(|l| !l.starts_with("routers"));
    let header = lines.next()?;
    let col = header
        .split_whitespace()
        .skip(1)
        .position(|h| h == format!("{window}-day"))?;
    lines.find_map(|line| {
        let mut cols = line.split_whitespace();
        (cols.next()?.parse::<u64>().ok()? == routers)
            .then(|| cols.nth(col)?.trim_end_matches('%').parse().ok())
            .flatten()
    })
}

/// Checks Fig. 13's 10-router, 30-day blocking rate against the paper.
pub fn check_blocking(text: &str) -> Result<(), String> {
    match fig13_blocking_pct(text, 10, 30) {
        Some(pct) if pct >= MIN_BLOCKING_PCT_10_ROUTERS_30_DAYS => Ok(()),
        Some(pct) => Err(format!(
            "Fig. 13: 10 routers / 30-day window block {pct}% < {MIN_BLOCKING_PCT_10_ROUTERS_30_DAYS}%"
        )),
        None => Err("Fig. 13: no 10-router row / 30-day column".into()),
    }
}

/// The `rows=` field of an `audit:` line in `text`.
pub fn audit_rows(text: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with("audit:"))?
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("rows="))?
        .parse()
        .ok()
}
