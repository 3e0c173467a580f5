//! Process and filesystem facts read from `/proc` (Linux only): the
//! resident high-water mark and its reset, bytes read through `read(2)`,
//! and the filesystem type under a path; and the glibc allocator settings
//! that keep the high-water mark comparable from call to call.

use std::path::Path;

/// Resets the process's resident high-water mark (`VmHWM`) to its
/// current resident size, so the next reading covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the RSS high-water mark via /proc/self/clear_refs: {e}"))
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    i2pscope::telemetry::rss::peak_rss_kb()
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Bytes this process has read through `read(2)` and friends so far
/// (`rchar` in `/proc/self/io`), page-cache hits included.
pub fn bytes_read() -> Result<u64, String> {
    let io = std::fs::read_to_string("/proc/self/io")
        .map_err(|e| format!("cannot read /proc/self/io: {e}"))?;
    io.lines()
        .find_map(|line| line.strip_prefix("rchar:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "rchar missing from /proc/self/io".to_string())
}

/// Returns the allocator's free heap pages to the kernel (glibc
/// `malloc_trim`), so the resident high-water mark of a phase does not
/// carry memory an earlier phase freed but the allocator kept.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and only hands pages
        // that are already free back to the kernel; glibc serializes it
        // with every other allocator call.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Fixes glibc's mmap and trim thresholds at their initial 128 KiB.
/// Left dynamic, both rise with the first large free (up to 32 and
/// 64 MiB), and from then on the worker threads' arenas keep tens of MiB
/// resident between calls that `malloc_trim` does not return; how much
/// depends on thread scheduling, so the per-call high-water mark jumps
/// between runs. Fixed, every call allocates as the start of a fresh
/// process does. Must run before any other thread exists.
pub fn fix_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: std::os::raw::c_int = -1;
        const M_MMAP_THRESHOLD: std::os::raw::c_int = -3;
        const INITIAL: std::os::raw::c_int = 128 * 1024;
        extern "C" {
            fn mallopt(
                param: std::os::raw::c_int,
                value: std::os::raw::c_int,
            ) -> std::os::raw::c_int;
        }
        // SAFETY: `mallopt` takes no pointers; it only sets allocator
        // parameters, under the allocator's own lock.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, INITIAL);
            mallopt(M_MMAP_THRESHOLD, INITIAL);
        }
    }
}

/// A mount as `/proc/self/mountinfo` describes it.
pub struct Mount {
    /// Filesystem type, e.g. `ext4`.
    pub fstype: String,
    /// Mount point.
    pub point: String,
    /// Per-mount then superblock options, e.g. `rw,relatime rw,discard`.
    pub options: String,
}

/// The mount that holds `path`: the one in `/proc/self/mountinfo` with
/// the longest mount point prefixing it.
pub fn filesystem_of(path: &Path) -> Result<Mount, String> {
    let path = path
        .canonicalize()
        .map_err(|e| format!("canonicalize {}: {e}", path.display()))?;
    let info = std::fs::read_to_string("/proc/self/mountinfo")
        .map_err(|e| format!("cannot read /proc/self/mountinfo: {e}"))?;
    let mut best: Option<Mount> = None;
    for line in info.lines() {
        // Fields: id parent major:minor root mount-point options ... - fstype source ...
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(point), Some(options)) = (fields.get(4), fields.get(5)) else {
            continue;
        };
        // After the separator: fstype source super-options.
        let Some(tail) = line.split(" - ").nth(1) else {
            continue;
        };
        let tail: Vec<&str> = tail.split(' ').collect();
        let (Some(fstype), Some(super_options)) = (tail.first(), tail.get(2)) else {
            continue;
        };
        let point = point.replace("\\040", " ");
        if path.starts_with(&point) && best.as_ref().is_none_or(|b| point.len() > b.point.len()) {
            best = Some(Mount {
                fstype: fstype.to_string(),
                point,
                options: format!("{options} {super_options}"),
            });
        }
    }
    best.ok_or_else(|| format!("no mount holds {}", path.display()))
}
