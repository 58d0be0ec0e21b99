//! Measurement helpers: order statistics, process counters read from
//! `/proc/self`, and on-disk size.

use std::path::Path;
use std::time::{Duration, Instant};

/// A running wall clock. Every time the benchmark reports is read from
/// one of these.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        // lbs-lint: allow(no-wall-clock-in-dp, reason = "the benchmark's one clock: the wall time of the calls under test is what it reports, and no input it gives the program depends on it")
        Stopwatch(Instant::now())
    }

    /// Time since [`start`](Self::start).
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` of this process in MB (peak resident set).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Bytes of the files under `dir` whose name starts with `prefix`.
pub fn files_bytes(dir: &Path, prefix: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => files_bytes(&e.path(), prefix),
            Ok(m) if e.file_name().to_string_lossy().starts_with(prefix) => m.len(),
            _ => 0,
        })
        .sum()
}

/// Bytes of the newest checkpoint generation of every runtime directory
/// under `dir` (names carry a zero-padded sequence, so the greatest name
/// is the newest).
pub fn newest_checkpoint_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut newest: Option<(String, u64)> = None;
    let mut nested = 0;
    for e in entries.flatten() {
        let Ok(m) = e.metadata() else { continue };
        let name = e.file_name().to_string_lossy().into_owned();
        if m.is_dir() {
            nested += newest_checkpoint_bytes(&e.path());
        } else if name.starts_with("checkpoint-")
            && name.ends_with(".ckpt")
            && newest.as_ref().is_none_or(|(n, _)| name > *n)
        {
            newest = Some((name, m.len()));
        }
    }
    nested + newest.map_or(0, |(_, bytes)| bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(minor_faults() > 0);
    }
}
