//! Host-side measurement helpers for the harness binaries: wall-clock
//! timing of one workload run and the process's peak resident memory.

use std::time::{Duration, Instant};

/// Times a single run of `f` (for whole-workload measurements), returning
/// the wall-clock duration and the closure's output.
pub fn time_once<T, F: FnOnce() -> T>(f: F) -> (Duration, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed(), out)
}

/// Peak resident set size of this process in MiB (0 when unavailable —
/// `/proc` is Linux-only). Recorded in nightly digest artifacts so a
/// workload's memory footprint stays visible run over run.
pub fn peak_rss_mib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kib / 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_output() {
        let (d, v) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
