//! Order statistics, the machine record, and peak memory.

use std::hint::black_box;
use std::time::Instant;

/// Linear-interpolation quantile of `values` (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the result record reports for every sampled metric.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (quantile(values, 0.75) - quantile(values, 0.25)) / m
    }
}

/// Worker threads the machine offers.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fixed calibration kernel: a serial integer hash-and-scatter loop over
/// a 1 MiB table, independent of every crate the benchmark measures, so
/// no change to the simulator can move it. Returns millions of loop
/// iterations per second, the best of three passes.
pub fn calibration_score() -> f64 {
    const ITERS: u64 = 8_000_000;
    let mut table = vec![0u64; 1 << 17];
    let mask = table.len() as u64 - 1;
    let mut best = f64::MAX;
    for _ in 0..3 {
        let started = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x & mask) as usize;
            table[slot] = table[slot].wrapping_add(i ^ x);
        }
        black_box(&table);
        best = best.min(started.elapsed().as_secs_f64());
    }
    ITERS as f64 / best / 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(median(&[]), 0.0);
    }
}
