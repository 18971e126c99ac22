//! Host reference kernel and host-speed normalization.
//!
//! The machines this benchmark runs on drift through speed phases that
//! last tens of seconds: allocation-heavy, branchy code slows by up to
//! ~1.7× while a tight integer loop stays within a few percent. A fixed
//! reference kernel with the same instruction mix as the scheduler —
//! `BTreeMap` insert/remove, small `Vec` allocations and `i128`
//! remainders — tracks those phases. The benchmark runs it after every
//! timed chunk and scales the chunk's times by
//! `(NOMINAL_REF_MS / k)^PHASE_EXPONENT`, where `k` is the mean of the
//! two kernel times bracketing the chunk.
//!
//! The kernel is pinned: it uses `std` only and no workspace code, so
//! no change to the scheduler can move it. Changing [`ref_kernel`],
//! [`REF_ROUNDS`] or [`NOMINAL_REF_MS`] changes every normalized time
//! and starts a new baseline.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of the reference kernel (≈4 ms on a 2-vCPU x86-64 VM).
pub const REF_ROUNDS: u64 = 12_000;

/// Nominal kernel time in milliseconds: the median kernel time on the
/// 2-vCPU x86-64 VM the benchmark was calibrated on. A normalized time
/// reads as "what this would have taken at the nominal host speed".
pub const NOMINAL_REF_MS: f64 = 4.0;

/// The reference kernel. Returns a checksum so the work cannot be
/// optimized away.
pub fn ref_kernel(rounds: u64) -> u64 {
    let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for i in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = usize::try_from(x % 7 + 1).unwrap_or(1);
        map.insert(x % 2048, vec![u32::try_from(i & 0xffff).unwrap_or(0); len]);
        if let Some(v) = map.remove(&((x >> 17) % 2048)) {
            acc = acc.wrapping_add(u64::try_from(v.len()).unwrap_or(0));
        }
        let r = (i128::from(x) * 1_000_003 + i128::from(i)) % i128::from((x >> 11) | 1);
        acc ^= u64::try_from(r & 0xffff_ffff).unwrap_or(0);
    }
    acc.wrapping_add(u64::try_from(map.len()).unwrap_or(0))
}

/// Runs the kernel once and returns its wall time in milliseconds.
pub fn measure_ref_ms() -> f64 {
    let t = Instant::now();
    black_box(ref_kernel(black_box(REF_ROUNDS)));
    t.elapsed().as_secs_f64() * 1e3
}

/// How much more the scheduler slows than the kernel across host
/// phases: the slope of log(chunk time) against log(kernel time),
/// measured over 3-minute interleavings of the kernel with Whisper
/// runs (1.29–1.39), 1024-task online steps (1.57) and periodic sets
/// (1.54) on the calibration VM. With an exponent of 1 the normalized
/// chunk times still spread 11–19% (quartile distance over median);
/// with 1.4 they spread 3–7%.
pub const PHASE_EXPONENT: f64 = 1.4;

/// Scale factor for a chunk bracketed by kernel times `before` and
/// `after` (ms): multiply the chunk's raw times by it.
pub fn scale(nominal_ms: f64, before_ms: f64, after_ms: f64) -> f64 {
    (2.0 * nominal_ms / (before_ms + after_ms)).powf(PHASE_EXPONENT)
}

/// Runs the kernel on `width` threads at once and returns the slowest
/// time: a workload that waits for its slowest worker thread slows with
/// whichever CPU is slowest.
fn reading(width: usize) -> f64 {
    if width <= 1 {
        return measure_ref_ms();
    }
    std::thread::scope(|s| {
        let others: Vec<_> = (1..width).map(|_| s.spawn(measure_ref_ms)).collect();
        let mine = measure_ref_ms();
        others
            .into_iter()
            .map(|h| h.join().unwrap_or(mine))
            .fold(mine, f64::max)
    })
}

/// Tracks kernel readings between chunks.
pub struct Host {
    width: usize,
    last: f64,
    readings: Vec<f64>,
}

impl Host {
    /// Warms the kernel up and takes the first reading, on as many
    /// threads as the workload runs (`width`).
    pub fn new(width: usize) -> Host {
        for _ in 0..3 {
            reading(width);
        }
        let last = reading(width);
        Host {
            width,
            last,
            readings: vec![last],
        }
    }

    /// Takes a kernel reading after a chunk and returns the chunk's
    /// scale factor.
    pub fn close_chunk(&mut self) -> f64 {
        let now = reading(self.width);
        let s = scale(NOMINAL_REF_MS, self.last, now);
        self.last = now;
        self.readings.push(now);
        s
    }

    /// Every kernel reading taken so far, in milliseconds.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_bracket_mean() {
        assert_eq!(scale(NOMINAL_REF_MS, NOMINAL_REF_MS, NOMINAL_REF_MS), 1.0);
        // The bracket mean is what counts.
        assert_eq!(scale(3.0, 2.0, 4.0), 1.0);
        // A phase that doubles kernel time slows the scheduler by
        // 2^PHASE_EXPONENT; the scale undoes exactly that.
        let slow = scale(3.0, 6.0, 6.0);
        assert!((slow - 0.5f64.powf(PHASE_EXPONENT)).abs() < 1e-12);
        assert!((slow * 2f64.powf(PHASE_EXPONENT) - 1.0).abs() < 1e-12);
        assert!(scale(2.0, 1.0, 1.5) > 1.6);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(ref_kernel(500), ref_kernel(500));
        assert_ne!(ref_kernel(500), ref_kernel(501));
    }
}
