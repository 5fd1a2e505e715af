//! Corrects operation times for the speed the host ran at.
//!
//! The host is shared with other machines, and each vCPU changes speed
//! every few seconds: in one 20 s `paper_solve` run, the per-second median
//! of the same solves ranged from 1.02 to 1.83 times their fastest. Ten
//! runs of equal work then differ by whatever share of each run fell on
//! the slow side, and a run can spend all of its time there, so no
//! statistic of raw times (median, fastest repeat, fastest stretch) is
//! steady from run to run.
//!
//! The gauge is a fixed kernel of the benchmark's own: a serial chain of
//! `ln` and `exp` over pseudo-random reads of an L1-sized table. It never
//! changes with the program under test. The benchmark times it just
//! before each operation and scales the operation's wall time by
//! [`Gauge::NOMINAL_MS`] over the gauge's time: the result is what the
//! operation would have taken at the host's full speed. The program's own
//! code can only move the operation, so a slower program still reads
//! slower. In alternated rounds of ten runs, the median of corrected
//! times spread 1.6 to 4 times less than the median of each operation's
//! fastest repeat, the best raw statistic tried.
//!
//! Only a closed loop on one thread can be corrected this way: between
//! its operations nothing else of the program runs. The service's
//! latency is mostly batch fill, which the host's speed does not scale,
//! and its solves run on another thread, so it is not corrected.

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 16 KB of `f64`, resident in L1 however the operation
/// before left the caches.
const TABLE: usize = 1 << 11;
/// Chain length: about 0.08 ms at full speed.
const STEPS: usize = 8_000;

pub struct Gauge {
    table: Vec<f64>,
    /// Every reading so far, as a slowdown (gauge time over nominal).
    slowdowns: Vec<f64>,
}

impl Gauge {
    /// The gauge's time at the host's full speed: its 1st percentile over
    /// 20 s on each vCPU of the 2-vCPU x86-64 host the bounds were
    /// measured on (its median there was 0.10 ms). Corrected times are in
    /// milliseconds of a host that runs the gauge this fast.
    pub const NOMINAL_MS: f64 = 0.08;

    pub fn new() -> Self {
        let table = (0..TABLE)
            .map(|i| 1.0 + (i as f64 * 0.618_033_988_7).fract())
            .collect();
        Self {
            table,
            slowdowns: Vec::new(),
        }
    }

    fn kernel(&self) -> f64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0.0f64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = self.table[x as usize % TABLE];
            acc = acc * 0.5 + (v * 1.37).ln() + (-v).exp();
        }
        acc
    }

    /// Times the kernel once and returns the slowdown: how many times
    /// longer than nominal it took. An operation timed right after takes
    /// its wall time over this to full speed.
    pub fn read(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.kernel());
        let slowdown = start.elapsed().as_secs_f64() * 1e3 / Self::NOMINAL_MS;
        self.slowdowns.push(slowdown);
        slowdown
    }

    /// The median slowdown over every reading (NaN before the first).
    pub fn median_slowdown(&self) -> f64 {
        crate::stats::median(&self.slowdowns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_kept_and_the_kernel_is_fixed_work() {
        let mut gauge = Gauge::new();
        assert!(gauge.median_slowdown().is_nan());
        let slowdown = gauge.read();
        assert!(slowdown > 0.0 && slowdown.is_finite());
        assert_eq!(gauge.median_slowdown(), slowdown);
        gauge.read();
        assert_eq!(gauge.slowdowns.len(), 2);
        assert_eq!(gauge.kernel().to_bits(), gauge.kernel().to_bits());
    }
}
