//! Order statistics and the open-loop timing model.

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Quartiles `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads printed here match ones computed in Python.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        // May fall outside [0, 4] after the clamp: Python then
        // extrapolates from the two end values, and so does this.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Samples a percentile must leave above it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending), reported only
/// when at least [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    // The epsilon keeps float error (0.9 × 100 = 90.000…01) from bumping
    // the rank.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    if rank == 0 || n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Every reportable tail percentile of `samples`, as `(name, value)`:
/// p90 and p99, each only when the sample supports it.
pub fn tails(samples: &[f64]) -> Vec<(&'static str, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    [("p90", 0.90), ("p99", 0.99)]
        .into_iter()
        .filter_map(|(name, q)| percentile(&sorted, q).map(|v| (name, v)))
        .collect()
}

/// The largest reportable tail of `samples`, or their maximum when the
/// sample is too small for any.
pub fn tail_or_max(samples: &[f64]) -> f64 {
    tails(samples)
        .last()
        .map(|&(_, v)| v)
        .unwrap_or_else(|| samples.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// Cuts an open loop's schedule `[0, seconds)` into `windows` equal
/// stretches by due time and returns the smallest of their median
/// latencies. `due_s[i]` is when request `i`
/// was due and `latency_ms[i]` how long it took from then; a window with
/// no requests is skipped. A stretch in which the host ran slow raises
/// its own window only.
pub fn best_window_median(due_s: &[f64], latency_ms: &[f64], seconds: f64, windows: usize) -> f64 {
    let windows = windows.max(1);
    let mut by_window = vec![Vec::new(); windows];
    for (&due, &ms) in due_s.iter().zip(latency_ms) {
        let w = ((due / seconds * windows as f64) as usize).min(windows - 1);
        by_window[w].push(ms);
    }
    by_window
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(w))
        .fold(f64::NAN, f64::min)
}

/// The clock an open-loop generator runs on, in seconds since the
/// schedule started. The service workload's clock also collects batch
/// reports while it waits; tests substitute a fake clock that stalls.
pub trait Clock {
    /// The current time.
    fn now(&mut self) -> f64;
    /// Returns once the time is at least `t` (at once if it already is).
    fn wait_until(&mut self, t: f64);
}

/// Sends request `i` once its due time `due[i]` has come, never earlier,
/// whatever the previous send cost. Returns how late each send started.
///
/// A request's latency is measured from `due[i]`, not from the send: a
/// stall inside one `send` delays every later send, and that wait is part
/// of what those requests experience.
pub fn drive_open_loop<C: Clock>(
    due: &[f64],
    clock: &mut C,
    mut send: impl FnMut(usize, &mut C),
) -> Vec<f64> {
    let mut lag = Vec::with_capacity(due.len());
    for (i, &t) in due.iter().enumerate() {
        clock.wait_until(t);
        lag.push(clock.now() - t);
        send(i, clock);
    }
    lag
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([3, 1, 2, 9], n=4) == [1.25, 2.5, 7.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 9.0]), Some([1.25, 2.5, 7.5]));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some([4.5, 6.0, 7.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_handles_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples is rank 990: exactly ten lie beyond.
        assert_eq!(percentile(&sorted, 0.99), Some(990.0));
        assert_eq!(percentile(&sorted[..999], 0.99), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.90), Some(90.0));
        assert_eq!(percentile(&hundred[..99], 0.90), None);
        assert_eq!(tails(&hundred), vec![("p90", 90.0)]);
        assert!(tails(&hundred[..50]).is_empty());
    }

    #[test]
    fn a_slow_stretch_raises_only_its_own_window() {
        // Requests due every 10 ms over 4 s; the host is slow for the
        // second half, doubling every latency there.
        let due: Vec<f64> = (0..400).map(|i| i as f64 * 0.01).collect();
        let latency: Vec<f64> = (0..400)
            .map(|i| f64::from(3 + i % 2) * if i >= 200 { 2.0 } else { 1.0 })
            .collect();
        assert_eq!(best_window_median(&due, &latency, 4.0, 4), 3.5);
        // One window is the plain median, which the slow half moves.
        assert_eq!(best_window_median(&due, &latency, 4.0, 1), median(&latency));
        assert_eq!(median(&latency), 5.0);
        // Empty windows are skipped rather than read as zero.
        assert_eq!(
            best_window_median(&due[..100], &latency[..100], 4.0, 4),
            3.5
        );
    }

    /// Time advances only when the generator waits or when a send costs
    /// time, so a stall is fully deterministic.
    struct FakeClock {
        t: f64,
    }

    impl Clock for FakeClock {
        fn now(&mut self) -> f64 {
            self.t
        }
        fn wait_until(&mut self, t: f64) {
            self.t = self.t.max(t);
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_due_behind_it() {
        // One request every millisecond; sending request 2 stalls 5 ms.
        let due: Vec<f64> = (0..8).map(|i| i as f64 * 1e-3).collect();
        let mut clock = FakeClock { t: 0.0 };
        let mut decided = vec![0.0; due.len()];
        let lag = drive_open_loop(&due, &mut clock, |i, c| {
            if i == 2 {
                c.t += 5e-3;
            }
            // The system under test answers at once.
            decided[i] = c.now();
        });
        let latency: Vec<f64> = decided.iter().zip(&due).map(|(d, t)| d - t).collect();
        // The stalled request itself waits 5 ms; the four due during the
        // stall are sent late and each carries the rest of it.
        let expected = [0.0, 0.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0];
        for (got, want) in latency.iter().zip(expected) {
            assert!((got * 1e3 - want).abs() < 1e-9, "{latency:?}");
        }
        assert!((lag[3] * 1e3 - 4.0).abs() < 1e-9);
        // Timing from the send instead would have hidden the stall from
        // every request behind it.
        let from_send: Vec<f64> = decided
            .iter()
            .zip(&lag)
            .zip(&due)
            .map(|((d, l), t)| d - (t + l))
            .collect();
        assert!(from_send
            .iter()
            .enumerate()
            .all(|(i, &x)| i == 2 || x.abs() < 1e-12));
    }
}
