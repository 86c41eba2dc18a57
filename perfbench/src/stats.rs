//! Order statistics for the latency samples of one run.

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used, in percent (99.0 once there are ≥1000 samples).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond it: always at least [`MIN_BEYOND`].
    pub beyond: usize,
    /// Samples in the run.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile, capped at p99, that still has at least
/// [`MIN_BEYOND`] samples beyond it, by nearest rank. `None` below
/// `MIN_BEYOND + 1` samples, where no such percentile exists.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= MIN_BEYOND {
        return None;
    }
    // Nearest rank of p99 is ceil(0.99 n); it leaves ≥ 10 beyond from
    // n = 1000 on. Below that the rank is pinned at n − 10.
    let rank = ((99 * n).div_ceil(100)).min(n - MIN_BEYOND);
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

/// One timed request: when it completed, in seconds from the start of
/// the window, and how long it took, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Completion time, seconds since the window opened.
    pub done_s: f64,
    /// Latency, milliseconds.
    pub ms: f64,
}

/// The tail of a run: the percentile [`tail`] picks for the whole run,
/// evaluated (nearest rank) in each of `windows` equal slices of its
/// `span_s` seconds, and the median of those values. A burst of slow
/// requests inside one slice moves that slice's value only. Returns the
/// whole-run [`Tail`], which names the percentile and the sample count,
/// with that median; `None` when the run has too few samples for a tail
/// or a slice has none.
pub fn windowed_tail(samples: &[Latency], span_s: f64, windows: usize) -> Option<(Tail, f64)> {
    let all: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let run = tail(&all)?;
    let rank = run.samples - run.beyond;
    let mut slices = vec![Vec::new(); windows];
    for s in samples {
        let i = ((s.done_s / span_s * windows as f64) as usize).min(windows - 1);
        slices[i].push(s.ms);
    }
    let mut values = Vec::with_capacity(windows);
    for mut slice in slices {
        if slice.is_empty() {
            return None;
        }
        slice.sort_by(f64::total_cmp);
        let m = slice.len();
        values.push(slice[(rank * m).div_ceil(run.samples).clamp(1, m) - 1]);
    }
    Some((run, median(&values)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&ramp(5000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 4950.0, 50));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_in_short_runs() {
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.value, t.beyond), (989.0, 10));
        assert!(t.percentile < 99.0);
        let t = tail(&ramp(150)).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (140.0, 10, 150));
        assert!((t.percentile - 100.0 * 140.0 / 150.0).abs() < 1e-12);
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn windowed_tail_ignores_a_burst_in_one_slice() {
        // 4 slices of 300 samples around 10 ms; a burst of 20 slow samples
        // in the second slice sets that slice's value only.
        let mut samples: Vec<Latency> = (0..1200)
            .map(|i| Latency {
                done_s: i as f64 / 300.0,
                ms: 10.0 + (i % 7) as f64 * 0.1,
            })
            .collect();
        for s in &mut samples[320..340] {
            s.ms = 90.0;
        }
        let (run, value) = windowed_tail(&samples, 4.0, 4).unwrap();
        assert_eq!((run.percentile, run.beyond, run.samples), (99.0, 12, 1200));
        assert!(value < 11.0, "{value}");
        // The whole-run tail, by contrast, is the burst.
        assert_eq!(run.value, 90.0);
    }

    #[test]
    fn windowed_tail_uses_the_run_percentile_in_every_slice() {
        // 200 samples, so the run's tail is p95 (10 beyond); each slice of
        // 50 is read at that rank: its 48th smallest, 3 beyond.
        let samples: Vec<Latency> = (0..200)
            .map(|i| Latency {
                done_s: i as f64 / 50.0,
                ms: ((i * 7919) % 50) as f64 + 1.0,
            })
            .collect();
        let (run, value) = windowed_tail(&samples, 4.0, 4).unwrap();
        assert_eq!((run.percentile, run.beyond, run.samples), (95.0, 10, 200));
        assert_eq!(value, 48.0);
    }

    #[test]
    fn windowed_tail_needs_a_sample_in_every_slice() {
        let samples: Vec<Latency> = (0..30)
            .map(|i| Latency {
                done_s: i as f64 * 0.1,
                ms: 1.0,
            })
            .collect();
        assert!(windowed_tail(&samples, 3.0, 1).is_some());
        assert!(windowed_tail(&samples, 6.0, 4).is_none());
        assert!(windowed_tail(&samples[..10], 3.0, 1).is_none());
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
    }
}
