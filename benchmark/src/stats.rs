//! Estimators: nearest-rank percentiles within a repetition, and the
//! across-repetition summary (median, quartiles, best).

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it.
pub fn percentile(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&q));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric over the repetitions of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub reps: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Max for a rate, min for a time.
    pub best: f64,
}

fn interpolate(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarize one metric's per-repetition values.
pub fn summarize(values: &[f64], better: Better) -> Summary {
    assert!(!values.is_empty());
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        reps: sorted.len(),
        median: interpolate(&sorted, 0.5),
        q1: interpolate(&sorted, 0.25),
        q3: interpolate(&sorted, 0.75),
        best: match better {
            Better::Higher => sorted[sorted.len() - 1],
            Better::Lower => sorted[0],
        },
    }
}

/// FNV-1a over a byte stream (request-vector hashes, final-state digests).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // 1,000 samples beyond p99 needs 100,000 samples.
        let big: Vec<u32> = (0..100_000).collect();
        let p99 = percentile(&big, 0.99);
        assert_eq!(big.iter().filter(|&&v| v > p99).count(), 1000);
    }

    #[test]
    fn summary_takes_best_in_the_better_direction() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        let rate = summarize(&v, Better::Higher);
        assert_eq!((rate.best, rate.median, rate.reps), (5.0, 3.0, 5));
        assert_eq!((rate.q1, rate.q3), (2.0, 4.0));
        assert_eq!(summarize(&v, Better::Lower).best, 1.0);
        let even = summarize(&[1.0, 2.0, 3.0, 4.0], Better::Lower);
        assert_eq!(even.median, 2.5);
        assert_eq!(summarize(&[9.0], Better::Higher).q3, 9.0);
    }
}
