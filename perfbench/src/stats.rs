//! Order statistics shared by every workload.
//!
//! Percentiles are nearest-rank on integer percent, so the rank never
//! depends on floating-point rounding: the `p`-th percentile of `n`
//! samples is the `ceil(p·n/100)`-th smallest. A tail percentile is only
//! reported when at least [`TAIL_MIN`] samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
pub fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Smallest sample count whose `p`-th percentile has [`TAIL_MIN`]
/// samples beyond it (1000 for p99, 100 for p90).
pub fn min_samples(p: u32) -> usize {
    assert!(p < 100, "the 100th percentile has nothing beyond it");
    (1..).find(|&n| beyond(n, p) >= TAIL_MIN).expect("p < 100")
}

/// The `p`-th percentile of `samples` (any order), `None` when empty.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(rank(sorted.len(), p).checked_sub(1)?).copied()
}

/// Median of `samples`, `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50)
}

/// Arithmetic mean, `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// FNV-1a over a sequence of canonical lines: the per-session content
/// digest (order matters; callers sort by session).
pub fn digest<'a>(lines: impl IntoIterator<Item = &'a str>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(min_samples(99), 1000);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(50), 20);
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9, "one short of the rule");
        for p in [50, 90, 99] {
            let n = min_samples(p);
            assert!(beyond(n, p) >= TAIL_MIN);
            assert!(beyond(n - 1, p) < TAIL_MIN, "min_samples({p}) is minimal");
        }
    }

    #[test]
    fn nearest_rank_picks_the_sample_with_ten_above_it() {
        // 1..=1000: p99 is the 990th value, and exactly 10 values exceed it.
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&samples, 99).unwrap();
        assert_eq!(p99, 990.0);
        assert_eq!(samples.iter().filter(|&&s| s > p99).count(), TAIL_MIN);
        assert_eq!(median(&samples), Some(500.0));
        assert_eq!(percentile(&[], 99), None);
        assert_eq!(percentile(&[7.0], 99), Some(7.0));
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let a = digest(["s0 ok", "s1 ok"]);
        assert_eq!(a, digest(["s0 ok", "s1 ok"]));
        assert_ne!(a, digest(["s1 ok", "s0 ok"]));
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
    }
}
