//! The benchmark's own arithmetic: nearest-rank percentiles with sample
//! counts, and quantiles over `/metrics` histogram deltas.

use std::collections::BTreeMap;

use islaris_obs::metrics::{histogram_delta, quantile_from_counts};

/// p50 and p95 of a sample set, with the number of samples they rest on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub p95: f64,
    pub n: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `num/den` of all samples at or below it. `None` when empty.
#[must_use]
pub fn nearest_rank(sorted: &[f64], num: usize, den: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() * num).div_ceil(den).max(1);
    Some(sorted[rank - 1])
}

/// Nearest-rank p50/p95 of `samples` (any order). All zero when empty.
#[must_use]
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        p50: nearest_rank(&sorted, 50, 100).unwrap_or(0.0),
        p95: nearest_rank(&sorted, 95, 100).unwrap_or(0.0),
        n: sorted.len(),
    }
}

/// Nearest-rank median of `samples` (any order); 0 when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Throughput and latency of a closed-loop run made of rounds (each round a
/// list of per-operation times in ms), robust to bursts of host noise: the
/// rounds are split into `blocks` contiguous blocks; each block gets the
/// median of its rounds' operations per second of operation time and its
/// nearest-rank p50/p95; and each figure is the median over the blocks.
/// `n` counts every sample.
#[must_use]
pub fn blocked(rounds: &[Vec<f64>], blocks: usize) -> (f64, Summary) {
    let per = rounds.len().div_ceil(blocks.max(1)).max(1);
    let (mut ops, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    for chunk in rounds.chunks(per) {
        let rates: Vec<f64> = chunk
            .iter()
            .filter(|r| r.iter().sum::<f64>() > 0.0)
            .map(|r| r.len() as f64 / (r.iter().sum::<f64>() / 1e3))
            .collect();
        if rates.is_empty() {
            continue;
        }
        let s = summarize(&chunk.concat());
        ops.push(median(&rates));
        p50.push(s.p50);
        p95.push(s.p95);
    }
    let summary = Summary {
        p50: median(&p50),
        p95: median(&p95),
        n: rounds.iter().map(Vec::len).sum(),
    };
    (median(&ops), summary)
}

/// p50/p95 (in ms) of the observations a `/metrics` histogram gained
/// between two scrapes. Quantiles are bucket upper bounds in ns, as the
/// daemon's log-linear buckets give them; `n` is the observation count.
#[must_use]
pub fn histogram_summary_ms(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    name: &str,
) -> Summary {
    let counts = histogram_delta(before, after, name);
    let q = |num| quantile_from_counts(&counts, num, 100).map_or(0.0, |ns| ns as f64 / 1e6);
    Summary {
        p50: q(50),
        p95: q(95),
        n: usize::try_from(counts.iter().sum::<u64>()).unwrap_or(usize::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use islaris_obs::metrics::{parse_exposition, Registry};

    #[test]
    fn nearest_rank_matches_the_definition() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50, 100), Some(10.0));
        assert_eq!(nearest_rank(&xs, 95, 100), Some(19.0));
        assert_eq!(nearest_rank(&xs, 100, 100), Some(20.0));
        assert_eq!(nearest_rank(&xs, 0, 100), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 95, 100), Some(7.0));
        assert_eq!(nearest_rank(&[], 50, 100), None);
        // 21 samples: rank ceil(0.95 * 21) = 20, one sample beyond it.
        let ys: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(nearest_rank(&ys, 95, 100), Some(20.0));
    }

    #[test]
    fn summarize_sorts_and_counts() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            s,
            Summary {
                p50: 3.0,
                p95: 5.0,
                n: 5
            }
        );
        assert_eq!(summarize(&[]), Summary::default());
        assert_eq!(median(&[2.0, 9.0, 4.0, 1.0]), 2.0);
    }

    #[test]
    fn blocked_figures_are_medians_over_blocks() {
        // Five blocks of two rounds; the fourth block is three times
        // slower (a burst of host noise) and must not move the result.
        let mut rounds = Vec::new();
        for b in 0..5 {
            let scale = if b == 3 { 3.0 } else { 1.0 };
            for _ in 0..2 {
                rounds.push(vec![1.0 * scale, 2.0 * scale, 10.0 * scale, 1.0 * scale]);
            }
        }
        let (ops, s) = blocked(&rounds, 5);
        // 4 operations in 14 ms per round.
        assert!((ops - 4.0 / 0.014).abs() < 1e-6, "{ops}");
        assert_eq!(
            s,
            Summary {
                p50: 1.0,
                p95: 10.0,
                n: 40
            }
        );
        assert_eq!(blocked(&[], 5), (0.0, Summary::default()));
        // A slow round changes at most its own block, not the figure.
        rounds[0] = vec![10.0, 20.0, 100.0, 10.0];
        assert!((blocked(&rounds, 5).0 - 4.0 / 0.014).abs() < 1e-6);
    }

    #[test]
    fn histogram_delta_counts_only_the_bracketed_interval() {
        let mut reg = Registry::new();
        let h = reg.histogram("bench_test_wall_ns", "test histogram");
        // Before the interval: slow observations that must not leak in.
        for _ in 0..50 {
            h.observe(900_000_000);
        }
        let before = parse_exposition(&reg.render()).expect("exposition parses");
        // The interval: 90 fast (1 ms) and 10 slow (64 ms) observations.
        for _ in 0..90 {
            h.observe(1_000_000);
        }
        for _ in 0..10 {
            h.observe(64_000_000);
        }
        let after = parse_exposition(&reg.render()).expect("exposition parses");
        let s = histogram_summary_ms(&before, &after, "bench_test_wall_ns");
        assert_eq!(s.n, 100);
        // Bucket upper bounds: the p50 bucket holds 1 ms, the p95 bucket
        // holds 64 ms; neither may be as large as the excluded 900 ms.
        assert!((1.0..2.0).contains(&s.p50), "p50 {}", s.p50);
        assert!((64.0..128.0).contains(&s.p95), "p95 {}", s.p95);
        let empty = histogram_summary_ms(&after, &after, "bench_test_wall_ns");
        assert_eq!(empty, Summary::default());
    }
}
