//! Summary statistics the benchmark reports: medians, nearest-rank
//! quantiles, the "highest percentile with at least ten samples beyond
//! it" rule, and failure accounting.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: f64 = 10.0;

/// The highest percentile on the ladder p50, p90, p99, p99.9, p99.99, …
/// that still has at least [`TAIL_SAMPLES`] samples beyond it among `n`.
/// Below 20 samples nothing qualifies and the median is returned.
pub fn tail_quantile(n: usize) -> f64 {
    let mut q = 0.5;
    let mut beyond = 0.1;
    loop {
        let next = 1.0 - beyond;
        // A relative tolerance keeps exactly-ten cases (n = 10^k) on the
        // qualifying side despite the float rounding of `1 - q`.
        if n as f64 * beyond < TAIL_SAMPLES * (1.0 - 1e-9) {
            return q;
        }
        q = next;
        beyond /= 10.0;
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 for
/// an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A timing distribution reduced to what the benchmark prints.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// Value at [`tail_quantile`] of the sample count.
    pub tail: f64,
    /// Sample count.
    pub n: usize,
}

/// Sort `samples` in place and summarise them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    Summary {
        p50: quantile_sorted(samples, 0.5),
        tail: quantile_sorted(samples, tail_quantile(samples.len())),
        n: samples.len(),
    }
}

/// Operations attempted and failed in one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailCount {
    /// Operations the workload scheduled.
    pub attempted: u64,
    /// Scheduled operations that did not complete correctly.
    pub failed: u64,
}

impl FailCount {
    /// Crawl accounting: every scheduled visit must be folded; a visit
    /// folded twice does not make up for one that is missing.
    pub fn crawl(scheduled: u64, folded_once: u64) -> FailCount {
        FailCount {
            attempted: scheduled,
            failed: scheduled.saturating_sub(folded_once),
        }
    }

    /// Serving accounting: a shed auction and one answered after
    /// `arrival + budget` both count as failed.
    pub fn serve(auctions: u64, sheds: u64, late: u64) -> FailCount {
        FailCount {
            attempted: auctions,
            failed: (sheds + late).min(auctions),
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Share of attempted operations that completed correctly.
    pub fn ok_share(&self) -> f64 {
        1.0 - self.fail_share()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(999), 0.9);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(35_000), 0.999);
        assert_eq!(tail_quantile(991_000), 0.9999);
        assert_eq!(tail_quantile(1_000_000), 0.99999);
        for n in [20usize, 100, 1_000, 35_000, 204_830, 991_000, 1_000_000] {
            let q = tail_quantile(n);
            let beyond = n as f64 * (1.0 - q);
            assert!(beyond >= TAIL_SAMPLES - 1e-6, "n={n} q={q} beyond={beyond}");
            // The next rung up would leave fewer than ten beyond it.
            let next_beyond = n as f64 * (1.0 - q) / 10.0;
            assert!(next_beyond < TAIL_SAMPLES, "n={n} q={q} is not the highest");
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.9), 90.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        let mut s: Vec<f64> = (0..1_000).rev().map(f64::from).collect();
        let sum = summarize(&mut s);
        assert_eq!(sum.n, 1_000);
        assert_eq!(sum.p50, 499.0);
        assert_eq!(sum.tail, 989.0, "p99 of 0..1000 leaves ten above it");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fail_share_accounting() {
        let full = FailCount::crawl(204_830, 204_830);
        assert_eq!(full.failed, 0);
        assert_eq!(full.fail_share(), 0.0);
        assert_eq!(full.ok_share(), 1.0);
        let short = FailCount::crawl(1_000, 990);
        assert_eq!(short.failed, 10);
        assert!((short.fail_share() - 0.01).abs() < 1e-12);
        // Over-folding (duplicates) never hides a shortfall or goes negative.
        assert_eq!(FailCount::crawl(10, 12).failed, 0);
        let serve = FailCount::serve(1_000_000, 9_000, 100);
        assert_eq!(serve.attempted, 1_000_000);
        assert_eq!(serve.failed, 9_100);
        assert!((serve.ok_share() - 0.9909).abs() < 1e-12);
        assert_eq!(
            FailCount::serve(5, 4, 4).failed,
            5,
            "failures capped at attempts"
        );
        assert_eq!(FailCount::default().fail_share(), 0.0);
    }
}
