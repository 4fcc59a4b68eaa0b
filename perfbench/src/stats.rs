//! Order statistics, repeated set-up timing and the process's peak
//! resident set.
//!
//! Percentiles are given in basis points (`9900` is p99) so ranks are
//! exact integers: the nearest-rank p of `n` sorted samples is the one
//! at 1-based rank `ceil(p * n / 10000)`.

use std::time::{Duration, Instant};

/// The percentiles a timing tail may be reported at, highest first.
pub const TAIL_LADDER: &[u32] = &[9999, 9990, 9950, 9900, 9800, 9500, 9000, 7500, 5000];

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The fewest samples for which p99 has [`MIN_BEYOND`] beyond it.
pub const MIN_SAMPLES_FOR_P99: usize = 1000;

/// 1-based nearest rank of percentile `bp` among `n` samples.
pub fn rank(n: usize, bp: u32) -> usize {
    assert!(n > 0 && bp > 0 && bp <= 10_000, "rank of p{bp} among {n}");
    (bp as usize * n).div_ceil(10_000)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `bp`.
pub fn beyond(n: usize, bp: u32) -> usize {
    n - rank(n, bp)
}

/// Nearest-rank percentile `bp` of samples sorted ascending.
pub fn percentile(sorted: &[f64], bp: u32) -> f64 {
    sorted[rank(sorted.len(), bp) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_tail(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&bp| n > 0 && beyond(n, bp) >= MIN_BEYOND)
}

/// Sorts `values` ascending (no NaNs expected).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `label: min .. median .. max (n values)`.
pub fn spread_note(label: &str, values: &[f64]) -> String {
    let s = sorted(values.to_vec());
    format!(
        "{label}: min {:.4} median {:.4} max {:.4} over {} values",
        s[0],
        median(&s),
        s[s.len() - 1],
        s.len()
    )
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Repeated set-up times of one run. The set-ups are spread over
/// the run, between timed passes, so their median sees the same host
/// conditions as the passes do.
#[derive(Default)]
pub struct Setups {
    secs: Vec<f64>,
}

impl Setups {
    /// Runs `setup` once, timed, and returns its result.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let value = setup();
        self.secs.push(t0.elapsed().as_secs_f64());
        value
    }

    /// Runs `setup` again, dropping each result outside the timed
    /// region, until the share `done` (0 to 1) of the run has had its
    /// share of `total` set-ups.
    pub fn catch_up<T>(&mut self, done: f64, total: usize, mut setup: impl FnMut() -> T) {
        let due = 1 + ((total - 1) as f64 * done.clamp(0.0, 1.0)) as usize;
        while self.secs.len() < due {
            drop(self.time(&mut setup));
        }
    }

    pub fn count(&self) -> usize {
        self.secs.len()
    }

    /// Median set-up time in seconds.
    pub fn median(&self) -> f64 {
        median(&self.secs)
    }
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in
/// KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// The timing summary a run prints for a set of per-function samples.
pub struct Timing {
    pub samples: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Samples beyond the p99.
    pub beyond_p99: usize,
    /// The highest percentile with [`MIN_BEYOND`] samples beyond it.
    pub tail_bp: u32,
    pub tail_ms: f64,
    /// p10, p20, ..., p90: where the modes of the distribution lie.
    pub deciles_ms: Vec<f64>,
}

impl Timing {
    pub fn of(samples_ms: Vec<f64>) -> Timing {
        let s = sorted(samples_ms);
        let tail_bp = highest_tail(s.len()).unwrap_or(5000);
        Timing {
            samples: s.len(),
            p50_ms: percentile(&s, 5000),
            p99_ms: percentile(&s, 9900),
            beyond_p99: beyond(s.len(), 9900),
            tail_bp,
            tail_ms: percentile(&s, tail_bp),
            deciles_ms: (1..10).map(|d| percentile(&s, d * 1000)).collect(),
        }
    }

    pub fn note(&self) -> String {
        let deciles: Vec<String> = self.deciles_ms.iter().map(|d| format!("{d:.3}")).collect();
        format!(
            "per-function samples {}: p50 {:.4} ms, p99 {:.4} ms ({} beyond), highest percentile with >= {} beyond: p{} = {:.4} ms; deciles {} ms",
            self.samples,
            self.p50_ms,
            self.p99_ms,
            self.beyond_p99,
            MIN_BEYOND,
            self.tail_bp as f64 / 100.0,
            self.tail_ms,
            deciles.join(" ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition nearest rank implements, checked by brute force:
    /// the smallest sample with at least p% of samples at or below it.
    fn by_definition(values: &[f64], bp: u32) -> f64 {
        let n = values.len() as f64;
        let mut candidates = values.to_vec();
        candidates.sort_by(f64::total_cmp);
        candidates
            .into_iter()
            .find(|&v| {
                let at_or_below = values.iter().filter(|&&x| x <= v).count() as f64;
                at_or_below * 10_000.0 >= bp as f64 * n
            })
            .unwrap()
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Coarse values so ties occur.
                ((x >> 33) % 97) as f64 * 0.25
            })
            .collect()
    }

    #[test]
    fn nearest_rank_matches_an_exact_sort() {
        for n in [1, 2, 3, 7, 10, 99, 100, 101, 999, 1000, 1001, 2500] {
            let values = pseudo_random(n, n as u64);
            let s = sorted(values.clone());
            for &bp in TAIL_LADDER.iter().chain(&[1, 2500, 5001, 10_000]) {
                assert_eq!(
                    percentile(&s, bp),
                    by_definition(&values, bp),
                    "n={n} p={bp}"
                );
            }
        }
    }

    #[test]
    fn ranks_are_exact_at_round_sample_counts() {
        assert_eq!(rank(1000, 9900), 990);
        assert_eq!(beyond(1000, 9900), 10);
        assert_eq!(rank(1001, 9900), 991);
        assert_eq!(beyond(999, 9900), 9);
        assert_eq!(rank(4, 5000), 2);
        assert_eq!(rank(1, 1), 1);
    }

    #[test]
    fn the_tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_tail(0), None);
        assert_eq!(highest_tail(15), None);
        assert_eq!(highest_tail(20), Some(5000));
        assert_eq!(highest_tail(MIN_SAMPLES_FOR_P99 - 1), Some(9800));
        assert_eq!(highest_tail(MIN_SAMPLES_FOR_P99), Some(9900));
        assert_eq!(highest_tail(50_000), Some(9990));
        assert_eq!(highest_tail(100_000), Some(9999));
        for n in 1..5000 {
            match highest_tail(n) {
                Some(bp) => {
                    assert!(beyond(n, bp) >= MIN_BEYOND);
                    // No higher rung of the ladder qualifies.
                    for &higher in TAIL_LADDER.iter().filter(|&&h| h > bp) {
                        assert!(beyond(n, higher) < MIN_BEYOND, "n={n}");
                    }
                }
                None => assert!(TAIL_LADDER.iter().all(|&bp| beyond(n, bp) < MIN_BEYOND)),
            }
        }
        assert!(beyond(MIN_SAMPLES_FOR_P99, 9900) >= MIN_BEYOND);
        assert!(beyond(MIN_SAMPLES_FOR_P99 - 1, 9900) < MIN_BEYOND);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn vm_hwm_is_read_from_a_status_text() {
        let status = "Name:\tlra-perfbench\nVmPeak:\t  250000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51234));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn set_ups_catch_up_with_the_run() {
        let mut setups = Setups::default();
        let mut calls = 0;
        assert_eq!(setups.time(|| 7), 7);
        setups.catch_up(0.5, 21, || calls += 1);
        assert_eq!((setups.count(), calls), (11, 10));
        setups.catch_up(0.5, 21, || calls += 1);
        assert_eq!(setups.count(), 11);
        setups.catch_up(1.0, 21, || calls += 1);
        assert_eq!((setups.count(), calls), (21, 20));
        assert!(setups.median() >= 0.0);
    }
}
