//! Order statistics and process measurements shared by the workloads.

/// The median of `values` (the mean of the two middle values for an even
/// count), as Python's `statistics.median` gives it. NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method). Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Per-attempt latencies of one run, in milliseconds. A failed attempt is
/// recorded as infinite: it misses every latency limit.
#[derive(Debug, Default)]
pub struct Latencies {
    ms: Vec<f64>,
}

/// The tail of a latency distribution: in each window of at least
/// [`TAIL_WINDOW`] consecutive samples, the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples above it; the median over the
/// windows.
#[derive(Debug)]
pub struct Tail {
    /// The median over the windows of the latency at that percentile, in
    /// milliseconds.
    pub ms: f64,
    /// The median over the windows of the percentile, in percent.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Windows the samples were cut into.
    pub windows: usize,
}

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;
/// Samples per window of [`Latencies::tail`], which puts the tail at
/// about p90. A run's ~11th-slowest sample out of thousands moved by up
/// to 30% between sets of runs on a shared host, with the count of rare
/// stalls; the median of per-window tails moves with the service time
/// instead. Over seven one-client `serve_mixed` runs (seeds 21–27),
/// windows of 100 spread less than windows of 200 (0.09 against 0.105).
pub const TAIL_WINDOW: usize = 100;

impl Latencies {
    /// Records one completed attempt.
    pub fn record(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    /// Records one failed attempt.
    pub fn record_failure(&mut self) {
        self.ms.push(f64::INFINITY);
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &Latencies) {
        self.ms.extend_from_slice(&other.ms);
    }

    /// Median latency.
    pub fn p50(&self) -> f64 {
        median(&self.ms)
    }

    /// The fastest attempt (infinite when every attempt failed).
    pub fn best(&self) -> f64 {
        self.ms.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The tail over windows of consecutive samples, in recorded order;
    /// one window when there are fewer than two windows' worth.
    pub fn tail(&self) -> Tail {
        let n = self.ms.len();
        let windows = (n / TAIL_WINDOW).max(1);
        let (values, percentiles): (Vec<f64>, Vec<f64>) = (0..windows)
            .map(|w| window_tail(&self.ms[w * n / windows..(w + 1) * n / windows]))
            .unzip();
        Tail {
            ms: median(&values),
            percentile: median(&percentiles),
            samples: n,
            windows,
        }
    }
}

/// The highest percentile of `window` with at least [`TAIL_BEYOND`]
/// samples beyond it, and that percentile; the maximum when there are too
/// few samples for that.
fn window_tail(window: &[f64]) -> (f64, f64) {
    let s = sorted(window);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return (s.last().copied().unwrap_or(f64::NAN), 100.0);
    }
    let rank = n - TAIL_BEYOND; // samples at or below the percentile
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut l = Latencies::default();
        for i in 1..=100 {
            l.record(f64::from(i));
        }
        let t = l.tail();
        assert_eq!(
            (t.ms, t.percentile, t.samples, t.windows),
            (90.0, 90.0, 100, 1)
        );
    }

    #[test]
    fn tail_is_the_median_over_windows() {
        let mut l = Latencies::default();
        for w in 0..3 {
            for i in 1..=100 {
                l.record(f64::from(i + 1000 * w));
            }
        }
        let t = l.tail();
        assert_eq!((t.ms, t.percentile, t.windows), (1090.0, 90.0, 3));
    }
}
