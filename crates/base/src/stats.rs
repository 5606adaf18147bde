//! Lightweight statistics primitives used by the machine models.
//!
//! The machines define their own typed statistics structs; this module
//! provides the shared building blocks: a [`Counter`], a log-linear
//! [`LatHistogram`], and a [`Report`] of name/value rows that machines
//! emit for the bench harness to print.

use std::fmt;

/// A monotonically increasing event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// The current count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Compatibility shim: the benchmark in `perfbench/` reads these four
/// fields from `RunResult::pdes`, which is always `None` now that every
/// simulation runs sequentially.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PdesTelemetry {
    /// Window rounds.
    pub windows: u64,
    /// Synchronization rounds between simulator threads.
    pub rendezvous: u64,
    /// Events dispatched inside windows.
    pub events: u64,
    /// Messages exchanged between simulator threads.
    pub cross_messages: u64,
}

/// Sub-buckets per power-of-two group of a [`LatHistogram`].
const LAT_SUB: usize = 32;
const LAT_SUB_BITS: u32 = 5;
/// Values `0..2*LAT_SUB` get exact buckets; groups cover the rest of u64.
const LAT_BUCKETS: usize = 2 * LAT_SUB + (64 - LAT_SUB_BITS as usize - 1) * LAT_SUB;

/// A log-linear histogram of u64 samples (latencies in simulated cycles).
///
/// Values below 64 are counted exactly; above that, each power-of-two
/// range is split into 32 linear sub-buckets, bounding the relative
/// quantile error at ~3% while keeping the footprint fixed (no stored
/// samples, so millions of ops cost nothing). Merging is bucket-wise
/// addition — commutative and order-independent, so per-node histograms
/// folded together are identical at every simulator thread count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for LatHistogram {
    fn default() -> Self {
        LatHistogram::new()
    }
}

impl LatHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        LatHistogram { counts: vec![0; LAT_BUCKETS], total: 0, sum: 0, max: 0 }
    }

    fn bucket_of(v: u64) -> usize {
        if v < (2 * LAT_SUB) as u64 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros() as usize;
            let group = msb - LAT_SUB_BITS as usize - 1;
            let sub = ((v >> (msb - LAT_SUB_BITS as usize)) & (LAT_SUB as u64 - 1)) as usize;
            2 * LAT_SUB + group * LAT_SUB + sub
        }
    }

    /// Smallest value mapping to bucket `i` — the value quantiles report.
    fn bucket_low(i: usize) -> u64 {
        if i < 2 * LAT_SUB {
            i as u64
        } else {
            let group = (i - 2 * LAT_SUB) / LAT_SUB;
            let sub = (i - 2 * LAT_SUB) % LAT_SUB;
            ((LAT_SUB + sub) as u64) << (group + 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded samples (exact — the running sum is kept
    /// outside the buckets).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest sample recorded (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 < q <= 1`) as the lower bound of the bucket
    /// holding the `ceil(q * total)`-th smallest sample; 0 when empty.
    /// `quantile(0.5)` is p50, `quantile(0.99)` p99.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        // Nearest-rank, with a one-ulp shave so q * total landing a hair
        // above an integer (0.999 * 1000 = 999.0000…1) doesn't skip a rank.
        let mut target = ((q * self.total as f64) * (1.0 - 1e-12)).ceil() as u64;
        target = target.clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_low(i).min(self.max);
            }
        }
        self.max
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// A named per-item count for [`Report::push_sums`].
pub(crate) type SumRow<T> = (&'static str, fn(&T) -> u64);

/// One named value in a statistics report.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportRow {
    /// Metric name, e.g. `"stache.block_faults"`.
    pub name: String,
    /// Metric value.
    pub value: f64,
}

/// An ordered list of named metrics produced by a simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    rows: Vec<ReportRow>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.rows.push(ReportRow { name: name.into(), value });
    }

    /// Appends an integer metric.
    pub fn push_count(&mut self, name: impl Into<String>, value: u64) {
        self.push(name, value as f64);
    }

    /// Appends one count row per `(name, count)` in `rows`: `count`
    /// summed over `items`.
    pub fn push_sums<T>(&mut self, items: &[T], rows: &[SumRow<T>]) {
        for &(name, count) in rows {
            self.push_count(name, items.iter().map(count).sum());
        }
    }

    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// Iterates over the rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &ReportRow> {
        self.rows.iter()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
        for row in &self.rows {
            if row.value.fract() == 0.0 && row.value.abs() < 1e15 {
                writeln!(f, "{:width$}  {}", row.name, row.value as i64)?;
            } else {
                writeln!(f, "{:width$}  {:.4}", row.name, row.value)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn lat_histogram_is_exact_below_64() {
        let mut h = LatHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.total(), 64);
        assert_eq!(h.quantile(0.5), 31); // 32nd smallest of 0..=63
        assert_eq!(h.quantile(1.0), 63);
        assert_eq!(h.max(), 63);
        assert!((h.mean() - 31.5).abs() < 1e-12);
    }

    #[test]
    fn lat_histogram_buckets_are_monotone() {
        let mut last = 0;
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, u64::MAX] {
            let b = LatHistogram::bucket_of(v);
            assert!(b >= last, "bucket order broke at {v}");
            assert!(LatHistogram::bucket_low(b) <= v);
            last = b;
        }
        assert!(LatHistogram::bucket_of(u64::MAX) < LAT_BUCKETS);
    }

    #[test]
    fn lat_histogram_quantile_error_is_bounded() {
        let mut h = LatHistogram::new();
        // 999 fast ops at 100 cycles, 1 slow op at 100_000.
        for _ in 0..999 {
            h.record(100);
        }
        h.record(100_000);
        let p50 = h.quantile(0.5);
        assert!((96..=100).contains(&p50), "p50 {p50} off");
        let p999 = h.quantile(0.999);
        assert!((96..=100).contains(&p999), "p999 {p999} should be fast");
        let p100 = h.quantile(1.0);
        assert!((96_000..=100_000).contains(&p100), "p100 {p100} outside the slow op's bucket");
        // Relative error of the bucketing stays ~3%.
        let v = 123_456u64;
        let low = LatHistogram::bucket_low(LatHistogram::bucket_of(v));
        assert!((v - low) as f64 / (v as f64) < 0.04);
    }

    #[test]
    fn lat_histogram_merge_matches_combined_recording() {
        let mut a = LatHistogram::new();
        let mut b = LatHistogram::new();
        let mut both = LatHistogram::new();
        for v in [5u64, 70, 900, 12_345] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 100, 1_000_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.total(), 7);
    }

    #[test]
    fn lat_histogram_empty_is_zero() {
        let h = LatHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn report_round_trip() {
        let mut r = Report::new();
        r.push_count("a.b", 7);
        r.push("c", 1.5);
        assert_eq!(r.get("a.b"), Some(7.0));
        assert_eq!(r.get("missing"), None);
        assert_eq!(r.iter().count(), 2);
        let text = r.to_string();
        assert!(text.contains("a.b"));
        assert!(text.contains("1.5"));
    }

    #[test]
    fn push_sums_appends_one_summed_row_per_count_in_order() {
        let mut r = Report::new();
        r.push_sums(&[(1u64, 10u64), (2, 20)], &[("b", |x| x.1), ("a", |x| x.0)]);
        let rows: Vec<_> = r.iter().map(|row| (row.name.as_str(), row.value)).collect();
        assert_eq!(rows, vec![("b", 30.0), ("a", 3.0)]);
    }
}
