//! A minimal wall-clock benchmark harness.
//!
//! The container this repo builds in has no network access to crates.io,
//! so `criterion` cannot be used; this module provides the small subset
//! the benches need: named timed closures, warmup, repeated sampling,
//! and a `name ... time/iter` report, with an optional substring filter
//! taken from the command line (`cargo bench -- <filter>`).

use std::time::{Duration, Instant};

/// How long to sample each benchmark for (after warmup).
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(300);
/// Minimum number of measured iterations per benchmark.
const MIN_ITERS: u32 = 10;

/// Runs named benchmark closures, filtered by a command-line substring.
pub struct Runner {
    filter: Option<String>,
}

impl Runner {
    /// Builds a runner from `std::env::args`, ignoring cargo's `--bench`
    /// style flags and taking the first bare argument as a substring
    /// filter on benchmark names.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Runner { filter }
    }

    /// Times `f` and prints `name: <mean> ns/iter (min <min>, N iters)`.
    /// The closure returns a value that is black-boxed so the work is
    /// not optimized away. Returns the mean ns/iter, or `None` if the
    /// filter skipped the benchmark.
    pub fn bench<F: FnMut() -> u64>(&self, name: &str, mut f: F) -> Option<f64> {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return None;
            }
        }
        // Warmup: one untimed call (fills caches, faults pages).
        std::hint::black_box(f());
        // Calibrate: run once timed to estimate the iteration budget.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = ((TARGET_SAMPLE_TIME.as_nanos() / once.as_nanos()).min(u32::MAX as u128)
            as u32)
            .clamp(MIN_ITERS, 1_000_000);
        let mut min = Duration::MAX;
        let start = Instant::now();
        for _ in 0..iters {
            let t = Instant::now();
            std::hint::black_box(f());
            let d = t.elapsed();
            if d < min {
                min = d;
            }
        }
        let total = start.elapsed();
        let mean_ns = total.as_nanos() as f64 / iters as f64;
        println!(
            "{name:<44} {:>12} ns/iter   (min {:>12} ns, {iters} iters)",
            format_ns(mean_ns),
            format_ns(min.as_nanos() as f64),
        );
        Some(mean_ns)
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:.1}", ns)
    } else {
        format!("{ns:.0}")
    }
}
