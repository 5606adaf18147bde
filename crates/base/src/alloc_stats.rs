//! A counting global allocator for heap-footprint measurement.
//!
//! Big-machine mode (DESIGN.md §11) reports *resident bytes per node* for
//! the 64/256/1024-node sweeps. Rather than parse `/proc/self/status`
//! (noisy, allocator-dependent), the bench binaries install
//! [`CountingAlloc`] as their global allocator: it forwards to the system
//! allocator and keeps three atomics — live bytes, the high-water mark,
//! and a cumulative allocation count. The counters are process-global, so
//! per-point readings are only attributable at `--jobs 1`
//! (EXPERIMENTS.md records the methodology).
//!
//! The counter updates are relaxed atomics; the peak is maintained with a
//! CAS loop, so a concurrent reader can never observe a peak below a live
//! value it caused. Overhead is a few nanoseconds per allocation — far
//! below measurement noise — and the simulator's own determinism is
//! untouched (no simulated state reads these counters).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);

/// A forwarding allocator that counts live bytes, peak bytes, and
/// allocation events. Install with `#[global_allocator]`.
pub struct CountingAlloc;

fn on_alloc(bytes: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(cur) => peak = cur,
        }
    }
}

// SAFETY: pure forwarding to `System`; the bookkeeping never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// High-water mark of live bytes since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Cumulative number of allocation events: every successful alloc and
/// every successful realloc, growing or shrinking.
pub fn alloc_count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// Resets the peak to the current live footprint, so a subsequent
/// [`peak_bytes`] reading is attributable to work after this call.
/// Only meaningful when one measured region runs at a time.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
