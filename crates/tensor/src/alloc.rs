//! Tensor allocation tracking.
//!
//! The paper's Table 9 reports peak memory consumption per framework. The
//! original artifact measured it with `memory_profiler`; here every tensor
//! storage registers its byte size on creation and deregisters on drop, so
//! the bench harness can read current and peak tensor memory directly.
//!
//! Two views are kept: process-wide counters (the bench harness, which
//! measures one section at a time) and per-thread counters (the graph
//! executor's per-run statistics, which must not absorb the allocations
//! of runs executing concurrently on other threads).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOC_COUNT: AtomicUsize = AtomicUsize::new(0);

/// This thread's tensor accounting. Bytes are signed: storage allocated
/// on one thread may be dropped on another.
struct ThreadCounters {
    current: Cell<isize>,
    peak: Cell<isize>,
    allocs: Cell<usize>,
}

thread_local! {
    static THREAD: ThreadCounters = const {
        ThreadCounters {
            current: Cell::new(0),
            peak: Cell::new(0),
            allocs: Cell::new(0),
        }
    };
}

/// Records an allocation of `bytes` and updates the peak watermark.
pub(crate) fn record_alloc(bytes: usize) {
    THREAD.with(|t| {
        t.allocs.set(t.allocs.get() + 1);
        let cur = t.current.get() + bytes as isize;
        t.current.set(cur);
        t.peak.set(t.peak.get().max(cur));
    });
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    let cur = CURRENT_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // Lock-free peak update; losing a race only under-reports by the width
    // of the race window, which is acceptable for a watermark.
    let mut peak = PEAK_BYTES.load(Ordering::Relaxed);
    while cur > peak {
        match PEAK_BYTES.compare_exchange_weak(peak, cur, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

/// Records the release of `bytes` of tensor storage.
pub(crate) fn record_dealloc(bytes: usize) {
    THREAD.with(|t| t.current.set(t.current.get() - bytes as isize));
    CURRENT_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

/// A window over this thread's tensor allocations, for per-run
/// statistics that stay exact while other threads allocate
/// concurrently. Kernels allocate their outputs on the thread that runs
/// the graph; parallel chunk workers only write into them.
#[derive(Debug, Clone, Copy)]
pub struct ThreadWindow {
    start_bytes: isize,
    start_allocs: usize,
}

impl ThreadWindow {
    /// Opens a window: resets this thread's peak to its live bytes.
    pub fn open() -> ThreadWindow {
        THREAD.with(|t| {
            t.peak.set(t.current.get());
            ThreadWindow {
                start_bytes: t.current.get(),
                start_allocs: t.allocs.get(),
            }
        })
    }

    /// Tensor storages this thread allocated since the window opened.
    pub fn allocations(&self) -> usize {
        THREAD.with(|t| t.allocs.get() - self.start_allocs)
    }

    /// Peak bytes this thread held above the window's start.
    pub fn peak_bytes(&self) -> usize {
        THREAD.with(|t| (t.peak.get() - self.start_bytes).max(0) as usize)
    }
}

/// Returns the number of bytes currently held by live tensor storages.
pub fn current_bytes() -> usize {
    CURRENT_BYTES.load(Ordering::Relaxed)
}

/// Returns the high-water mark of tensor bytes since the last
/// [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Resets the peak watermark to the current live byte count.
pub fn reset_peak() {
    PEAK_BYTES.store(CURRENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Cumulative number of tensor storage allocations since process start.
///
/// This counter never resets; callers snapshot it before and after a
/// region to count allocations inside (the memory planner's steady-state
/// zero-allocation assertion reads it this way).
pub fn alloc_count() -> usize {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// Runs `f` and returns `(result, peak_bytes_during_f)`.
///
/// The measurement is process-global: concurrent tensor work in other
/// threads is attributed to `f`. The bench harness runs measured sections
/// one at a time.
pub fn measure_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    reset_peak();
    let before = current_bytes();
    let out = f();
    (out, peak_bytes().saturating_sub(before))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn alloc_tracking_counts_storage() {
        let before = current_bytes();
        let t = Tensor::<f32>::zeros(&[1024]);
        assert!(current_bytes() >= before + 4096);
        drop(t);
        assert_eq!(current_bytes(), before);
    }

    #[test]
    fn measure_peak_reports_transient_usage() {
        let ((), peak) = measure_peak(|| {
            let a = Tensor::<f32>::zeros(&[1 << 12]);
            let b = Tensor::<f32>::zeros(&[1 << 12]);
            drop((a, b));
        });
        assert!(peak >= 2 * 4 * (1 << 12), "peak {peak} too small");
    }

    #[test]
    fn views_do_not_allocate() {
        let t = Tensor::<f32>::zeros(&[64, 64]);
        let before = current_bytes();
        let v = t.reshape(&[4096]);
        let w = v.slice(0, 0, 128);
        assert_eq!(current_bytes(), before);
        drop((v, w));
    }
}
