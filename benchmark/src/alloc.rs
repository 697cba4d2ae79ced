//! The benchmark's own counting allocator: bytes live, high-water mark and
//! allocation calls.
//!
//! A private copy rather than `eg_bench::alloc_track`, so that a rewrite of
//! that file cannot change what `peak_bytes` means. The counters are
//! process-wide, so memory is sampled only while no daemon or worker thread
//! is alive.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

// Relaxed everywhere: each counter is a statistic and publishes no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the rest only updates atomic counters and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed on verbatim.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator only hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's, passed on.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
                CALLS.fetch_add(1, Ordering::Relaxed);
            }
        }
        p
    }
}

/// What one call cost the heap.
pub struct HeapUse<T> {
    pub value: T,
    /// High-water mark above the level before the call.
    pub peak: usize,
    /// Bytes still live after the call, `value` included.
    pub retained: usize,
    /// `alloc` and `realloc` calls made.
    pub calls: usize,
}

/// Runs `f` and reports its heap use. Meaningful only while this thread is
/// the only one allocating.
pub fn measure<T>(f: impl FnOnce() -> T) -> HeapUse<T> {
    let before = LIVE.load(Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let value = f();
    HeapUse {
        value,
        peak: PEAK.load(Ordering::Relaxed).saturating_sub(before),
        retained: LIVE.load(Ordering::Relaxed).saturating_sub(before),
        calls: CALLS.load(Ordering::Relaxed) - calls,
    }
}

/// Tells glibc to serve every request from the heap and never to give heap
/// pages back. A fresh tracker is tens of megabytes; by default each merge
/// would `mmap` it, fault every page in and `munmap` it, and inside a VM those
/// faults are both a fifth of the merge and the part of it that varies most
/// from run to run. A long-lived replica runs with a warm heap, so that is
/// what is timed; `peak_bytes` counts requested bytes and is not affected.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_heap_warm() {
    use std::os::raw::c_int;
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_MAX: c_int = -4;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // integers by value, touches only the allocator's own settings, and is
    // called once from `main` before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1 };
    assert!(ok, "glibc refused the heap settings");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_heap_warm() {}
