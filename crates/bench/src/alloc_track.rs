//! A counting global allocator (for the Fig. 10 memory experiment and the
//! zero-allocation emit-path test).
//!
//! The allocator tracks live bytes and their peak, and counts
//! **allocation calls** — the metric the zero-allocation emit pipeline is
//! measured by: a steady-state transform+apply must not allocate per
//! operation, which byte peaks alone cannot prove (a small alloc/free per
//! op leaves the peak flat).
//!
//! Every counter exists twice: once per process and once **per thread**.
//! [`alloc_calls`] and [`measure_thread`] read the calling thread's own
//! counters, so a measurement is not billed for what `cargo test`'s other
//! test threads allocate meanwhile; the process-wide counters
//! ([`global_alloc_calls`], [`measure`]) are for callers that want other
//! threads included (`fig10_memusage`, the worker-pool test).
//!
//! Binaries opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: eg_bench::alloc_track::TrackingAlloc = eg_bench::alloc_track::TrackingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

// The calling thread's own counters. Const-initialised and without a
// destructor, so touching them from inside the allocator neither
// allocates nor runs into thread-local teardown. Live bytes are signed:
// a thread that frees what another allocated goes below zero.
thread_local! {
    static THREAD_CURRENT: Cell<isize> = const { Cell::new(0) };
    static THREAD_PEAK: Cell<isize> = const { Cell::new(0) };
    static THREAD_ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
}

/// Books `grown` more (or, negative, fewer) live bytes on the process and
/// on the calling thread, and one allocation call if `call` is set.
fn account(grown: isize, call: bool) {
    if grown >= 0 {
        let cur = CURRENT.fetch_add(grown as usize, Ordering::Relaxed) + grown as usize;
        PEAK.fetch_max(cur, Ordering::Relaxed);
    } else {
        CURRENT.fetch_sub(grown.unsigned_abs(), Ordering::Relaxed);
    }
    // `try_with`: never panic inside the allocator.
    let _ = THREAD_CURRENT.try_with(|c| {
        let cur = c.get().wrapping_add(grown);
        c.set(cur);
        let _ = THREAD_PEAK.try_with(|p| p.set(p.get().max(cur)));
    });
    if call {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOC_CALLS.try_with(|c| c.set(c.get().wrapping_add(1)));
    }
}

/// The tracking allocator: forwards to the system allocator, counting
/// live bytes, the high-water mark, and the number of allocation calls.
pub struct TrackingAlloc;

// SAFETY: All allocation is delegated to `System`; the extra work only
// updates atomic counters.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is forwarded verbatim under `GlobalAlloc`'s
        // own contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as isize, true);
        }
        p
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract (`ptr` came from
    // this allocator with this `layout`); both are forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see fn-level comment.
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize), false);
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract (`ptr` came from
    // this allocator with this `layout`); all three are forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: see fn-level comment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A realloc that moves (or grows) is allocator work too; count
            // it as one call.
            account(new_size as isize - layout.size() as isize, true);
        }
        p
    }
}

/// Live heap bytes right now.
pub(crate) fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Resets the peak to the current level and returns the previous peak.
pub(crate) fn reset_peak() -> usize {
    PEAK.swap(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed)
}

/// The high-water mark since the last [`reset_peak`].
pub(crate) fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Allocation calls made so far **by the calling thread** (alloc +
/// realloc). Other threads —
/// `cargo test` runs tests in parallel — do not show up in it.
pub fn alloc_calls() -> usize {
    THREAD_ALLOC_CALLS.with(Cell::get)
}

/// Allocation calls made so far by **every** thread of the process. The
/// explicit opt-in for measurements whose work runs on other threads
/// (the worker-pool test); anything else in the process is billed too.
pub fn global_alloc_calls() -> usize {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Runs `f`, returning `(result, peak_delta, retained_delta)`: extra bytes
/// at peak during the call, and extra bytes still live afterwards (the
/// result is kept alive).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = current_bytes();
    reset_peak();
    let value = f();
    let peak = peak_bytes().saturating_sub(before);
    let retained = current_bytes().saturating_sub(before);
    (value, peak, retained)
}

/// [`measure`] over the calling thread's own byte counters: what `f`
/// itself allocated, whatever other threads do meanwhile. `f` must do its
/// work on this thread.
pub fn measure_thread<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = THREAD_CURRENT.with(Cell::get);
    THREAD_PEAK.with(|p| p.set(before));
    let value = f();
    let peak = THREAD_PEAK.with(Cell::get) - before;
    let retained = THREAD_CURRENT.with(Cell::get) - before;
    (value, peak.max(0) as usize, retained.max(0) as usize)
}

/// Runs `f`, returning `(result, peak_delta, retained_delta, alloc_calls)`
/// — [`measure`] plus the number of allocation calls the calling thread
/// performed during the call.
pub fn measure_counting<T>(f: impl FnOnce() -> T) -> (T, usize, usize, usize) {
    let calls_before = alloc_calls();
    let (value, peak, retained) = measure(f);
    (value, peak, retained, alloc_calls() - calls_before)
}
