//! A counting global allocator, installed by this benchmark package only
//! (never by the `rtbh` library), feeding the `.alloc_bytes` and
//! `.peak_bytes` per-layer metrics.
//!
//! Process-wide counters: bytes ever allocated, bytes live now, and two
//! high-water marks of live bytes: one since the last [`measure`] began,
//! one since the last [`restart_high_water`] (the measured phase of an
//! end-to-end run).
//! They count every thread, so a span around a call that fans out to
//! worker threads includes the workers' allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// Forwards to [`System`] and counts bytes.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// Relaxed: the counters are statistics and publish no other data.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    ALLOCATED.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    HIGH_WATER.fetch_max(live, Relaxed);
}

/// Restarts the end-to-end high-water mark at the bytes live now, and
/// returns that count.
pub fn restart_high_water() -> u64 {
    let live = LIVE.load(Relaxed);
    HIGH_WATER.store(live, Relaxed);
    live as u64
}

/// The most heap bytes live at once since the last [`restart_high_water`].
pub fn high_water_bytes() -> u64 {
    HIGH_WATER.load(Relaxed) as u64
}

/// Heap bytes live now.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed) as u64
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe sizes and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; `ptr` came from `System` with `layout`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// What one measured call cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Wall time.
    pub secs: f64,
    /// Bytes allocated during the call (frees not subtracted).
    pub alloc_bytes: u64,
    /// Highest live-byte count during the call, above the count at its start.
    pub peak_bytes: u64,
}

/// Runs `f`, returning its result with its wall time and allocation cost.
/// Spans must not overlap: each one resets the high-water mark.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let live0 = LIVE.load(Relaxed);
    PEAK.store(live0, Relaxed);
    let alloc0 = ALLOCATED.load(Relaxed);
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    let cost = Cost {
        secs,
        alloc_bytes: (ALLOCATED.load(Relaxed) - alloc0) as u64,
        peak_bytes: PEAK.load(Relaxed).saturating_sub(live0) as u64,
    };
    (out, cost)
}
