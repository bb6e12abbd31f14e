//! A counting global allocator for the traced run.
//!
//! Only the `perfbench-traced` binary installs it; the untraced binary
//! keeps the system allocator, so end-to-end numbers never pay for the
//! counting. Counting is also gated by [`enable`]: the traced binary's
//! untraced reference pass runs with it off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The system allocator plus allocation, byte and live-heap counters.
pub struct CountingAlloc;

// Statistics only: no other data is published through these atomics,
// so every access is `Relaxed`. The traced pass is single-threaded, so
// updates are plain load-then-store (no locked read-modify-write on the
// hot path); a concurrent allocation on another thread could lose a
// count, never corrupt memory.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed).wrapping_add(by), Relaxed);
}

fn note_alloc(size: usize) {
    bump(&ALLOCS, 1);
    bump(&BYTES, size as u64);
    adjust_live(size as i64);
}

fn adjust_live(delta: i64) {
    let live = LIVE.load(Relaxed) + delta;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; the
// counters are plain atomics and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            adjust_live(-(layout.size() as i64));
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            adjust_live(-(layout.size() as i64));
            note_alloc(new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations (including reallocations) counted so far.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

/// Starts counting and resets the heap high-water mark to the current
/// live count, so [`peak_bytes`] measures growth from here.
pub fn enable() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Stops counting.
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

/// Reads the allocation counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Net heap bytes allocated and still live since counting was enabled.
pub fn live_bytes() -> i64 {
    LIVE.load(Relaxed)
}

/// The highest [`live_bytes`] reached since the last [`enable`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Relaxed)
}
