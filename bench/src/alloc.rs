//! Counting allocator: the benchmark binary's global allocator, a thin
//! wrapper over the system one that counts while — and only while — the
//! traced run has switched it on. This is the one file in `bench/` that
//! contains `unsafe` (a `GlobalAlloc` impl cannot be written without it;
//! ROADMAP item 1 names it as the single scoped exception).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// All counters are statistics that publish no other data: Relaxed.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since counting was switched on. It
/// can dip below zero (memory from before the switch being freed), so it
/// is signed; the peak is what the run reports.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn grew(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller already upholds; the
// counters touched around the call are plain atomics and never influence
// the pointer, size or layout handed through.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller passed under the same contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller passed under the same contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, both under the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the allocator saw between [`start`] and [`stop`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCounts {
    pub allocs: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

/// Zeroes the counters and switches counting on.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// A reading of the counters since [`start`]; counting stays as it was.
pub fn read() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK.load(Relaxed).max(0) as u64,
    }
}

/// Switches counting off and returns the final reading.
pub fn stop() -> AllocCounts {
    ON.store(false, Relaxed);
    read()
}
