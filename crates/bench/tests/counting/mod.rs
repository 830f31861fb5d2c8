//! The counting `#[global_allocator]` of the tests that weigh what code
//! asks of the heap instead of timing it: `System`, with a running count
//! of the blocks it hands out, of the bytes it holds, and of the most it
//! has held since the last [`reset_peak`]. A test binary
//! gets it by declaring `mod counting;`. The counts are the whole
//! process's, so a binary that reads them runs one test, or serialises
//! its counts.
//!
//! It lives here rather than beside the code it weighs: a
//! `#[global_allocator]` needs an `unsafe impl`, which every crate that
//! inherits the workspace's lint table forbids, and `mps-bench` is the
//! member that does not.

#![allow(dead_code, reason = "each test binary reads the counts it needs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering::SeqCst};

/// `System`, counted.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Blocks handed out so far, a reallocation counted as one.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(SeqCst)
}

/// Bytes held now.
pub fn live_bytes() -> isize {
    LIVE.load(SeqCst)
}

/// The most bytes held at once since the last [`reset_peak`]: the
/// high-water mark. A reallocation counts once, at its new size.
pub fn peak_bytes() -> isize {
    PEAK.load(SeqCst)
}

/// Starts a new high-water mark at the bytes held now, and returns them.
pub fn reset_peak() -> isize {
    let live = LIVE.load(SeqCst);
    PEAK.store(live, SeqCst);
    live
}

/// Counts a block of `bytes` more, if `ptr` is one.
fn took(ptr: *mut u8, bytes: isize) -> *mut u8 {
    if !ptr.is_null() {
        ALLOCATIONS.fetch_add(1, SeqCst);
        let live = LIVE.fetch_add(bytes, SeqCst) + bytes;
        PEAK.fetch_max(live, SeqCst);
    }
    ptr
}

// SAFETY: every call goes to `System` unchanged; only calls and sizes are
// counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        took(unsafe { System.alloc(layout) }, layout.size() as isize)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        took(
            unsafe { System.alloc_zeroed(layout) },
            layout.size() as isize,
        )
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // `layout`: the caller guarantees it.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller's guarantees for
        // `new_size` are `System`'s.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        took(moved, new_size as isize - layout.size() as isize)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
