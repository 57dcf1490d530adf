//! A counting global allocator (std only) for the memory probes: the
//! system allocator, tracking the bytes currently allocated and their
//! high-water mark. A `realloc` counts its new block before it frees the
//! old one, as a moving realloc holds both. It also counts the requests
//! of at least [`LARGE`] bytes, glibc's default mmap threshold, and their
//! bytes. Declaring this module installs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// glibc's default `M_MMAP_THRESHOLD` (128 KiB): a request this large is
/// `mmap`ped until a free raises the dynamic threshold past it.
pub const LARGE: usize = 128 * 1024;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGE_COUNT: AtomicUsize = AtomicUsize::new(0);
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    if bytes >= LARGE {
        LARGE_COUNT.fetch_add(1, Ordering::Relaxed);
        LARGE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated now.
#[allow(dead_code)] // not every probe reads it
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The most bytes allocated at once so far.
#[allow(dead_code)] // not every probe reads it
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Requests of at least [`LARGE`] bytes so far (allocations and
/// reallocations), and their bytes.
#[allow(dead_code)] // not every probe reads it
pub fn large() -> (usize, usize) {
    (
        LARGE_COUNT.load(Ordering::Relaxed),
        LARGE_BYTES.load(Ordering::Relaxed),
    )
}
