//! The counting allocator behind the workspace's allocation pins. A test
//! target installs it —
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: testkit::CountingAlloc = testkit::CountingAlloc;
//! ```
//!
//! — and brackets the code it pins with [`allocs_of`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting what [`allocs_of`] brackets.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// Only the measured thread is counted: the libtest harness thread can
// allocate concurrently (channel/parking internals) while the measured
// window is open, which made a process-wide count flake.
thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count_alloc(bytes: usize) {
    if COUNTED.with(|c| c.get()) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
}

/// `(allocations, bytes requested, f's result)` of `f` on this thread.
/// Reads zeros unless [`CountingAlloc`] is the global allocator.
pub fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let read = || (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    COUNTED.with(|c| c.set(true));
    let (a0, b0) = read();
    let out = f();
    let (a1, b1) = read();
    COUNTED.with(|c| c.set(false));
    (a1 - a0, b1 - b0, out)
}
