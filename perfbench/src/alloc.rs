//! A counting global allocator: the system allocator plus a per-thread
//! allocation counter, so the traced run can attribute heap allocations
//! to the calls that made them (`adele.select.allocs_per_call`,
//! `noc_sim.allocs_per_kcycle`) without locks or atomics on the hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation on the calling thread.
pub struct CountingAlloc;

thread_local! {
    // `const` initialisation and no destructor: the slot never allocates
    // and stays readable while a thread is being torn down.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far by the calling thread.
#[must_use]
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees on `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::thread_allocs;

    #[test]
    fn counts_allocations_of_this_thread() {
        let before = thread_allocs();
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(8));
        assert!(thread_allocs() > before);
        drop(v);
    }
}
