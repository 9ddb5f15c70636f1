//! With no telemetry session installed, the span API must cost one branch
//! and zero heap traffic — verified with a counting global allocator.
//!
//! The counter is per thread, so neither the test harness's threads nor
//! a concurrent test can pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Only the measuring thread counts:
    /// the test harness's own threads allocate whenever they like.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread; `try_with`, so that
/// counting can never panic inside the allocator.
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state and,
// as a `const` thread-local without a destructor, never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_spans_do_not_allocate() {
    let engine = dpdpu_des::Site::new("engine");
    let before = ALLOCS.with(Cell::get);
    for i in 0..10_000u64 {
        let mut guard = dpdpu_telemetry::span("dpu", "engine", "op");
        guard.attr("i", i & 7);
        drop(guard);
        dpdpu_telemetry::record_span("dpu", "engine", "op", i, i + 1, &[("k", "v")]);
        dpdpu_des::probe::emit_span(engine, "op", i, i + 1);
    }
    assert_eq!(
        ALLOCS.with(Cell::get) - before,
        0,
        "disabled telemetry paths must not allocate"
    );
}
