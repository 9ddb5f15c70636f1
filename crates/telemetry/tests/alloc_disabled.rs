//! With no telemetry session installed, the span API must cost one branch
//! and zero heap traffic — verified with a counting global allocator.
//!
//! Single `#[test]` on purpose: a concurrent test in the same binary
//! would pollute the global allocation counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dpdpu_telemetry::Telemetry;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_spans_do_not_allocate() {
    Telemetry::uninstall();
    let engine = dpdpu_des::Site::new("engine");
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        let mut guard = dpdpu_telemetry::span("dpu", "engine", "op");
        guard.attr("i", i & 7);
        drop(guard);
        dpdpu_telemetry::record_span("dpu", "engine", "op", i, i + 1, &[("k", "v")]);
        dpdpu_des::probe::emit_span(engine, "op", i, i + 1);
    }
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - before,
        0,
        "disabled telemetry paths must not allocate"
    );
}
