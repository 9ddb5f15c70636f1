//! With a session installed, recording a span must not allocate for its
//! labels: a known label is a `Site` table lookup, so the only heap
//! traffic is the span buffer doubling — logarithmic in the span count.
//! Verified with a counting global allocator over the probe path (the
//! per-`Server` wait/serve spans) and the `span()` guard path.
//!
//! The counter is per thread, so neither the test harness's threads nor
//! a concurrent test can pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dpdpu_des::{probe, Site};
use dpdpu_telemetry::Telemetry;

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

const PROBE_SPANS: u64 = 100_000;
const GUARD_SPANS: u64 = 10_000;

#[test]
fn enabled_spans_allocate_only_for_buffer_growth() {
    let t = Telemetry::install();
    let sites: Vec<Site> = (0..8).map(|i| Site::new(&format!("server{i}"))).collect();
    t.assign_track("server0", "dpu");
    let allocs = dpdpu_des::block_on(async move {
        // First sight of every label interns it; nothing after may.
        probe::emit_span(sites[0], "serve", 0, 1);
        probe::emit_span(sites[0], "wait", 0, 1);
        drop(dpdpu_telemetry::span("dpu", "engine", "op"));
        let before = ALLOCS.with(Cell::get);
        for i in 0..PROBE_SPANS {
            let name = if i % 3 == 0 { "wait" } else { "serve" };
            probe::emit_span(sites[(i % 8) as usize], name, i, i + 1);
        }
        for _ in 0..GUARD_SPANS {
            drop(dpdpu_telemetry::span("dpu", "engine", "op"));
        }
        ALLOCS.with(Cell::get) - before
    });
    let spans = 3 + PROBE_SPANS + GUARD_SPANS;
    assert_eq!(t.tracer().len() as u64, spans);
    // At most one reallocation per doubling of the span buffer.
    let bound = u64::from(spans.ilog2());
    assert!(
        allocs <= bound,
        "{spans} enabled spans allocated {allocs} times (bound {bound}): \
         labels must not allocate once interned"
    );
}
