//! Exporting a trace must not allocate per span: the Chrome exporter
//! formats every line once, from the raw spans' sites, into one
//! pre-sized buffer, and the merge sorts an index and copies byte ranges
//! — verified with a counting global allocator.
//!
//! PR 22's exporter (a `SpanRecord`, two map keys and a `format!` per
//! span, then a merge that re-parsed and rebuilt every line) allocated
//! 420 242 times over the sequence below: 12 per span in
//! `chrome_trace()`, 15 per span across the two domain exports and the
//! merge. This exporter: 54, buffer growth and one small row per track
//! per export.
//!
//! The counter is per thread, so neither the test harness's threads nor
//! a concurrent test can pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dpdpu_telemetry::{merge_traces, record_span, Telemetry};

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
fn export_and_merge_do_not_allocate_per_span() {
    // Two sessions of 10 000 spans each, over 8 (device, track) pairs.
    let sessions: Vec<_> = (0..2)
        .map(|_| {
            let t = Telemetry::install();
            for i in 0..10_000u64 {
                let device = ["host", "dpu"][(i % 2) as usize];
                let track = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"][(i % 8) as usize];
                record_span(device, track, "op", i * 10, i * 10 + 7, &[]);
            }
            std::rc::Rc::clone(&t)
        })
        .collect();

    let before = ALLOCS.with(Cell::get);
    let whole = sessions[0].chrome_trace();
    let parts = [
        sessions[0].trace_part(0, "d0"),
        sessions[1].trace_part(1, "d1"),
    ];
    let merged = merge_traces(&parts);
    let allocs = ALLOCS.with(Cell::get) - before;

    assert!(merged.len() > whole.len() && whole.len() > 10_000 * 60);
    assert!(
        allocs < 500,
        "exporting 30 000 lines and merging 20 000 allocated {allocs} times: \
         buffer growth and the per-track tables only, never per span"
    );
}
