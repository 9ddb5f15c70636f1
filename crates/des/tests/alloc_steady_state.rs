//! Zero-allocation guarantees, enforced with a counting global allocator.
//!
//! Two paths must never touch the heap:
//!
//! * probe emission with no probe installed — the cost every un-traced
//!   run pays at each instrumentation point must be a single branch;
//! * the steady-state executor loop — once task slots, wakers, the wake
//!   list, and the timer heap have reached their working capacity, the
//!   wake → drain → poll → advance cycle must be allocation-free.
//!
//! This file deliberately holds a single `#[test]` so no concurrent test
//! can pollute the global counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dpdpu_des::{probe, sleep, yield_now, Sim};

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

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn disabled_probe_and_steady_state_loop_do_not_allocate() {
    // Part 1: probe emission with no probe installed.
    probe::set_probe(None);
    let engine = probe::Site::new("engine");
    let before = allocations();
    for i in 0..10_000u64 {
        probe::emit_span(engine, "op", i, i + 1);
        probe::emit_acquire(engine, 4, 1);
        probe::emit_release(engine, 0);
        probe::emit_advance(i, i + 1);
        probe::emit_epoch();
    }
    assert_eq!(
        allocations() - before,
        0,
        "disabled probe emission must not allocate"
    );

    // Part 2: the executor loop at steady state. The warm-up window grows
    // every buffer to working capacity (task slots, cached wakers, wake
    // list, ready queue, timer heap); after that, constant-concurrency
    // wake/drain/poll/advance cycles must reuse it all.
    let mut sim = Sim::new();
    for t in 0..32u64 {
        sim.spawn(async move {
            loop {
                sleep(1 + t % 3).await;
                yield_now().await;
            }
        });
    }
    sim.run_until(1_000);
    let before = allocations();
    sim.run_until(50_000);
    assert_eq!(
        allocations() - before,
        0,
        "steady-state executor loop must not allocate"
    );
    assert_eq!(sim.now(), 50_000);
}
