//! Zero-allocation guarantees, enforced with a counting global allocator.
//!
//! Two paths must never touch the heap:
//!
//! * probe emission with no probe installed — the cost every un-traced
//!   run pays at each instrumentation point must be a single branch;
//! * the steady-state executor loop — once task slots, wakers, the wake
//!   list, and the timer heap have reached their working capacity, the
//!   wake → drain → poll → advance cycle must be allocation-free;
//! * the combinators — `timeout` and `race` hold their futures inline, and
//!   a timer cancelled when its timeout loses frees a slot the next one
//!   re-uses.
//!
//! The counter is per thread, so neither the test harness's threads nor
//! a concurrent test can pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use dpdpu_des::{channel, probe, race, sleep, timeout, yield_now, Sim};

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

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn disabled_probe_and_steady_state_loop_do_not_allocate() {
    // Part 1: probe emission with no probe installed.
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

    // Part 3: `timeout` and `race` in steady state. Each consumer waits on
    // one channel under a timeout that sometimes fires and sometimes loses
    // (cancelling its timer), then races both channels.
    let mut sim = Sim::new();
    let (fired, beaten) = (Rc::new(Cell::new(0u64)), Rc::new(Cell::new(0u64)));
    for t in 0..16u64 {
        let (tx_a, mut rx_a) = channel::<u64>();
        let (tx_b, mut rx_b) = channel::<u64>();
        sim.spawn(async move {
            for i in 0.. {
                sleep(3 + t % 5).await;
                let _ = tx_a.send(i);
                sleep(2 + t % 3).await;
                let _ = tx_b.send(i);
            }
        });
        let (fired, beaten) = (fired.clone(), beaten.clone());
        sim.spawn(async move {
            loop {
                match timeout(4, rx_a.recv()).await {
                    Ok(_) => beaten.set(beaten.get() + 1),
                    Err(_) => fired.set(fired.get() + 1),
                }
                race(rx_a.recv(), rx_b.recv()).await;
            }
        });
    }
    sim.run_until(1_000);
    let (fired_before, beaten_before) = (fired.get(), beaten.get());
    let before = allocations();
    sim.run_until(50_000);
    assert_eq!(
        allocations() - before,
        0,
        "steady-state timeout/race loop must not allocate"
    );
    assert!(fired.get() > fired_before, "some timeouts fired");
    assert!(beaten.get() > beaten_before, "some timeouts were beaten");
}
