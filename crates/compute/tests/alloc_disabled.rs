//! With no telemetry session installed, a kernel run must not allocate
//! for its span: the span name is a `&'static str` and attribute values
//! are formatted only when a session records them — verified with a
//! counting global allocator over kernels whose functional result owns
//! no heap memory (a CRC, a digest).
//!
//! The counter is per thread, so neither the test harness's threads nor
//! a concurrent test can pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use dpdpu_compute::{ComputeEngine, ExecTarget, KernelInput, KernelOp, Placement};
use dpdpu_hw::Platform;

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
fn kernel_runs_without_telemetry_do_not_allocate() {
    let ce = ComputeEngine::new(Platform::default_bf2());
    let input = KernelInput::Bytes(Bytes::from(vec![7u8; 4_096]));
    let runs = [
        (KernelOp::Crc32, Placement::Scheduled),
        (KernelOp::Crc32, Placement::Specified(ExecTarget::DpuCpu)),
        (KernelOp::Crc32, Placement::Specified(ExecTarget::HostCpu)),
        (KernelOp::Sha256, Placement::Specified(ExecTarget::DpuAsic)),
    ];
    let allocs = dpdpu_des::block_on(async move {
        let round = || async {
            for (op, placement) in &runs {
                ce.run(op, &input, *placement).await.expect("kernel runs");
            }
        };
        // Warm-up: the executor's timer slab reaches its working size.
        round().await;
        let before = ALLOCS.with(Cell::get);
        for _ in 0..1_000 {
            round().await;
        }
        ALLOCS.with(Cell::get) - before
    });
    assert_eq!(
        allocs, 0,
        "4 000 kernel runs with telemetry off allocated {allocs} times"
    );
}
