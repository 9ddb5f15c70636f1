//! With no telemetry session installed, a kernel run must not allocate
//! for its span: the span name is a `&'static str` and attribute values
//! are formatted only when a session records them — verified with a
//! counting global allocator over kernels whose functional result owns
//! no heap memory (a CRC, a digest).
//!
//! Single `#[test]` on purpose: a concurrent test in the same binary
//! would pollute the global allocation counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use dpdpu_compute::{ComputeEngine, ExecTarget, KernelInput, KernelOp, Placement};
use dpdpu_hw::Platform;

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
fn kernel_runs_without_telemetry_do_not_allocate() {
    dpdpu_telemetry::Telemetry::uninstall();
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
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..1_000 {
            round().await;
        }
        ALLOCS.load(Ordering::Relaxed) - before
    });
    assert_eq!(
        allocs, 0,
        "4 000 kernel runs with telemetry off allocated {allocs} times"
    );
}
