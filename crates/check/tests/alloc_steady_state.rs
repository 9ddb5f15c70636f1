//! A check-point on a site the session has already seen must not touch
//! the heap, enforced with a counting global allocator.
//!
//! Every end-to-end run is under a strict session, and its hot
//! check-points fire several times per simulated `Server::process` and
//! per link / PCIe / SSD / cluster / fabric / tenant flow, always on the
//! same few dozen site names. The first event of a site may allocate (it
//! creates the site's entry); no later one may.
//!
//! This file deliberately holds a single `#[test]` so no concurrent test
//! can pollute the global counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dpdpu_check::CheckSession;
use dpdpu_des::probe::Probe;

/// Counts every allocation; the default `realloc` goes through `alloc`.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`,
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One event of every steady-state kind, dated `t`.
fn round(session: &CheckSession, t: u64) {
    session.acquire("cpu-dpu", 8, 1);
    session.span("cpu-dpu", "serve", t, t + 1);
    session.release("cpu-dpu", 0);
    dpdpu_check::pcie_in("pcie-host-dpu", 64);
    dpdpu_check::pcie_done("pcie-host-dpu", 64);
    dpdpu_check::link_in("rack-link", 1_500);
    dpdpu_check::link_delivered("rack-link", 1_500);
    dpdpu_check::ssd_in("nvme0.read", 4_096);
    dpdpu_check::ssd_done("nvme0.read", 4_096);
    dpdpu_check::cluster_op_issued("node0", 32);
    dpdpu_check::cluster_op_ok("node0", 32);
    dpdpu_check::fabric_msg_sent("node0.a2b", 32);
    dpdpu_check::fabric_msg_delivered("node0.a2b", 32);
    dpdpu_check::tenant_op_issued("victim", 32);
    dpdpu_check::tenant_op_ok("victim", 32);
}

#[test]
fn check_points_on_known_sites_do_not_allocate() {
    let session = CheckSession::install();
    round(&session, 0);
    let before = ALLOCS.load(Ordering::Relaxed);
    for t in 1..=1_000 {
        round(&session, t);
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    let violations = session.finish();
    CheckSession::uninstall();
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(
        allocated, 0,
        "15 000 check-points on known sites allocated {allocated} times"
    );
}
