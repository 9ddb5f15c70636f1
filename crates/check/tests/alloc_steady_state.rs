//! A check-point on a site the session has already seen must not touch
//! the heap, enforced with a counting global allocator.
//!
//! Every end-to-end run is under a strict session, and its hot
//! check-points fire several times per simulated `Server::process`, per
//! unit of every conservation flow (link, PCIe, SSD, cluster, fabric,
//! tenant, QoS) and per fabric credit. A replicated fleet has hundreds
//! of sites per family, so the guard runs at that scale. The first
//! event of a site may allocate (it grows the session's table to cover
//! the site's id); no later one may.
//!
//! The counter is per thread, so neither the test harness's threads nor
//! a concurrent test can pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dpdpu_check::{CheckGuard, CheckSession, Exit, Flow, Site};
use dpdpu_des::probe::Probe;

/// Counts every allocation; the default `realloc` goes through `alloc`.
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

/// The sites one fleet member touches, one per check-point family.
struct Member {
    cpu: Site,
    pcie: Site,
    link: Site,
    ssd: Site,
    shard: Site,
    fabric: Site,
    tenant: Site,
}

impl Member {
    fn new(i: usize) -> Self {
        Member {
            cpu: Site::new(&format!("node{i}.BlueField-2-cpu")),
            pcie: Site::new(&format!("node{i}.pcie-host-dpu")),
            link: Site::new(&format!("node{i}.rack-link")),
            ssd: Site::new(&format!("node{i}.nvme0.read")),
            shard: Site::new(&format!("node{i}")),
            fabric: Site::new(&format!("node{i}.a2b")),
            tenant: Site::new(&format!("tenant{i}")),
        }
    }

    /// One event of every steady-state kind, dated `t`: 21 check-points.
    fn round(&self, session: &CheckSession, t: u64) {
        session.acquire(self.cpu, 8, 1);
        session.span(self.cpu, "serve", t, t + 1);
        session.release(self.cpu, 0);
        for (flow, site, bytes) in [
            (Flow::Pcie, self.pcie, 64),
            (Flow::Link, self.link, 1_500),
            (Flow::Ssd, self.ssd, 4_096),
            (Flow::Cluster, self.shard, 32),
            (Flow::Fabric, self.fabric, 32),
            (Flow::Tenant, self.tenant, 32),
            (Flow::Qos, self.tenant, 0),
        ] {
            dpdpu_check::flow_in(flow, site, bytes);
            dpdpu_check::flow_out(flow, site, Exit::Ok, bytes);
        }
        dpdpu_check::fabric_credit_consumed(self.fabric, 1);
        dpdpu_check::fabric_credit_returned(self.fabric, 1);
        dpdpu_check::fault_injected("ssd_read", true);
        dpdpu_check::fault_handled("ssd_read", "retried");
    }
}

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn check_points_on_known_sites_do_not_allocate() {
    let fleet: Vec<Member> = (0..1_024).map(Member::new).collect();
    let late = Member::new(fleet.len());
    let check = CheckGuard::new();
    let session = check.session();
    // Every member's fabric direction advertises a one-message window.
    for m in fleet.iter().chain([&late]) {
        dpdpu_check::fabric_conn_open(m.fabric, 1);
    }
    let pass = |t: u64| fleet.iter().for_each(|m| m.round(session, t));
    pass(0);
    let steady = allocations_during(|| pass(1));

    // A site first seen mid-run may grow each of the eight tables its
    // round touches (resources and the seven flows) to cover its id,
    // once, and never again.
    let first = allocations_during(|| late.round(session, 2));
    let later = allocations_during(|| (3..100).for_each(|t| late.round(session, t)));

    let violations = session.finish();
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(
        steady, 0,
        "21 504 check-points on 7 168 known sites allocated {steady} times"
    );
    assert!(first <= 8, "a new site allocated {first} times");
    assert_eq!(later, 0, "a once-seen site allocated {later} more times");
}
