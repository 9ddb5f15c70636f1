//! Driving a `Sim` to a result instead of to quiescence.
//!
//! `Sim::run()` returns only when no timer is pending. With the
//! `rdma-offload` fabric and `replicas = 2` it never does: the fleet
//! finishes but the offload ring pollers keep re-arming their timers
//! (README, finding 1). So every simulation here is
//! advanced in fixed virtual-time slices until the root task has set its
//! result; the slice is short against any measured phase, so at most one
//! slice of straggler polling lands inside a measurement, and it is the
//! same slice on every run.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use dpdpu_des::{Sim, Time};

/// Virtual time per `run_until` call while waiting for a result.
pub const SLICE_NS: Time = 20_000;
/// Virtual time granted to stragglers (chain acks, SSD completions of
/// already-answered requests) before the check guard sweeps balances.
/// Stopping without it trips `ssd-conservation`.
pub const DRAIN_NS: Time = 50_000_000;

/// Spawns `fut` as a root task and advances `sim` until it resolves.
///
/// # Panics
/// Panics if the simulation goes idle first (deadlock).
pub fn drive<T: 'static>(sim: &mut Sim, fut: impl Future<Output = T> + 'static) -> T {
    let slot = Rc::new(RefCell::new(None));
    let out = slot.clone();
    sim.spawn(async move {
        let value = fut.await;
        *out.borrow_mut() = Some(value);
    });
    loop {
        let deadline = sim.now() + SLICE_NS;
        sim.run_until(deadline);
        if let Some(value) = slot.borrow_mut().take() {
            return value;
        }
        assert!(
            sim.has_runnable() || sim.next_timer_deadline().is_some(),
            "simulation went idle at {} ns before the root task resolved",
            sim.now()
        );
    }
}

/// Lets in-flight stragglers finish: at most [`DRAIN_NS`] more virtual
/// time, less if the simulation goes idle first.
pub fn drain(sim: &mut Sim) {
    let deadline = sim.now() + DRAIN_NS;
    sim.run_until(deadline);
}
