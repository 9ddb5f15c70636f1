//! Multi-tenant isolation on hardware accelerators (paper §5).
//!
//! "A complete solution must also consider hardware accelerators …
//! accelerator capacities vary greatly across hardware; there is also a
//! lack of virtualization support on these accelerators." This module
//! virtualizes one engine in software: per-tenant queues drained by
//! byte-weighted deficit round robin ([`dpdpu_des::Drr`]) in front of
//! the (unvirtualized) hardware, so a flooding tenant cannot starve
//! others beyond its share.

use std::cell::RefCell;
use std::rc::Rc;

use dpdpu_des::{oneshot, spawn, Drr, OneshotReceiver, OneshotSender, Time};
use dpdpu_hw::Accelerator;

/// One queued accelerator job.
struct Job {
    bytes: u64,
    done: OneshotSender<Time>,
}

struct ShareState {
    drr: Drr<Job>,
    dispatcher_running: bool,
}

/// A DRR arbiter in front of one accelerator.
pub struct AccelShares {
    accel: Rc<Accelerator>,
    tenants: usize,
    state: RefCell<ShareState>,
}

impl AccelShares {
    /// Wraps `accel` with per-tenant weighted shares. `quantum_bytes` is
    /// the base service quantum per DRR round.
    pub fn new(accel: Rc<Accelerator>, weights: Vec<u64>, quantum_bytes: u64) -> Rc<Self> {
        Rc::new(AccelShares {
            accel,
            tenants: weights.len(),
            state: RefCell::new(ShareState {
                drr: Drr::new(&weights, quantum_bytes),
                dispatcher_running: false,
            }),
        })
    }

    /// Submits a job for `tenant`; resolves with the completion time.
    /// Must be called inside a running simulation.
    pub fn submit(self: &Rc<Self>, tenant: usize, bytes: u64) -> OneshotReceiver<Time> {
        assert!(tenant < self.tenants, "unknown tenant {tenant}");
        let (tx, rx) = oneshot();
        {
            let mut st = self.state.borrow_mut();
            st.drr.enqueue(tenant, bytes, Job { bytes, done: tx });
            if !st.dispatcher_running {
                st.dispatcher_running = true;
                let this = self.clone();
                spawn(async move { this.dispatch_loop().await });
            }
        }
        rx
    }

    async fn dispatch_loop(self: Rc<Self>) {
        loop {
            let job = {
                let mut st = self.state.borrow_mut();
                let Some((_, _, job)) = st.drr.pick() else {
                    st.dispatcher_running = false;
                    return;
                };
                job
            };
            // An offline engine simply contributes no timing; the job's
            // completion still fires so fairness accounting stays whole.
            let _ = self.accel.process(job.bytes).await;
            let _ = job.done.send(dpdpu_des::now());
        }
    }

    /// Bytes admitted to the engine per tenant so far.
    pub fn bytes_by_tenant(&self) -> Vec<u64> {
        let st = self.state.borrow();
        (0..self.tenants).map(|t| st.drr.served(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{now, Sim};
    use dpdpu_hw::AccelKind;

    fn engine() -> Rc<Accelerator> {
        // 1 GB/s, no setup latency: timing is easy to reason about.
        Accelerator::new(AccelKind::Compression, 2, 0, 1_000_000_000)
    }

    #[test]
    fn flooding_tenant_cannot_starve_the_other() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let shares = AccelShares::new(engine(), vec![1, 1], 64 * 1024);
            // Tenant 0 floods 64 MB up front.
            let mut flood = Vec::new();
            for _ in 0..64 {
                flood.push(shares.submit(0, 1 << 20));
            }
            // Tenant 1 submits one small job after the flood.
            let small = shares.submit(1, 64 * 1024);
            let small_done = small.await.unwrap();
            // Equal shares: the small job must finish near the front of
            // the schedule, not after 64 MB of tenant 0 (which would be
            // ~64 ms at 1 GB/s).
            assert!(
                small_done < 8_000_000,
                "small job starved until {small_done}ns"
            );
            for rx in flood {
                rx.await.unwrap();
            }
            assert!(
                now() >= 64_000_000,
                "64 MB at 1 GB/s lower-bounds the makespan"
            );
        });
        sim.run();
    }

    #[test]
    fn weights_skew_progress_proportionally() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let shares = AccelShares::new(engine(), vec![3, 1], 64 * 1024);
            // Both tenants flood; sample progress mid-flight.
            let mut all = Vec::new();
            for _ in 0..64 {
                all.push(shares.submit(0, 256 * 1024));
                all.push(shares.submit(1, 256 * 1024));
            }
            dpdpu_des::sleep(8_000_000).await; // mid-flight
            let bytes = shares.bytes_by_tenant();
            let ratio = bytes[0] as f64 / bytes[1].max(1) as f64;
            assert!(
                (2.0..4.5).contains(&ratio),
                "3:1 weights should give ~3x progress, got {ratio:.2} ({bytes:?})"
            );
            for rx in all {
                rx.await.unwrap();
            }
            // At drain, both tenants' totals are complete.
            let bytes = shares.bytes_by_tenant();
            assert_eq!(bytes[0], 64 * 256 * 1024);
            assert_eq!(bytes[1], 64 * 256 * 1024);
        });
        sim.run();
    }

    #[test]
    fn idle_arbiter_restarts_cleanly() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let shares = AccelShares::new(engine(), vec![1], 4_096);
            shares.submit(0, 4_096).await.unwrap();
            let t1 = now();
            dpdpu_des::sleep(1_000).await;
            shares.submit(0, 4_096).await.unwrap();
            assert!(now() > t1);
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "unknown tenant")]
    fn unknown_tenant_rejected() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let shares = AccelShares::new(engine(), vec![1], 4_096);
            // submit() panics synchronously on the unknown tenant.
            drop(shares.submit(3, 100));
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "zero-weight")]
    fn zero_weight_rejected_at_construction() {
        // Used to be accepted and then spin forever in the dispatcher
        // once the zero-weight tenant submitted.
        AccelShares::new(engine(), vec![0, 1], 4_096);
    }
}
