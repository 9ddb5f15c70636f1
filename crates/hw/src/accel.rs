//! Fixed-function hardware accelerators (compression, crypto, regex,
//! dedup ASICs).

use std::rc::Rc;

use dpdpu_des::{sleep, transmit_ns, Semaphore, Server, Time};

use crate::spec::AccelKind;

/// An accelerator job failed to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccelError {
    /// The engine is offline (injected outage); callers should fall back
    /// to a CPU kernel.
    Offline,
}

impl std::fmt::Display for AccelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccelError::Offline => write!(f, "accelerator offline"),
        }
    }
}

impl std::error::Error for AccelError {}

/// A fixed-function ASIC engine.
///
/// The model captures the vendor-documented behaviour the paper leans on:
/// high streaming bandwidth, a non-trivial fixed setup latency per job
/// ("high throughput with high latency", §5), and a bounded number of
/// concurrent hardware contexts with FIFO admission. Contexts overlap
/// their setup latencies but share the engine's internal pipeline, so
/// `bytes_per_sec` is the device's *aggregate* streaming bandwidth.
pub struct Accelerator {
    contexts: Semaphore,
    num_contexts: usize,
    pipeline: Rc<Server>,
    fixed_latency_ns: Time,
    bytes_per_sec: u64,
}

impl Accelerator {
    /// Creates an accelerator with `contexts` concurrent hardware queues.
    pub fn new(
        kind: AccelKind,
        contexts: usize,
        fixed_latency_ns: Time,
        bytes_per_sec: u64,
    ) -> Rc<Self> {
        assert!(bytes_per_sec > 0, "accelerator bandwidth must be positive");
        Rc::new(Accelerator {
            contexts: Semaphore::new_labeled(&format!("accel-{kind:?}-ctx"), contexts),
            num_contexts: contexts,
            pipeline: Server::new(format!("accel-{kind:?}"), 1),
            fixed_latency_ns,
            bytes_per_sec,
        })
    }

    /// Service time for a job of `bytes` (setup + streaming).
    pub fn service_ns(&self, bytes: u64) -> Time {
        self.fixed_latency_ns + transmit_ns(bytes, self.bytes_per_sec * 8)
    }

    /// Processes a job of `bytes` through the engine: acquire a hardware
    /// context (FIFO), run setup (contexts overlap), then stream through
    /// the shared internal pipeline at the aggregate bandwidth.
    ///
    /// Fails only when a fault plan has taken the engine offline.
    pub async fn process(&self, bytes: u64) -> Result<(), AccelError> {
        if dpdpu_faults::accel_rejects_job() {
            return Err(AccelError::Offline);
        }
        let _ctx = self.contexts.acquire().await;
        sleep(self.fixed_latency_ns).await;
        self.pipeline
            .process(transmit_ns(bytes, self.bytes_per_sec * 8))
            .await;
        Ok(())
    }

    /// True when the engine can currently accept jobs (no injected
    /// outage window is active).
    pub fn online(&self) -> bool {
        dpdpu_faults::accel_online()
    }

    /// Completed jobs.
    pub fn completed(&self) -> u64 {
        self.pipeline.completed()
    }

    /// Jobs queued for a hardware context right now.
    pub fn queue_len(&self) -> usize {
        self.contexts.queue_len()
    }

    /// Free hardware contexts right now.
    pub fn free_contexts(&self) -> usize {
        self.contexts.available().max(1)
    }

    /// Number of hardware contexts.
    pub(crate) fn contexts(&self) -> usize {
        self.num_contexts
    }

    /// Pipeline busy time accumulated.
    pub fn busy_ns(&self) -> u64 {
        self.pipeline.busy_ns()
    }

    /// Pipeline utilisation over `elapsed`.
    pub fn utilization(&self, elapsed: Time) -> f64 {
        self.pipeline.utilization(elapsed)
    }

    /// Clears accounting.
    pub fn reset_stats(&self) {
        self.pipeline.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{now, spawn, Sim};

    #[test]
    fn service_time_is_setup_plus_stream() {
        let mut sim = Sim::new();
        sim.spawn(async {
            // 1 GB/s engine with 1 µs setup: 1 MB job = 1µs + 1ms.
            let a = Accelerator::new(AccelKind::Compression, 1, 1_000, 1_000_000_000);
            a.process(1_000_000).await.unwrap();
            assert_eq!(now(), 1_000 + 1_000_000);
        });
        sim.run();
    }

    #[test]
    fn bandwidth_is_aggregate_across_contexts() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let a = Accelerator::new(AccelKind::Encryption, 2, 0, 1_000_000_000);
            let mut hs = Vec::new();
            for _ in 0..4 {
                let a = a.clone();
                hs.push(spawn(async move { a.process(1_000_000).await.unwrap() }));
            }
            for h in hs {
                h.await;
            }
            // 4 MB through a shared 1 GB/s pipeline -> 4 ms, regardless
            // of how many contexts carry the jobs.
            assert_eq!(now(), 4_000_000);
            assert_eq!(a.completed(), 4);
        });
        sim.run();
    }

    #[test]
    fn setup_latencies_overlap_across_contexts() {
        let mut sim = Sim::new();
        sim.spawn(async {
            // Huge fixed latency, tiny transfers: 2 contexts halve the
            // serial setup cost.
            let a = Accelerator::new(AccelKind::Dedup, 2, 100_000, 1_000_000_000_000);
            let mut hs = Vec::new();
            for _ in 0..4 {
                let a = a.clone();
                hs.push(spawn(async move { a.process(8).await.unwrap() }));
            }
            for h in hs {
                h.await;
            }
            let t = now();
            assert!(t < 4 * 100_000, "setups must overlap: {t}");
            assert!(t >= 2 * 100_000, "2 contexts, 4 jobs: {t}");
        });
        sim.run();
    }

    #[test]
    fn asic_beats_cpu_by_an_order_of_magnitude() {
        // Figure 1's claim, checked directly against the calibration.
        use crate::costs;
        let asic_ns_per_mb = transmit_ns(1_000_000, costs::BF2_COMPRESS_ASIC_BYTES_PER_SEC * 8);
        let epyc_ns_per_mb = dpdpu_des::cycles_to_ns(
            1_000_000 * costs::DEFLATE_CYCLES_PER_BYTE_X86,
            3_000_000_000,
        );
        let speedup = epyc_ns_per_mb as f64 / asic_ns_per_mb as f64;
        assert!(speedup > 9.0 && speedup < 12.0, "speedup={speedup}");
    }

    #[test]
    fn offline_window_rejects_then_recovers() {
        let guard = dpdpu_faults::SessionGuard::new(
            dpdpu_faults::FaultPlan::new(5).accel_offline(0, 10_000),
        );
        let mut sim = Sim::new();
        sim.spawn(async {
            let a = Accelerator::new(AccelKind::Compression, 1, 1_000, 1_000_000_000);
            assert!(!a.online());
            assert_eq!(a.process(1_000_000).await, Err(AccelError::Offline));
            assert_eq!(now(), 0, "rejection must be instantaneous");
            dpdpu_des::sleep(10_000).await;
            assert!(a.online());
            a.process(1_000_000).await.unwrap();
            assert_eq!(now(), 10_000 + 1_000 + 1_000_000);
        });
        sim.run();
        drop(guard);
    }
}
