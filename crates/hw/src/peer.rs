//! PCIe peer accelerators (paper §5), modelled as a data-center GPU.
//!
//! "DPDPU CE can be further augmented when additional common data center
//! accelerators such as FPGAs and GPUs are connected via PCIe … it makes
//! sense to fuse multiple DP kernels inside the accelerator to minimize
//! execution latency." The model: a high-bandwidth engine behind its own
//! PCIe link, with a *per-launch* fixed cost that dominates small jobs —
//! which is exactly what fusion amortises.

use std::rc::Rc;

use dpdpu_des::{sleep, transmit_ns, Server, Time};

use crate::pcie::PcieLink;

/// Specification of a PCIe peer accelerator.
#[derive(Debug, Clone, Copy)]
pub struct PeerSpec {
    /// Streaming compute bandwidth per kernel pass, bytes/sec.
    pub(crate) bytes_per_sec: u64,
    /// Kernel-launch / reconfiguration overhead per pass, ns.
    pub(crate) launch_ns: Time,
    /// Concurrent kernel contexts (streams / PR regions).
    pub(crate) contexts: usize,
    /// PCIe bandwidth to the device, bytes/sec.
    pub(crate) pcie_bytes_per_sec: u64,
}

impl PeerSpec {
    /// An A100-class GPU: very high streaming bandwidth, ~10 µs launch.
    pub fn gpu() -> Self {
        PeerSpec {
            bytes_per_sec: 60_000_000_000,
            launch_ns: 10_000,
            contexts: 8,
            pcie_bytes_per_sec: 24_000_000_000,
        }
    }
}

/// A live peer accelerator.
pub struct PeerDevice {
    spec: PeerSpec,
    contexts: dpdpu_des::Semaphore,
    engine: Rc<Server>,
    /// The device's own PCIe link (DPU reaches it peer-to-peer).
    pub pcie: Rc<PcieLink>,
}

impl PeerDevice {
    /// Instantiates a peer device from its spec.
    pub fn new(spec: PeerSpec) -> Rc<Self> {
        Rc::new(PeerDevice {
            contexts: dpdpu_des::Semaphore::new_labeled("peer-Gpu-ctx", spec.contexts),
            engine: Server::new("peer-Gpu", 1),
            pcie: PcieLink::new("peer-pcie", spec.pcie_bytes_per_sec),
            spec,
        })
    }

    /// Runs `passes` kernel passes over `bytes` on-device as ONE launch
    /// (fused): a single launch overhead, then each pass streams the data
    /// through the engine; intermediates stay in device memory.
    pub(crate) async fn run_fused(&self, bytes: u64, passes: u32) {
        let _ctx = self.contexts.acquire().await;
        sleep(self.spec.launch_ns).await;
        self.engine
            .process(passes as u64 * transmit_ns(bytes, self.spec.bytes_per_sec * 8))
            .await;
    }

    /// Runs one kernel pass as its own launch (the unfused unit).
    pub async fn run_pass(&self, bytes: u64) {
        self.run_fused(bytes, 1).await;
    }

    /// Fused launch where each pass streams a different amount of data
    /// (kernel chains shrink or grow their intermediates — compression,
    /// decompression): one launch, summed streaming time, intermediates
    /// resident in device memory.
    pub async fn run_fused_sizes(&self, sizes: &[u64]) {
        let _ctx = self.contexts.acquire().await;
        sleep(self.spec.launch_ns).await;
        let total: Time = sizes
            .iter()
            .map(|&b| transmit_ns(b, self.spec.bytes_per_sec * 8))
            .sum();
        self.engine.process(total).await;
    }

    /// Engine busy time.
    pub fn busy_ns(&self) -> u64 {
        self.engine.busy_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{now, Sim};

    #[test]
    fn fused_passes_pay_one_launch() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let gpu = PeerDevice::new(PeerSpec::gpu());
            let bytes = 6_000_000u64; // 100 µs of streaming at 60 GB/s
            gpu.run_fused(bytes, 3).await;
            let fused = now();
            // Three separate launches for comparison.
            for _ in 0..3 {
                gpu.run_pass(bytes).await;
            }
            let unfused = now() - fused;
            // Same streaming work, but 2 extra launches.
            assert_eq!(unfused - fused, 2 * gpu.spec.launch_ns);
        });
        sim.run();
    }

    #[test]
    fn contexts_bound_concurrent_launches() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let gpu = PeerDevice::new(PeerSpec::gpu());
            let mut hs = Vec::new();
            for _ in 0..16 {
                let gpu = gpu.clone();
                hs.push(dpdpu_des::spawn(async move { gpu.run_pass(60_000).await }));
            }
            dpdpu_des::join_all(hs).await;
            // 16 × 1 µs streaming, serialized on the engine. With unbounded
            // contexts every 10 µs launch would overlap and the last pass
            // would end at 26 µs; with 8, the ninth launch waits for one.
            assert!(now() > 10_000 + 16 * 1_000);
        });
        sim.run();
    }
}
