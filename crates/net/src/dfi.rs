//! A DFI-style data-flow interface over RDMA (paper §6).
//!
//! DFI (Thostrup et al., SIGMOD'21) layers pipelined, thread-centric
//! record flows over raw RDMA. The paper proposes decoupling DFI's
//! *interface* (host-side record pushes into flow buffers) from its
//! *RDMA execution* (moved to the DPU). This module implements that
//! split: a [`Flow`] buffers records and ships full buffers through any
//! [`RdmaTransport`] — the host-verbs path or the DPU-offloaded rings —
//! so the two can be compared with identical application code.

use std::rc::Rc;

use dpdpu_des::Counter;

use crate::rdma::RdmaQp;
use crate::rdma_offload::OffloadedQp;

/// Anything that can move `bytes` to the remote flow buffer with
/// one-sided writes.
///
/// The futures here are single-threaded simulation futures; `Send` bounds
/// are intentionally absent (the whole simulator is `!Send`).
#[allow(async_fn_in_trait)]
pub trait RdmaTransport {
    /// Writes `bytes` to the remote end, resolving at completion.
    async fn write_remote(&self, bytes: u64);
}

impl RdmaTransport for RdmaQp {
    async fn write_remote(&self, bytes: u64) {
        self.write(bytes).await;
    }
}

impl RdmaTransport for OffloadedQp {
    async fn write_remote(&self, bytes: u64) {
        self.write(bytes).await;
    }
}

/// Flow statistics.
#[derive(Default)]
pub struct FlowStats {
    /// Records pushed.
    pub(crate) records: Counter,
    /// Buffers shipped.
    pub batches: Counter,
    /// Payload bytes shipped.
    pub bytes: Counter,
}

/// A push-side DFI flow: records accumulate in a local flow buffer and
/// ship when the buffer fills (pipelining happens naturally because the
/// producer keeps filling the next buffer while RDMA is in flight — here
/// represented by the async write).
pub struct Flow<T: RdmaTransport> {
    transport: Rc<T>,
    buffer_capacity: u64,
    buffered: u64,
    /// Flow statistics.
    pub stats: FlowStats,
}

impl<T: RdmaTransport> Flow<T> {
    /// Creates a flow with a given buffer size (DFI's flow-buffer
    /// granularity).
    pub fn new(transport: Rc<T>, buffer_capacity: u64) -> Self {
        assert!(buffer_capacity > 0, "flow buffer must be non-empty");
        Flow {
            transport,
            buffer_capacity,
            buffered: 0,
            stats: FlowStats::default(),
        }
    }

    /// Pushes one record of `bytes`; ships the buffer when full.
    pub async fn push(&mut self, bytes: u64) {
        self.stats.records.inc();
        self.buffered += bytes;
        if self.buffered >= self.buffer_capacity {
            self.ship().await;
        }
    }

    /// Forces out any buffered records.
    pub async fn flush(&mut self) {
        if self.buffered > 0 {
            self.ship().await;
        }
    }

    async fn ship(&mut self) {
        let bytes = self.buffered;
        self.buffered = 0;
        self.stats.batches.inc();
        self.stats.bytes.add(bytes);
        self.transport.write_remote(bytes).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdma::rdma_pair;
    use crate::rdma_offload::offload_qp;
    use dpdpu_des::Sim;
    use dpdpu_hw::{CpuPool, LinkConfig, PcieLink};

    #[test]
    fn buffering_amortizes_rdma_ops() {
        let mut sim = Sim::new();
        let out = Rc::new(std::cell::Cell::new((0u64, 0u64)));
        let out2 = out.clone();
        sim.spawn(async move {
            let a = CpuPool::new("a", 4, 3_000_000_000);
            let b = CpuPool::new("b", 4, 3_000_000_000);
            let (qp, _peer) = rdma_pair(a, b, LinkConfig::rack_100g());
            let mut flow = Flow::new(qp.clone(), 64 * 1024);
            for _ in 0..1_000 {
                flow.push(512).await; // 1000 × 512 B records
            }
            flow.flush().await;
            out2.set((flow.stats.batches.get(), qp.stats.ops.get()));
        });
        sim.run();
        let (batches, ops) = out.get();
        assert_eq!(batches, 8, "512 KB in 64 KB buffers");
        assert_eq!(ops, 8, "one RDMA write per shipped buffer");
    }

    #[test]
    fn flush_ships_partial_buffer() {
        let mut sim = Sim::new();
        let out = Rc::new(std::cell::Cell::new(0u64));
        let out2 = out.clone();
        sim.spawn(async move {
            let a = CpuPool::new("a", 4, 3_000_000_000);
            let b = CpuPool::new("b", 4, 3_000_000_000);
            let (qp, _peer) = rdma_pair(a, b, LinkConfig::rack_100g());
            let mut flow = Flow::new(qp, 1 << 20);
            flow.push(100).await;
            assert_eq!(flow.buffered, 100);
            flow.flush().await;
            assert_eq!(flow.buffered, 0);
            out2.set(flow.stats.bytes.get());
        });
        sim.run();
        assert_eq!(out.get(), 100);
    }

    #[test]
    fn same_flow_code_runs_on_offloaded_transport() {
        // The §6 DFI proposal: identical application code, swapped
        // transport, lower host CPU.
        let mut sim = Sim::new();
        let out = Rc::new(std::cell::Cell::new((0.0f64, 0.0f64)));
        let out2 = out.clone();
        sim.spawn(async move {
            let records = 2_000u64;

            // Host-verbs transport.
            let host1 = CpuPool::new("h1", 4, 3_000_000_000);
            let peer1 = CpuPool::new("p1", 4, 3_000_000_000);
            let (qp1, _r1) = rdma_pair(host1.clone(), peer1, LinkConfig::rack_100g());
            let mut flow = Flow::new(qp1, 32 * 1024);
            for _ in 0..records {
                flow.push(1_024).await;
            }
            flow.flush().await;
            let t_mid = dpdpu_des::now().max(1);
            let verbs_cores = host1.cores_consumed(t_mid);

            // Offloaded transport (same push/flush code).
            let host2 = CpuPool::new("h2", 4, 3_000_000_000);
            let dpu = CpuPool::new("d2", 8, 2_500_000_000);
            let peer2 = CpuPool::new("p2", 4, 3_000_000_000);
            let pcie = PcieLink::new("pcie", 16_000_000_000);
            let (dpu_qp, _r2) = rdma_pair(dpu.clone(), peer2, LinkConfig::rack_100g());
            let off = offload_qp(host2.clone(), dpu, pcie, dpu_qp);
            let mut flow = Flow::new(off, 32 * 1024);
            for _ in 0..records {
                flow.push(1_024).await;
            }
            flow.flush().await;
            let elapsed2 = (dpdpu_des::now() - t_mid).max(1);
            let off_cores = host2.busy_ns() as f64 / elapsed2 as f64;

            out2.set((verbs_cores, off_cores));
        });
        sim.run();
        let (verbs, off) = out.get();
        assert!(
            off < verbs,
            "offloaded flow must use less host CPU: {verbs} vs {off}"
        );
    }
}
