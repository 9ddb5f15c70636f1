//! **Figure 7 — DPU-optimized RDMA.**
//!
//! Paper: issuing RDMA is "still CPU costly" (queue-pair spinlocks,
//! memory fences, doorbell stalls); the NE replaces queues with
//! DMA-accessible lock-free rings polled by the DPU, which issues the
//! verbs itself. We sweep transfer sizes and report issuing-host CPU
//! cycles per op and completion latency for both designs.

use dpdpu_des::{block_on, now};
use dpdpu_hw::{CpuPool, LinkConfig, PcieLink};
use dpdpu_net::rdma::rdma_pair;
use dpdpu_net::rdma_offload::offload_qp;

use crate::table::Table;

const OPS: u64 = 512;

/// Runs the sweep and renders the table.
pub(crate) fn run() -> String {
    let mut table = Table::new(&[
        "write_bytes",
        "verbs_host_cyc_op",
        "rings_host_cyc_op",
        "verbs_p50_us",
        "rings_p50_us",
    ]);
    for bytes in [64u64, 512, 4_096, 8_192] {
        let (verbs_cyc, verbs_lat) = measure_verbs(bytes);
        let (ring_cyc, ring_lat) = measure_rings(bytes);
        table.row(vec![
            format!("{bytes}"),
            format!("{verbs_cyc:.0}"),
            format!("{ring_cyc:.0}"),
            format!("{:.1}", verbs_lat as f64 / 1e3),
            format!("{:.1}", ring_lat as f64 / 1e3),
        ]);
    }
    format!(
        "## Figure 7: issuing-host cost of RDMA, verbs vs NE rings (one-sided writes)\n\
         (paper shape: the ring path removes the lock/fence/doorbell cost \
         from the host at a modest PCIe latency premium)\n\n{}",
        table.render()
    )
}

/// Standard verbs: host issues. Returns (host cycles/op, p50 ns).
fn measure_verbs(bytes: u64) -> (f64, u64) {
    block_on(async move {
        let host = CpuPool::new("host", 8, 3_000_000_000);
        let remote = CpuPool::new("remote", 8, 3_000_000_000);
        let (qp, _r) = rdma_pair(host.clone(), remote, LinkConfig::rack_100g());
        let lat = dpdpu_des::Histogram::new();
        for _ in 0..OPS {
            let t = now();
            qp.write(bytes).await;
            lat.record(now() - t);
        }
        let cyc_per_op = host.busy_ns() as f64 * 3.0 / OPS as f64; // 3 GHz
        (cyc_per_op, lat.p50().unwrap())
    })
}

/// NE rings: DPU issues. Returns (host cycles/op, p50 ns).
fn measure_rings(bytes: u64) -> (f64, u64) {
    block_on(async move {
        let host = CpuPool::new("host", 8, 3_000_000_000);
        let dpu = CpuPool::new("dpu", 8, 2_500_000_000);
        let remote = CpuPool::new("remote", 8, 3_000_000_000);
        let pcie = PcieLink::new("pcie", 16_000_000_000);
        let (dpu_qp, _r) = rdma_pair(dpu.clone(), remote, LinkConfig::rack_100g());
        let qp = offload_qp(host.clone(), dpu, pcie, dpu_qp);
        let lat = dpdpu_des::Histogram::new();
        for _ in 0..OPS {
            let t = now();
            qp.write(bytes).await;
            lat.record(now() - t);
        }
        let cyc_per_op = host.busy_ns() as f64 * 3.0 / OPS as f64;
        (cyc_per_op, lat.p50().unwrap())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_remove_host_cycles() {
        let (verbs, _) = measure_verbs(4_096);
        let (rings, _) = measure_rings(4_096);
        assert!(
            rings * 4.0 < verbs,
            "rings must be >4x cheaper on the host: verbs={verbs} rings={rings}"
        );
    }

    #[test]
    fn verbs_cost_matches_calibration() {
        let (verbs, _) = measure_verbs(64);
        let expect =
            (dpdpu_hw::costs::RDMA_VERB_ISSUE_CYCLES + dpdpu_hw::costs::RDMA_CQ_POLL_CYCLES) as f64;
        assert!(
            (verbs - expect).abs() / expect < 0.05,
            "verbs={verbs} expect={expect}"
        );
    }

    #[test]
    fn ring_latency_premium_is_bounded() {
        let (_, verbs_lat) = measure_verbs(512);
        let (_, ring_lat) = measure_rings(512);
        assert!(ring_lat > verbs_lat, "PCIe hop must cost something");
        assert!(
            ring_lat < verbs_lat + 20_000,
            "premium must stay in the microsecond range: {verbs_lat} -> {ring_lat}"
        );
    }
}
