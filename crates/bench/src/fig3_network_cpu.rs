//! **Figure 3 — CPU consumption of network communication.**
//!
//! Paper: transferring 8 KB pages over TCP/IP on a 100 Gbps network
//! consumes significant host CPU, growing with bandwidth, and that I/O
//! processing competes with compute tasks for the same cores. We pace
//! parallel flows to hit target aggregate bandwidths and report
//! sender-side host cores for the kernel stack — and for the Network
//! Engine's offloaded stack, the remedy of §6.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use dpdpu_des::{block_on, now, sleep_until, SECONDS};
use dpdpu_hw::{CpuPool, LinkConfig, PcieLink};
use dpdpu_net::fabric::Endpoint;
use dpdpu_net::tcp::TcpConnector;

use crate::table::Table;

const MSG: usize = 8_192;
const FLOWS: u64 = 8;
const WINDOW_NS: u64 = 4_000_000; // 4 ms of paced sending

/// Runs the sweep and renders the table.
pub(crate) fn run() -> String {
    let mut table = Table::new(&[
        "target_gbps",
        "achieved_gbps",
        "host_tcp_cores",
        "ne_offload_cores",
    ]);
    for target_gbps in [10u64, 25, 50, 75, 100] {
        let (ach, host_cores) = measure(false, target_gbps);
        let (_ach2, ne_cores) = measure(true, target_gbps);
        table.row(vec![
            format!("{target_gbps}"),
            format!("{ach:.0}"),
            format!("{host_cores:.2}"),
            format!("{ne_cores:.3}"),
        ]);
    }
    format!(
        "## Figure 3: sender host CPU cores vs TCP bandwidth (8 KB messages, 100 Gbps link)\n\
         (paper shape: CPU grows with bandwidth and is substantial near \
         line rate; the NE-offloaded stack flattens the curve)\n\n{}",
        table.render()
    )
}

/// Paces `FLOWS` parallel flows to an aggregate `target_gbps` for the
/// window, the sender's stack on its DPU when `offload`; returns
/// (achieved aggregate Gbps, sender host cores).
fn measure(offload: bool, target_gbps: u64) -> (f64, f64) {
    block_on(async move {
        let src_host = CpuPool::new("src-host", 32, 3_000_000_000);
        let src_dpu = CpuPool::new("src-dpu", 8, 2_500_000_000);
        let src_pcie = PcieLink::new("src-pcie", 16_000_000_000);
        let dst_host = CpuPool::new("dst-host", 32, 3_000_000_000);

        let per_flow_bps = target_gbps * 1_000_000_000 / FLOWS;
        let interval = (MSG as u64 * 8) * SECONDS / per_flow_bps;
        let msgs_per_flow = WINDOW_NS / interval;

        let delivered = Rc::new(Cell::new(0u64));
        let t0 = now();
        let mut handles = Vec::new();
        let src = if offload {
            Endpoint::offloaded(src_host.clone(), src_dpu.clone(), src_pcie.clone())
        } else {
            Endpoint::host(src_host.clone())
        };
        let dst = Endpoint::host(dst_host.clone());
        // All flows share one physical 100 Gbps port.
        let streams = TcpConnector::new(LinkConfig::rack_100g()).streams(src, dst, FLOWS as usize);
        for (tx, mut rx) in streams {
            // Paced producer.
            handles.push(dpdpu_des::spawn(async move {
                for i in 0..msgs_per_flow {
                    sleep_until(t0 + i * interval).await;
                    tx.send(Bytes::from(vec![0u8; MSG]));
                }
            }));
            // Sink.
            let delivered = delivered.clone();
            handles.push(dpdpu_des::spawn(async move {
                while let Some(m) = rx.recv().await {
                    delivered.set(delivered.get() + m.len() as u64);
                }
            }));
        }
        dpdpu_des::join_all(handles).await;
        let elapsed = (now() - t0).max(1);
        let gbps = delivered.get() as f64 * 8.0 / elapsed as f64;
        (gbps, src_host.cores_consumed(elapsed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_grows_with_bandwidth() {
        let (_g1, c1) = measure(false, 20);
        let (_g2, c2) = measure(false, 80);
        assert!(
            c2 > 2.5 * c1,
            "4x bandwidth should cost ~4x CPU: {c1} -> {c2}"
        );
    }

    #[test]
    fn near_line_rate_costs_multiple_cores() {
        let (gbps, cores) = measure(false, 100);
        assert!(gbps > 70.0, "should approach line rate, got {gbps}");
        assert!(cores > 2.0, "Figure 3 shows multi-core cost, got {cores}");
    }

    #[test]
    fn offload_flattens_the_curve() {
        let (_g, host) = measure(false, 50);
        let (_g2, ne) = measure(true, 50);
        assert!(
            ne * 5.0 < host,
            "NE must slash sender host CPU: host={host} ne={ne}"
        );
    }
}
