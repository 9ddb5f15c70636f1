//! Distributed shuffle over DFI flows (paper §6 + related work's
//! SmartShuffle motivation): a DBMS partitions records by hash and ships
//! each partition to its destination server through a DFI flow. The same
//! shuffle code runs over two transports — host-issued RDMA verbs and
//! the NE's DPU-offloaded rings — and we compare the host CPU left over
//! for query processing.
//!
//! ```sh
//! cargo run --example dfi_shuffle
//! ```

use std::rc::Rc;

use dpdpu::des::{block_on, now};
use dpdpu::hw::{CpuPool, LinkConfig, PcieLink};
use dpdpu::kernels::record::gen;
use dpdpu::net::dfi::{Flow, RdmaTransport};
use dpdpu::net::rdma::rdma_pair;
use dpdpu::net::rdma_offload::offload_qp;

const ROWS: usize = 50_000;
const PARTITIONS: usize = 4;
const FLOW_BUFFER: u64 = 64 * 1024;

fn main() {
    let _check = dpdpu::check::CheckGuard::new();
    println!("shuffling {ROWS} orders into {PARTITIONS} partitions over DFI flows\n");
    let (verbs_ms, verbs_net_us) = run(false);
    let (rings_ms, rings_net_us) = run(true);
    println!("\ntransport        elapsed_ms  host_cpu_on_transport_us");
    println!("host verbs       {verbs_ms:>10.2}  {verbs_net_us:>24.1}");
    println!("NE rings (DPU)   {rings_ms:>10.2}  {rings_net_us:>24.1}");
    println!(
        "\n=> the DFI interface is unchanged; swapping its RDMA execution \
         to the DPU cuts the transport's host-CPU cost {:.1}x (§6) — the \
         freed cycles go back to partitioning/join work",
        verbs_net_us / rings_net_us.max(1e-9)
    );
}

/// Transport-generic shuffle: identical application code over verbs or
/// NE rings. Returns (elapsed ns, bytes shipped, buffers shipped).
async fn shuffle<T: RdmaTransport>(flows: &mut [Flow<T>], host: &Rc<CpuPool>) -> (u64, u64, u64) {
    let table = gen::orders(ROWS, 2026);
    let t0 = now();
    host.exec(ROWS as u64 * 40).await; // partition hash + copy out
    for row in &table.rows {
        let key = match row.get(1) {
            dpdpu::kernels::record::Value::Int(c) => *c as u64,
            _ => unreachable!("customer_id is an int"),
        };
        let record_bytes = 40u64; // avg encoded width of an order row
        let dest = (key as usize) % flows.len();
        flows[dest].push(record_bytes).await;
    }
    for f in flows.iter_mut() {
        f.flush().await;
    }
    let elapsed = (now() - t0).max(1);
    let shipped: u64 = flows.iter().map(|f| f.stats.bytes.get()).sum();
    let batches: u64 = flows.iter().map(|f| f.stats.batches.get()).sum();
    (elapsed, shipped, batches)
}

fn run(offloaded: bool) -> (f64, f64) {
    block_on(async move {
        let host = CpuPool::new("dbms-host", 16, 3_000_000_000);
        let dpu = CpuPool::new("dpu", 8, 2_500_000_000);
        let pcie = PcieLink::new("pcie", 16_000_000_000);

        // One flow per destination partition. Each flow gets its own QP
        // (as DFI does); remotes are passive one-sided-write targets.
        // The shuffle itself is transport-generic — the §6 point.
        let mut _remotes = Vec::new();
        let (elapsed, shipped, batches) = if offloaded {
            let mut flows = Vec::new();
            for p in 0..PARTITIONS {
                let remote = CpuPool::new(format!("dest-{p}"), 8, 3_000_000_000);
                let (dpu_qp, r) = rdma_pair(dpu.clone(), remote, LinkConfig::rack_100g());
                _remotes.push(r);
                let qp = offload_qp(host.clone(), dpu.clone(), pcie.clone(), dpu_qp);
                flows.push(Flow::new(qp, FLOW_BUFFER));
            }
            shuffle(&mut flows, &host).await
        } else {
            let mut flows = Vec::new();
            for p in 0..PARTITIONS {
                let remote = CpuPool::new(format!("dest-{p}"), 8, 3_000_000_000);
                let (qp, r) = rdma_pair(host.clone(), remote, LinkConfig::rack_100g());
                _remotes.push(r);
                flows.push(Flow::new(qp, FLOW_BUFFER));
            }
            shuffle(&mut flows, &host).await
        };
        println!(
            "  {}: {} bytes in {} flow buffers, {:.2} ms",
            if offloaded { "NE rings " } else { "verbs    " },
            shipped,
            batches,
            elapsed as f64 / 1e6
        );
        // Host CPU attributable to the transport = total busy minus the
        // partitioning compute (identical in both configurations).
        let hash_ns = ROWS as u64 * 40 / 3; // cycles at 3 GHz
        let transport_us = host.busy_ns().saturating_sub(hash_ns) as f64 / 1e3;
        (elapsed as f64 / 1e6, transport_us)
    })
}
