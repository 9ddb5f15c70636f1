//! **Ablation A4 — fast persistence (§9 next steps).**
//!
//! The DPU persists a write over PCIe P2P and acknowledges immediately,
//! forwarding to the host asynchronously; the legacy path acks only after
//! the host's deeper stack has persisted. Sweep payload sizes, report ack
//! latency for both modes.

use dpdpu_des::{block_on, Histogram};
use dpdpu_hw::Platform;
use dpdpu_storage::{AckMode, BlockDevice, ExtentFs, FastPersist, FileService};

use crate::table::Table;

const APPENDS: usize = 64;

/// Runs the sweep and renders the table.
pub fn run() -> String {
    let mut table = Table::new(&[
        "payload_bytes",
        "host_ack_p50_us",
        "dpu_ack_p50_us",
        "latency_cut",
    ]);
    for bytes in [512usize, 4_096, 16_384, 65_536] {
        let host = measure(AckMode::HostAck, bytes);
        let dpu = measure(AckMode::DpuAck, bytes);
        table.row(vec![
            format!("{bytes}"),
            format!("{:.1}", host as f64 / 1e3),
            format!("{:.1}", dpu as f64 / 1e3),
            format!("{:.1}%", (1.0 - dpu as f64 / host as f64) * 100.0),
        ]);
    }
    format!(
        "## Ablation A4: commit-ack latency, host-ack vs DPU fast persistence\n\
         (expected: the DPU ack removes the host network/storage stack \
         from the commit path at every payload size)\n\n{}",
        table.render()
    )
}

/// Returns p50 ack latency in ns.
fn measure(mode: AckMode, payload_bytes: usize) -> u64 {
    block_on(async move {
        let p = Platform::default_bf2();
        let fs = ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 20));
        let service = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
        let log = service.fs().create("wal").unwrap();
        let persist = FastPersist::new(
            service,
            p.host_cpu.clone(),
            p.host_dpu_pcie.clone(),
            mode,
            log,
        );
        let lat = Histogram::new();
        let payload = vec![7u8; payload_bytes];
        for _ in 0..APPENDS {
            lat.record(persist.append(&payload).await.unwrap());
        }
        lat.p50().unwrap()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpu_ack_cuts_commit_latency_at_all_sizes() {
        for bytes in [512usize, 16_384] {
            let host = measure(AckMode::HostAck, bytes);
            let dpu = measure(AckMode::DpuAck, bytes);
            assert!(dpu < host, "{bytes}B: dpu={dpu} host={host}");
        }
    }
}
