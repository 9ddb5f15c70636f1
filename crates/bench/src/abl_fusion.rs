//! **Ablation A8 — DP-kernel fusion on PCIe peer accelerators (§5).**
//!
//! "Since such accelerators have higher resource capacities … it makes
//! sense to fuse multiple DP kernels inside the accelerator to minimize
//! execution latency." We run a compress→encrypt chain over page batches
//! on a GPU-class peer, fused (one launch, intermediates on-device) vs
//! unfused (per-kernel launches, intermediates over PCIe), across input
//! sizes — fusion wins most where launch + transfer overheads dominate.

use bytes::Bytes;
use dpdpu_compute::{ComputeEngine, KernelOp};
use dpdpu_des::{block_on, now};
use dpdpu_hw::{PeerSpec, Platform};

use crate::table::Table;

/// Runs the sweep and renders the table.
pub(crate) fn run() -> String {
    let mut table = Table::new(&["input_kb", "fused_us", "unfused_us", "fusion_speedup"]);
    for kb in [16u64, 64, 256, 1_024] {
        let fused = measure(kb * 1_024, true);
        let unfused = measure(kb * 1_024, false);
        table.row(vec![
            format!("{kb}"),
            format!("{:.1}", fused as f64 / 1e3),
            format!("{:.1}", unfused as f64 / 1e3),
            format!("{:.2}x", unfused as f64 / fused as f64),
        ]);
    }
    format!(
        "## Ablation A8: compress->encrypt chain on a GPU peer, fused vs unfused\n\
         (expected: fusion removes per-kernel launches and intermediate \
         PCIe crossings; the advantage is largest for small inputs where \
         overheads dominate)\n\n{}",
        table.render()
    )
}

fn measure(bytes: u64, fused: bool) -> u64 {
    block_on(async move {
        let platform = Platform::default_bf2();
        platform.install_peer(PeerSpec::gpu());
        let ce = ComputeEngine::new(platform);
        let data = Bytes::from(dpdpu_kernels::text::natural_text(bytes as usize, 21));
        let chain = vec![
            KernelOp::Compress,
            KernelOp::Crypt {
                key: [1; 16],
                nonce: [2; 12],
            },
        ];
        let t0 = now();
        ce.run_chain_on_peer(&chain, data, fused).await.unwrap();
        now() - t0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_always_wins_and_most_at_small_sizes() {
        let small_fused = measure(16 * 1_024, true);
        let small_unfused = measure(16 * 1_024, false);
        let big_fused = measure(1_024 * 1_024, true);
        let big_unfused = measure(1_024 * 1_024, false);
        assert!(small_fused < small_unfused);
        assert!(big_fused < big_unfused);
        let small_gain = small_unfused as f64 / small_fused as f64;
        let big_gain = big_unfused as f64 / big_fused as f64;
        assert!(
            small_gain > big_gain,
            "overheads dominate small inputs: small={small_gain:.2} big={big_gain:.2}"
        );
    }
}
