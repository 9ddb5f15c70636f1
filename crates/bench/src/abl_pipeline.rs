//! **Ablation A7 — cross-engine pipelining (§4 "Interactions").**
//!
//! "One engine's output can be streamed to another engine without waiting
//! for the completion of work in progress. This allows for constructing
//! efficient asynchronous pipelines that overlap I/O and computation."
//! We run the read→compress→send composition over a batch of pages two
//! ways — strictly sequential (full barrier between stages per page) and
//! pipelined (per-page streaming, as `Dpdpu::read_compress_send` does) —
//! and compare makespan.

use bytes::Bytes;
use dpdpu_compute::{KernelInput, KernelOp, Placement};
use dpdpu_core::Dpdpu;
use dpdpu_des::{block_on, now};
use dpdpu_hw::{CpuPool, LinkConfig};
use dpdpu_net::fabric::Endpoint;
use dpdpu_net::tcp::TcpConnector;

use crate::table::Table;

const PAGES: u64 = 64;
const PAGE: u64 = 8_192;

/// Runs both compositions and renders the table.
pub(crate) fn run() -> String {
    let sequential = measure(false);
    let pipelined = measure(true);
    let mut table = Table::new(&["composition", "makespan_ms", "speedup"]);
    table.row(vec![
        "sequential (barriers)".into(),
        format!("{:.3}", sequential as f64 / 1e6),
        "1.0x".into(),
    ]);
    table.row(vec![
        "pipelined (streaming)".into(),
        format!("{:.3}", pipelined as f64 / 1e6),
        format!("{:.1}x", sequential as f64 / pipelined as f64),
    ]);
    format!(
        "## Ablation A7: read->compress->send over {PAGES} pages, sequential vs pipelined\n\
         (expected: overlapping SSD reads, ASIC compression, and network \
         sends hides each stage's latency behind the bottleneck stage)\n\n{}",
        table.render()
    )
}

/// Returns the makespan in ns.
fn measure(pipelined: bool) -> u64 {
    block_on(async move {
        let rt = Dpdpu::start_default();
        let file = rt.storage.create("pages").await.unwrap();
        let corpus = dpdpu_kernels::text::natural_text((PAGES * PAGE) as usize, 5);
        rt.storage.write(file, 0, &corpus).await.unwrap();
        let client_cpu = CpuPool::new("client", 8, 3_000_000_000);
        let (tx, mut rx) = TcpConnector::new(LinkConfig::rack_100g())
            .stream(Endpoint::of(&rt.platform), Endpoint::host(client_cpu));
        let pages: Vec<(u64, u64)> = (0..PAGES).map(|i| (i * PAGE, PAGE)).collect();

        let t0 = now();
        if pipelined {
            rt.read_compress_send(file, &pages, &tx).await.unwrap();
        } else {
            for &(offset, len) in &pages {
                let data = rt.storage.read(file, offset, len).await.unwrap();
                let compressed = rt
                    .compute
                    .run(
                        &KernelOp::Compress,
                        &KernelInput::Bytes(Bytes::from(data)),
                        Placement::Scheduled,
                    )
                    .await
                    .unwrap()
                    .into_bytes();
                tx.send(compressed);
            }
        }
        drop(tx);
        while rx.recv().await.is_some() {}
        now() - t0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_beats_barriers() {
        let _check = dpdpu_check::CheckGuard::new();
        let sequential = measure(false);
        let pipelined = measure(true);
        assert!(
            (pipelined as f64) < sequential as f64 * 0.6,
            "pipelining should hide stage latencies: seq={sequential} pipe={pipelined}"
        );
    }
}
