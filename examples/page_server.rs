//! DDS + Hyperscale-style page server: WAL shipping, host replay, and
//! GetPage traffic that splits between DPU (clean pages) and host (dirty
//! pages) — §7's partial offloading driven by real log records.
//!
//! ```sh
//! cargo run --example page_server
//! ```

use bytes::Bytes;
use dpdpu::dds::server::{Dds, DdsConfig};
use dpdpu::des::{block_on, now};
use dpdpu::hw::{CpuPool, Platform};
use dpdpu::net::fabric::Endpoint;
use dpdpu::net::NetConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const PAGES: u64 = 128;
const TXNS: usize = 200;
const GETS: usize = 1_000;

fn main() {
    let _check = dpdpu::check::CheckGuard::new();
    block_on(async move {
        let platform = Platform::default_bf2();
        let dds = Dds::build(
            platform.clone(),
            DdsConfig {
                num_pages: PAGES,
                ..DdsConfig::default()
            },
        )
        .await;

        let client_cpu = CpuPool::new("compute-tier", 16, 3_000_000_000);
        let client = dds.connect(&NetConfig::default(), &Endpoint::host(client_cpu), "client");

        let mut rng = StdRng::seed_from_u64(7);

        // Phase 1: the compute tier commits transactions -> WAL records
        // land on hot pages (Zipf-ish: 20% of pages take 80% of writes).
        println!("shipping {TXNS} WAL records...");
        let mut expected: Vec<Vec<u8>> = (0..PAGES).map(|_| vec![0u8; 8_192]).collect();
        for _ in 0..TXNS {
            let hot = rng.random_bool(0.8);
            let page = if hot {
                rng.random_range(0..PAGES / 5)
            } else {
                rng.random_range(PAGES / 5..PAGES)
            };
            let offset = rng.random_range(0..8_000u32);
            let delta: Vec<u8> = (0..rng.random_range(8..64usize))
                .map(|_| rng.random())
                .collect();
            expected[page as usize][offset as usize..offset as usize + delta.len()]
                .copy_from_slice(&delta);
            client
                .append_log(page, offset, Bytes::from(delta))
                .await
                .expect("log shipping must succeed");
        }
        println!(
            "dirty pages after log shipping: {} / {PAGES}",
            dds.pages.dirty_pages()
        );

        // Phase 2: GetPage traffic. Dirty pages force host replay; clean
        // ones are served straight off the DPU.
        let t0 = now();
        platform.host_cpu.reset_stats();
        for _ in 0..GETS {
            let page = rng.random_range(0..PAGES);
            let img = client.get_page(page).await.expect("get_page must succeed");
            assert_eq!(
                &img[..],
                &expected[page as usize][..],
                "page {page} image must reflect every applied log record"
            );
        }
        let elapsed = (now() - t0).max(1);
        println!(
            "\nserved {GETS} GetPage requests in {:.2} ms (virtual)",
            elapsed as f64 / 1e6
        );
        println!(
            "  routed: {} to the DPU, {} to the host (replay)",
            dds.served_dpu.get(),
            dds.served_host.get()
        );
        println!(
            "  WAL records replayed on host: {}",
            dds.pages.replayed.get()
        );
        println!(
            "  host cores consumed during reads: {:.3}",
            platform.host_cpu.cores_consumed(elapsed)
        );
        println!(
            "  dirty pages remaining: {} (replay happens on first touch)",
            dds.pages.dirty_pages()
        );
    });
}
