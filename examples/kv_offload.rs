//! DDS + FASTER-style KV store: measure host CPU cores saved by DPU
//! offloading under a read-heavy workload (the paper's §9 result, in
//! miniature).
//!
//! ```sh
//! cargo run --example kv_offload
//! ```

use bytes::Bytes;
use dpdpu::dds::server::{Dds, DdsConfig};
use dpdpu::des::{block_on, now};
use dpdpu::hw::{CpuPool, Platform};
use dpdpu::net::fabric::Endpoint;
use dpdpu::net::NetConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const KEYS: u64 = 256;
const READS: u64 = 4_096;
const VALUE_BYTES: usize = 512;

fn main() {
    let _check = dpdpu::check::CheckGuard::new();
    println!("workload: {KEYS} keys x {VALUE_BYTES} B, {READS} gets (uniform), 1 client");
    let (base_cores, base_ms) = run(false);
    let (dds_cores, dds_ms) = run(true);
    println!("\nhost cores consumed: baseline={base_cores:.3}  DDS={dds_cores:.3}");
    println!("wall time (virtual): baseline={base_ms:.2} ms  DDS={dds_ms:.2} ms");
    println!(
        "=> DDS saves {:.1}x host CPU on this read path; at a production \
         storage server's request rates that factor is what the paper \
         reports as '10s of CPU cores'",
        base_cores / dds_cores.max(1e-9)
    );
}

fn run(offload: bool) -> (f64, f64) {
    block_on(async move {
        let platform = Platform::default_bf2();
        let dds = Dds::build(
            platform.clone(),
            DdsConfig {
                offload_enabled: offload,
                ..DdsConfig::default()
            },
        )
        .await;

        let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
        let client = dds.connect(&NetConfig::default(), &Endpoint::host(client_cpu), "client");

        // Load phase.
        let mut rng = StdRng::seed_from_u64(1);
        for k in 0..KEYS {
            let value: Vec<u8> = (0..VALUE_BYTES).map(|_| rng.random()).collect();
            client
                .kv_put(k, Bytes::from(value))
                .await
                .expect("put must succeed");
        }

        // Measured read phase.
        platform.host_cpu.reset_stats();
        let t0 = now();
        for _ in 0..READS {
            let key = rng.random_range(0..KEYS);
            let v = client
                .kv_get(key)
                .await
                .expect("get must succeed")
                .expect("loaded key");
            assert_eq!(v.len(), VALUE_BYTES);
        }
        let elapsed = (now() - t0).max(1);
        let cores = platform.host_cpu.cores_consumed(elapsed);
        println!(
            "offload={offload}: dpu-served={} host-served={} host-cores={cores:.3}",
            dds.served_dpu.get(),
            dds.served_host.get()
        );
        (cores, elapsed as f64 / 1e6)
    })
}
