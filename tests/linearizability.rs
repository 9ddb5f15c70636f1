//! Linearizability of the sharded KV cluster under fault injection.
//!
//! A fleet of concurrent clients hammers a 3-shard [`DdsCluster`]
//! through the routed [`ClusterClient`] while a seeded fault plan
//! drops frames and fails SSD ops, forcing the full retry/duplicate
//! machinery into play: client retries reuse request ids, servers
//! dedup and replay cached responses, and the KV index applies
//! reservation-ordered updates. Every client records its complete
//! operation history; the union must be consistent with a per-key
//! atomic register ([`dpdpu::check::linearizability`]).
//!
//! Three seeds — if any interleaving the deterministic executor can
//! produce under these plans loses an update or serves a stale read,
//! the checker names it.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dpdpu::check::linearizability::History;
use dpdpu::check::CheckGuard;
use dpdpu::dds::cluster::{ClusterConfig, DdsCluster};
use dpdpu::des::{block_on, now, spawn};
use dpdpu::faults::{FaultPlan, FaultSession};
use dpdpu::hw::CpuPool;

const CLIENTS: usize = 6;
const OPS_PER_CLIENT: u64 = 40;
const KEYS: u64 = 8;

fn run_workload(seed: u64) {
    let _check = CheckGuard::new();
    block_on(async move {
        let _faults = FaultSession::install(
            FaultPlan::new(seed)
                .link_drops(0.02)
                .ssd_read_errors(0.01)
                .ssd_write_errors(0.01)
                .ssd_slow_io(0.02, 200_000),
        );
        let cluster = DdsCluster::build(ClusterConfig {
            shards: 3,
            ..ClusterConfig::default()
        })
        .await;
        let client = cluster.connect(CpuPool::new("clients", 32, 3_000_000_000));
        let mut tasks = Vec::new();
        for c in 0..CLIENTS {
            let client = client.clone();
            tasks.push(spawn(async move {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000) + c as u64);
                let mut h = History::new();
                for seq in 0..OPS_PER_CLIENT {
                    let key = rng.random_range(0..KEYS);
                    let start = now();
                    if rng.random_bool(0.5) {
                        // Unique value per (client, seq): the checker
                        // needs to identify a read's source write.
                        let value = ((c as u64) << 32) | seq;
                        let payload = Bytes::from(value.to_le_bytes().to_vec());
                        match client.kv_put(key, payload).await {
                            Ok(()) => h.write_ok(c, key, value, start, now()),
                            // Lost ack: the write may still have been
                            // applied by a retried attempt.
                            Err(_) => h.write_ambiguous(c, key, value, start, now()),
                        }
                    } else {
                        match client.kv_get(key).await {
                            Ok(Some(bytes)) => {
                                let value =
                                    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
                                h.read(c, key, Some(value), start, now());
                            }
                            Ok(None) => h.read(c, key, None, start, now()),
                            // A failed read observed nothing.
                            Err(_) => {}
                        }
                    }
                }
                h
            }));
        }
        let mut merged = History::new();
        for t in tasks {
            merged.merge(t.await);
        }
        assert!(
            merged.len() > CLIENTS * 10,
            "workload too small to mean anything: {} recorded ops",
            merged.len()
        );
        let violations = merged.check();
        assert!(
            violations.is_empty(),
            "seed {seed}: {} linearizability violation(s):\n  {}",
            violations.len(),
            violations.join("\n  ")
        );
        assert!(
            _faults.report().total() > 0,
            "seed {seed}: the fault plan never fired — the run proves nothing"
        );
    });
    FaultSession::uninstall();
}

#[test]
fn sharded_kv_is_linearizable_seed_42() {
    run_workload(42);
}

#[test]
fn sharded_kv_is_linearizable_seed_7() {
    run_workload(7);
}

#[test]
fn sharded_kv_is_linearizable_seed_1234() {
    run_workload(1234);
}
