//! The DPU index holds the hot keys. Four TCP shards hold 512 keys, about
//! 128 each, and each shard's DPU index has 64 slots. Under a zipf 0.99
//! read stream, a host-served get that out-hits the coldest DPU entry
//! swaps partitions with it, so the DPU ends up holding each shard's
//! hottest keys and serving most gets. Under first-come residency the
//! slots go to whichever keys the preload wrote first, and about a third
//! of the gets take the host path.

use dpdpu::check::CheckGuard;
use dpdpu::dds::cluster::ClusterConfig;
use dpdpu::dds::kv::{Residency, INDEX_ENTRY_BYTES};
use dpdpu::dds::server::DdsConfig;
use dpdpu_bench::cell::{Cell, Load, Preload};
use dpdpu_bench::fleet::{zipf_key, FleetConfig, KeyDist, Mix};

/// Keys preloaded and read.
const KEYS: u64 = 512;
/// Zipf skew of the reads.
const THETA: f64 = 0.99;
/// DPU index slots per shard: about half of a shard's keys.
const SLOTS: u64 = 64;
/// The hottest keys of each shard that must end DPU-resident.
const HOT_PER_SHARD: usize = 32;
/// Reads from each of the 16 clients.
const OPS_PER_CLIENT: u64 = 2_000;

/// Each shard's keys, hottest first, by their zipf rank.
fn keys_by_heat(shard_for: impl Fn(u64) -> usize, shards: usize) -> Vec<Vec<(u64, f64)>> {
    let mut out = vec![Vec::new(); shards];
    for rank in 0..KEYS {
        let key = zipf_key(rank, KEYS);
        out[shard_for(key)].push((key, 1.0 / ((rank + 1) as f64).powf(THETA)));
    }
    out
}

/// Reads each shard's DPU index after a zipf 0.99 read-only load of
/// [`OPS_PER_CLIENT`] gets from each of 16 clients: the share of gets the
/// DPUs served, the share that the hottest [`SLOTS`] keys of every shard
/// draw, and per shard how many of its [`HOT_PER_SHARD`] hottest keys
/// are DPU-resident.
fn residency_after_load() -> (f64, f64, Vec<usize>) {
    let _check = CheckGuard::new();
    let fleet = FleetConfig {
        clients: 16,
        ops_per_client: OPS_PER_CLIENT,
        pipeline: 4,
        dist: KeyDist::Zipfian {
            keys: KEYS,
            theta: THETA,
        },
        mix: Mix {
            read_pct: 100,
            update_pct: 0,
            scan_pct: 0,
        },
        ..FleetConfig::default()
    };
    let cell = Cell {
        cluster: ClusterConfig {
            shards: 4,
            dds: DdsConfig {
                kv_index_budget: SLOTS * INDEX_ENTRY_BYTES,
                ..DdsConfig::default()
            },
            ..ClusterConfig::default()
        },
        preload: Preload {
            keys: KEYS,
            value_bytes: 256,
        },
        load: Load::Fleet(fleet),
        ..Cell::default()
    };
    // The run ends at quiescence, so every promotion has landed.
    let run = cell.run(42);
    let shards = run.cluster.primaries();
    let dpu: u64 = shards.iter().map(|d| d.served_dpu.get()).sum();
    // Every preload put took the host path once; the rest are gets.
    let host = shards.iter().map(|d| d.served_host.get()).sum::<u64>() - KEYS;
    assert_eq!(dpu + host, 16 * OPS_PER_CLIENT, "one serve per get");
    let heat = keys_by_heat(|k| run.cluster.shard_for(k), shards.len());
    let weight = |n: usize| -> f64 {
        heat.iter()
            .flat_map(|keys| keys.iter().take(n))
            .map(|(_, w)| w)
            .sum()
    };
    let ideal = weight(SLOTS as usize) / weight(KEYS as usize);
    let resident = heat
        .iter()
        .zip(&shards)
        .map(|(keys, dds)| {
            keys.iter()
                .take(HOT_PER_SHARD)
                .filter(|(k, _)| dds.kv.residency(*k) == Residency::Dpu)
                .count()
        })
        .collect();
    (dpu as f64 / (dpu + host) as f64, ideal, resident)
}

#[test]
fn the_dpu_index_converges_to_each_shards_hot_keys() {
    let (offload, ideal, resident) = residency_after_load();
    assert!(
        offload >= 0.80,
        "the DPUs served {offload:.3} of the gets; the hottest {SLOTS} keys of \
         each shard draw {ideal:.3}"
    );
    for (shard, n) in resident.iter().enumerate() {
        assert!(
            *n * 10 >= HOT_PER_SHARD * 9,
            "shard {shard} holds {n} of its {HOT_PER_SHARD} hottest keys on the DPU \
             (per shard: {resident:?})"
        );
    }
}
