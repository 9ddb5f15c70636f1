//! Linearizability of the sharded KV cluster under fault injection.
//!
//! A fleet of concurrent clients hammers a 3-shard `DdsCluster` through
//! the routed `ClusterClient` while a seeded fault plan drops frames and
//! fails SSD ops, forcing the full retry/duplicate machinery into play:
//! client retries reuse request ids, servers dedup and replay cached
//! responses, and the KV index applies reservation-ordered updates.
//! Every client records its complete operation history
//! ([`Load::Registers`]); the union must be consistent with a per-key
//! atomic register ([`dpdpu::check::linearizability`]).
//!
//! Three seeds — if any interleaving the deterministic executor can
//! produce under these plans loses an update or serves a stale read,
//! the checker names it.

use dpdpu::check::CheckGuard;
use dpdpu::dds::cluster::ClusterConfig;
use dpdpu::faults::FaultPlan;
use dpdpu_bench::cell::{Cell, Load};

const CLIENTS: usize = 6;

fn run_workload(seed: u64) {
    let _check = CheckGuard::new();
    let run = Cell {
        cluster: ClusterConfig {
            shards: 3,
            ..ClusterConfig::default()
        },
        faults: FaultPlan::new(seed)
            .link_drops(0.02)
            .ssd_read_errors(0.01)
            .ssd_write_errors(0.01)
            .ssd_slow_io(0.02, 200_000),
        pool_label: "clients".into(),
        load: Load::Registers {
            clients: CLIENTS,
            ops_per_client: 40,
            read_back_after: None,
        },
        ..Cell::default()
    }
    .run(seed);
    assert!(
        run.history.len() > CLIENTS * 10,
        "workload too small to mean anything: {} recorded ops",
        run.history.len()
    );
    let violations = run.history.check();
    assert!(
        violations.is_empty(),
        "seed {seed}: {} linearizability violation(s):\n  {}",
        violations.len(),
        violations.join("\n  ")
    );
    assert!(
        run.faults.total() > 0,
        "seed {seed}: the fault plan never fired — the run proves nothing"
    );
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
