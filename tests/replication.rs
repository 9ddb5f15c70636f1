//! Chaos matrix for per-shard replication: failover, fencing, and
//! live resharding under seeded crash plans.
//!
//! A fleet of concurrent clients hammers a replicated [`DdsCluster`]
//! (2 replicas per shard) while a [`FaultPlan`] freezes whole nodes —
//! the primary mid-write, the backup under the chain, a primary in the
//! middle of a live migration, and a double fault that kills the
//! promoted backup too. Every client records its complete operation
//! history; after the dust settles a read-back pass re-reads every
//! key, so an acked write that any crash managed to lose shows up as a
//! linearizability violation. The union history must check clean, the
//! surviving replicas of every group must hold byte-identical KV
//! state, and every epoch transition must be monotone — all three are
//! enforced by [`dpdpu::check`] before the test ends.
//!
//! Four chaos shapes × seeds {42, 7, 1234}: if any interleaving the
//! deterministic executor can produce under these plans loses an acked
//! write, serves stale state from a zombie primary, or lets replicas
//! diverge, the checker names it.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dpdpu::check::linearizability::History;
use dpdpu::check::CheckGuard;
use dpdpu::dds::cluster::{ClusterClient, ClusterConfig, DdsCluster};
use dpdpu::des::{block_on, now, sleep, spawn, Sim};
use dpdpu::faults::{FaultPlan, FaultSession};
use dpdpu::hw::CpuPool;
use dpdpu::net::fabric::FabricKind;
use dpdpu::net::NetConfig;
use dpdpu_bench::fleet::{preload, FleetConfig, KeyDist};

const CLIENTS: usize = 4;
const OPS_PER_CLIENT: u64 = 36;
const KEYS: u64 = 8;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Chaos {
    /// Freeze shard 0's primary while writes are in flight: the
    /// failure detector must promote the backup and no acked write may
    /// vanish.
    CrashPrimaryMidWrite,
    /// Freeze shard 0's backup: the primary must depose it via a solo
    /// grant and keep acking writes.
    CrashBackup,
    /// Freeze shard 1's primary while a live `add_shard` migration is
    /// draining keys through it.
    CrashDuringMigration,
    /// Freeze the primary, let the backup take over, then freeze the
    /// promoted backup too — the group goes dark and comes back, and
    /// still nothing acked is lost.
    DoubleFault,
}

fn plan_for(chaos: Chaos, seed: u64) -> FaultPlan {
    let plan = FaultPlan::new(seed);
    match chaos {
        Chaos::CrashPrimaryMidWrite => plan.shard_crash("node0", 5_000_000, 120_000_000),
        Chaos::CrashBackup => plan.shard_crash("node0r1", 5_000_000, 120_000_000),
        // Opens just after the resharding driver kicks off at t=8ms,
        // so the freeze always lands while the migration is draining
        // keys through shard 1 (the fleet alone may quiesce earlier).
        Chaos::CrashDuringMigration => plan.shard_crash("node1", 8_200_000, 90_000_000),
        Chaos::DoubleFault => plan
            .shard_crash("node0", 5_000_000, 60_000_000)
            .shard_crash("node0r1", 70_000_000, 150_000_000),
    }
}

/// One client task: a random read/write mix over a small hot key set,
/// recording every observation. Returns its history and how many
/// writes ended ambiguous (error after possible partial effect).
async fn client_task(client: Rc<ClusterClient>, c: usize, seed: u64) -> (History, u64) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000) + c as u64);
    let mut h = History::new();
    let mut ambiguous = 0u64;
    for seq in 0..OPS_PER_CLIENT {
        let key = rng.random_range(0..KEYS);
        let start = now();
        if rng.random_bool(0.5) {
            // Unique value per (client, seq): the checker needs to
            // identify a read's source write.
            let value = ((c as u64) << 32) | seq;
            let payload = Bytes::from(value.to_le_bytes().to_vec());
            match client.kv_put(key, payload).await {
                Ok(()) => h.write_ok(c, key, value, start, now()),
                // Lost ack: the write may still have been applied by a
                // retried attempt or a deposed primary.
                Err(_) => {
                    ambiguous += 1;
                    h.write_ambiguous(c, key, value, start, now());
                }
            }
        } else {
            match client.kv_get(key).await {
                Ok(Some(bytes)) => {
                    let value = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
                    h.read(c, key, Some(value), start, now());
                }
                Ok(None) => h.read(c, key, None, start, now()),
                // A failed read observed nothing.
                Err(_) => {}
            }
        }
    }
    (h, ambiguous)
}

fn run_chaos(chaos: Chaos, seed: u64) {
    let _check = CheckGuard::new();
    let cluster = block_on(async move {
        let faults = FaultSession::install(plan_for(chaos, seed));
        let cluster = DdsCluster::build(ClusterConfig {
            shards: 2,
            replicas: 2,
            ..ClusterConfig::default()
        })
        .await;
        let client = cluster.connect(CpuPool::new("clients", 32, 3_000_000_000));
        let mut tasks = Vec::new();
        for c in 0..CLIENTS {
            let client = client.clone();
            tasks.push(spawn(async move { client_task(client, c, seed).await }));
        }
        // The resharding driver runs concurrently with the fleet (and,
        // in CrashDuringMigration, with the crash window).
        let migration = (chaos == Chaos::CrashDuringMigration).then(|| {
            let client = client.clone();
            spawn(async move {
                sleep(8_000_000).await;
                client.add_shard().await
            })
        });
        let mut merged = History::new();
        let mut ambiguous = 0u64;
        for t in tasks {
            let (h, a) = t.await;
            merged.merge(h);
            ambiguous += a;
        }
        if let Some(m) = migration {
            let new = m.await.expect("migration must ride out the crash window");
            assert_eq!(new, 2, "the grown shard gets the next id");
        }
        // Let every crash window close, then read back every key: an
        // acked write any crash lost surfaces as a stale read here.
        sleep(200_000_000).await;
        for key in 0..KEYS {
            let start = now();
            match client.kv_get(key).await {
                Ok(Some(bytes)) => {
                    let value = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
                    merged.read(CLIENTS, key, Some(value), start, now());
                }
                Ok(None) => merged.read(CLIENTS, key, None, start, now()),
                Err(e) => panic!("{chaos:?} seed {seed}: read-back of key {key} failed: {e:?}"),
            }
        }
        assert!(
            merged.len() > CLIENTS * 10,
            "workload too small to mean anything: {} recorded ops",
            merged.len()
        );
        let violations = merged.check();
        assert!(
            violations.is_empty(),
            "{chaos:?} seed {seed}: {} linearizability violation(s):\n  {}",
            violations.len(),
            violations.join("\n  ")
        );
        assert!(
            faults.report().total() > 0,
            "{chaos:?} seed {seed}: the crash plan never fired — the run proves nothing"
        );
        // The scenarios that freeze a serving primary must ack writes
        // ambiguously while the detector counts failures.
        if matches!(chaos, Chaos::CrashPrimaryMidWrite | Chaos::DoubleFault) {
            assert!(
                ambiguous > 0,
                "{chaos:?} seed {seed}: no write ended ambiguous — the crash missed the writes"
            );
        }
        // Protocol-level expectations per chaos shape.
        let ctl0 = cluster.ctl(0).expect("replicated group");
        match chaos {
            Chaos::CrashPrimaryMidWrite => {
                assert_eq!(ctl0.promotions.get(), 1, "exactly one failover");
                assert_eq!(ctl0.primary(), 1);
                assert!(ctl0.is_deposed(0), "old primary fenced out");
            }
            Chaos::CrashBackup => {
                assert_eq!(ctl0.promotions.get(), 0, "no failover, primary went solo");
                assert!(ctl0.is_deposed(1), "unreachable backup deposed");
                assert!(ctl0.primary_is_solo());
                let role = cluster.group(0).members[0].replication().unwrap();
                assert!(role.solo_commits.get() > 0, "primary must commit solo");
            }
            Chaos::CrashDuringMigration => {
                let ctl1 = cluster.ctl(1).expect("replicated group");
                assert_eq!(
                    ctl1.promotions.get(),
                    1,
                    "shard 1 failed over mid-migration"
                );
                assert!(ctl1.epoch() > 1, "failover advances the epoch");
                assert!(cluster.ctl(2).is_some(), "grown shard is replicated too");
                assert!(!cluster.migrating(), "migration completed");
            }
            Chaos::DoubleFault => {
                assert_eq!(ctl0.promotions.get(), 1, "second promote has no candidate");
                assert!(ctl0.is_deposed(0));
                assert_eq!(
                    ctl0.primary(),
                    1,
                    "the twice-crashed backup stays primary and recovers"
                );
            }
        }
        if chaos != Chaos::CrashDuringMigration {
            assert!(ctl0.epoch() > 1, "deposing a replica advances the epoch");
        }
        cluster
    });
    FaultSession::uninstall();
    // After quiesce: surviving replicas of every group must hold
    // identical KV state. The CheckGuard fails the test on drop if the
    // digests diverge or any epoch went backwards.
    cluster.verify_replicas();
}

#[test]
fn crash_primary_mid_write_seed_42() {
    run_chaos(Chaos::CrashPrimaryMidWrite, 42);
}

#[test]
fn crash_primary_mid_write_seed_7() {
    run_chaos(Chaos::CrashPrimaryMidWrite, 7);
}

#[test]
fn crash_primary_mid_write_seed_1234() {
    run_chaos(Chaos::CrashPrimaryMidWrite, 1234);
}

#[test]
fn crash_backup_seed_42() {
    run_chaos(Chaos::CrashBackup, 42);
}

#[test]
fn crash_backup_seed_7() {
    run_chaos(Chaos::CrashBackup, 7);
}

#[test]
fn crash_backup_seed_1234() {
    run_chaos(Chaos::CrashBackup, 1234);
}

#[test]
fn crash_during_migration_seed_42() {
    run_chaos(Chaos::CrashDuringMigration, 42);
}

#[test]
fn crash_during_migration_seed_7() {
    run_chaos(Chaos::CrashDuringMigration, 7);
}

#[test]
fn crash_during_migration_seed_1234() {
    run_chaos(Chaos::CrashDuringMigration, 1234);
}

#[test]
fn double_fault_seed_42() {
    run_chaos(Chaos::DoubleFault, 42);
}

#[test]
fn double_fault_seed_7() {
    run_chaos(Chaos::DoubleFault, 7);
}

#[test]
fn double_fault_seed_1234() {
    run_chaos(Chaos::DoubleFault, 1234);
}

/// 4 shards x 2 replicas on `rdma-offload` (the `kv_write_repl` topology
/// of `benchmark/`): every request, response and chain hop crosses an
/// NE ring with a DPU poller behind it.
fn rdma_offload_4x2() -> ClusterConfig {
    ClusterConfig {
        shards: 4,
        replicas: 2,
        net: NetConfig::default().with_fabric(FabricKind::RdmaOffload),
        ..ClusterConfig::default()
    }
}

#[test]
fn rdma_offload_cluster_quiesces_while_still_alive() {
    // `block_on` returns only when `Sim::run` finds no timer pending.
    // The cluster handed back still owns every primary, and each
    // primary its chain link: an idle ring poller must hold no timer.
    let _check = CheckGuard::new();
    let cluster = block_on(async {
        let cluster = DdsCluster::build(rdma_offload_4x2()).await;
        let client = cluster.connect(CpuPool::new("clients", 16, 3_000_000_000));
        for key in 0..8u64 {
            let value = Bytes::from(vec![key as u8; 64]);
            client.kv_put(key, value).await.expect("put");
        }
        for key in 0..5u64 {
            assert!(client.kv_get(key).await.expect("get").is_some());
        }
        cluster
    });
    cluster.verify_replicas();
}

#[test]
fn idle_rdma_offload_fleet_costs_no_polls() {
    // Idle polling is gone: with the fleet built and preloaded but no
    // load offered, virtual time passes without one executor poll. A
    // poller that re-arms a timer on an empty ring fails here.
    let mut sim = Sim::new();
    let fleet = Rc::new(RefCell::new(None));
    let slot = fleet.clone();
    sim.spawn(async move {
        let cluster = DdsCluster::build(rdma_offload_4x2()).await;
        let client = cluster.connect(CpuPool::new("clients", 64, 3_000_000_000));
        let population = FleetConfig {
            dist: KeyDist::Uniform { keys: 512 },
            value_bytes: 4096,
            ..FleetConfig::default()
        };
        preload(&client, &population).await;
        *slot.borrow_mut() = Some((cluster, client));
    });
    // Bounded (preload ends near 0.25 s), so a poller that re-arms
    // fails the test instead of hanging it.
    sim.run_until(1_000_000_000);
    assert!(fleet.borrow().is_some(), "preload must finish within 1 s");
    let polls = sim.polls();
    sim.run_until(1_010_000_000);
    assert_eq!(sim.polls(), polls, "10 ms without load polled a task");
    assert_eq!(sim.pending_timers(), 0, "`Sim::run` quiesces unaided");
}
