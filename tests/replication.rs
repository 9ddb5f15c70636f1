//! Chaos matrix for per-shard replication: failover, fencing, and
//! live resharding under seeded crash plans, and a small-scope
//! enumerator of scripted faults over the replication chain.
//!
//! The matrix is one [`Row`] function per shape: the seed's [`Cell`]
//! and a predicate over its [`Run`]. Four of the five rows hammer a
//! replicated `DdsCluster` (2 replicas per shard) with history-recording
//! clients ([`Load::Registers`]) while a [`FaultPlan`] freezes whole
//! nodes — the primary mid-write, the backup under the chain, a primary
//! in the middle of a live migration, and a double fault that kills the
//! promoted backup too. After the dust settles a read-back pass re-reads
//! every key, so an acked write that any crash managed to lose shows up
//! as a linearizability violation. The fifth, `composed_storm`, puts the
//! gateway's tenants, seeded link faults, a kill and a live `add_shard`
//! on one 4 x 2 `rdma-offload` cell. The union history must check clean,
//! the surviving replicas of every group must hold byte-identical KV
//! state, and every epoch transition must be monotone — all three are
//! enforced by [`dpdpu::check`] before the test ends.
//!
//! Every row runs at seeds {42, 7, 1234}: if any interleaving the
//! deterministic executor can produce under these plans loses an acked
//! write, serves stale state from a zombie primary, or lets replicas
//! diverge, the checker names it.
//!
//! To add a row, write its [`Row`] function and one `#[test]` per seed
//! that hands it to [`run_row`].
//!
//! The crash windows are time; the enumerator places its faults by
//! count instead ([`FaultSession::arm`](dpdpu::faults::FaultSession::arm)).
//! On a 1 x 2 cell per fabric, two clients run three register ops each
//! while a burst of `n` SSD-write, SSD-read or link-drop faults is armed
//! `k` ops after boot, for every `k` until the burst fires nothing
//! ([`enumerate`]). A path one burst pins is a named [`Point`] with its
//! own assertions, so a change that moves the path moves `k`, not a
//! sleep.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use bytes::Bytes;
use dpdpu::check::linearizability::History;
use dpdpu::check::CheckGuard;
use dpdpu::core::DpdpuError;
use dpdpu::dds::cluster::{ClusterConfig, DdsCluster};
use dpdpu::dds::gateway::GatewayConfig;
use dpdpu::dds::kv::INDEX_ENTRY_BYTES;
use dpdpu::dds::proto::{Op, Reply, RetryPolicy};
use dpdpu::dds::server::{DdsConfig, HOST_APP_CYCLES};
use dpdpu::des::{block_on, join_all, now, sleep, spawn, Sim, Time};
use dpdpu::faults::{FaultPlan, FaultReport, FaultSite, SessionGuard};
use dpdpu::hw::CpuPool;
use dpdpu::net::fabric::{Endpoint, FabricKind};
use dpdpu::net::NetConfig;
use dpdpu_bench::cell::{register_op, Cell, Load, Preload, Run};
use dpdpu_bench::fig11_tenants::{default_tenants, default_workloads};

const CLIENTS: usize = 4;

/// What must hold of a row's run beyond [`run_row`]'s own checks.
type Holds = Box<dyn Fn(&Run)>;

/// One row of the matrix: the seed's cell, and what must hold of its run.
type Row = fn(seed: u64) -> (Cell, Holds);

/// 2 shards x 2 replicas under the register workload, with a read-back
/// of every key once every crash window has closed.
fn chaos_cell(faults: FaultPlan, script: Vec<Time>) -> Cell {
    Cell {
        cluster: ClusterConfig {
            shards: 2,
            replicas: 2,
            ..ClusterConfig::default()
        },
        faults,
        pool_label: "clients".into(),
        load: Load::Registers {
            clients: CLIENTS,
            ops_per_client: 36,
            read_back_after: Some(200_000_000),
        },
        script,
        ..Cell::default()
    }
}

/// Freeze shard 0's primary while writes are in flight: the failure
/// detector must promote the backup and no acked write may vanish.
fn crash_primary_mid_write(seed: u64) -> (Cell, Holds) {
    let faults = FaultPlan::new(seed).shard_crash("node0", 2_000_000, 120_000_000);
    let holds: Holds = Box::new(|run: &Run| {
        no_acked_write_lost(run);
        assert!(
            run.ambiguous > 0,
            "no write ended ambiguous — the crash missed the writes"
        );
        let ctl0 = run.cluster.ctl(0).expect("replicated group");
        assert_eq!(ctl0.promotions.get(), 1, "exactly one failover");
        assert_eq!(ctl0.primary(), 1);
        assert!(ctl0.is_deposed(0), "old primary fenced out");
        assert!(ctl0.epoch() > 1, "deposing a replica advances the epoch");
    });
    (chaos_cell(faults, vec![]), holds)
}

/// Freeze shard 0's backup: the primary must depose it via a solo grant
/// and keep acking writes.
fn crash_backup(seed: u64) -> (Cell, Holds) {
    let faults = FaultPlan::new(seed).shard_crash("node0r1", 2_000_000, 120_000_000);
    let holds: Holds = Box::new(|run: &Run| {
        no_acked_write_lost(run);
        let ctl0 = run.cluster.ctl(0).expect("replicated group");
        assert_eq!(ctl0.promotions.get(), 0, "no failover, primary went solo");
        assert!(ctl0.is_deposed(1), "unreachable backup deposed");
        assert!(ctl0.primary_is_solo());
        let role = run.cluster.group(0).members[0].replication().unwrap();
        assert!(role.solo_commits.get() > 0, "primary must commit solo");
        assert!(ctl0.epoch() > 1, "deposing a replica advances the epoch");
        assert_eq!(ctl0.epoch(), 2, "one deposal, one transition");
    });
    (chaos_cell(faults, vec![]), holds)
}

/// Freeze shard 1's primary while a live `add_shard` migration is
/// draining keys through it. The window opens just after the script's
/// step at t=8ms, so the freeze always lands while the migration is
/// draining keys through shard 1 (the fleet alone may quiesce earlier).
fn crash_during_migration(seed: u64) -> (Cell, Holds) {
    let faults = FaultPlan::new(seed).shard_crash("node1", 8_200_000, 90_000_000);
    let holds: Holds = Box::new(|run: &Run| {
        no_acked_write_lost(run);
        grew_and_failed_over(run, 2);
    });
    (chaos_cell(faults, vec![8_000_000]), holds)
}

/// Freeze the primary, let the backup take over, then freeze the
/// promoted backup too — the group goes dark and comes back, and still
/// nothing acked is lost.
fn double_fault(seed: u64) -> (Cell, Holds) {
    let faults = FaultPlan::new(seed)
        .shard_crash("node0", 2_000_000, 60_000_000)
        .shard_crash("node0r1", 70_000_000, 150_000_000);
    let holds: Holds = Box::new(|run: &Run| {
        no_acked_write_lost(run);
        assert!(
            run.ambiguous > 0,
            "no write ended ambiguous — the crash missed the writes"
        );
        let ctl0 = run.cluster.ctl(0).expect("replicated group");
        assert_eq!(ctl0.promotions.get(), 1, "second promote has no candidate");
        assert!(ctl0.is_deposed(0));
        assert_eq!(
            ctl0.primary(),
            1,
            "the twice-crashed backup stays primary and recovers"
        );
        assert!(ctl0.epoch() > 1, "deposing a replica advances the epoch");
    });
    (chaos_cell(faults, vec![]), holds)
}

/// How long after the load starts `composed_storm` freezes shard 1's
/// primary, and adds a shard; and when the freeze ends.
const STORM_CRASH_AFTER: Time = 350_000;
const STORM_GROW_AFTER: Time = 600_000;
const STORM_CRASH_UNTIL: Time = 75_000_000;

/// Everything at once (ROADMAP item 5): the gateway with the fig11
/// tenants before 4 shards x 2 replicas on `rdma-offload`, seeded link
/// drops and delays, shard 1's primary frozen inside the storm and a
/// live `add_shard` after that. A crash window is absolute time and the
/// script counts from the end of preload. Preload is deterministic and
/// ends before any crash window opens, so a crash-free boot of the same
/// cell measures when the load starts, the crash is placed from it, and
/// the predicate pins the order on the real run. Cluster and fabric
/// conservation and epoch monotonicity are the strict check session's.
fn composed_storm(seed: u64) -> (Cell, Holds) {
    let gateway = GatewayConfig {
        dispatch_slots: 16,
        ..GatewayConfig::new(default_tenants())
    };
    let mut cell = Cell {
        cluster: rdma_offload_4x2(),
        faults: FaultPlan::new(seed)
            .link_drops(0.005)
            .link_delays(0.01, 20_000),
        pool_label: "gw-fleet".into(),
        pool_cores: 64,
        preload: Preload {
            keys: 128,
            value_bytes: 256,
        },
        load: Load::Tenants(gateway, default_workloads()),
        script: vec![STORM_GROW_AFTER],
    };
    let probe = cell.clone();
    let load_at = {
        let _faults = SessionGuard::new(probe.faults.clone());
        block_on(async move {
            probe.boot().await;
            now()
        })
    };
    let crash_at = load_at + STORM_CRASH_AFTER;
    cell.faults = cell
        .faults
        .shard_crash("node1", crash_at, STORM_CRASH_UNTIL);
    let holds: Holds = Box::new(move |run: &Run| {
        let grow_at = run.load_started_at + STORM_GROW_AFTER;
        assert!(
            run.load_started_at < crash_at && crash_at < grow_at,
            "preload drifted: the load starts at {} ns, so the crash at {crash_at} ns \
             is no longer inside the storm and ahead of the shard add at {grow_at} ns",
            run.load_started_at
        );
        assert!(
            run.snapshots[0].shed > 0,
            "the storm tenant must be shed: {:?}",
            run.snapshots[0]
        );
        for t in &run.snapshots {
            assert_eq!(
                t.issued,
                t.ok + t.shed + t.errors,
                "tenant '{}' requests must not vanish: {t:?}",
                t.name
            );
            assert!(t.ok > 0, "tenant '{}' must make progress: {t:?}", t.name);
        }
        grew_and_failed_over(run, 4);
        let ctl1 = run.cluster.ctl(1).expect("replicated group");
        assert!(ctl1.is_deposed(0), "old primary fenced out");
        for site in [FaultSite::LinkDrop, FaultSite::LinkDelay] {
            assert!(run.faults.count(site) > 0, "{site:?} never fired");
        }
        assert_eq!(run.faults.count(FaultSite::ShardCrash), 1);
    });
    (cell, holds)
}

/// The register rows' shared predicate: the merged history, read-back
/// included, is big enough to mean something and checks clean.
fn no_acked_write_lost(run: &Run) {
    assert!(
        run.history.len() > CLIENTS * 10,
        "workload too small to mean anything: {} recorded ops",
        run.history.len()
    );
    let violations = run.history.check();
    assert!(
        violations.is_empty(),
        "{} linearizability violation(s):\n  {}",
        violations.len(),
        violations.join("\n  ")
    );
}

/// The migration rows' shared predicate: the scripted `add_shard` rode
/// out shard 1's crash window and grew shard `new`, replicated, while
/// shard 1 failed over exactly once.
fn grew_and_failed_over(run: &Run, new: usize) {
    let grown = *run.script[0]
        .as_ref()
        .expect("migration must ride out the crash window");
    assert_eq!(grown, new, "the grown shard gets the next id");
    assert!(
        run.cluster.ctl(new).is_some(),
        "grown shard is replicated too"
    );
    assert!(!run.cluster.migrating(), "migration completed");
    let ctl1 = run.cluster.ctl(1).expect("replicated group");
    assert_eq!(
        ctl1.promotions.get(),
        1,
        "shard 1 failed over mid-migration"
    );
    assert!(ctl1.epoch() > 1, "failover advances the epoch");
}

fn run_row(row: Row, seed: u64) {
    let _check = CheckGuard::new();
    let (cell, holds) = row(seed);
    let run = cell.run(seed);
    assert!(
        run.faults.total() > 0,
        "the plan never fired — the run proves nothing"
    );
    holds(&run);
    // After quiesce: surviving replicas of every group must hold
    // identical KV state. The CheckGuard fails the test on drop if the
    // digests diverge or any epoch went backwards.
    run.cluster.verify_replicas();
}

#[test]
fn crash_primary_mid_write_seed_42() {
    run_row(crash_primary_mid_write, 42);
}

#[test]
fn crash_primary_mid_write_seed_7() {
    run_row(crash_primary_mid_write, 7);
}

#[test]
fn crash_primary_mid_write_seed_1234() {
    run_row(crash_primary_mid_write, 1234);
}

#[test]
fn crash_backup_seed_42() {
    run_row(crash_backup, 42);
}

#[test]
fn crash_backup_seed_7() {
    run_row(crash_backup, 7);
}

#[test]
fn crash_backup_seed_1234() {
    run_row(crash_backup, 1234);
}

#[test]
fn crash_during_migration_seed_42() {
    run_row(crash_during_migration, 42);
}

#[test]
fn crash_during_migration_seed_7() {
    run_row(crash_during_migration, 7);
}

#[test]
fn crash_during_migration_seed_1234() {
    run_row(crash_during_migration, 1234);
}

#[test]
fn double_fault_seed_42() {
    run_row(double_fault, 42);
}

#[test]
fn double_fault_seed_7() {
    run_row(double_fault, 7);
}

#[test]
fn double_fault_seed_1234() {
    run_row(double_fault, 1234);
}

#[test]
fn composed_storm_seed_42() {
    run_row(composed_storm, 42);
}

#[test]
fn composed_storm_seed_7() {
    run_row(composed_storm, 7);
}

#[test]
fn composed_storm_seed_1234() {
    run_row(composed_storm, 1234);
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
        let (cluster, client) = Cell {
            cluster: rdma_offload_4x2(),
            pool_label: "clients".into(),
            pool_cores: 16,
            preload: Preload {
                keys: 8,
                value_bytes: 64,
            },
            ..Cell::default()
        }
        .boot()
        .await;
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
        let up = Cell {
            cluster: rdma_offload_4x2(),
            pool_label: "clients".into(),
            pool_cores: 64,
            preload: Preload {
                keys: 512,
                value_bytes: 4096,
            },
            ..Cell::default()
        }
        .boot()
        .await;
        *slot.borrow_mut() = Some(up);
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

/// One shard with `replicas` copies, preloaded and otherwise idle.
fn idle_shard(replicas: usize) -> Cell {
    Cell {
        cluster: ClusterConfig {
            shards: 1,
            replicas,
            ..ClusterConfig::default()
        },
        pool_label: "clients".into(),
        preload: Preload {
            keys: 8,
            value_bytes: 256,
        },
        ..Cell::default()
    }
}

/// Virtual ns one put takes on an idle [`idle_shard`] whose every device
/// op is served `slow_ns` slower than the model's base latency.
fn idle_put_ns(replicas: usize, slow_ns: Time) -> Time {
    let _check = CheckGuard::new();
    let _faults = SessionGuard::new(FaultPlan::new(1).ssd_slow_io(1.0, slow_ns));
    block_on(async move {
        let (_cluster, client) = idle_shard(replicas).boot().await;
        // Past anything the preload left in flight.
        sleep(1_000_000).await;
        let start = now();
        client
            .kv_put(3, Bytes::from(vec![9u8; 256]))
            .await
            .expect("put");
        now() - start
    })
}

#[test]
fn a_replicated_put_waits_for_the_slower_apply_not_the_sum() {
    // The primary applies its copy while the backup's round trip is in
    // flight, so replication adds the backup's excess over the local
    // apply, not a second apply. Slowing every device op by the same
    // amount slows both applies alike: their excess, and so the chained
    // put's premium over an unreplicated one, stays what it was, where a
    // second apply in series would carry its slowdown into the premium.
    const SLOW_NS: Time = 100_000;
    let premium = |slow_ns| idle_put_ns(2, slow_ns) - idle_put_ns(1, slow_ns);
    let (base, slowed) = (premium(0), premium(SLOW_NS));
    assert_eq!(
        slowed, base,
        "replication must add the backup's excess over the local apply, not a \
         second apply: the chained put's premium over an unreplicated one was \
         {base} ns, and {slowed} ns with every device op {SLOW_NS} ns slower"
    );
}

/// Virtual ns after which each of two puts issued at one instant on an
/// idle 2-replica [`idle_shard`] finishes, in issue order.
fn idle_pair_ns(keys: [u64; 2]) -> [Time; 2] {
    let _check = CheckGuard::new();
    block_on(async move {
        let (_cluster, client) = idle_shard(2).boot().await;
        sleep(1_000_000).await;
        let start = now();
        let puts = keys.map(|key| {
            let client = client.clone();
            spawn(async move {
                client
                    .kv_put(key, Bytes::from(vec![9u8; 256]))
                    .await
                    .expect("put");
                now() - start
            })
        });
        let done = join_all(puts.into()).await;
        [done[0], done[1]]
    })
}

#[test]
fn a_replicated_put_waits_only_for_its_own_key() {
    // The chain order is per key: a put to another key chains beside
    // the first, where a put to the same key waits for it to finish.
    let apart = idle_pair_ns([3, 4]);
    let same = idle_pair_ns([3, 3]);
    assert_eq!(apart[0], same[0], "the first put is alone either way");
    assert!(
        apart[1] < same[1],
        "two keys must chain at once: the pair finished at {apart:?} ns, \
         no sooner than one key's {same:?} ns"
    );
}

/// What putting each of `keys` in turn on an idle [`idle_shard`]`(2)`
/// of `dds` servers costs the backup: its host-CPU busy ns (the chain's
/// transport ends on the backup's DPU, so it adds none), and the
/// requests it served on the DPU and on its host.
fn backup_apply_costs(dds: DdsConfig, keys: &[u64]) -> (u64, u64, u64) {
    let _check = CheckGuard::new();
    let cell = idle_shard(2);
    let cell = Cell {
        cluster: ClusterConfig {
            dds,
            ..cell.cluster
        },
        ..cell
    };
    let keys = keys.to_vec();
    block_on(async move {
        let (cluster, client) = cell.boot().await;
        sleep(1_000_000).await;
        let backup = cluster.group(0).members[1].clone();
        let tally = || {
            (
                backup.platform().host_cpu.busy_ns(),
                backup.served_dpu.get(),
                backup.served_host.get(),
            )
        };
        let before = tally();
        for key in keys {
            client
                .kv_put(key, Bytes::from(vec![7u8; 256]))
                .await
                .expect("put");
        }
        let after = tally();
        cluster.verify_replicas();
        (after.0 - before.0, after.1 - before.1, after.2 - before.2)
    })
}

#[test]
fn a_backup_applies_chain_writes_of_dpu_resident_keys_on_its_dpu() {
    // The primary's chain order already fixed each write's place and the
    // log lives on the DPU file service: the backup's host adds nothing.
    let keys: Vec<u64> = (0..8).collect();
    let (host_ns, dpu, host) = backup_apply_costs(DdsConfig::default(), &keys);
    assert_eq!(host_ns, 0, "the backup's host applied chain writes");
    assert_eq!(
        (dpu, host),
        (keys.len() as u64, 0),
        "every chain write served on the DPU"
    );
}

#[test]
fn a_dpu_served_get_costs_its_server_host_nothing() {
    // Every preloaded key's index entry is DPU-resident, so the director
    // serves each get on the DPU; the TCP transport ends there too, so
    // the server's host does no work at all.
    let _check = CheckGuard::new();
    let (host_ns, dpu, host) = block_on(async {
        let (cluster, client) = idle_shard(1).boot().await;
        sleep(1_000_000).await;
        let server = cluster.group(0).members[0].clone();
        let tally = || {
            (
                server.platform().host_cpu.busy_ns(),
                server.served_dpu.get(),
                server.served_host.get(),
            )
        };
        let before = tally();
        for key in 0..8 {
            assert!(client.kv_get(key).await.expect("get").is_some());
        }
        let after = tally();
        (after.0 - before.0, after.1 - before.1, after.2 - before.2)
    });
    assert_eq!((dpu, host), (8, 0), "every get served on the DPU");
    assert_eq!(host_ns, 0, "DPU-served gets cost their server's host");
}

/// The primary's host-CPU busy ns over [`PUTS`] replicated 4 KiB puts
/// on an idle 1 x 2 cell over `fabric`, whose index holds `dds`'s budget
/// of its 8 preloaded keys, and the ns that `HOST_APP_CYCLES` per put
/// takes on that host. The puts take `keys` in turn.
fn primary_host_ns_for_puts(fabric: FabricKind, dds: DdsConfig, keys: Range<u64>) -> (u64, u64) {
    let _check = CheckGuard::new();
    let cell = idle_shard(2);
    let cell = Cell {
        cluster: ClusterConfig {
            net: NetConfig::default().with_fabric(fabric),
            dds,
            ..cell.cluster
        },
        preload: Preload {
            keys: 8,
            value_bytes: 4096,
        },
        ..cell
    };
    block_on(async move {
        let (cluster, client) = cell.boot().await;
        sleep(1_000_000).await;
        let host_cpu = cluster.group(0).members[0].platform().host_cpu.clone();
        let before = host_cpu.busy_ns();
        for (i, key) in (0..PUTS).zip(keys.cycle()) {
            client
                .kv_put(key, Bytes::from(vec![i as u8; 4096]))
                .await
                .expect("put");
        }
        let busy = host_cpu.busy_ns() - before;
        cluster.verify_replicas();
        (busy, host_cpu.cycles_ns(HOST_APP_CYCLES) * PUTS)
    })
}

/// Puts of [`primary_host_ns_for_puts`].
const PUTS: u64 = 16;

#[test]
fn a_put_to_a_dpu_resident_key_costs_its_primary_host_nothing() {
    // The primary's DPU orders each write of a DPU-resident key: the
    // chain stripe, the epoch stamp and the log append are DPU state,
    // the payload is in DPU memory already, and the chain forward
    // leaves from the DPU. Host verbs (`rdma`, the §6 baseline) still
    // cost the host.
    for fabric in [FabricKind::Tcp, FabricKind::RdmaOffload] {
        let (busy, _) = primary_host_ns_for_puts(fabric, DdsConfig::default(), 0..8);
        assert_eq!(
            busy, 0,
            "{fabric}: the primary's host paid for DPU-ordered puts"
        );
    }
    let (busy, _) = primary_host_ns_for_puts(FabricKind::Rdma, DdsConfig::default(), 0..8);
    assert!(
        busy > 0,
        "rdma: host-issued verbs cost the primary's host nothing"
    );
}

#[test]
fn a_put_to_a_host_resident_key_costs_its_primary_host_only_the_ordering() {
    // Room for four keys on the DPU: the preload's last four keys live
    // in the host partition, so the host orders each of their writes
    // (`HOST_APP_CYCLES`) and pays nothing more.
    let budget = DdsConfig {
        kv_index_budget: 4 * INDEX_ENTRY_BYTES,
        ..DdsConfig::default()
    };
    for fabric in [FabricKind::Tcp, FabricKind::RdmaOffload] {
        let (busy, floor) = primary_host_ns_for_puts(fabric, budget, 4..8);
        assert_eq!(
            busy, floor,
            "{fabric}: the primary's host must pay HOST_APP_CYCLES per put and nothing more"
        );
    }
}

#[test]
fn a_backup_applies_on_its_host_past_its_index_budget_or_without_offload() {
    // Room for four keys on the DPU: the preload's last four keys live
    // in the host partition, so a chain write of one takes the host path.
    let budget = DdsConfig {
        kv_index_budget: 4 * INDEX_ENTRY_BYTES,
        ..DdsConfig::default()
    };
    let (host_ns, dpu, host) = backup_apply_costs(budget, &[7]);
    assert!(host_ns > 0, "a host-resident key's apply costs host CPU");
    assert_eq!((dpu, host), (0, 1), "the chain write served on the host");
    // The all-host baseline applies every chain write on the host.
    let baseline = DdsConfig {
        offload_enabled: false,
        ..DdsConfig::default()
    };
    let (host_ns, dpu, host) = backup_apply_costs(baseline, &[0, 1, 2]);
    assert!(host_ns > 0, "the baseline's applies cost host CPU");
    assert_eq!((dpu, host), (0, 3), "every chain write served on the host");
}

/// The two registers of the enumerator's load, the only keys its cell
/// preloads: their index entries are DPU-resident, so a backup applies
/// their chain writes on its DPU.
const A: u64 = 0;
const B: u64 = 1;
const PUT: bool = true;
const GET: bool = false;

/// The ops of clients 1 and 2, in order, as (key, put) for
/// [`register_op`]. Both clients put `A` at the same instant, so the
/// primary's chain orders two writes of one key; nothing else writes
/// `A`, so it ends on the second of them.
const STEPS: [[(u64, bool); 3]; 2] = [
    [(A, PUT), (B, PUT), (A, GET)],
    [(A, PUT), (B, GET), (B, PUT)],
];

/// The value `A` ends on: client 2's first put ([`register_op`]'s
/// `(c << 32) | seq`).
const SECOND_A: u64 = 2 << 32;

/// One point of the small-scope enumeration: on a 1 x 2 [`idle_shard`]
/// over `fabric`, with `attempts` per call to the first primary, the
/// first `k` ops at `site` after boot pass and the next `n` fail.
#[derive(Debug, Clone, Copy)]
struct Point {
    fabric: FabricKind,
    attempts: u32,
    site: FaultSite,
    k: u64,
    n: u64,
}

impl Point {
    /// The TCP cell under the default [`RetryPolicy`], `k` SSD writes
    /// passing before `n` fail: the named points' shape.
    fn ssd_writes(k: u64, n: u64) -> Point {
        Point {
            fabric: FabricKind::Tcp,
            attempts: RetryPolicy::default().max_attempts,
            site: FaultSite::SsdWrite,
            k,
            n,
        }
    }
}

type Read = Result<Option<u64>, DpdpuError>;

/// What a point's run leaves for a named point's own assertions, once the
/// strict check session, the history and the replica digests have passed.
struct Outcome {
    cluster: Rc<DdsCluster>,
    /// Each client's results, in [`STEPS`] order (a put's reads `None`).
    results: Vec<Vec<Read>>,
    /// The backup's [DPU-served, host-served, host fallbacks] from the
    /// arming until the load returned.
    backup_served: [u64; 3],
    /// Calls that the client to the first primary failed.
    primary_failures: u64,
    /// The routed read-back of `A` and of `B`.
    read_back: [u64; 2],
    /// Each replica the group still counts, with its own key listing and
    /// value of `A`, read through a connection of its own after the
    /// read-back.
    copies: Vec<(usize, Result<Reply, DpdpuError>, Read)>,
    faults: FaultReport,
}

/// The register an 8-byte value holds. The cell preloads key `k` as
/// bytes of `k`, which no [`register_op`] put of clients 1 and 2 holds.
fn register(value: &[u8]) -> u64 {
    u64::from_le_bytes(value.try_into().expect("8 bytes"))
}

/// Runs one point: boot, arm, the [`STEPS`] of clients 1 and 2, a
/// read-back of both keys, then each replica's own view. Panics when the
/// strict check session, the history or the replica digests fail.
fn run_point(p: Point) -> Outcome {
    let check = CheckGuard::new();
    let faults = SessionGuard::new(FaultPlan::new(42));
    let session = faults.session.clone();
    let mut cell = idle_shard(2);
    cell.preload = Preload {
        keys: 2,
        value_bytes: 8,
    };
    cell.cluster.net = NetConfig::default().with_fabric(p.fabric);
    let (mut outcome, history) = block_on(async move {
        let (cluster, client) = cell.boot().await;
        // After boot: a fault inside the preload panics it.
        session.arm(p.site, p.k, p.n);
        let primary = client.shard_client(0);
        primary.set_policy(RetryPolicy {
            max_attempts: p.attempts,
            ..RetryPolicy::default()
        });
        let backup = cluster.group(0).members[1].clone();
        let tally = || {
            [
                backup.served_dpu.get(),
                backup.served_host.get(),
                backup.host_fallbacks.get(),
            ]
        };
        let before = tally();
        let mut history = History::new();
        for key in [A, B] {
            history.write_ok(0, key, register(&[key as u8; 8]), 0, now());
        }
        let clients = STEPS.iter().zip(1..).map(|(steps, c)| {
            let client = client.clone();
            spawn(async move {
                let mut h = History::new();
                let mut results = Vec::new();
                for (seq, &(key, put)) in (0..).zip(steps) {
                    results.push(register_op(&mut h, &client, c, seq, key, put).await);
                }
                (h, results)
            })
        });
        let mut results = Vec::new();
        for (h, r) in join_all(clients.collect()).await {
            history.merge(h);
            results.push(r);
        }
        let after = tally();
        // Retried: a burst of dropped frames can outlast one get's
        // attempts.
        let mut read_back = [0; 2];
        for (key, value) in [A, B].into_iter().zip(&mut read_back) {
            let mut tries = 0;
            *value = loop {
                match register_op(&mut history, &client, 0, 0, key, GET).await {
                    Ok(read) => break read.expect("a register is never deleted"),
                    Err(e) => {
                        tries += 1;
                        assert!(tries < 8, "{p:?}: read-back of key {key} failed: {e:?}");
                    }
                }
            };
        }
        let reader = Endpoint::host(CpuPool::new("reader", 4, 3_000_000_000));
        let ctl = cluster.ctl(0).expect("replicated group");
        let mut copies = Vec::new();
        for (r, member) in cluster.group(0).members.iter().enumerate() {
            // A deposed copy answers `StaleEpoch` to everything.
            if ctl.is_deposed(r) {
                continue;
            }
            let conn = member.connect(&NetConfig::default(), &reader, &format!("reader{r}"));
            let keys = conn.call(Op::ListKeys).await;
            let a = conn.kv_get(A).await.map(|v| v.as_deref().map(register));
            copies.push((r, keys, a));
        }
        let outcome = Outcome {
            cluster,
            results,
            backup_served: [0, 1, 2].map(|i| after[i] - before[i]),
            primary_failures: primary.failures.get(),
            read_back,
            copies,
            faults: FaultReport::default(),
        };
        (outcome, history)
    });
    let violations = history.check();
    assert!(violations.is_empty(), "{p:?}: {violations:?}");
    outcome.cluster.verify_replicas();
    drop(check);
    outcome.faults = faults.session.report();
    outcome
}

/// Every point on `fabric` at `attempts` per call: each scripted site and
/// burst, and every `k` from 0 until a burst fires nothing, because it
/// was armed past the run's last op at its site. Names every point that
/// fails.
fn enumerate(fabric: FabricKind, attempts: u32) {
    let mut runs = 0;
    let mut failed = Vec::new();
    for site in [FaultSite::SsdWrite, FaultSite::SsdRead, FaultSite::LinkDrop] {
        for n in [1, 4, 8, 11, 15, 16] {
            for k in 0.. {
                assert!(
                    k < 1_000,
                    "{fabric:?} {site:?}: a burst armed at k = {k} still fires"
                );
                let p = Point {
                    fabric,
                    attempts,
                    site,
                    k,
                    n,
                };
                runs += 1;
                match std::panic::catch_unwind(|| run_point(p)) {
                    Ok(outcome) if outcome.faults.count(site) == 0 => break,
                    Ok(_) => {}
                    Err(_) => failed.push(p),
                }
            }
        }
    }
    assert!(
        failed.is_empty(),
        "{} of {runs} points failed:\n  {}",
        failed.len(),
        failed
            .iter()
            .map(|p| format!("{p:?}"))
            .collect::<Vec<_>>()
            .join("\n  ")
    );
}

// One test per fabric and retry policy, so the harness spreads them over
// its threads: the default `RetryPolicy`, then one attempt per call, which
// leaves no client retry to heal a divergence before the digest sweep.

#[test]
fn every_fault_point_of_the_chain_over_tcp() {
    enumerate(FabricKind::Tcp, RetryPolicy::default().max_attempts);
}

#[test]
fn every_fault_point_of_the_chain_over_tcp_at_one_attempt() {
    enumerate(FabricKind::Tcp, 1);
}

#[test]
fn every_fault_point_of_the_chain_over_rdma() {
    enumerate(FabricKind::Rdma, RetryPolicy::default().max_attempts);
}

#[test]
fn every_fault_point_of_the_chain_over_rdma_at_one_attempt() {
    enumerate(FabricKind::Rdma, 1);
}

#[test]
fn every_fault_point_of_the_chain_over_rdma_offload() {
    enumerate(FabricKind::RdmaOffload, RetryPolicy::default().max_attempts);
}

#[test]
fn every_fault_point_of_the_chain_over_rdma_offload_at_one_attempt() {
    enumerate(FabricKind::RdmaOffload, 1);
}

// The named points: the paths a hand-placed burst used to pin, each one
// point of the enumeration with its own assertions. The SSD writes after
// boot come in the chain's order: the primary's apply of the first put
// of `A` is write 0, the backup's apply of its forward write 1.

#[test]
fn a_key_chains_in_the_primarys_order_when_its_first_forward_fails() {
    // The two puts of `A`: same length, different bytes, one instant.
    // The backup's apply of the first forward fails back to the primary,
    // so the chain re-sends it; without the per-key order the second
    // put's forward would apply in between, and the backup would end on
    // the first value while the primary holds the second. The eleven
    // failures start at the backup's first write: the forward's four
    // attempts on the backup's DPU and the four of its re-run on the
    // backup's host take eight, and the re-send takes the last three and
    // applies on its fourth attempt.
    let out = run_point(Point::ssd_writes(1, 11));
    assert_eq!(out.faults.count(FaultSite::SsdWrite), 11);
    for (c, results) in (1..).zip(&out.results) {
        assert_eq!(results[0], Ok(None), "client {c}'s put of A acks");
    }
    let ctl = out.cluster.ctl(0).expect("replicated group");
    assert!(!ctl.primary_is_solo(), "both copies still in the group");
    assert_eq!(
        out.cluster.group(0).members[1].host_fallbacks.get(),
        1,
        "only the first forward's DPU-path apply fails"
    );
    assert_eq!(out.copies.len(), 2);
    for (r, _, read) in &out.copies {
        assert_eq!(
            read,
            &Ok(Some(SECOND_A)),
            "replica {r} reads the second value"
        );
    }
}

#[test]
fn a_primary_that_fails_its_own_apply_hands_the_group_to_its_backup() {
    // The two copies' applies of the first put of `A` run side by side
    // and take the eight failures in turn: each runs out its four storage
    // attempts. The primary's error is final, but the chain re-sends the
    // forward and it applies on the backup. Only the backup now holds the
    // write, so the primary steps down and the routed puts re-route to
    // it. One attempt per call to the primary, so no client retry can
    // heal a divergence before the digest sweep.
    let out = run_point(Point {
        attempts: 1,
        ..Point::ssd_writes(0, 8)
    });
    assert_eq!(out.faults.count(FaultSite::SsdWrite), 8);
    let ctl = out.cluster.ctl(0).expect("replicated group");
    assert_eq!(ctl.promotions.get(), 1, "the backup is promoted");
    assert_eq!(ctl.primary(), 1);
    assert!(ctl.is_deposed(0), "the primary stepped down");
    let old = out.cluster.group(0).members[0].replication().unwrap();
    // Both puts of `A` reached the old primary: the first stepped it
    // down, the second, queued behind it in the key's chain order, found
    // it deposed.
    assert_eq!(old.stale_rejections.get(), 2, "each put saw StaleEpoch");
    assert_eq!(
        out.primary_failures, 2,
        "that answer ended each put's call to the old primary"
    );
    for (c, results) in (1..).zip(&out.results) {
        assert_eq!(results[0], Ok(None), "client {c}'s re-routed put succeeds");
    }
    assert_eq!(out.read_back[0], SECOND_A, "the promoted backup serves it");
}

#[test]
fn a_backup_whose_dpu_apply_fails_reruns_it_on_its_host_once() {
    // Four failures from the backup's first write: its DPU-path apply of
    // the first forward runs out its four storage attempts, and the
    // director re-runs the op on the backup's host, where it applies.
    // The primary's chain never sees the failure.
    let out = run_point(Point::ssd_writes(1, 4));
    assert_eq!(out.faults.count(FaultSite::SsdWrite), 4);
    // The fault also opens the director's breaker, so the backup's other
    // three chain writes take its host path too, without a fallback.
    assert_eq!(
        out.backup_served,
        [0, 4, 1],
        "[DPU-served, host-served, host fallbacks] on the backup"
    );
    let (_, keys, read) = &out.copies[1];
    assert_eq!(
        keys,
        &Ok(Reply::Keys(vec![A, B])),
        "the backup indexes the key once"
    );
    assert_eq!(read, &Ok(Some(SECOND_A)), "the backup holds the new value");
    let ctl = out.cluster.ctl(0).expect("replicated group");
    assert_eq!(ctl.promotions.get(), 0, "no failover");
    assert!(!ctl.primary_is_solo(), "both copies still in the group");
}

#[test]
fn a_backup_deposed_during_its_own_apply_acks_nothing() {
    // The chain-order point with fifteen failures: the first forward's
    // DPU-path apply and its host re-run fail, and so does most of the
    // re-send's, whose host re-run outlasts the primary's 1 ms chain
    // timeout. The primary then goes solo at a new epoch and deposes the
    // backup while it is still applying; the backup answers `StaleEpoch`
    // and records no ack at the epoch its apply began under, which the
    // strict session would call `[epoch-fencing]`.
    let out = run_point(Point::ssd_writes(1, 15));
    assert_eq!(out.faults.count(FaultSite::SsdWrite), 15);
    for (c, results) in (1..).zip(&out.results) {
        assert_eq!(results[0], Ok(None), "client {c}'s put of A acks");
    }
    assert_eq!(
        out.read_back[0], SECOND_A,
        "the primary holds the second value"
    );
    let ctl = out.cluster.ctl(0).expect("replicated group");
    assert!(ctl.primary_is_solo(), "the primary went solo");
    assert!(ctl.is_deposed(1), "the backup was deposed");
    assert_eq!(
        (ctl.epoch(), ctl.promotions.get()),
        (2, 0),
        "one solo grant"
    );
    let backup = out.cluster.group(0).members[1].replication().unwrap();
    assert_eq!(
        backup.stale_rejections.get(),
        1,
        "the backup stood down after its late apply"
    );
}
