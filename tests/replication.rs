//! Chaos matrix for per-shard replication: failover, fencing, and
//! live resharding under seeded crash plans.
//!
//! The matrix is one [`Row`] function per shape: the seed's [`Cell`]
//! and a predicate over its [`Run`]. The four chaos shapes hammer a
//! replicated `DdsCluster` (2 replicas per shard) with history-recording
//! clients ([`Load::Registers`]) while a [`FaultPlan`] freezes whole
//! nodes — the primary mid-write, the backup under the chain, a primary
//! in the middle of a live migration, and a double fault that kills the
//! promoted backup too. After the dust settles a read-back pass re-reads
//! every key, so an acked write that any crash managed to lose shows up
//! as a linearizability violation. The union history must check clean,
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

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use dpdpu::check::CheckGuard;
use dpdpu::dds::cluster::ClusterConfig;
use dpdpu::dds::gateway::GatewayConfig;
use dpdpu::dds::proto::RetryPolicy;
use dpdpu::des::{block_on, join_all, now, sleep, spawn, Sim, Time};
use dpdpu::faults::{FaultPlan, FaultSite, SessionGuard};
use dpdpu::hw::CpuPool;
use dpdpu::net::fabric::{Endpoint, FabricKind};
use dpdpu::net::NetConfig;
use dpdpu_bench::cell::{Cell, Load, Preload, Run};
use dpdpu_bench::fig11_tenants::{default_tenants, default_workloads};

const CLIENTS: usize = 4;

/// One row of the matrix: the seed's cell, and what must hold of its run
/// beyond [`run_row`]'s own checks.
type Row = fn(seed: u64) -> (Cell, fn(&Run));

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
fn crash_primary_mid_write(seed: u64) -> (Cell, fn(&Run)) {
    let faults = FaultPlan::new(seed).shard_crash("node0", 2_000_000, 120_000_000);
    (chaos_cell(faults, vec![]), |run| {
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
    })
}

/// Freeze shard 0's backup: the primary must depose it via a solo grant
/// and keep acking writes.
fn crash_backup(seed: u64) -> (Cell, fn(&Run)) {
    let faults = FaultPlan::new(seed).shard_crash("node0r1", 2_000_000, 120_000_000);
    (chaos_cell(faults, vec![]), |run| {
        no_acked_write_lost(run);
        let ctl0 = run.cluster.ctl(0).expect("replicated group");
        assert_eq!(ctl0.promotions.get(), 0, "no failover, primary went solo");
        assert!(ctl0.is_deposed(1), "unreachable backup deposed");
        assert!(ctl0.primary_is_solo());
        let role = run.cluster.group(0).members[0].replication().unwrap();
        assert!(role.solo_commits.get() > 0, "primary must commit solo");
        assert!(ctl0.epoch() > 1, "deposing a replica advances the epoch");
        assert_eq!(ctl0.epoch(), 2, "one deposal, one transition");
    })
}

/// Freeze shard 1's primary while a live `add_shard` migration is
/// draining keys through it. The window opens just after the script's
/// step at t=8ms, so the freeze always lands while the migration is
/// draining keys through shard 1 (the fleet alone may quiesce earlier).
fn crash_during_migration(seed: u64) -> (Cell, fn(&Run)) {
    let faults = FaultPlan::new(seed).shard_crash("node1", 8_200_000, 90_000_000);
    (chaos_cell(faults, vec![8_000_000]), |run| {
        no_acked_write_lost(run);
        grew_and_failed_over(run, 2);
    })
}

/// Freeze the primary, let the backup take over, then freeze the
/// promoted backup too — the group goes dark and comes back, and still
/// nothing acked is lost.
fn double_fault(seed: u64) -> (Cell, fn(&Run)) {
    let faults = FaultPlan::new(seed)
        .shard_crash("node0", 2_000_000, 60_000_000)
        .shard_crash("node0r1", 70_000_000, 150_000_000);
    (chaos_cell(faults, vec![]), |run| {
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
    })
}

/// When `composed_storm` freezes shard 1's primary, and how long after
/// the load starts it adds a shard.
const STORM_CRASH_AT: Time = 10_900_000;
const STORM_GROW_AFTER: Time = 600_000;

/// Everything at once (ROADMAP item 5): the gateway with the fig11
/// tenants before 4 shards x 2 replicas on `rdma-offload`, seeded link
/// drops and delays, shard 1's primary frozen inside the storm and a
/// live `add_shard` after that. The crash window is absolute time and
/// the script counts from the end of preload, so the predicate pins
/// their order. Cluster and fabric conservation and epoch monotonicity
/// are the strict check session's.
fn composed_storm(seed: u64) -> (Cell, fn(&Run)) {
    let gateway = GatewayConfig {
        dispatch_slots: 16,
        ..GatewayConfig::new(default_tenants())
    };
    let cell = Cell {
        cluster: rdma_offload_4x2(),
        faults: FaultPlan::new(seed)
            .link_drops(0.005)
            .link_delays(0.01, 20_000)
            .shard_crash("node1", STORM_CRASH_AT, 75_000_000),
        pool_label: "gw-fleet".into(),
        pool_cores: 64,
        preload: Preload {
            keys: 128,
            value_bytes: 256,
        },
        load: Load::Tenants(gateway, default_workloads()),
        script: vec![STORM_GROW_AFTER],
    };
    (cell, |run| {
        let grow_at = run.load_started_at + STORM_GROW_AFTER;
        assert!(
            run.load_started_at < STORM_CRASH_AT && STORM_CRASH_AT < grow_at,
            "preload drifted: the load starts at {} ns, so the crash at {STORM_CRASH_AT} ns \
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
    })
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

#[test]
fn a_key_chains_in_the_primarys_order_when_its_first_forward_fails() {
    // Two puts of one key, same length, different bytes, issued at one
    // instant. The backup's apply of the first forward runs out its
    // storage attempts, so the chain re-sends it; without the per-key
    // order the second put's forward would apply in between, and the
    // backup would end on the first value while the primary holds the
    // second. The failures are armed once the primary's own first
    // write has started and before the backup's has.
    let check = CheckGuard::new();
    let faults = SessionGuard::new(FaultPlan::new(42));
    let session = faults.session.clone();
    let (first, second) = (Bytes::from(vec![1u8; 256]), Bytes::from(vec![2u8; 256]));
    let expected = second.clone();
    let (cluster, reads) = block_on(async move {
        let (cluster, client) = idle_shard(2).boot().await;
        sleep(1_000_000).await;
        let puts = [first, second].map(|value| {
            let client = client.clone();
            spawn(async move { client.kv_put(3, value).await })
        });
        sleep(50_000).await;
        session.arm_ssd_write_failures(7);
        for put in join_all(puts.into()).await {
            put.expect("put");
        }
        let reader = Endpoint::host(CpuPool::new("reader", 4, 3_000_000_000));
        let mut reads = Vec::new();
        for (r, member) in cluster.group(0).members.iter().enumerate() {
            let conn = member.connect(&NetConfig::default(), &reader, &format!("reader{r}"));
            reads.push(conn.kv_get(3).await.expect("get"));
        }
        (cluster, reads)
    });
    // The content digests of both copies must agree.
    cluster.verify_replicas();
    drop(check);
    assert_eq!(faults.session.report().count(FaultSite::SsdWrite), 7);
    let ctl = cluster.ctl(0).expect("replicated group");
    assert!(!ctl.primary_is_solo(), "both copies still in the group");
    for (r, read) in reads.iter().enumerate() {
        assert_eq!(
            read.as_ref(),
            Some(&expected),
            "replica {r} reads the second value"
        );
    }
}

#[test]
fn a_primary_that_fails_its_own_apply_hands_the_group_to_its_backup() {
    // The two copies' applies run side by side and take the eight
    // scripted write failures in turn: each runs out its four storage
    // attempts. The primary's error is final, but the chain re-sends the
    // forward and it applies on the backup. Only the backup now holds
    // the write, so the primary steps down and the routed put re-routes
    // to it. One attempt per client call, so no client retry can heal a
    // divergence before the digest sweep.
    let check = CheckGuard::new();
    let faults = SessionGuard::new(FaultPlan::new(42));
    let session = faults.session.clone();
    let value = Bytes::from_static(b"applied by the backup only");
    let expected = value.clone();
    let (cluster, put, stale, read) = block_on(async move {
        let (cluster, client) = idle_shard(2).boot().await;
        let primary = client.shard_client(0);
        primary.set_policy(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        });
        session.arm_ssd_write_failures(8);
        let put = client.kv_put(3, value).await;
        let stale = primary.failures.get();
        let read = client.kv_get(3).await;
        (cluster, put, stale, read)
    });
    // The digest sweep first: the copies the group still counts agree.
    cluster.verify_replicas();
    drop(check);
    assert_eq!(faults.session.report().count(FaultSite::SsdWrite), 8);
    let ctl = cluster.ctl(0).expect("replicated group");
    assert_eq!(ctl.promotions.get(), 1, "the backup is promoted");
    assert_eq!(ctl.primary(), 1);
    assert!(ctl.is_deposed(0), "the primary stepped down");
    let old = cluster.group(0).members[0].replication().unwrap();
    assert_eq!(old.stale_rejections.get(), 1, "the client saw StaleEpoch");
    assert_eq!(stale, 1, "that answer ended the call to the old primary");
    assert_eq!(put, Ok(()), "the re-routed put succeeds");
    assert_eq!(read, Ok(Some(expected)), "the promoted backup serves it");
}
