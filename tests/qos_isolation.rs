//! The multi-tenant isolation test matrix gating the gateway tier.
//!
//! Seeds {42, 7, 1234} × storm regimes {steady zipfian storm, on/off
//! burst storm, storm + replicated-shard crash}: in every cell, the
//! victim tenants' p99 must stay within [`ISOLATION_K`]× of their solo
//! baseline *measured under the same fault plan* (so the bound isolates
//! the storm's marginal impact, not the faults'), no request may
//! vanish (issued == ok + shed + failed per tenant — enforced both here
//! and by the strict `tenant-conservation` check session), and the
//! storm tenant must actually be shed.
//!
//! The matrix is **known-sensitive**: `wfq_disabled_breaks_isolation`
//! re-runs a cell with the gateway's DRR and admission limits turned
//! off ([`GatewayConfig::unfair`]) and asserts the isolation predicate
//! *fails*, proving the assertions have teeth and the WFQ tier is the
//! thing providing the isolation.

use dpdpu::core::TenantSpec;
use dpdpu::dds::cluster::{ClusterConfig, DdsCluster};
use dpdpu::dds::gateway::{Gateway, GatewayConfig, TenantSnapshot};
use dpdpu::des::block_on;
use dpdpu::faults::{FaultPlan, SessionGuard};
use dpdpu::hw::CpuPool;
use dpdpu_bench::fleet::{preload, run_tenant_fleet, FleetConfig, KeyDist, Mix, TenantWorkload};

const SEEDS: [u64; 3] = [42, 7, 1234];
/// Victim-tail bound: mixed-run p99 must stay within this factor of the
/// same-regime solo baseline.
const ISOLATION_K: u64 = 2;
const KEYS: u64 = 64;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Regime {
    /// The storm tenant offers a steady saturating zipfian flood.
    ZipfStorm,
    /// The storm arrives in on/off bursts (flood, silence, repeat).
    BurstStorm,
    /// The steady flood plus a scripted primary crash on a replicated
    /// cluster mid-run (failover must not break tenant isolation).
    StormWithCrash,
}

impl Regime {
    fn plan(self, seed: u64) -> FaultPlan {
        match self {
            // A little link noise so the regimes are not fault-free.
            Regime::ZipfStorm | Regime::BurstStorm => {
                FaultPlan::new(seed ^ 0x150).link_drops(0.005)
            }
            Regime::StormWithCrash => FaultPlan::new(seed ^ 0x150)
                .link_drops(0.005)
                .shard_crash("node1", 300_000, 3_000_000),
        }
    }

    fn replicas(self) -> usize {
        match self {
            Regime::StormWithCrash => 2,
            _ => 1,
        }
    }

    /// Absolute tail slack added to the victim bound. Zero for the pure
    /// storm regimes. Under a crash, any single op that is in flight to
    /// the dying primary eats one request timeout (2 ms on a replicated
    /// cluster) plus the retry before failover redirects it — whether
    /// that op lands in the solo or the mixed interleaving is crash
    /// timing, not storm interference, so the bound must absorb one
    /// such hit.
    fn tail_slack_ns(self) -> u64 {
        match self {
            Regime::StormWithCrash => 2_500_000,
            _ => 0,
        }
    }

    fn storm(self) -> TenantWorkload {
        let base = TenantWorkload {
            logical_clients: 600_000,
            tasks: 6,
            ops_per_task: 32,
            pipeline: 6,
            dist: KeyDist::Zipfian {
                keys: KEYS,
                theta: 0.99,
            },
            mix: Mix::read_heavy(),
            value_bytes: 128,
            ..TenantWorkload::new(0)
        };
        match self {
            Regime::BurstStorm => TenantWorkload {
                // Flood 8, sleep, flood again: the bucket must absorb
                // each burst front without letting it leak downstream.
                pause_every_ops: 8,
                pause_ns: 200_000,
                ..base
            },
            Regime::StormWithCrash => TenantWorkload {
                // Paced slightly so the storm spans the crash window.
                gap_ns: 5_000,
                ops_per_task: 48,
                ..base
            },
            Regime::ZipfStorm => base,
        }
    }

    fn steady(self) -> TenantWorkload {
        TenantWorkload {
            logical_clients: 300_000,
            tasks: 2,
            ops_per_task: 24,
            pipeline: 2,
            gap_ns: if self == Regime::StormWithCrash {
                50_000 // stretch across the crash window
            } else {
                4_000
            },
            dist: KeyDist::Uniform { keys: KEYS },
            mix: Mix::read_heavy(),
            value_bytes: 128,
            ..TenantWorkload::new(1)
        }
    }

    fn batch(self) -> TenantWorkload {
        TenantWorkload {
            logical_clients: 150_000,
            tasks: 1,
            ops_per_task: 6,
            pipeline: 1,
            gap_ns: if self == Regime::StormWithCrash {
                100_000
            } else {
                20_000
            },
            dist: KeyDist::Uniform { keys: KEYS },
            mix: Mix {
                read_pct: 0,
                update_pct: 0,
                scan_pct: 100,
            },
            scan_len: 8,
            pause_every_ops: 2,
            pause_ns: 100_000,
            ..TenantWorkload::new(2)
        }
    }
}

fn specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::latency("storm-kv", 1)
            .rate(150_000, 16)
            .in_flight(8),
        TenantSpec::latency("steady-kv", 4),
        TenantSpec::batch("batch-scan", 2),
    ]
}

/// Runs one gateway fleet (any subset of the tenants active) under the
/// regime's fault plan and returns the active tenants' snapshots, in
/// workload order.
fn measure(
    regime: Regime,
    workloads: Vec<TenantWorkload>,
    fair: bool,
    seed: u64,
) -> Vec<TenantSnapshot> {
    let _check = dpdpu::check::CheckGuard::new();
    let _faults = SessionGuard::new(regime.plan(seed));
    block_on(async move {
        let cluster = DdsCluster::build(ClusterConfig {
            shards: 2,
            replicas: regime.replicas(),
            ..ClusterConfig::default()
        })
        .await;
        let client = cluster.connect(CpuPool::new("qos-fleet", 32, 3_000_000_000));
        preload(
            &client,
            &FleetConfig {
                dist: KeyDist::Uniform { keys: KEYS },
                value_bytes: 128,
                ..FleetConfig::default()
            },
        )
        .await;
        let gw = Gateway::front(
            client,
            GatewayConfig {
                // Comfortably above the storm's in-flight cap (8): slots
                // held by ops timing out on a crashed shard must never
                // exhaust the victims' dispatch headroom.
                dispatch_slots: 24,
                fair,
                ..GatewayConfig::new(specs())
            },
        );
        let reports = run_tenant_fleet(&gw, &workloads, seed).await;
        reports.iter().map(|r| gw.snapshot(r.tenant)).collect()
    })
}

/// One matrix cell: solo victim baselines, then the mixed storm run.
/// Returns `(victim snapshots with solo p99s, storm snapshot)`.
fn run_cell(regime: Regime, fair: bool, seed: u64) -> (Vec<(TenantSnapshot, u64)>, TenantSnapshot) {
    let solo_steady = measure(regime, vec![regime.steady()], true, seed)[0].p99_ns;
    let solo_batch = measure(regime, vec![regime.batch()], true, seed)[0].p99_ns;
    let mixed = measure(
        regime,
        vec![regime.storm(), regime.steady(), regime.batch()],
        fair,
        seed,
    );
    let storm = mixed[0].clone();
    let victims = vec![
        (mixed[1].clone(), solo_steady),
        (mixed[2].clone(), solo_batch),
    ];
    (victims, storm)
}

/// Does a cell satisfy the isolation property? True iff the storm is
/// actually shed and every victim's p99 holds the bound.
fn isolated(victims: &[(TenantSnapshot, u64)], storm: &TenantSnapshot, slack_ns: u64) -> bool {
    storm.shed > 0
        && victims
            .iter()
            .all(|(v, solo)| v.p99_ns < ISOLATION_K * (*solo).max(1) + slack_ns)
}

fn assert_cell_isolated(regime: Regime, seed: u64) {
    let (victims, storm) = run_cell(regime, true, seed);
    assert!(
        storm.shed > 0,
        "{regime:?}/seed {seed}: the storm tenant must be shed: {storm:?}"
    );
    assert_eq!(
        storm.issued,
        storm.ok + storm.shed + storm.errors,
        "{regime:?}/seed {seed}: storm requests must not vanish: {storm:?}"
    );
    for (v, solo) in &victims {
        // No acked-request loss: every issued request reached a terminal
        // state (the strict check session also sweeps this per label).
        assert_eq!(
            v.issued,
            v.ok + v.shed + v.errors,
            "{regime:?}/seed {seed}: victim '{}' requests must not vanish: {v:?}",
            v.name
        );
        assert!(
            v.ok > 0,
            "{regime:?}/seed {seed}: victim '{}' must make progress under the storm: {v:?}",
            v.name
        );
        assert!(
            v.p99_ns < ISOLATION_K * (*solo).max(1) + regime.tail_slack_ns(),
            "{regime:?}/seed {seed}: victim '{}' p99 must stay within {ISOLATION_K}x of its \
             solo baseline (+{}ns slack): solo {solo}ns, under storm {}ns",
            v.name,
            regime.tail_slack_ns(),
            v.p99_ns
        );
    }
}

#[test]
fn zipf_storm_is_isolated_across_seeds() {
    for seed in SEEDS {
        assert_cell_isolated(Regime::ZipfStorm, seed);
    }
}

#[test]
fn burst_storm_is_isolated_across_seeds() {
    for seed in SEEDS {
        assert_cell_isolated(Regime::BurstStorm, seed);
    }
}

#[test]
fn storm_with_shard_crash_is_isolated_across_seeds() {
    for seed in SEEDS {
        assert_cell_isolated(Regime::StormWithCrash, seed);
    }
}

/// The known-sensitive gate: with WFQ and the admission limits turned
/// off (arrival-order FIFO, no token bucket, no in-flight cap), the
/// exact isolation predicate the matrix enforces must FAIL — otherwise
/// the matrix is vacuous and would pass with the QoS tier deleted.
#[test]
fn wfq_disabled_breaks_isolation() {
    let (victims, storm) = run_cell(Regime::ZipfStorm, false, 42);
    assert!(
        !isolated(&victims, &storm, 0),
        "disabling WFQ + admission must break isolation, or the matrix \
         proves nothing: storm {storm:?}, victims {victims:?}"
    );
    // Even without QoS, conservation still holds — nothing may vanish.
    for (v, _) in &victims {
        assert_eq!(v.issued, v.ok + v.shed + v.errors, "{v:?}");
    }
}

/// The fair cell at the same seed *does* satisfy the exact predicate
/// the meta-test shows failing — the pair pins the gate's sensitivity.
#[test]
fn wfq_enabled_satisfies_the_same_predicate() {
    let (victims, storm) = run_cell(Regime::ZipfStorm, true, 42);
    assert!(
        isolated(&victims, &storm, 0),
        "storm {storm:?}, victims {victims:?}"
    );
}
