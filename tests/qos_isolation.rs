//! The multi-tenant isolation test matrix gating the gateway tier.
//!
//! Seeds {42, 7, 1234} × the storm regimes {[`zipf_storm`],
//! [`burst_storm`], [`storm_with_crash`]}, each a [`Row`] — a function of
//! the seed giving `(mixed Cell, tail slack)`: in every cell, the
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

use dpdpu::dds::cluster::ClusterConfig;
use dpdpu::dds::gateway::{GatewayConfig, TenantSnapshot};
use dpdpu::faults::FaultPlan;
use dpdpu_bench::cell::{Cell, Load, Preload};
use dpdpu_bench::fleet::TenantWorkload;
use dpdpu_bench::scenarios::storm_trio;

const SEEDS: [u64; 3] = [42, 7, 1234];
/// Victim-tail bound: mixed-run p99 must stay within this factor of the
/// same-regime solo baseline.
const ISOLATION_K: u64 = 2;

/// One regime of the matrix: the mixed cell (storm first, then the
/// victims) and the absolute tail slack, ns, added to the victim bound.
/// The solo baselines are the same cell with one victim speaking.
type Row = fn(seed: u64) -> (Cell, u64);

/// The storm tenant offers a steady saturating zipfian flood.
fn zipf_storm(seed: u64) -> (Cell, u64) {
    (cell(1, noise(seed), storm(), 4_000, 20_000), 0)
}

/// The storm arrives in on/off bursts: flood 8, sleep, flood again. The
/// bucket must absorb each burst front without letting it leak
/// downstream.
fn burst_storm(seed: u64) -> (Cell, u64) {
    let bursts = TenantWorkload {
        pause_every_ops: 8,
        pause_ns: 200_000,
        ..storm()
    };
    (cell(1, noise(seed), bursts, 4_000, 20_000), 0)
}

/// The steady flood plus a scripted primary crash on a replicated
/// cluster mid-run (failover must not break tenant isolation); every
/// tenant is paced to stretch across the crash window. Any single op
/// that is in flight to the dying primary eats one request timeout (2 ms
/// on a replicated cluster) plus the retry before failover redirects it
/// — whether that op lands in the solo or the mixed interleaving is
/// crash timing, not storm interference, so the bound must absorb one
/// such hit.
fn storm_with_crash(seed: u64) -> (Cell, u64) {
    let paced = TenantWorkload {
        gap_ns: 5_000,
        ops_per_task: 48,
        ..storm()
    };
    let faults = noise(seed).shard_crash("node1", 300_000, 3_000_000);
    (cell(2, faults, paced, 50_000, 100_000), 2_500_000)
}

/// The trio's saturating flood.
fn storm() -> TenantWorkload {
    storm_trio().1[0]
}

/// A little link noise so the regimes are not fault-free.
fn noise(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0x150).link_drops(0.005)
}

/// `storm` and [`storm_trio`]'s victims, at 24 and 6 ops per task and
/// the given launch gaps, through a gateway before 2 shards under
/// `faults`.
fn cell(
    replicas: usize,
    faults: FaultPlan,
    storm: TenantWorkload,
    steady_gap_ns: u64,
    batch_gap_ns: u64,
) -> Cell {
    let (specs, [_, mut steady, mut batch]) = storm_trio();
    (steady.ops_per_task, steady.gap_ns) = (24, steady_gap_ns);
    batch.gap_ns = batch_gap_ns;
    let gateway = GatewayConfig {
        // Comfortably above the storm's in-flight cap (8): slots held by
        // ops timing out on a crashed shard must never exhaust the
        // victims' dispatch headroom.
        dispatch_slots: 24,
        ..GatewayConfig::new(specs)
    };
    Cell {
        cluster: ClusterConfig {
            shards: 2,
            replicas,
            ..ClusterConfig::default()
        },
        faults,
        pool_label: "qos-fleet".into(),
        preload: Preload {
            keys: 64,
            value_bytes: 128,
        },
        load: Load::Tenants(gateway, vec![storm, steady, batch]),
        ..Cell::default()
    }
}

/// One matrix cell: solo victim baselines, then the mixed storm run
/// (`fair = false` turns the mixed run's QoS tier off), each under a
/// strict check session. Returns `(victim snapshots with solo p99s,
/// storm snapshot, tail slack)`.
fn run_cell(row: Row, fair: bool, seed: u64) -> (Vec<(TenantSnapshot, u64)>, TenantSnapshot, u64) {
    let (mixed, slack_ns) = row(seed);
    let Load::Tenants(mut gateway, workloads) = mixed.load.clone() else {
        unreachable!("every row is a tenant load")
    };
    // The active tenants' snapshots, in workload order.
    let snapshots = |gateway: &GatewayConfig, workloads: Vec<TenantWorkload>| {
        let _check = dpdpu::check::CheckGuard::new();
        let load = Load::Tenants(gateway.clone(), workloads);
        Cell {
            load,
            ..mixed.clone()
        }
        .run(seed)
        .snapshots
    };
    let solo: Vec<u64> = workloads[1..]
        .iter()
        .map(|&victim| snapshots(&gateway, vec![victim])[0].p99_ns)
        .collect();
    gateway.fair = fair;
    let mut mixed = snapshots(&gateway, workloads).into_iter();
    let storm = mixed.next().expect("the storm speaks first");
    (mixed.zip(solo).collect(), storm, slack_ns)
}

/// Does a cell satisfy the isolation property? True iff the storm is
/// actually shed and every victim's p99 holds the bound.
fn isolated(victims: &[(TenantSnapshot, u64)], storm: &TenantSnapshot, slack_ns: u64) -> bool {
    storm.shed > 0
        && victims
            .iter()
            .all(|(v, solo)| v.p99_ns < ISOLATION_K * (*solo).max(1) + slack_ns)
}

fn assert_cell_isolated(row: Row, seed: u64) {
    let (victims, storm, slack_ns) = run_cell(row, true, seed);
    assert!(
        storm.shed > 0,
        "seed {seed}: the storm tenant must be shed: {storm:?}"
    );
    assert_eq!(
        storm.issued,
        storm.ok + storm.shed + storm.errors,
        "seed {seed}: storm requests must not vanish: {storm:?}"
    );
    for (v, solo) in &victims {
        // No acked-request loss: every issued request reached a terminal
        // state (the strict check session also sweeps this per label).
        assert_eq!(
            v.issued,
            v.ok + v.shed + v.errors,
            "seed {seed}: victim '{}' requests must not vanish: {v:?}",
            v.name
        );
        assert!(
            v.ok > 0,
            "seed {seed}: victim '{}' must make progress under the storm: {v:?}",
            v.name
        );
        assert!(
            v.p99_ns < ISOLATION_K * (*solo).max(1) + slack_ns,
            "seed {seed}: victim '{}' p99 must stay within {ISOLATION_K}x of its \
             solo baseline (+{}ns slack): solo {solo}ns, under storm {}ns",
            v.name,
            slack_ns,
            v.p99_ns
        );
    }
}

#[test]
fn zipf_storm_is_isolated_across_seeds() {
    for seed in SEEDS {
        assert_cell_isolated(zipf_storm, seed);
    }
}

#[test]
fn burst_storm_is_isolated_across_seeds() {
    for seed in SEEDS {
        assert_cell_isolated(burst_storm, seed);
    }
}

#[test]
fn storm_with_shard_crash_is_isolated_across_seeds() {
    for seed in SEEDS {
        assert_cell_isolated(storm_with_crash, seed);
    }
}

/// The known-sensitive gate: with WFQ and the admission limits turned
/// off (arrival-order FIFO, no token bucket, no in-flight cap), the
/// exact isolation predicate the matrix enforces must FAIL — otherwise
/// the matrix is vacuous and would pass with the QoS tier deleted.
#[test]
fn wfq_disabled_breaks_isolation() {
    let (victims, storm, _) = run_cell(zipf_storm, false, 42);
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
    let (victims, storm, _) = run_cell(zipf_storm, true, 42);
    assert!(
        isolated(&victims, &storm, 0),
        "storm {storm:?}, victims {victims:?}"
    );
}
