//! **Figure 11 (extension) — multi-tenant isolation under an overload
//! storm.**
//!
//! The paper's DDS numbers are single-tenant; production DPU gateways
//! terminate millions of client connections for *many* tenants on the
//! same device, and the whole value proposition collapses if one
//! tenant's overload drags every other tenant's tail with it. This
//! experiment fronts a 2-shard cluster with the
//! [`Gateway`](dpdpu_dds::gateway::Gateway) tier and runs a
//! mixed-tenant fleet simulating >1M distinct logical clients:
//!
//! * **storm-kv** — a zipfian KV tenant that goes into overload (8
//!   saturating pipelines), with a token-bucket rate + in-flight cap
//!   from its [`TenantSpec`];
//! * **steady-kv** — a uniform KV victim tenant at a paced, modest
//!   load;
//! * **batch-scan** — a Diba-style streaming-scan tenant issuing
//!   bursty full-fan-out scans. A scan asks every shard at once, and
//!   each shard reads every key of the range at once, so a scan waits
//!   about one device read, not one per key.
//!
//! Each tenant is first measured **solo** (alone on an identical
//! cluster, same gateway config) to establish its baseline tail; the
//! mixed run then must keep every victim tenant's p99 within 2× of its
//! solo baseline while the storm tenant is shed/queued — the shape the
//! isolation test matrix (`tests/qos_isolation.rs`) gates on across
//! seeds and fault regimes.

use dpdpu_core::TenantSpec;
use dpdpu_dds::cluster::ClusterConfig;
use dpdpu_dds::gateway::{GatewayConfig, TenantSnapshot};

use crate::cell::{Cell, Load, Preload};
use crate::fleet::{KeyDist, Mix, TenantFleetReport, TenantWorkload};
use crate::table::Table;
use crate::Knobs;

const SHARDS: usize = 2;
const KEYS: u64 = 128;
/// DPU-side dispatch concurrency at the gateway: small enough that the
/// storm actually contends with the victims in the scheduler.
const DISPATCH_SLOTS: usize = 16;

/// Logical client populations per tenant. They sum past 1M: the
/// gateway tier is the piece that multiplexes planet-scale connection
/// counts onto one DPU, so the experiment models the population even
/// though only a sample of clients speaks during the window.
const STORM_CLIENTS: u64 = 600_000;
const STEADY_CLIENTS: u64 = 300_000;
const BATCH_CLIENTS: u64 = 150_000;

/// The default three-tenant specs. The storm tenant carries the
/// admission limits (it is the one that misbehaves); the victims are
/// weight-protected instead.
pub fn default_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::latency("storm-kv", 1)
            .rate(200_000, 32)
            .in_flight(12),
        TenantSpec::latency("steady-kv", 4),
        TenantSpec::batch("batch-scan", 2),
    ]
}

/// The storm tenant's workload. `overload` switches between its
/// well-behaved baseline shape and the saturating storm.
fn storm_workload(overload: bool) -> TenantWorkload {
    TenantWorkload {
        logical_clients: STORM_CLIENTS,
        tasks: if overload { 8 } else { 3 },
        ops_per_task: if overload { 96 } else { 32 },
        pipeline: if overload { 8 } else { 2 },
        gap_ns: if overload { 0 } else { 3_000 },
        dist: KeyDist::Zipfian {
            keys: KEYS,
            theta: 0.99,
        },
        mix: Mix::read_heavy(),
        ..TenantWorkload::new(0)
    }
}

fn steady_workload(tenant: usize) -> TenantWorkload {
    TenantWorkload {
        logical_clients: STEADY_CLIENTS,
        tasks: 3,
        ops_per_task: 32,
        pipeline: 2,
        gap_ns: 3_000,
        dist: KeyDist::Uniform { keys: KEYS },
        mix: Mix::read_heavy(),
        ..TenantWorkload::new(tenant)
    }
}

fn batch_workload(tenant: usize) -> TenantWorkload {
    TenantWorkload {
        logical_clients: BATCH_CLIENTS,
        tasks: 2,
        ops_per_task: 10,
        pipeline: 1,
        gap_ns: 10_000,
        dist: KeyDist::Uniform { keys: KEYS },
        mix: Mix {
            read_pct: 0,
            update_pct: 0,
            scan_pct: 100,
        },
        scan_len: 16,
        // On/off source: a burst of scans, then silence.
        pause_every_ops: 4,
        pause_ns: 150_000,
        ..TenantWorkload::new(tenant)
    }
}

/// What the [`default_tenants`] offer, in their order: the saturating
/// storm, the paced victim, the bursty scans.
pub fn default_workloads() -> Vec<TenantWorkload> {
    vec![storm_workload(true), steady_workload(1), batch_workload(2)]
}

/// One tenant's outcome across the solo and mixed runs.
pub(crate) struct TenantOutcome {
    /// Gateway snapshot from the mixed run.
    pub(crate) mixed: TenantSnapshot,
    /// Fleet report from the mixed run (for distinct-client counts).
    pub(crate) fleet: TenantFleetReport,
    /// p99 of the tenant measured alone on an identical cluster, ns.
    pub(crate) solo_p99_ns: u64,
    /// DRR weight the tenant was served at.
    pub(crate) weight: u64,
}

/// One fleet (any subset of the tenants active) on a fresh cluster
/// behind a gateway configured with *all* the specs.
fn cell(specs: &[TenantSpec], workloads: Vec<TenantWorkload>, fair: bool) -> Cell {
    let gateway = GatewayConfig {
        dispatch_slots: DISPATCH_SLOTS,
        fair,
        ..GatewayConfig::new(specs.to_vec())
    };
    Cell {
        cluster: ClusterConfig {
            shards: SHARDS,
            ..ClusterConfig::default()
        },
        pool_label: "gw-fleet".into(),
        pool_cores: 64,
        preload: Preload {
            keys: KEYS,
            value_bytes: 256,
        },
        load: Load::Tenants(gateway, workloads),
        ..Cell::default()
    }
}

/// Full sweep at one seed: solo baselines, then the mixed storm run.
/// `fair = false` reproduces the no-QoS baseline (single FIFO, limits
/// off) that the known-sensitive isolation test proves is broken.
pub(crate) fn sweep(specs: Vec<TenantSpec>, fair: bool, seed: u64) -> Vec<TenantOutcome> {
    let mut workloads = default_workloads();
    // Extra victim tenants (`--tenants`) ride the steady shape.
    for t in 3..specs.len() {
        workloads.push(steady_workload(t));
    }
    // Solo baseline p99 per tenant: same cluster, same gateway config,
    // only this tenant speaking (the storm tenant's baseline uses its
    // well-behaved shape).
    let solo: Vec<u64> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let baseline = if i == 0 { storm_workload(false) } else { *w };
            cell(&specs, vec![baseline], true).run(seed).snapshots[0].p99_ns
        })
        .collect();
    let mixed = cell(&specs, workloads, fair).run(seed);
    mixed
        .tenants
        .into_iter()
        .zip(mixed.snapshots)
        .zip(solo)
        .map(|((fleet, snap), solo_p99_ns)| TenantOutcome {
            weight: specs[fleet.tenant].weight,
            mixed: snap,
            fleet,
            solo_p99_ns,
        })
        .collect()
}

/// Runs the figure: the default three tenants at seed 42, or `k`'s
/// reshaped mix. `--tenants N` adds `N - 3` steady-KV victims beyond the
/// storm/steady/batch trio, and `--weights` overrides the DRR weights in
/// tenant order.
pub(crate) fn run(k: &Knobs) -> String {
    let mut specs = default_tenants();
    for i in 3..k.tenants.unwrap_or(3) {
        specs.push(TenantSpec::latency(format!("steady-kv{}", i - 1), 4));
    }
    for (spec, &weight) in specs.iter_mut().zip(&k.weights) {
        spec.weight = weight;
    }
    let outcomes = sweep(specs, true, k.seed.unwrap_or(42));
    let mut table = Table::new(&[
        "tenant",
        "slo",
        "weight",
        "clients_seen",
        "issued",
        "ok",
        "shed",
        "solo_p99_us",
        "storm_p99_us",
        "ratio",
    ]);
    let mut population = 0u64;
    for (i, o) in outcomes.iter().enumerate() {
        population += match i {
            0 => STORM_CLIENTS,
            2 => BATCH_CLIENTS,
            _ => STEADY_CLIENTS,
        };
        let ratio = o.mixed.p99_ns as f64 / o.solo_p99_ns.max(1) as f64;
        table.row(vec![
            o.mixed.name.clone(),
            o.mixed.slo.label().into(),
            format!("{}", o.weight),
            format!("{}", o.fleet.logical_seen),
            format!("{}", o.mixed.issued),
            format!("{}", o.mixed.ok),
            format!("{}", o.mixed.shed),
            format!("{:.1}", o.solo_p99_ns as f64 / 1e3),
            format!("{:.1}", o.mixed.p99_ns as f64 / 1e3),
            format!("{ratio:.2}"),
        ]);
    }
    format!(
        "## Figure 11 (extension): per-tenant QoS under an overload storm\n\
         (target shape: while tenant `storm-kv` offers saturating load and is \
         shed/queued by its token bucket, in-flight cap, and weight-1 DRR \
         queue, every victim tenant's p99 stays within 2x of its solo \
         baseline; {population} logical clients modeled across the tenant \
         populations)\n\n{}",
        table.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_is_shed_and_victims_stay_isolated() {
        let outcomes = sweep(default_tenants(), true, 42);
        let storm = &outcomes[0];
        assert!(
            storm.mixed.shed > 0,
            "overloading tenant must be shed: {:?}",
            storm.mixed
        );
        for victim in &outcomes[1..] {
            assert_eq!(
                victim.mixed.issued,
                victim.mixed.ok + victim.mixed.shed + victim.mixed.errors,
                "victim accounting must balance: {:?}",
                victim.mixed
            );
            assert!(
                victim.mixed.p99_ns < 2 * victim.solo_p99_ns,
                "victim '{}' p99 must stay within 2x of solo baseline: \
                 solo {}ns, under storm {}ns",
                victim.mixed.name,
                victim.solo_p99_ns,
                victim.mixed.p99_ns
            );
        }
    }

    #[test]
    fn figure_renders_with_population_headline() {
        let out = run(&Knobs::default());
        assert!(out.contains("Figure 11"), "{out}");
        assert!(out.contains("storm-kv"), "{out}");
        assert!(out.contains("1050000 logical clients"), "{out}");
        let rows = out
            .lines()
            .skip_while(|l| !l.starts_with('-'))
            .skip(1)
            .filter(|l| !l.is_empty())
            .count();
        assert_eq!(rows, 3, "{out}");
    }

    #[test]
    fn fleet_models_a_million_logical_clients() {
        const { assert!(STORM_CLIENTS + STEADY_CLIENTS + BATCH_CLIENTS > 1_000_000) };
        let outcomes = sweep(default_tenants(), true, 7);
        for o in &outcomes {
            assert!(
                o.fleet.logical_seen > 0 && o.fleet.logical_seen <= o.fleet.report.issued,
                "distinct-client accounting out of range: {:?}",
                o.fleet
            );
        }
    }
}
