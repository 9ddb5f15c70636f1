//! The golden scenarios: deterministic, seed-parameterised end-to-end
//! runs.
//!
//! Each scenario boots a fresh simulated platform, drives a real
//! workload through it, and returns a human-readable summary. Each is an
//! entry of [`crate::all`] whose golden is a fixture
//! ([`crate::Golden::Fixture`]), so [`crate::Experiment::run`] runs it at
//! `--seed` (42) under a strict [`dpdpu_check::CheckGuard`] and a
//! telemetry session, heads the summary with its `## scenario <id> (seed
//! <s>)` line, ends it with the conformance report and returns the
//! Chrome trace beside it. Both are pure functions of the
//! seed — the determinism auditor ([`crate::audit`]) replays every
//! scenario twice per seed and requires byte-identical output, and the
//! golden-trace harness pins the seed-42 outputs as blessed fixtures
//! under `tests/golden/`: the summary as text, the trace as a digest
//! (its byte length and FNV-1a hash, then one row per device, track and
//! span name).

use std::fmt::Write as _;

use bytes::Bytes;
use dpdpu_compute::{ComputeEngine, KernelInput, KernelOp, KernelOutput, Placement};
use dpdpu_core::{Dpdpu, TenantSpec};
use dpdpu_dds::cluster::{ClusterConfig, DdsCluster};
use dpdpu_dds::gateway::GatewayConfig;
use dpdpu_dds::kv::INDEX_ENTRY_BYTES;
use dpdpu_dds::server::{Dds, DdsConfig};
use dpdpu_des::{block_on, now};
use dpdpu_faults::{FaultPlan, SessionGuard};
use dpdpu_hw::{CpuPool, Platform};
use dpdpu_net::fabric::Endpoint;
use dpdpu_net::NetConfig;
use dpdpu_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::cell::{Cell, Load, Preload};
use crate::fleet::{preload_keys, FleetConfig, KeyDist, Mix, TenantWorkload};
use crate::Output;

/// Scenario 1 — the storage engine under seeded SSD faults: files of
/// seeded random content are written through the DPU file service and
/// read back while the fault plan injects read errors and slow I/O; the
/// service's retry loop must absorb every transient.
pub(crate) fn storage_faults(seed: u64) -> Output {
    const FILES: u64 = 8;
    const FILE_BYTES: usize = 8192;
    let guard = SessionGuard::new(
        FaultPlan::new(seed)
            .ssd_read_errors(0.15)
            .ssd_slow_io(0.05, 100_000),
    );
    let (written, mismatches, surfaced, retries) = block_on(async move {
        let rt = Dpdpu::start_default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut written = 0u64;
        let mut mismatches = 0u64;
        let mut surfaced = 0u64;
        for i in 0..FILES {
            let payload: Vec<u8> = (0..FILE_BYTES).map(|_| rng.random::<u8>()).collect();
            let id = rt.storage.create(&format!("s{i}")).await.unwrap();
            rt.storage.write(id, 0, &payload).await.unwrap();
            written += payload.len() as u64;
            // A read that exhausts its retries surfaces a typed error
            // — a terminal state, not a hang; count it and move on.
            match rt.storage.read(id, 0, payload.len() as u64).await {
                Ok(back) if back == payload => {}
                Ok(_) => mismatches += 1,
                Err(_) => surfaced += 1,
            }
        }
        (written, mismatches, surfaced, rt.storage.retries.get())
    });
    let injected = guard.session.report().total();
    assert_eq!(mismatches, 0, "a successful read must round-trip exactly");
    Output::from(format!(
        "files={FILES} bytes_written={written} mismatches={mismatches} \
         surfaced_errors={surfaced} ssd_retries={retries} injected={injected}\n"
    ))
}

/// Scenario 2 — the DDS key-value path over offloaded TCP under link
/// drops and SSD errors: every get must reach a terminal state, with
/// retransmits and the traffic director absorbing the injected faults.
pub(crate) fn dds_kv(seed: u64) -> Output {
    const KEYS: u64 = 16;
    const GETS: u64 = 64;
    const VALUE: usize = 256;
    let guard = SessionGuard::new(FaultPlan::new(seed).link_drops(0.02).ssd_read_errors(0.02));
    let (resolved, errors, host_frac, retries, total_ns) = block_on(async move {
        let platform = Platform::default_bf2();
        if let Some(t) = Telemetry::current() {
            platform.register_telemetry(&t);
        }
        let dds = Dds::build(
            platform.clone(),
            DdsConfig {
                kv_index_budget: KEYS * INDEX_ENTRY_BYTES,
                ..DdsConfig::default()
            },
        )
        .await;
        let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
        let client = dds.connect(&NetConfig::default(), &Endpoint::host(client_cpu), "client");

        preload_keys(0..KEYS, VALUE, |k, v| client.kv_put(k, v)).await;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD5);
        let mut resolved = 0u64;
        let mut errors = 0u64;
        let mut total_ns = 0u64;
        for _ in 0..GETS {
            let t0 = now();
            match client.kv_get(rng.random_range(0..KEYS)).await {
                Ok(v) => assert!(v.is_some(), "preloaded key must exist"),
                Err(_) => errors += 1,
            }
            total_ns += now() - t0;
            resolved += 1;
        }
        let served = dds.served_dpu.get() + dds.served_host.get();
        let host_frac = if served == 0 {
            0.0
        } else {
            dds.served_host.get() as f64 / served as f64
        };
        (resolved, errors, host_frac, client.retries.get(), total_ns)
    });
    let injected = guard.session.report().total();
    assert_eq!(resolved, GETS, "every request must terminate");
    Output::from(format!(
        "gets={resolved}/{GETS} errors={errors} host_frac={host_frac:.2} \
         client_retries={retries} injected={injected} mean_us={:.1}\n",
        total_ns as f64 / resolved as f64 / 1e3
    ))
}

/// Scenario 3 — a compute pipeline across placements: a seeded record
/// batch is page-encoded, compressed, hashed, and encrypted through the
/// Compute Engine; the kernel ground-truth check-points validate every
/// functional output against the `dpdpu_kernels` reference.
pub(crate) fn compute_pipeline(seed: u64) -> Output {
    const ROWS: usize = 256;
    let line = block_on(async move {
        let platform = Platform::default_bf2();
        let engine = ComputeEngine::new(platform);
        let batch = dpdpu_kernels::record::gen::orders(ROWS, seed);
        let page = Bytes::from(batch.encode_page());
        let page_len = page.len();
        let input = KernelInput::Bytes(page.clone());

        let compressed = engine
            .run(&KernelOp::Compress, &input, Placement::Scheduled)
            .await
            .expect("compress must run")
            .into_bytes();
        let digest = match engine
            .run(&KernelOp::Sha256, &input, Placement::Scheduled)
            .await
            .expect("sha256 must run")
        {
            KernelOutput::Hash(h) => h,
            other => panic!("unexpected sha256 output: {other:?}"),
        };
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        let nonce = [7u8; 12];
        let crypt = KernelOp::Crypt { key, nonce };
        let encrypted = engine
            .run(&crypt, &input, Placement::Scheduled)
            .await
            .expect("encrypt must run")
            .into_bytes();
        let decrypted = engine
            .run(&crypt, &KernelInput::Bytes(encrypted), Placement::Scheduled)
            .await
            .expect("decrypt must run")
            .into_bytes();
        assert_eq!(decrypted, page, "AES-CTR must be an involution");
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        format!(
            "rows={ROWS} page_bytes={page_len} compressed_bytes={} \
             sha256={hex} crypt_roundtrip=ok t_end={}\n",
            compressed.len(),
            now(),
        )
    });
    line.into()
}

/// `node<i>:<dpu>+<host>` requests served, per shard primary.
fn served_per_shard(cluster: &DdsCluster) -> String {
    let shards: Vec<_> = cluster
        .primaries()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            format!(
                "node{i}:{}+{}",
                node.served_dpu.get(),
                node.served_host.get()
            )
        })
        .collect();
    shards.join(" ")
}

/// Scenario 4 — a workload fleet against a 3-shard DDS cluster under
/// link drops and SSD read errors: zipfian keys route through the
/// consistent-hash ring to per-node DPU platforms, scans fan out to
/// every shard, and the cluster-conservation invariant must balance
/// every issued request against completed + shed + failed.
pub(crate) fn cluster_fleet(seed: u64) -> Output {
    let fleet = FleetConfig {
        clients: 4,
        ops_per_client: 24,
        pipeline: 4,
        dist: KeyDist::Zipfian {
            keys: 48,
            theta: 0.99,
        },
        mix: Mix {
            read_pct: 80,
            update_pct: 15,
            scan_pct: 5,
        },
        value_bytes: 128,
        scan_len: 4,
        ..FleetConfig::default()
    };
    let run = Cell {
        cluster: ClusterConfig {
            shards: 3,
            ..ClusterConfig::default()
        },
        faults: FaultPlan::new(seed).link_drops(0.01).ssd_read_errors(0.01),
        ..Cell::fleet(fleet)
    }
    .run(seed);
    let (summary, injected) = (run.fleet.summary(), run.faults.total());
    let shards = served_per_shard(&run.cluster);
    Output::from(format!(
        "{summary} injected={injected}\nserved dpu+host per shard: {shards}\n"
    ))
}

/// Scenario 5 — the same shard workload over every cluster fabric:
/// offloaded TCP, host-verbs RDMA, and DPU-issued RDMA each carry an
/// identical fleet against a 2-shard cluster while the fault plan drops
/// link messages; the fabric's WQE gate must retry every dropped verb
/// (no request may be lost) and the fabric-conservation invariant must
/// balance sent against delivered bytes and credits per direction. The
/// per-fabric server host time documents what each transport costs the
/// host: TCP pays ring crossings, host-verbs RDMA pays verb issue and
/// CQ polls, rdma-offload pays nothing.
pub(crate) fn cluster_fabric(seed: u64) -> Output {
    use dpdpu_net::fabric::FabricKind;

    let mut stdout = String::new();
    for fabric in FabricKind::ALL {
        let fleet = FleetConfig {
            clients: 3,
            ops_per_client: 16,
            pipeline: 4,
            dist: KeyDist::Uniform { keys: 32 },
            mix: Mix {
                read_pct: 85,
                update_pct: 15,
                scan_pct: 0,
            },
            value_bytes: 128,
            scan_len: 4,
            ..FleetConfig::default()
        };
        let run = Cell {
            cluster: ClusterConfig {
                shards: 2,
                net: NetConfig::default().with_fabric(fabric),
                ..ClusterConfig::default()
            },
            faults: FaultPlan::new(seed ^ 0xFAB).link_drops(0.01),
            pool_label: format!("fleet-{fabric}"),
            ..Cell::fleet(fleet)
        }
        .run(seed);
        let (summary, injected) = (run.fleet.summary(), run.faults.total());
        let host_busy = run.preload_host_busy_ns + run.load_host_busy_ns;
        let _ = writeln!(
            stdout,
            "fabric={fabric} {summary} injected={injected} server_host_busy_ns={host_busy}"
        );
    }
    stdout.into()
}

/// Scenario 6 — the congestion-control matrix: Reno, CUBIC, and DCTCP
/// each drive the three traffic shapes in [`crate::netmatrix`] (incast
/// into an ECN-marking bottleneck, a long-RTT WAN pipe with random
/// loss, an intra-rack link under injected drops). Every cell must
/// deliver its full burst in order; the latency quantiles, goodput,
/// retransmit, and ECN-echo columns document how the algorithms
/// separate — DCTCP holding the incast link near capacity, CUBIC
/// refilling the WAN pipe fastest, and all three identical when
/// recovery is loss-detection-bound.
pub(crate) fn net_scenarios(seed: u64) -> Output {
    use crate::netmatrix::{run_cell, NetScenario};
    use dpdpu_net::tcp::CongAlgKind;

    let mut stdout = String::new();
    for scenario in NetScenario::ALL {
        for alg in CongAlgKind::ALL {
            let r = run_cell(scenario, alg, seed);
            let _ = writeln!(
                stdout,
                "scenario={} cong={} p50_us={:.1} p99_us={:.1} goodput_gbps={:.3} \
                 retransmits={} ecn_echoes={} delivered={}",
                scenario.name(),
                alg.name(),
                r.p50_us,
                r.p99_us,
                r.goodput_gbps,
                r.retransmits,
                r.ecn_echoes,
                r.delivered
            );
        }
    }
    stdout.into()
}

/// Scenario 7 — a replicated cluster surviving a scripted primary kill
/// and a live shard add under fleet load: 4 shards × 2 replicas serve a
/// zipfian fleet while the fault plan freezes shard 1's primary for
/// 80ms of virtual time; the clients' failure detector must promote the
/// backup (epoch-fenced, so the thawed zombie is rejected), a
/// mid-window `add_shard` must drain its share of keys onto a fifth
/// shard without making any key unreadable, and the end-of-run replica
/// digests must match on every group's surviving members — the strict
/// check session fails the scenario otherwise.
pub(crate) fn cluster_failover(seed: u64) -> Output {
    let fleet = FleetConfig {
        clients: 6,
        ops_per_client: 48,
        pipeline: 4,
        // Open-loop gap stretches the fleet past the crash
        // window's opening so the kill lands mid-traffic.
        gap_ns: 500_000,
        dist: KeyDist::Zipfian {
            keys: 48,
            theta: 0.99,
        },
        mix: Mix {
            read_pct: 70,
            update_pct: 25,
            scan_pct: 5,
        },
        value_bytes: 128,
        scan_len: 4,
        ..FleetConfig::default()
    };
    let run = Cell {
        cluster: ClusterConfig {
            shards: 4,
            replicas: 2,
            ..ClusterConfig::default()
        },
        // Window opens after the (deterministic-length) preload and
        // spans most of the fleet run: long enough for the detector's
        // consecutive-failure threshold, closed before quiesce so the
        // zombie gets to wake up fenced.
        faults: FaultPlan::new(seed).shard_crash("node1", 16_000_000, 96_000_000),
        // Scripted resharding: kicks off inside the crash window,
        // while the fleet is still hammering the ring.
        script: vec![20_000_000],
        ..Cell::fleet(fleet)
    }
    .run(seed);
    let new_shard = run.script[0]
        .as_ref()
        .expect("shard add must ride out the crash window");
    let repl = (0..run.cluster.shards())
        .map(|g| {
            let ctl = run.cluster.ctl(g).expect("every group is replicated");
            format!(
                "node{g}:primary={} epoch={} promotions={}",
                ctl.primary(),
                ctl.epoch(),
                ctl.promotions.get()
            )
        })
        .collect::<Vec<_>>()
        .join(" ");
    // Replica digests feed the check session's finish sweep; the run's
    // CheckGuard fails the scenario on any divergence.
    run.cluster.verify_replicas();
    let (summary, injected) = (run.fleet.summary(), run.faults.total());
    let shards = served_per_shard(&run.cluster);
    Output::from(format!(
        "{summary} injected={injected} grown_shard={new_shard}\nreplication: {repl}\n\
         served dpu+host per shard: {shards}\n"
    ))
}

/// The three tenants of the `gateway_tenants` scenario, storm first — a saturating
/// zipfian KV flood held by a token bucket and an in-flight cap, a paced
/// uniform KV victim and a bursty full-fan-out scanner — over 64 keys
/// of 128 B. `tests/qos_isolation.rs` re-paces the same trio per regime.
pub fn storm_trio() -> (Vec<TenantSpec>, [TenantWorkload; 3]) {
    let specs = vec![
        TenantSpec::latency("storm-kv", 1)
            .rate(150_000, 16)
            .in_flight(8),
        TenantSpec::latency("steady-kv", 4),
        TenantSpec::batch("batch-scan", 2),
    ];
    let storm = TenantWorkload {
        logical_clients: 600_000,
        tasks: 6,
        ops_per_task: 32,
        pipeline: 6,
        dist: KeyDist::Zipfian {
            keys: 64,
            theta: 0.99,
        },
        value_bytes: 128,
        ..TenantWorkload::new(0)
    };
    let steady = TenantWorkload {
        logical_clients: 300_000,
        tasks: 2,
        ops_per_task: 16,
        pipeline: 2,
        gap_ns: 4_000,
        dist: KeyDist::Uniform { keys: 64 },
        value_bytes: 128,
        ..TenantWorkload::new(1)
    };
    let batch = TenantWorkload {
        logical_clients: 150_000,
        tasks: 1,
        ops_per_task: 6,
        pipeline: 1,
        gap_ns: 20_000,
        dist: KeyDist::Uniform { keys: 64 },
        mix: Mix {
            read_pct: 0,
            update_pct: 0,
            scan_pct: 100,
        },
        scan_len: 8,
        pause_every_ops: 2,
        pause_ns: 100_000,
        ..TenantWorkload::new(2)
    };
    (specs, [storm, steady, batch])
}

/// Scenario 8 — the multi-tenant gateway under a storm and faults: a
/// zipfian KV tenant floods a 2-shard cluster through the
/// [`Gateway`](dpdpu_dds::gateway::Gateway) while a uniform KV tenant
/// and a bursty batch-scan tenant keep their paced loads, and the fault
/// plan drops link messages. The storm tenant must be shed by its token
/// bucket and in-flight cap while the victims complete; the
/// tenant-conservation and qos-isolation invariants must balance every
/// labeled request and scheduler grant at teardown.
pub(crate) fn gateway_tenants(seed: u64) -> Output {
    let (specs, trio) = storm_trio();
    let gateway = GatewayConfig {
        dispatch_slots: 12,
        ..GatewayConfig::new(specs)
    };
    let run = Cell {
        faults: FaultPlan::new(seed ^ 0x6A7E).link_drops(0.01),
        pool_label: "gw-fleet".into(),
        preload: Preload {
            keys: 64,
            value_bytes: 128,
        },
        load: Load::Tenants(gateway, trio.to_vec()),
        ..Cell::default()
    }
    .run(seed);
    let distinct: u64 = run.tenants.iter().map(|r| r.logical_seen).sum();
    let injected = run.faults.total();
    let mut stdout = format!("tenants=3 distinct_logical_clients={distinct} injected={injected}\n");
    for (r, snap) in run.tenants.iter().zip(&run.snapshots) {
        let _ = writeln!(stdout, "{} logical_seen={}", snap.summary(), r.logical_seen);
    }
    stdout.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_actually_steer_the_workload() {
        let (a, b) = (compute_pipeline(1).table, compute_pipeline(2).table);
        assert_ne!(a, b, "seed must change the batch content");
    }
}
