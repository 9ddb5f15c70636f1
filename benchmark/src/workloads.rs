//! The four fleet workloads and one repetition of each.
//!
//! A repetition builds a fresh simulation, sets the fleet up (platform
//! boot, cluster build, connect, preload), runs the measured phase, and
//! checks the outputs. Everything the model reports comes back as
//! integers in [`Virtual`], so two repetitions of one seed must compare
//! equal field for field; everything the host reports comes back as
//! seconds in [`Rep`].
//!
//! `--seed` reaches the load generators only: cluster topology, hash
//! ring and platform specs are the same for every seed.

use std::rc::Rc;

use dpdpu_bench::fig11_tenants::default_tenants;
use dpdpu_bench::fleet::{
    preload, run_fleet, run_tenant_fleet, FleetConfig, KeyDist, Mix, TenantWorkload,
};
use dpdpu_bench::par_cluster::{run_par, ParClusterConfig, ParRun};
use dpdpu_check::CheckGuard;
use dpdpu_dds::cluster::{ClusterClient, ClusterConfig, DdsCluster};
use dpdpu_dds::gateway::{Gateway, GatewayConfig};
use dpdpu_dds::kv::INDEX_ENTRY_BYTES;
use dpdpu_dds::server::DdsConfig;
use dpdpu_des::{Sim, Time};
use dpdpu_hw::CpuPool;
use dpdpu_net::fabric::FabricKind;
use dpdpu_net::NetConfig;
use dpdpu_telemetry::{SpanRecord, Telemetry};

use crate::drive::{drain, drive};
use crate::host::{Stopwatch, Timed};
use crate::layers::HwClass;
use crate::trace::chrome_spans;

/// Keys in every serial workload's population.
const KEYS: u64 = 512;
/// Keys read back after the measured phase.
const READBACK_KEYS: u64 = 64;
/// Clock of the modelled host cores, for busy ns → cycles.
pub const HOST_GHZ: f64 = 3.0;
/// Name of the load generators' CPU pool (its probe track).
pub const CLIENT_POOL: &str = "fleet";
/// Divisor applied to every op count by `--smoke`.
const SMOKE_DIVISOR: f64 = 50.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mixed DPU/host read path over TCP.
    KvReadTcp,
    /// Replicated 4 KiB writes over the rdma-offload fabric.
    KvWriteRepl,
    /// Three tenants behind the gateway, one of them storming.
    GatewayStorm,
    /// The domain-partitioned fleet on the parallel core.
    ParFleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::KvReadTcp,
        Workload::KvWriteRepl,
        Workload::GatewayStorm,
        Workload::ParFleet,
    ];

    /// The name used in `BENCHMARK.json`, flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvReadTcp => "kv_read_tcp",
            Workload::KvWriteRepl => "kv_write_repl",
            Workload::GatewayStorm => "gateway_storm",
            Workload::ParFleet => "par_fleet",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How one repetition is run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Seeds the load generators.
    pub seed: u64,
    /// Multiplies every op count (1.0 = the sizes in the README).
    pub size: f64,
    /// Run under a strict `dpdpu_check::CheckGuard`, as every figure
    /// binary does. `par_fleet` installs its own per-domain sessions
    /// and ignores this.
    pub guard: bool,
    /// Install a telemetry session and keep its spans and counters.
    /// `par_fleet` always traces and ignores this.
    pub trace: bool,
    /// Worker threads for `par_fleet`.
    pub jobs: usize,
}

impl RunOpts {
    /// The end-to-end shape: guard on, tracing off, one worker thread.
    pub fn new(seed: u64, smoke: bool) -> Self {
        RunOpts {
            seed,
            size: if smoke { 1.0 / SMOKE_DIVISOR } else { 1.0 },
            guard: true,
            trace: false,
            jobs: 1,
        }
    }

    fn ops(&self, full: u64) -> u64 {
        ((full as f64 * self.size).round() as u64).max(1)
    }
}

/// One gateway tenant's split and tail, as the fleet saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantVirtual {
    /// Tenant name from its `TenantSpec`.
    pub name: String,
    /// Requests issued.
    pub issued: u64,
    /// Requests completed.
    pub ok: u64,
    /// Requests shed.
    pub shed: u64,
    /// Requests failed otherwise.
    pub errors: u64,
    /// Median latency of completed requests, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency of completed requests, ns.
    pub p99_ns: u64,
}

/// Everything the model reported for one repetition. Integers only:
/// for a fixed seed every field repeats exactly, traced or not.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Virtual {
    /// Requests issued.
    pub issued: u64,
    /// Requests completed.
    pub ok: u64,
    /// Requests shed by admission control (gateway or shard window).
    pub shed: u64,
    /// Requests failed otherwise.
    pub errors: u64,
    /// Failures nobody configured: errors anywhere, plus sheds of
    /// requests that no tenant rate limit covers.
    pub unexpected: u64,
    /// Virtual length of the measured phase, ns.
    pub elapsed_ns: u64,
    /// Median latency of completed requests, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency of completed requests, ns.
    pub p99_ns: u64,
    /// Latency samples behind the two percentiles.
    pub samples: u64,
    /// Server host-CPU busy time over the measured phase, every
    /// replica, ns.
    pub host_busy_ns: u64,
    /// Executor polls over the measured phase.
    pub polls: u64,
    /// Client-side re-sends (`DdsClient::retries`, shard connections).
    pub client_retries: u64,
    /// Client-side attempt timeouts (`DdsClient::timeouts`).
    pub client_timeouts: u64,
    /// Requests shed by shard admission windows.
    pub cluster_shed: u64,
    /// Requests that crossed time domains (`par_fleet`).
    pub remote: u64,
    /// Per-tenant splits (`gateway_storm`).
    pub tenants: Vec<TenantVirtual>,
}

/// What a traced repetition recorded, cut to the measured phase.
pub struct Traced {
    /// Spans that started inside the measured phase.
    pub spans: Vec<SpanRecord>,
    /// Whether `spans` carry parent links (the merged `par_fleet` trace
    /// does not export them).
    pub parents: bool,
    /// Registry counters, as growth over the measured phase.
    pub counters: Vec<(String, u64)>,
    /// Renders the Chrome trace of the whole repetition (hundreds of MB
    /// on the big workloads, so only on request).
    pub chrome: Box<dyn Fn() -> String>,
}

/// One repetition: host readings, model readings, optional trace.
pub struct Rep {
    /// From repetition start to the first measured op.
    pub setup: Timed,
    /// The measured phase.
    pub phase: Timed,
    /// What the model reported.
    pub virt: Virtual,
    /// Present when the repetition was traced.
    pub traced: Option<Traced>,
}

/// Runs one repetition of `w`.
///
/// # Panics
/// Panics when an output check fails: a conformance violation, an
/// unbalanced outcome split, or a wrong read-back.
pub fn run_rep(w: Workload, opts: RunOpts) -> Rep {
    let rep = match w {
        Workload::ParFleet => par_fleet(opts),
        _ => serial(w, opts),
    };
    let v = &rep.virt;
    assert_eq!(
        v.issued,
        v.ok + v.shed + v.errors,
        "{}: outcome split does not balance: {v:?}",
        w.name()
    );
    rep
}

// ---- the three single-Sim workloads ---------------------------------

/// What setup hands to the measured phase.
struct Fleet {
    cluster: Rc<DdsCluster>,
    client: Rc<ClusterClient>,
    gateway: Option<Rc<Gateway>>,
}

fn cluster_config(w: Workload) -> ClusterConfig {
    match w {
        // 64 index entries per shard against ≈128 keys per shard: the
        // hot part of the zipf population is DPU-resident, the rest
        // takes the host path, so both routes of Fig. 9 stay live.
        Workload::KvReadTcp => ClusterConfig {
            shards: 4,
            dds: DdsConfig {
                kv_index_budget: 64 * INDEX_ENTRY_BYTES,
                ..DdsConfig::default()
            },
            ..ClusterConfig::default()
        },
        Workload::KvWriteRepl => ClusterConfig {
            shards: 4,
            replicas: 2,
            net: NetConfig::default().with_fabric(FabricKind::RdmaOffload),
            ..ClusterConfig::default()
        },
        // Default budget: every key is DPU-resident.
        Workload::GatewayStorm => ClusterConfig {
            shards: 4,
            ..ClusterConfig::default()
        },
        Workload::ParFleet => unreachable!("par_fleet builds its own domains"),
    }
}

fn value_bytes(w: Workload) -> usize {
    match w {
        // ≥ the fabric's 4 KiB bulk threshold: one-sided write path.
        Workload::KvWriteRepl => 4096,
        _ => 256,
    }
}

fn fleet_config(w: Workload, opts: &RunOpts) -> FleetConfig {
    match w {
        Workload::KvReadTcp => FleetConfig {
            clients: 16,
            ops_per_client: opts.ops(8_000),
            pipeline: 4,
            dist: KeyDist::Zipfian {
                keys: KEYS,
                theta: 0.99,
            },
            mix: Mix::read_heavy(),
            value_bytes: value_bytes(w),
            seed: opts.seed,
            ..FleetConfig::default()
        },
        // Window 1: at window 4 every fabric fails ≈21 % of ops by
        // deadline, and a workload must not fail.
        Workload::KvWriteRepl => FleetConfig {
            clients: 16,
            ops_per_client: opts.ops(1_000),
            pipeline: 1,
            dist: KeyDist::Uniform { keys: KEYS },
            mix: Mix {
                read_pct: 40,
                update_pct: 60,
                scan_pct: 0,
            },
            value_bytes: value_bytes(w),
            seed: opts.seed,
            ..FleetConfig::default()
        },
        _ => unreachable!("{} has no single-fleet config", w.name()),
    }
}

/// fig11's three tenants at benchmark length: a saturating closed-loop
/// storm against its 200 K/s token bucket, a paced victim, and bursty
/// 16-key scans.
fn tenant_workloads(opts: &RunOpts) -> Vec<TenantWorkload> {
    let storm = TenantWorkload {
        logical_clients: 600_000,
        tasks: 8,
        ops_per_task: opts.ops(38_400),
        pipeline: 8,
        gap_ns: 0,
        dist: KeyDist::Zipfian {
            keys: KEYS,
            theta: 0.99,
        },
        mix: Mix::read_heavy(),
        ..TenantWorkload::new(0)
    };
    let steady = TenantWorkload {
        logical_clients: 300_000,
        tasks: 3,
        ops_per_task: opts.ops(12_800),
        pipeline: 2,
        gap_ns: 3_000,
        dist: KeyDist::Uniform { keys: KEYS },
        mix: Mix::read_heavy(),
        ..TenantWorkload::new(STEADY_TENANT)
    };
    let scan = TenantWorkload {
        logical_clients: 150_000,
        tasks: 2,
        ops_per_task: opts.ops(4_000),
        pipeline: 1,
        gap_ns: 10_000,
        dist: KeyDist::Uniform { keys: KEYS },
        mix: Mix {
            read_pct: 0,
            update_pct: 0,
            scan_pct: 100,
        },
        scan_len: 16,
        pause_every_ops: 4,
        pause_ns: 150_000,
        ..TenantWorkload::new(2)
    };
    vec![storm, steady, scan]
}

/// Index of the steady-kv victim in `default_tenants()`; the workload's
/// `virt_p50_us`/`virt_p99_us` are this tenant's.
const STEADY_TENANT: usize = 1;

async fn set_up(w: Workload) -> Fleet {
    let cluster = DdsCluster::build(cluster_config(w)).await;
    let client = cluster.connect(CpuPool::new(CLIENT_POOL, 64, 3_000_000_000));
    preload(
        &client,
        &FleetConfig {
            dist: KeyDist::Uniform { keys: KEYS },
            value_bytes: value_bytes(w),
            ..FleetConfig::default()
        },
    )
    .await;
    let gateway = (w == Workload::GatewayStorm).then(|| {
        Gateway::front(
            client.clone(),
            GatewayConfig {
                dispatch_slots: 16,
                ..GatewayConfig::new(default_tenants())
            },
        )
    });
    Fleet {
        cluster,
        client,
        gateway,
    }
}

/// Cumulative public counters, read before and after the measured phase.
struct Counters {
    host_busy_ns: u64,
    retries: u64,
    timeouts: u64,
    shed: u64,
    polls: u64,
}

impl Counters {
    fn read(fleet: &Fleet, sim: &Sim) -> Self {
        let cluster = &fleet.cluster;
        let mut host_busy_ns = 0;
        let (mut retries, mut timeouts) = (0, 0);
        for shard in 0..cluster.shards() {
            for member in &cluster.group(shard).members {
                host_busy_ns += member.platform().host_cpu.busy_ns();
            }
            let conn = fleet.client.shard_client(shard);
            retries += conn.retries.get();
            timeouts += conn.timeouts.get();
        }
        Counters {
            host_busy_ns,
            retries,
            timeouts,
            shed: fleet.client.total_shed(),
            polls: sim.polls(),
        }
    }
}

async fn measured(w: Workload, opts: RunOpts, fleet: Rc<Fleet>) -> Virtual {
    if let Some(gateway) = &fleet.gateway {
        let reports = run_tenant_fleet(gateway, &tenant_workloads(&opts), opts.seed).await;
        let specs = default_tenants();
        let mut v = Virtual::default();
        for r in &reports {
            let (spec, f) = (&specs[r.tenant], &r.report);
            v.issued += f.issued;
            v.ok += f.ok;
            v.shed += f.shed;
            v.errors += f.errors;
            v.elapsed_ns = v.elapsed_ns.max(f.elapsed_ns);
            let limited = spec.rate_ops_per_sec > 0 || spec.max_in_flight > 0;
            v.unexpected += f.errors + if limited { 0 } else { f.shed };
            v.tenants.push(TenantVirtual {
                name: spec.name.clone(),
                issued: f.issued,
                ok: f.ok,
                shed: f.shed,
                errors: f.errors,
                p50_ns: f.p50_ns,
                p99_ns: f.p99_ns,
            });
            // The gateway's own books must agree with the fleet's.
            let snap = gateway.snapshot(r.tenant);
            assert_eq!(
                (snap.issued, snap.ok, snap.shed, snap.errors),
                (f.issued, f.ok, f.shed, f.errors),
                "gateway snapshot disagrees with the fleet for tenant {}",
                spec.name
            );
        }
        let victim = &v.tenants[STEADY_TENANT];
        (v.p50_ns, v.p99_ns, v.samples) = (victim.p50_ns, victim.p99_ns, victim.ok);
        v
    } else {
        let f = run_fleet(&fleet.client, fleet_config(w, &opts)).await;
        Virtual {
            issued: f.issued,
            ok: f.ok,
            shed: f.shed,
            errors: f.errors,
            unexpected: f.shed + f.errors,
            elapsed_ns: f.elapsed_ns,
            p50_ns: f.p50_ns,
            p99_ns: f.p99_ns,
            samples: f.ok,
            ..Virtual::default()
        }
    }
}

/// Reads `READBACK_KEYS` evenly spaced keys back: every preloaded or
/// updated value is `value_bytes` copies of the key's low byte.
async fn read_back(w: Workload, fleet: Rc<Fleet>) {
    for i in 0..READBACK_KEYS {
        let key = i * (KEYS / READBACK_KEYS);
        let value = fleet
            .client
            .kv_get(key)
            .await
            .unwrap_or_else(|e| panic!("{}: read-back of key {key} failed: {e:?}", w.name()))
            .unwrap_or_else(|| panic!("{}: read-back of key {key} found nothing", w.name()));
        assert_eq!(
            (value.len(), value.first().copied()),
            (value_bytes(w), Some(key as u8)),
            "{}: read-back of key {key} returned the wrong value",
            w.name()
        );
    }
}

/// Sets `w` up once more and returns how long it took: an extra
/// `setup_s` sample that runs no load. Set-up takes 10–20 ms on the TCP
/// workloads, so its median needs more samples than there are
/// repetitions.
pub fn time_set_up(w: Workload, opts: RunOpts) -> Timed {
    let watch = Stopwatch::start();
    if w == Workload::ParFleet {
        run_par(par_config(&opts, 1), opts.jobs);
        return watch.stop();
    }
    let _guard = opts.guard.then(CheckGuard::new);
    let mut sim = Sim::new();
    let fleet = drive(&mut sim, set_up(w));
    let setup = watch.stop();
    drain(&mut sim);
    drop(fleet);
    setup
}

fn serial(w: Workload, opts: RunOpts) -> Rep {
    // Declared before the Sim so the simulation is torn down first and
    // the guard's balance sweep sees every permit returned.
    let _guard = opts.guard.then(CheckGuard::new);
    let telemetry = opts.trace.then(Telemetry::install);
    let watch = Stopwatch::start();
    let mut sim = Sim::new();
    let fleet = Rc::new(drive(&mut sim, set_up(w)));
    let setup = watch.stop();

    let phase_start: Time = sim.now();
    let counters_then = telemetry.as_ref().map(|t| t.registry().counter_values());
    let before = Counters::read(&fleet, &sim);
    let watch = Stopwatch::start();
    let mut virt = drive(&mut sim, measured(w, opts, fleet.clone()));
    let phase = watch.stop();
    let after = Counters::read(&fleet, &sim);
    virt.host_busy_ns = after.host_busy_ns - before.host_busy_ns;
    virt.client_retries = after.retries - before.retries;
    virt.client_timeouts = after.timeouts - before.timeouts;
    virt.cluster_shed = after.shed - before.shed;
    virt.polls = after.polls - before.polls;

    drive(&mut sim, read_back(w, fleet.clone()));
    drain(&mut sim);
    // After the drain every chained write has reached its backup.
    fleet.cluster.verify_replicas();
    drop(fleet);
    drop(sim);

    let traced = telemetry.map(|t| {
        Telemetry::uninstall();
        let then = counters_then.expect("snapshot taken when tracing");
        let grown = |name: &str, now: u64| {
            let was = then.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
            now - was
        };
        Traced {
            spans: t
                .tracer()
                .spans()
                .into_iter()
                .filter(|s| s.start >= phase_start)
                .collect(),
            parents: true,
            counters: t
                .registry()
                .counter_values()
                .into_iter()
                .map(|(name, now)| {
                    let d = grown(&name, now);
                    (name, d)
                })
                .collect(),
            chrome: Box::new(move || t.chrome_trace()),
        }
    });
    Rep {
        setup,
        phase,
        virt,
        traced,
    }
}

// ---- par_fleet --------------------------------------------------------

fn par_config(opts: &RunOpts, ops_per_client: u64) -> ParClusterConfig {
    ParClusterConfig {
        domains: 4,
        clients_per_domain: 4,
        ops_per_client,
        keys_per_domain: 128,
        seed: opts.seed,
        ..ParClusterConfig::default()
    }
}

/// Visits every span of a `run_par` trace. The merged Chrome trace is
/// the only view `ParRun` gives of its domains; it carries no parent
/// links, and it covers the per-domain preload as well as the load
/// (`run_par` starts its clients on a fixed clock, while 128 keys per
/// domain are still being preloaded, so the two overlap).
fn par_spans(run: &ParRun) -> Vec<SpanRecord> {
    let mut spans = Vec::new();
    chrome_spans(&run.trace, |s| {
        spans.push(SpanRecord {
            id: spans.len() as u64 + 1,
            parent: None,
            process: s.process.to_string(),
            track: s.track.to_string(),
            name: s.name.to_string(),
            start: s.start,
            end: s.end,
            attrs: Vec::new(),
        });
    });
    spans
}

/// Host-CPU busy ns of a `run_par` call. `ParRun` exposes no platforms;
/// `Server::process` emits one `serve` span per busy interval, so their
/// sum over the host-CPU tracks is `busy_ns()`.
fn par_host_busy_ns(run: &ParRun) -> u64 {
    let mut busy = 0;
    chrome_spans(&run.trace, |s| {
        if s.name == "serve" && HwClass::of(s.track) == Some(HwClass::HostCpu) {
            busy += s.end - s.start;
        }
    });
    busy
}

fn par_fleet(opts: RunOpts) -> Rep {
    // `run_par` cannot separate set-up from load, so set-up is priced
    // by a call that issues one op per client, and host busy time is
    // the growth over that call (whose preload is the same).
    let watch = Stopwatch::start();
    let boot = run_par(par_config(&opts, 1), opts.jobs);
    let setup = watch.stop();
    let watch = Stopwatch::start();
    let run = run_par(par_config(&opts, opts.ops(1_500)), opts.jobs);
    let phase = watch.stop();
    assert_eq!(
        run.stdout
            .lines()
            .filter(|l| l.contains("conformance:"))
            .count(),
        4,
        "par_fleet: every domain must print its conformance report:\n{}",
        run.stdout
    );
    let errors = run.issued - run.ok;
    let virt = Virtual {
        issued: run.issued,
        ok: run.ok,
        errors,
        unexpected: errors,
        elapsed_ns: run.elapsed_ns,
        // `ParRun` reduces per domain: mean of the four medians, worst
        // of the four p99s.
        p50_ns: run.mean_p50_ns,
        p99_ns: run.max_p99_ns,
        samples: run.ok,
        host_busy_ns: par_host_busy_ns(&run) - par_host_busy_ns(&boot),
        polls: run.polls,
        remote: run.remote,
        ..Virtual::default()
    };
    let traced = opts.trace.then(|| Traced {
        spans: par_spans(&run),
        parents: false,
        counters: Vec::new(),
        chrome: Box::new(move || run.trace.clone()),
    });
    Rep {
        setup,
        phase,
        virt,
        traced,
    }
}
