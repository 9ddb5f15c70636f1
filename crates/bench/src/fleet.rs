//! Open-loop workload fleet for the sharded DDS cluster.
//!
//! A fleet is `clients` concurrent load generators sharing one routed
//! [`ClusterClient`]. Each client draws keys from a seeded distribution
//! (uniform or scrambled zipfian), picks an operation from a
//! configurable read/update/scan mix, and keeps up to `pipeline`
//! requests in flight at once — batches are *launched* on an open-loop
//! clock (`gap_ns` between launches, independent of completions), so a
//! slow shard backs traffic up into its admission window instead of
//! silently throttling the offered load. Shed requests
//! ([`DpdpuError::Unavailable`]) are counted, not retried: the fleet
//! measures what the cluster absorbs at this offered rate.
//!
//! [`run_fleet`] returns a [`FleetReport`] with per-op latency order
//! statistics and the issued/ok/shed/error conservation split that the
//! `fig10_cluster_scale` sweep and the `cluster_fleet` scenario report.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use dpdpu_core::DpdpuError;
use dpdpu_dds::cluster::ClusterClient;
use dpdpu_dds::gateway::Gateway;
use dpdpu_dds::proto::Op;
use dpdpu_des::{now, sleep, sleep_until, spawn, Counter, Histogram, JoinHandle, Semaphore, Time};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Key popularity distribution over a key population `0..keys`.
#[derive(Debug, Clone, Copy)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform {
        /// Population size.
        keys: u64,
    },
    /// Zipfian(`theta`) over ranks, with rank→key scrambling so the hot
    /// set is scattered across the key space (YCSB-style).
    Zipfian {
        /// Population size.
        keys: u64,
        /// Skew exponent; `0.99` is the YCSB default, `0.0` is uniform.
        theta: f64,
    },
}

impl KeyDist {
    /// Population size of the distribution.
    pub(crate) fn keys(&self) -> u64 {
        match *self {
            KeyDist::Uniform { keys } | KeyDist::Zipfian { keys, .. } => keys,
        }
    }

    /// Short label for tables (`uniform` / `zipf0.99`).
    pub(crate) fn label(&self) -> String {
        match *self {
            KeyDist::Uniform { .. } => "uniform".into(),
            KeyDist::Zipfian { theta, .. } => format!("zipf{theta}"),
        }
    }
}

/// A sampler precomputed from a [`KeyDist`] (the zipfian cumulative
/// weight table is built once, not per draw).
pub(crate) struct KeySampler {
    keys: u64,
    /// Cumulative zipf weights per rank; `None` for uniform.
    cum: Option<Vec<f64>>,
}

impl KeySampler {
    /// Builds the sampler (O(keys) for zipfian, O(1) for uniform).
    pub(crate) fn new(dist: &KeyDist) -> Self {
        match *dist {
            KeyDist::Uniform { keys } => {
                assert!(keys > 0, "empty key population");
                KeySampler { keys, cum: None }
            }
            KeyDist::Zipfian { keys, theta } => {
                assert!(keys > 0, "empty key population");
                let mut cum = Vec::with_capacity(keys as usize);
                let mut total = 0.0f64;
                for rank in 1..=keys {
                    total += 1.0 / (rank as f64).powf(theta);
                    cum.push(total);
                }
                KeySampler {
                    keys,
                    cum: Some(cum),
                }
            }
        }
    }

    /// Draws one key in `0..keys`.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> u64 {
        match &self.cum {
            None => rng.random_range(0..self.keys),
            Some(cum) => {
                let total = *cum.last().expect("non-empty population");
                let u = rng.random::<u64>() as f64 / u64::MAX as f64 * total;
                let rank = cum.partition_point(|&c| c < u).min(cum.len() - 1) as u64;
                // Scramble rank→key so hot ranks are not adjacent keys.
                rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.keys
            }
        }
    }
}

/// Request mix in percent; must sum to 100.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// KV point reads.
    pub read_pct: u32,
    /// KV updates (put to an existing key).
    pub update_pct: u32,
    /// Short range scans (fan out to every shard).
    pub scan_pct: u32,
}

impl Mix {
    /// YCSB-B-ish: 95% reads, 5% updates.
    pub fn read_heavy() -> Self {
        Mix {
            read_pct: 95,
            update_pct: 5,
            scan_pct: 0,
        }
    }

    /// Rejects a mix that does not sum to 100. Checked once where a
    /// fleet starts: [`Mix::op`] sends whatever the percentages leave
    /// over to scans, so a short mix would silently change the workload.
    pub(crate) fn validate(&self) {
        assert_eq!(
            self.read_pct + self.update_pct + self.scan_pct,
            100,
            "request mix must sum to 100: {self:?}"
        );
    }

    /// Draws the next operation on `key`: a point read, an update
    /// writing `value_bytes` bytes of the key's low byte (what
    /// [`preload`] wrote), or a `scan_len`-key scan starting at `key`.
    /// One `0..100` draw from `rng`.
    pub(crate) fn op(&self, rng: &mut StdRng, key: u64, value_bytes: usize, scan_len: u32) -> Op {
        let roll = rng.random_range(0..100u32);
        if roll < self.read_pct {
            Op::KvGet { key }
        } else if roll < self.read_pct + self.update_pct {
            Op::KvPut {
                key,
                value: value_for(key, value_bytes),
            }
        } else {
            Op::KvScan {
                start_key: key,
                count: scan_len,
            }
        }
    }
}

/// The value every generator writes under `key`.
pub(crate) fn value_for(key: u64, value_bytes: usize) -> Bytes {
    Bytes::from(vec![key as u8; value_bytes])
}

/// Fleet shape and offered load.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Concurrent load-generating clients.
    pub clients: usize,
    /// Requests each client issues over the run.
    pub ops_per_client: u64,
    /// Per-client in-flight window (requests per pipelined batch).
    pub pipeline: usize,
    /// Open-loop gap between batch launches, ns (`0` = saturating).
    pub gap_ns: u64,
    /// Key popularity.
    pub dist: KeyDist,
    /// Operation mix.
    pub mix: Mix,
    /// Value payload size for updates.
    pub value_bytes: usize,
    /// Keys returned per scan.
    pub scan_len: u32,
    /// Seeds every client RNG (client `c` uses `seed * 1000 + c`, hence
    /// at most 1000 clients).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            clients: 8,
            ops_per_client: 64,
            pipeline: 4,
            gap_ns: 0,
            dist: KeyDist::Zipfian {
                keys: 128,
                theta: 0.99,
            },
            mix: Mix::read_heavy(),
            value_bytes: 256,
            scan_len: 8,
            seed: 42,
        }
    }
}

/// What the fleet observed: conservation split + latency statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetReport {
    /// Requests issued (== ok + shed + errors).
    pub issued: u64,
    /// Requests completed successfully.
    pub ok: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests that failed with any other error.
    pub errors: u64,
    /// Virtual time the fleet ran for, ns.
    pub elapsed_ns: u64,
    /// Median completed-request latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile completed-request latency, ns.
    pub p99_ns: u64,
}

impl FleetReport {
    /// Aggregate goodput in million completed ops per second of
    /// simulated time.
    pub(crate) fn throughput_mops(&self) -> f64 {
        self.ok as f64 / self.elapsed_ns.max(1) as f64 * 1e3
    }

    /// One stable summary line (used by the `cluster_fleet` scenario).
    pub(crate) fn summary(&self) -> String {
        format!(
            "issued={} ok={} shed={} errors={} elapsed_us={} p50_us={:.1} p99_us={:.1} mops={:.3}",
            self.issued,
            self.ok,
            self.shed,
            self.errors,
            self.elapsed_ns / 1_000,
            self.p50_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
            self.throughput_mops(),
        )
    }
}

/// Pacing of one generator task.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Pace {
    /// Requests the task issues.
    pub ops: u64,
    /// In-flight window.
    pub pipeline: usize,
    /// Open-loop gap between launches, ns (`0` = saturating).
    pub gap_ns: u64,
    /// Pause after this many launches (`0` = steady load).
    pub pause_every_ops: u64,
    /// Silent-phase length of the burst cycle, ns.
    pub pause_ns: u64,
}

/// How a fleet's requests resolved so far, shared by all its generator
/// tasks (single-threaded within one `Sim`).
#[derive(Default)]
pub(crate) struct Outcomes {
    /// Latency of every completed request.
    pub latency: Histogram,
    pub ok: Counter,
    pub shed: Counter,
    pub errors: Counter,
}

/// The one client loop every load generator runs: a sliding in-flight
/// window over `request`, which draws from the task's seeded RNG and
/// returns the future to launch. Returns once all `pace.ops` requests
/// have resolved into `outcomes`. Shed requests
/// ([`DpdpuError::Unavailable`]) are counted, not retried.
///
/// A sliding window, not batch barriers: a new request launches the
/// moment a slot frees (or on the open-loop clock), so one slow shard
/// delays its own slot only — a barrier would stall the whole window on
/// the slowest of each batch and understate the cluster.
pub(crate) async fn client_loop<F, Fut>(
    pace: Pace,
    seed: u64,
    outcomes: Rc<Outcomes>,
    mut request: F,
) where
    F: FnMut(&mut StdRng) -> Fut,
    Fut: Future<Output = Result<(), DpdpuError>> + 'static,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let window = Semaphore::new(pace.pipeline);
    // Handles of requests that may still be running: resolved ones are
    // dropped before each launch, so this holds at most a window.
    let mut in_flight: Vec<JoinHandle<()>> = Vec::with_capacity(pace.pipeline);
    for issued in 0..pace.ops {
        if pace.pause_every_ops > 0 && issued > 0 && issued.is_multiple_of(pace.pause_every_ops) {
            // Off phase of the on/off burst cycle.
            sleep(pace.pause_ns).await;
        }
        let permit = window.acquire().await;
        let fut = request(&mut rng);
        let outcomes = outcomes.clone();
        in_flight.retain(|h| !h.is_finished());
        in_flight.push(spawn(async move {
            let _slot = permit;
            let t = now();
            match fut.await {
                Ok(()) => {
                    outcomes.latency.record(now() - t);
                    outcomes.ok.inc();
                }
                Err(DpdpuError::Unavailable(_)) => outcomes.shed.inc(),
                Err(_) => outcomes.errors.inc(),
            }
        }));
        if pace.gap_ns > 0 {
            // Open loop: the next launch waits on the clock, not on any
            // completion.
            sleep(pace.gap_ns).await;
        }
    }
    for h in in_flight {
        h.await;
    }
}

/// The most clients one run may drive: every caller's seed formula
/// strides clients by 1 and runs by at least this, so client 1000 of one
/// seed would be client 0 of the next.
pub(crate) const MAX_CLIENTS: usize = 1_000;

/// Spawns `n` generator tasks and reports once all have resolved.
/// Client `c` wakes at `start(c)`, seeds its RNG from `seed(c)` and runs
/// [`client_loop`] over its own clone of `request`; `elapsed_ns` runs
/// from `t0` to the moment the last request resolves.
pub(crate) async fn run_clients<F, Fut>(
    n: usize,
    pace: Pace,
    t0: Time,
    start: impl Fn(u64) -> Time,
    seed: impl Fn(u64) -> u64,
    request: F,
) -> FleetReport
where
    F: FnMut(&mut StdRng) -> Fut + Clone + 'static,
    Fut: Future<Output = Result<(), DpdpuError>> + 'static,
{
    assert!(
        n <= MAX_CLIENTS,
        "more than {MAX_CLIENTS} clients would share RNG seeds across runs: {n}"
    );
    let outcomes = Rc::new(Outcomes::default());
    let tasks: Vec<_> = (0..n as u64)
        .map(|c| {
            let (start, seed) = (start(c), seed(c));
            let (outcomes, request) = (outcomes.clone(), request.clone());
            spawn(async move {
                sleep_until(start).await;
                client_loop(pace, seed, outcomes, request).await
            })
        })
        .collect();
    for t in tasks {
        t.await;
    }
    FleetReport {
        issued: n as u64 * pace.ops,
        ok: outcomes.ok.get(),
        shed: outcomes.shed.get(),
        errors: outcomes.errors.get(),
        elapsed_ns: (now() - t0).max(1),
        p50_ns: outcomes.latency.p50().unwrap_or(0),
        p99_ns: outcomes.latency.p99().unwrap_or(0),
    }
}

/// Puts [`value_for`] under every key of `keys` through `put`,
/// sequentially — deterministic and admission-safe.
pub(crate) async fn preload_keys<Fut>(
    keys: impl Iterator<Item = u64>,
    value_bytes: usize,
    put: impl Fn(u64, Bytes) -> Fut,
) where
    Fut: Future<Output = Result<(), DpdpuError>>,
{
    for key in keys {
        put(key, value_for(key, value_bytes))
            .await
            .expect("preload put must succeed");
    }
}

/// The single-server read loops' key stream (Fig. 9, A9): xorshift64
/// from a fixed seed, reduced into `0..keys`.
pub(crate) fn xorshift_keys(keys: u64) -> impl Iterator<Item = u64> {
    let mut x = 0x2545F491u64;
    std::iter::repeat_with(move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % keys
    })
}

/// Preloads every key of `cfg.dist` so reads hit (routed puts through
/// the cluster client).
pub async fn preload(client: &Rc<ClusterClient>, cfg: &FleetConfig) {
    preload_keys(0..cfg.dist.keys(), cfg.value_bytes, |key, value| {
        client.kv_put(key, value)
    })
    .await;
}

/// Runs the fleet to completion and reports.
///
/// Must be called inside a running simulation with `client` already
/// connected. Preload the key population first ([`preload`]) unless
/// missing reads are part of the experiment.
pub async fn run_fleet(client: &Rc<ClusterClient>, cfg: FleetConfig) -> FleetReport {
    assert!(cfg.clients > 0 && cfg.pipeline > 0, "degenerate fleet");
    cfg.mix.validate();
    let pace = Pace {
        ops: cfg.ops_per_client,
        pipeline: cfg.pipeline,
        gap_ns: cfg.gap_ns,
        ..Pace::default()
    };
    let client = client.clone();
    let sampler = Rc::new(KeySampler::new(&cfg.dist));
    let t0 = now();
    run_clients(
        cfg.clients,
        pace,
        t0,
        // Deterministic start stagger: real fleets are not
        // batch-synchronized, and lock-step launches would measure
        // burst-drain tails instead of steady-state latency.
        |c| t0 + c * 7_919,
        |c| cfg.seed.wrapping_mul(1_000) + c,
        move |rng| {
            let key = sampler.sample(rng);
            let op = cfg.mix.op(rng, key, cfg.value_bytes, cfg.scan_len);
            let client = client.clone();
            async move { client.call(op).await.map(|_| ()) }
        },
    )
    .await
}

/// One tenant's offered load for the mixed-tenant gateway fleet.
///
/// A tenant simulates a large population of `logical_clients` (think
/// "1M+ end-user connections terminated on the gateway DPU") multiplexed
/// over `tasks` concurrent generator tasks: each request is attributed
/// to a logical client drawn uniformly from the population, and the
/// fleet reports how many distinct logical clients were actually seen.
/// `pause_every_ops`/`pause_ns` turn the generator into an on/off burst
/// source (issue a burst, go silent, repeat).
#[derive(Debug, Clone, Copy)]
pub struct TenantWorkload {
    /// Gateway tenant: the index of its spec in
    /// [`GatewayConfig::tenants`](dpdpu_dds::gateway::GatewayConfig::tenants).
    pub tenant: usize,
    /// Logical client population attributed across requests.
    pub logical_clients: u64,
    /// Concurrent generator tasks multiplexing the population.
    pub tasks: usize,
    /// Requests each task issues over the run.
    pub ops_per_task: u64,
    /// Per-task in-flight window.
    pub pipeline: usize,
    /// Open-loop gap between launches, ns (`0` = saturating).
    pub gap_ns: u64,
    /// Key popularity.
    pub dist: KeyDist,
    /// Operation mix.
    pub mix: Mix,
    /// Value payload size for updates.
    pub value_bytes: usize,
    /// Keys returned per scan.
    pub scan_len: u32,
    /// Pause after this many launches per task (`0` = steady load).
    pub pause_every_ops: u64,
    /// Silent-phase length for the burst cycle, ns.
    pub pause_ns: u64,
}

impl TenantWorkload {
    /// A steady read-heavy workload for `tenant` with small defaults.
    pub fn new(tenant: usize) -> Self {
        TenantWorkload {
            tenant,
            logical_clients: 1_000,
            tasks: 4,
            ops_per_task: 64,
            pipeline: 4,
            gap_ns: 0,
            dist: KeyDist::Zipfian {
                keys: 128,
                theta: 0.99,
            },
            mix: Mix::read_heavy(),
            value_bytes: 256,
            scan_len: 8,
            pause_every_ops: 0,
            pause_ns: 0,
        }
    }
}

/// Per-tenant result of [`run_tenant_fleet`].
#[derive(Debug, Clone, Copy)]
pub struct TenantFleetReport {
    /// Gateway tenant index.
    pub tenant: usize,
    /// Conservation split + latency statistics for this tenant.
    pub report: FleetReport,
    /// Distinct logical clients that issued at least one request.
    pub(crate) logical_seen: u64,
}

/// Runs every tenant's workload concurrently against one [`Gateway`]
/// and reports per tenant. `seed` steers all workloads (task `c` of
/// tenant `t` seeds from `seed * 1e6 + t * 1000 + c`, hence at most
/// 1000 tasks per tenant).
///
/// Must be called inside a running simulation; preload the key
/// populations first (e.g. [`preload`] on the cluster client the gateway
/// fronts).
pub async fn run_tenant_fleet(
    gateway: &Rc<Gateway>,
    workloads: &[TenantWorkload],
    seed: u64,
) -> Vec<TenantFleetReport> {
    let t0 = now();
    let mut tenants = Vec::with_capacity(workloads.len());
    for (wi, w) in workloads.iter().enumerate() {
        let w = *w;
        assert!(w.tasks > 0 && w.pipeline > 0, "degenerate tenant workload");
        assert!(w.logical_clients > 0, "tenant needs a client population");
        w.mix.validate();
        let gateway = gateway.clone();
        // One aggregator per tenant so elapsed time is measured at the
        // moment *this* tenant's last request resolves, not at whatever
        // later point the caller gets around to awaiting it.
        tenants.push(spawn(async move {
            let sampler = Rc::new(KeySampler::new(&w.dist));
            let seen = Rc::new(RefCell::new(vec![
                0u64;
                w.logical_clients.div_ceil(64) as usize
            ]));
            let pace = Pace {
                ops: w.ops_per_task,
                pipeline: w.pipeline,
                gap_ns: w.gap_ns,
                pause_every_ops: w.pause_every_ops,
                pause_ns: w.pause_ns,
            };
            let seen_by_tasks = seen.clone();
            let report = run_clients(
                w.tasks,
                pace,
                t0,
                // Deterministic stagger, distinct across tenants and tasks
                // (same rationale as `run_fleet`).
                |c| t0 + (wi as u64 * 131 + c) * 7_919,
                |c| seed.wrapping_mul(1_000_000) + w.tenant as u64 * 1_000 + c,
                move |rng| {
                    // Attribute the request to one logical client out of
                    // the tenant's population.
                    let client_id = rng.random_range(0..w.logical_clients);
                    seen_by_tasks.borrow_mut()[(client_id / 64) as usize] |= 1 << (client_id % 64);
                    let key = sampler.sample(rng);
                    let op = w.mix.op(rng, key, w.value_bytes, w.scan_len);
                    let gateway = gateway.clone();
                    async move { gateway.call(w.tenant, op).await.map(|_| ()) }
                },
            )
            .await;
            let logical_seen = seen.borrow().iter().map(|b| b.count_ones() as u64).sum();
            TenantFleetReport {
                tenant: w.tenant,
                report,
                logical_seen,
            }
        }));
    }
    let mut out = Vec::with_capacity(tenants.len());
    for t in tenants {
        out.push(t.await);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    use dpdpu_core::TenantSpec;
    use dpdpu_dds::gateway::GatewayConfig;
    use dpdpu_des::block_on;

    use crate::cell::{self, Load, Preload};

    /// The default cluster behind a gateway over `specs`, preloaded with
    /// `keys` default-sized values, under `workloads`.
    fn tenant_cell(
        specs: Vec<TenantSpec>,
        keys: u64,
        workloads: Vec<TenantWorkload>,
    ) -> cell::Cell {
        cell::Cell {
            preload: Preload {
                keys,
                value_bytes: 256,
            },
            load: Load::Tenants(GatewayConfig::new(specs), workloads),
            ..cell::Cell::default()
        }
    }

    /// Drives [`client_loop`] against a scripted in-memory target: every
    /// request sleeps `service_ns`, then resolves by its index (`Ok`,
    /// `Unavailable`, another error, `Ok`, ...). Returns the outcomes, the
    /// launch time of every request relative to the loop's start and the
    /// peak number of requests in flight.
    async fn scripted(pace: Pace, service_ns: Time) -> (Rc<Outcomes>, Vec<Time>, usize) {
        let launches = Rc::new(RefCell::new(Vec::new()));
        let (live, peak) = (Rc::new(Cell::new(0usize)), Rc::new(Cell::new(0usize)));
        let outcomes = Rc::new(Outcomes::default());
        let t0 = now();
        client_loop(pace, 1, outcomes.clone(), |_rng| {
            let i = launches.borrow().len();
            launches.borrow_mut().push(now() - t0);
            let (live, peak) = (live.clone(), peak.clone());
            async move {
                live.set(live.get() + 1);
                peak.set(peak.get().max(live.get()));
                sleep(service_ns).await;
                live.set(live.get() - 1);
                match i % 3 {
                    0 => Ok(()),
                    1 => Err(DpdpuError::Unavailable("scripted shed")),
                    _ => Err(DpdpuError::ConnectionClosed),
                }
            }
        })
        .await;
        let launches = launches.borrow().clone();
        (outcomes, launches, peak.get())
    }

    #[test]
    fn client_loop_windows_paces_and_tallies() {
        block_on(async {
            let steady = Pace {
                ops: 12,
                pipeline: 3,
                ..Pace::default()
            };
            // Closed loop: the window fills, never overflows, and a new
            // request launches the moment a slot frees.
            let (seen, launches, peak) = scripted(steady, 10_000).await;
            assert_eq!(
                peak, 3,
                "in-flight requests must fill but not exceed pipeline"
            );
            let expect: Vec<Time> = (0..12).map(|i| i / 3 * 10_000).collect();
            assert_eq!(launches, expect);
            assert_eq!(
                (seen.ok.get(), seen.shed.get(), seen.errors.get()),
                (4, 4, 4),
                "issued == ok + shed + errors; Unavailable is shed, anything else an error"
            );
            assert_eq!(
                seen.latency.count(),
                4,
                "only completed requests record latency"
            );

            // Open loop: launches follow the clock even though every
            // request outlives several gaps.
            let open = Pace {
                pipeline: 8,
                gap_ns: 1_000,
                ..steady
            };
            let (seen, launches, _) = scripted(open, 5_000).await;
            let expect: Vec<Time> = (0..12).map(|i| i * 1_000).collect();
            assert_eq!(launches, expect);
            assert_eq!(12, seen.ok.get() + seen.shed.get() + seen.errors.get());

            // On/off bursts: four launches, a silent phase, repeat.
            let bursty = Pace {
                pipeline: 4,
                pause_every_ops: 4,
                pause_ns: 100_000,
                ..steady
            };
            let (_, launches, _) = scripted(bursty, 1_000).await;
            let expect: Vec<Time> = (0..12).map(|i| i / 4 * 100_000).collect();
            assert_eq!(launches, expect);
        });
    }

    #[test]
    #[should_panic(expected = "request mix must sum to 100")]
    fn fleet_rejects_a_mix_that_does_not_sum_to_100() {
        let cfg = FleetConfig {
            mix: Mix {
                read_pct: 90,
                update_pct: 5,
                scan_pct: 0,
            },
            ..FleetConfig::default()
        };
        cell::Cell::fleet(cfg).run(42);
    }

    #[test]
    #[should_panic(expected = "would share RNG seeds")]
    fn fleet_rejects_client_counts_that_collide_seeds() {
        let crowded = FleetConfig {
            clients: 1_001,
            ..FleetConfig::default()
        };
        cell::Cell::fleet(crowded).run(42);
    }

    #[test]
    #[should_panic(expected = "would share RNG seeds")]
    fn tenant_fleet_rejects_task_counts_that_collide_seeds() {
        let crowded = TenantWorkload {
            tasks: 1_001,
            ..TenantWorkload::new(0)
        };
        tenant_cell(vec![TenantSpec::latency("kv", 1)], 0, vec![crowded]).run(42);
    }

    #[test]
    fn zipfian_sampler_is_skewed_and_in_range() {
        let dist = KeyDist::Zipfian {
            keys: 64,
            theta: 0.99,
        };
        let sampler = KeySampler::new(&dist);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 64];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let mean = 20_000 / 64;
        assert!(
            max > 4 * mean,
            "zipf(0.99) hot key should dominate: max={max} mean={mean}"
        );
        // The scramble spread the hot set: the top key is not rank 0's
        // neighbour by construction, but every key stays in range
        // (checked by the indexing above).
    }

    #[test]
    fn uniform_sampler_is_flat() {
        let sampler = KeySampler::new(&KeyDist::Uniform { keys: 64 });
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 64];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            max < &(2 * min),
            "uniform draw too lumpy: min={min} max={max}"
        );
    }

    #[test]
    fn fleet_conserves_and_measures() {
        let _check = dpdpu_check::CheckGuard::new();
        let run = cell::Cell::fleet(FleetConfig {
            clients: 4,
            ops_per_client: 16,
            dist: KeyDist::Zipfian {
                keys: 32,
                theta: 0.99,
            },
            mix: Mix {
                read_pct: 80,
                update_pct: 15,
                scan_pct: 5,
            },
            ..FleetConfig::default()
        })
        .run(42);
        let report = run.fleet;
        assert_eq!(report.issued, 64);
        assert_eq!(
            report.issued,
            report.ok + report.shed + report.errors,
            "fleet accounting must balance: {report:?}"
        );
        assert!(report.ok > 0, "nothing completed");
        assert!(report.p99_ns >= report.p50_ns);
        assert!(report.throughput_mops() > 0.0);
        assert_eq!(report.shed, run.shed);
    }

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let run = || {
            let cfg = FleetConfig {
                clients: 3,
                ops_per_client: 12,
                ..FleetConfig::default()
            };
            let r = cell::Cell::fleet(cfg).run(42).fleet;
            (r.issued, r.ok, r.elapsed_ns, r.p50_ns, r.p99_ns)
        };
        assert_eq!(run(), run(), "same seed must reproduce the same run");
    }

    #[test]
    fn tenant_fleet_conserves_and_tracks_logical_clients() {
        let _check = dpdpu_check::CheckGuard::new();
        let kv = TenantWorkload {
            logical_clients: 10_000,
            tasks: 3,
            ops_per_task: 16,
            dist: KeyDist::Uniform { keys: 64 },
            ..TenantWorkload::new(0)
        };
        let scan = TenantWorkload {
            tasks: 1,
            ops_per_task: 4,
            dist: KeyDist::Uniform { keys: 64 },
            mix: Mix {
                read_pct: 0,
                update_pct: 0,
                scan_pct: 100,
            },
            pause_every_ops: 2,
            pause_ns: 50_000,
            ..TenantWorkload::new(1)
        };
        let specs = vec![TenantSpec::latency("kv", 4), TenantSpec::batch("scan", 1)];
        let run = tenant_cell(specs, 64, vec![kv, scan]).run(42);
        let reports = &run.tenants;
        assert_eq!(reports.len(), 2);
        for r in reports {
            assert_eq!(
                r.report.issued,
                r.report.ok + r.report.shed + r.report.errors,
                "tenant {} accounting must balance: {r:?}",
                r.tenant
            );
            assert!(r.logical_seen > 0 && r.logical_seen <= r.report.issued);
        }
        assert_eq!(reports[0].report.issued, 48);
        assert_eq!(reports[1].report.issued, 4);
        // Gateway snapshots agree with the fleet's view.
        let snap = &run.snapshots[0];
        assert_eq!(snap.issued, 48);
        assert_eq!(snap.ok, reports[0].report.ok);
    }

    #[test]
    fn tenant_fleet_is_deterministic_per_seed() {
        let run = || {
            let specs = vec![TenantSpec::latency("a", 2), TenantSpec::latency("b", 1)];
            let wl = |t: usize| TenantWorkload {
                tasks: 2,
                ops_per_task: 10,
                dist: KeyDist::Uniform { keys: 32 },
                ..TenantWorkload::new(t)
            };
            let reports = tenant_cell(specs, 32, vec![wl(0), wl(1)]).run(7).tenants;
            (
                reports[0].report.elapsed_ns,
                reports[0].report.p99_ns,
                reports[0].logical_seen,
                reports[1].report.elapsed_ns,
                reports[1].report.p99_ns,
                reports[1].logical_seen,
            )
        };
        assert_eq!(run(), run(), "same seed must reproduce the same run");
    }

    #[test]
    fn open_loop_gap_paces_batches() {
        let report = cell::Cell::fleet(FleetConfig {
            clients: 1,
            ops_per_client: 8,
            pipeline: 2,
            gap_ns: 1_000_000, // 1 ms between batch launches
            ..FleetConfig::default()
        })
        .run(42)
        .fleet;
        // 4 batches, three 1 ms inter-batch gaps minimum.
        assert!(
            report.elapsed_ns >= 3_000_000,
            "open-loop clock ignored: elapsed={}ns",
            report.elapsed_ns
        );
    }
}
