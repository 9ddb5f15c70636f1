//! Multi-tenant gateway tier with per-tenant QoS in front of the
//! cluster.
//!
//! Hyperscale gateways terminate millions of client connections on DPUs
//! and schedule the shared data path underneath them; the [`Gateway`]
//! reproduces that tier in front of a
//! [`DdsCluster`](crate::cluster::DdsCluster). Every request is
//! authenticated to a tenant — the index of its [`TenantSpec`] in
//! [`GatewayConfig::tenants`] — and labeled with the tenant's SLO class,
//! then passes three stages:
//!
//! 1. **Admission** — a per-tenant token bucket (sustained rate +
//!    burst) and an in-flight cap, both from the tenant's
//!    [`TenantSpec`]. Requests over either limit are shed immediately
//!    with [`DpdpuError::Unavailable`] — the gateway protects the
//!    cluster by refusing work, not by queueing unboundedly.
//! 2. **Weighted-fair scheduling** — admitted requests queue per
//!    tenant; a deficit-round-robin dispatcher ([`dpdpu_des::Drr`])
//!    releases them toward the shard fabric in proportion to the
//!    tenants' weights whenever a dispatch slot (the DPU-side
//!    concurrency budget) frees. The dispatcher is work-conserving: no
//!    slot stays idle while any tenant queue is non-empty.
//! 3. **Dispatch** — the request runs through the routed
//!    [`ClusterClient`] (ring lookup, shard admission, fabric), and its
//!    end-to-end latency (queueing included) lands in the tenant's
//!    histogram.
//!
//! Conservation is enforced by `dpdpu-check`: per tenant, issued ==
//! ok + shed + failed (`tenant-conservation`), and every dispatch
//! toward the fabric must carry a scheduler grant (`qos-isolation` —
//! a bypass path is flagged at the offending event).
//!
//! For the known-sensitive isolation gate, [`GatewayConfig::unfair`]
//! puts every tenant in one DRR class (a single arrival-order FIFO) and
//! disables the admission limits; `tests/qos_isolation.rs` proves the
//! isolation assertions *fail* in that mode.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dpdpu_check::{Exit, Flow};
use dpdpu_core::{DpdpuError, SloClass, TenantSpec};
use dpdpu_des::{now, oneshot, spawn, Drr, Histogram, OneshotSender, Semaphore, Site};

use crate::cluster::ClusterClient;
use crate::proto::{Op, Reply};

/// Fixed per-request overhead charged to the DRR deficit (framing +
/// routing), so even zero-payload ops cost scheduler credit.
const REQUEST_OVERHEAD_BYTES: u64 = 64;

/// Estimated bytes returned per scanned row; scans are charged up
/// front (DRR needs the cost before the rows exist).
const SCAN_ROW_BYTES: u64 = 256;

/// DRR quantum in cost bytes added per queue visit (scaled by the
/// tenant's weight).
const QUANTUM_BYTES: u64 = 4096;

/// Gateway shape: the tenant set plus the scheduler knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// The tenants. A tenant is its index here: [`Gateway::call`] and
    /// [`Gateway::snapshot`] take that index.
    pub tenants: Vec<TenantSpec>,
    /// DPU-side dispatch concurrency: requests in flight toward the
    /// cluster at once, across all tenants.
    pub dispatch_slots: usize,
    /// `true` (default) = per-tenant DRR + admission limits. `false` =
    /// one arrival-order FIFO with limits off — the known-bad baseline
    /// the isolation test matrix proves is *not* isolating.
    pub fair: bool,
}

impl GatewayConfig {
    /// A fair gateway over `tenants` with the default scheduler knobs.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        assert!(!tenants.is_empty(), "gateway needs at least one tenant");
        GatewayConfig {
            tenants,
            dispatch_slots: 32,
            fair: true,
        }
    }

    /// Disables weighted-fair queueing and the admission limits:
    /// requests dispatch in pure arrival order. Exists so tests can
    /// demonstrate the isolation failure this gateway prevents.
    pub fn unfair(mut self) -> Self {
        self.fair = false;
        self
    }
}

/// The gateway's scheduler is the workspace-wide [`dpdpu_des::Drr`];
/// the old name stays because `benchmark/` (its own workspace) imports it.
pub use dpdpu_des::Drr as DrrScheduler;

/// DRR cost of one op in bytes, known before it runs.
fn drr_cost(op: &Op) -> u64 {
    REQUEST_OVERHEAD_BYTES
        + match op {
            Op::KvPut { value, .. } => value.len() as u64,
            Op::KvScan { count, .. } => SCAN_ROW_BYTES * *count as u64,
            _ => 0,
        }
}

struct Job {
    tenant: usize,
    op: Op,
    done: OneshotSender<Result<Reply, DpdpuError>>,
}

/// Live state for one tenant.
struct TenantState {
    spec: TenantSpec,
    /// `spec.name` interned: the key of the tenant's conformance ledger.
    site: Site,
    /// Token bucket: fractional tokens plus the last refill instant.
    tokens: Cell<f64>,
    refilled_at: Cell<u64>,
    in_flight: Cell<usize>,
    issued: Cell<u64>,
    ok: Cell<u64>,
    shed: Cell<u64>,
    errors: Cell<u64>,
    latency: Histogram,
}

impl TenantState {
    fn new(spec: TenantSpec) -> Self {
        let burst = spec.burst_ops as f64;
        TenantState {
            site: Site::new(&spec.name),
            spec,
            tokens: Cell::new(burst),
            refilled_at: Cell::new(0),
            in_flight: Cell::new(0),
            issued: Cell::new(0),
            ok: Cell::new(0),
            shed: Cell::new(0),
            errors: Cell::new(0),
            latency: Histogram::new(),
        }
    }

    /// Refills the bucket for the virtual time elapsed since the last
    /// refill, capped at the burst depth, then tries to take one token.
    fn take_token(&self) -> bool {
        if self.spec.rate_ops_per_sec == 0 {
            return true;
        }
        let t = now();
        let elapsed = t - self.refilled_at.get();
        self.refilled_at.set(t);
        let refill = elapsed as f64 * self.spec.rate_ops_per_sec as f64 / 1e9;
        let tokens = (self.tokens.get() + refill).min(self.spec.burst_ops as f64);
        if tokens < 1.0 {
            self.tokens.set(tokens);
            return false;
        }
        self.tokens.set(tokens - 1.0);
        true
    }
}

/// Point-in-time per-tenant accounting, for tables and assertions.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// Tenant name (stable label).
    pub name: String,
    /// SLO class the tenant's requests are labeled with.
    pub slo: SloClass,
    /// Requests entering the gateway under this tenant.
    pub issued: u64,
    /// Requests completed successfully.
    pub ok: u64,
    /// Requests shed — by the gateway's admission or downstream.
    pub shed: u64,
    /// Requests failed with a non-shed error.
    pub errors: u64,
    /// Median end-to-end latency (queueing included), ns.
    pub p50_ns: u64,
    /// 99th-percentile end-to-end latency, ns.
    pub p99_ns: u64,
}

impl TenantSnapshot {
    /// One stable summary line (used by the `gateway_tenants` scenario).
    pub fn summary(&self) -> String {
        format!(
            "tenant={} slo={} issued={} ok={} shed={} errors={} p50_us={:.1} p99_us={:.1}",
            self.name,
            self.slo.label(),
            self.issued,
            self.ok,
            self.shed,
            self.errors,
            self.p50_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3,
        )
    }
}

/// The gateway tier. See the module docs for the three-stage pipeline.
pub struct Gateway {
    client: Rc<ClusterClient>,
    tenants: Vec<TenantState>,
    queues: RefCell<Drr<Job>>,
    slots: Semaphore,
    dispatching: Cell<bool>,
    fair: bool,
}

impl Gateway {
    /// Fronts a connected cluster client with a gateway over the
    /// configured tenants.
    pub fn front(client: Rc<ClusterClient>, config: GatewayConfig) -> Rc<Self> {
        // Unfair mode is the same scheduler with every tenant in one
        // class, i.e. a single arrival-order FIFO.
        let weights: Vec<u64> = if config.fair {
            config.tenants.iter().map(|t| t.weight).collect()
        } else {
            vec![1]
        };
        let queues = Drr::new(&weights, QUANTUM_BYTES);
        Rc::new(Gateway {
            client,
            tenants: config.tenants.into_iter().map(TenantState::new).collect(),
            queues: RefCell::new(queues),
            slots: Semaphore::new_labeled("gateway.dispatch", config.dispatch_slots),
            dispatching: Cell::new(false),
            fair: config.fair,
        })
    }

    /// Requests queued behind the scheduler right now.
    pub fn queued(&self) -> usize {
        self.queues.borrow().len()
    }

    /// Per-tenant accounting snapshot. Panics on a tenant the gateway
    /// was not configured with.
    pub fn snapshot(&self, tenant: usize) -> TenantSnapshot {
        assert!(tenant < self.tenants.len(), "unknown tenant {tenant}");
        let t = &self.tenants[tenant];
        TenantSnapshot {
            name: t.spec.name.clone(),
            slo: t.spec.slo,
            issued: t.issued.get(),
            ok: t.ok.get(),
            shed: t.shed.get(),
            errors: t.errors.get(),
            p50_ns: t.latency.p50().unwrap_or(0),
            p99_ns: t.latency.p99().unwrap_or(0),
        }
    }

    /// The one labeled entry point: authenticate → admit → queue → await
    /// the dispatched result of `op` (a KV get, put or scan) for `tenant`.
    pub async fn call(self: &Rc<Self>, tenant: usize, op: Op) -> Result<Reply, DpdpuError> {
        let Some(state) = self.tenants.get(tenant) else {
            // Not a label loss: an unknown tenant never enters the
            // accounted pipeline at all.
            return Err(DpdpuError::Unavailable("unknown tenant"));
        };
        let t0 = now();
        let cost = drr_cost(&op);
        let name = &state.spec.name;
        let slo = state.spec.slo.label();
        state.issued.set(state.issued.get() + 1);
        dpdpu_check::flow_in(Flow::Tenant, state.site, cost);
        dpdpu_telemetry::count("gateway_requests", &[("tenant", name), ("slo", slo)]);
        if self.fair {
            if !state.take_token() {
                return Err(self.shed(state, cost, "tenant rate limit"));
            }
            if state.spec.max_in_flight > 0 && state.in_flight.get() >= state.spec.max_in_flight {
                return Err(self.shed(state, cost, "tenant in-flight cap"));
            }
        }
        state.in_flight.set(state.in_flight.get() + 1);
        let (tx, rx) = oneshot();
        self.queues.borrow_mut().enqueue(
            if self.fair { tenant } else { 0 },
            cost,
            Job {
                tenant,
                op,
                done: tx,
            },
        );
        self.ensure_dispatcher();
        // The dispatcher owns the sender; a drop without a send would
        // mean a request vanished, which tenant-conservation forbids.
        let result = rx
            .await
            .unwrap_or(Err(DpdpuError::Unavailable("gateway shutdown")));
        state.in_flight.set(state.in_flight.get() - 1);
        match &result {
            Ok(_) => {
                state.ok.set(state.ok.get() + 1);
                state.latency.record(now() - t0);
                if let Some(h) = dpdpu_telemetry::histogram("gateway_latency", &[("tenant", name)])
                {
                    h.record(now() - t0);
                }
                dpdpu_check::flow_out(Flow::Tenant, state.site, Exit::Ok, cost);
            }
            Err(DpdpuError::Unavailable(_)) => {
                // Downstream shed (shard admission window): the tenant
                // still sees it as shed load.
                state.shed.set(state.shed.get() + 1);
                dpdpu_telemetry::count("gateway_shed", &[("tenant", name)]);
                dpdpu_check::flow_out(Flow::Tenant, state.site, Exit::Shed, cost);
            }
            Err(_) => {
                state.errors.set(state.errors.get() + 1);
                dpdpu_check::flow_out(Flow::Tenant, state.site, Exit::Failed, cost);
            }
        }
        result
    }

    /// Records a gateway-side shed and returns the error to surface.
    fn shed(&self, state: &TenantState, cost: u64, reason: &'static str) -> DpdpuError {
        state.shed.set(state.shed.get() + 1);
        dpdpu_check::flow_out(Flow::Tenant, state.site, Exit::Shed, cost);
        dpdpu_telemetry::count("gateway_shed", &[("tenant", &state.spec.name)]);
        DpdpuError::Unavailable(reason)
    }

    /// Spawns the dispatch loop if it is not already running. The loop
    /// exits when the queues drain; the next enqueue restarts it (push
    /// happens before this call, so a wakeup can never be lost).
    fn ensure_dispatcher(self: &Rc<Self>) {
        if self.dispatching.replace(true) {
            return;
        }
        let gw = self.clone();
        spawn(async move {
            gw.dispatch_loop().await;
        });
    }

    /// Work-conserving dispatch: while anything is queued, wait for a
    /// DPU slot, pick the next request in scheduler order, and run it
    /// concurrently (the slot frees when the cluster call completes).
    async fn dispatch_loop(self: Rc<Self>) {
        loop {
            if self.queues.borrow().is_empty() {
                self.dispatching.set(false);
                return;
            }
            let permit = self.slots.acquire().await;
            let Some((_, _, job)) = self.queues.borrow_mut().pick() else {
                drop(permit);
                continue;
            };
            let tenant = self.tenants[job.tenant].site;
            // Grant and dispatch are adjacent by construction; the
            // qos-isolation invariant exists to catch any *other* path
            // reaching the fabric without passing this point.
            dpdpu_check::flow_in(Flow::Qos, tenant, 0);
            dpdpu_check::flow_out(Flow::Qos, tenant, Exit::Ok, 0);
            let gw = self.clone();
            spawn(async move {
                let result = gw.client.call(job.op).await;
                let _ = job.done.send(result);
                drop(permit);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use bytes::Bytes;
    use dpdpu_des::block_on;
    use dpdpu_hw::CpuPool;

    use crate::cluster::{ClusterConfig, DdsCluster};

    /// Seeds key 1.
    fn put_v() -> Op {
        Op::KvPut {
            key: 1,
            value: Bytes::from_static(b"v"),
        }
    }

    async fn small_gateway(config: GatewayConfig) -> Rc<Gateway> {
        let cluster = DdsCluster::build(ClusterConfig {
            shards: 2,
            ..ClusterConfig::default()
        })
        .await;
        let client = cluster.connect(CpuPool::new("gw-client", 32, 3_000_000_000));
        Gateway::front(client, config)
    }

    #[test]
    fn gateway_routes_and_accounts_per_tenant() {
        let _check = dpdpu_check::CheckGuard::new();
        block_on(async {
            let gw = small_gateway(GatewayConfig::new(vec![
                TenantSpec::latency("kv", 4),
                TenantSpec::batch("scan", 2),
            ]))
            .await;
            for key in 0..16u64 {
                let value = Bytes::from(vec![key as u8; 64]);
                gw.call(0, Op::KvPut { key, value }).await.expect("put");
            }
            for key in 0..16u64 {
                let v = gw.call(0, Op::KvGet { key }).await.expect("get");
                assert_eq!(v, Reply::Data(Bytes::from(vec![key as u8; 64])));
            }
            let scan = Op::KvScan {
                start_key: 0,
                count: 8,
            };
            let rows = gw.call(1, scan).await.expect("scan").rows();
            assert_eq!(rows.len(), 8);
            let kv = gw.snapshot(0);
            assert_eq!((kv.issued, kv.ok, kv.shed, kv.errors), (32, 32, 0, 0));
            assert!(kv.p99_ns >= kv.p50_ns && kv.p50_ns > 0);
            let scan = gw.snapshot(1);
            assert_eq!((scan.issued, scan.ok), (1, 1));
            assert_eq!(gw.queued(), 0, "drained gateway holds nothing");
        });
    }

    #[test]
    fn unknown_tenant_is_rejected_before_accounting() {
        let _check = dpdpu_check::CheckGuard::new();
        block_on(async {
            let gw = small_gateway(GatewayConfig::new(vec![TenantSpec::latency("kv", 1)])).await;
            let err = gw.call(7, Op::KvGet { key: 1 }).await.unwrap_err();
            assert_eq!(err, DpdpuError::Unavailable("unknown tenant"));
        });
    }

    #[test]
    #[should_panic(expected = "unknown tenant")]
    fn snapshot_of_an_undeclared_tenant_names_the_fault() {
        block_on(async {
            let gw = small_gateway(GatewayConfig::new(vec![TenantSpec::latency("kv", 1)])).await;
            gw.snapshot(1);
        });
    }

    #[test]
    fn token_bucket_sheds_over_rate_traffic() {
        let _check = dpdpu_check::CheckGuard::new();
        block_on(async {
            // 4 ops of burst, then ~1 op/ms of refill: a 32-op burst at
            // t=0 must shed most of itself.
            let gw = small_gateway(GatewayConfig::new(vec![
                TenantSpec::latency("storm", 1).rate(1_000_000, 4)
            ]))
            .await;
            gw.call(0, put_v()).await.expect("first op rides the burst");
            // Fire the storm at a single instant: no virtual time passes
            // between admissions, so the bucket cannot refill mid-burst.
            let mut handles = Vec::new();
            for _ in 0..31 {
                let gw = gw.clone();
                handles.push(spawn(async move { gw.call(0, Op::KvGet { key: 1 }).await }));
            }
            let mut ok = 0u64;
            let mut shed = 0u64;
            for h in handles {
                match h.await {
                    Ok(_) => ok += 1,
                    Err(DpdpuError::Unavailable("tenant rate limit")) => shed += 1,
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
            assert!(shed > 0, "over-rate burst must shed (ok={ok} shed={shed})");
            let snap = gw.snapshot(0);
            assert_eq!(snap.issued, snap.ok + snap.shed + snap.errors);
        });
    }

    #[test]
    fn in_flight_cap_sheds_excess_concurrency() {
        let _check = dpdpu_check::CheckGuard::new();
        block_on(async {
            let gw = small_gateway(GatewayConfig::new(vec![
                TenantSpec::latency("capped", 1).in_flight(2)
            ]))
            .await;
            gw.call(0, put_v()).await.expect("seed");
            let mut handles = Vec::new();
            for _ in 0..16 {
                let gw = gw.clone();
                handles.push(spawn(async move { gw.call(0, Op::KvGet { key: 1 }).await }));
            }
            let mut shed = 0u64;
            for h in handles {
                if let Err(DpdpuError::Unavailable("tenant in-flight cap")) = h.await {
                    shed += 1;
                }
            }
            assert!(shed > 0, "16 concurrent ops over a cap of 2 must shed");
        });
    }

    #[test]
    fn unfair_mode_still_conserves_every_request() {
        let _check = dpdpu_check::CheckGuard::new();
        block_on(async {
            let gw = small_gateway(
                GatewayConfig::new(vec![
                    TenantSpec::latency("a", 1).rate(10, 1),
                    TenantSpec::latency("b", 1).in_flight(1),
                ])
                .unfair(),
            )
            .await;
            gw.call(0, put_v())
                .await
                .expect("limits are off in unfair mode");
            // Rate limit and cap are disabled: everything dispatches.
            let mut handles = Vec::new();
            for _ in 0..8 {
                let gw = gw.clone();
                handles.push(spawn(async move { gw.call(1, Op::KvGet { key: 1 }).await }));
            }
            for h in handles {
                h.await.expect("no caps in unfair mode");
            }
            let a = gw.snapshot(0);
            let b = gw.snapshot(1);
            assert_eq!(a.issued, a.ok + a.shed + a.errors);
            assert_eq!((b.issued, b.ok), (8, 8));
        });
    }

    #[test]
    fn gateway_is_deterministic_per_run() {
        let run = || {
            let _check = dpdpu_check::CheckGuard::new();
            block_on(async move {
                let gw = small_gateway(GatewayConfig::new(vec![
                    TenantSpec::latency("kv", 2),
                    TenantSpec::batch("scan", 1),
                ]))
                .await;
                for key in 0..8u64 {
                    let value = Bytes::from(vec![1u8; 32]);
                    gw.call(0, Op::KvPut { key, value }).await.expect("put");
                }
                let mut handles = Vec::new();
                for key in 0..8u64 {
                    let gw1 = gw.clone();
                    handles.push(spawn(async move {
                        gw1.call(0, Op::KvGet { key }).await.map(|_| ())
                    }));
                    let gw2 = gw.clone();
                    handles.push(spawn(async move {
                        let scan = Op::KvScan {
                            start_key: key,
                            count: 4,
                        };
                        gw2.call(1, scan).await.map(|_| ())
                    }));
                }
                for h in handles {
                    h.await.expect("op");
                }
                (now(), gw.snapshot(0).p99_ns, gw.snapshot(1).p99_ns)
            })
        };
        assert_eq!(run(), run(), "same inputs must replay identically");
    }
}
