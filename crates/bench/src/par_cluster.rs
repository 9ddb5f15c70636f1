//! Domain-partitioned DDS cluster on the time-domain simulation core.
//!
//! The serial cluster model ([`dpdpu_dds::cluster`]) puts every shard
//! platform inside one `Sim`, so a 64-server fleet is one giant event
//! heap on one core. This module partitions the same shape across
//! [`dpdpu_des::DomainSet`] time domains: each domain owns one tagged
//! DDS platform plus its local client fleet, and cross-shard requests
//! ride epoch-stamped inter-domain links whose latency *is* the
//! conservative lookahead ([`NetConfig::lookahead_ns`] — the physical
//! link's propagation floor, which no queueing can undercut).
//!
//! Every domain installs its own [`Telemetry`] and
//! [`dpdpu_check::CheckSession`], swapped in and out around each
//! execution slice by the run's domain hooks, so probe streams never interleave
//! across domains. Each domain formats its own events once, at teardown,
//! into a [`dpdpu_telemetry::TracePart`]; the parts — formatted lines
//! plus a (start ns, byte range) index, not JSON text to re-read — are
//! merged deterministically by (virtual time, domain index, event index)
//! via [`dpdpu_telemetry::merge_traces`], and the whole run — summary lines,
//! conformance reports, merged trace — is a pure function of
//! (configuration, seed), which the `par_cluster` golden and the
//! determinism auditor enforce.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use dpdpu_check::CheckGuard;
use dpdpu_core::DpdpuError;
use dpdpu_dds::cluster::HashRing;
use dpdpu_dds::kv::INDEX_ENTRY_BYTES;
use dpdpu_dds::proto::{Op, Reply};
use dpdpu_dds::server::{Dds, DdsConfig};
use dpdpu_des::probe::{self, Guard, Session};
use dpdpu_des::{
    oneshot, spawn, DomainHooks, DomainSet, OneshotSender, Sim, Time, XReceiver, XSender,
};
use dpdpu_hw::{CpuPool, DpuSpec, HostSpec, Platform};
use dpdpu_net::fabric::Endpoint;
use dpdpu_net::NetConfig;
use dpdpu_telemetry::{merge_traces, Telemetry, TracePart};

use crate::fleet::{preload_keys, run_clients, FleetReport, KeyDist, KeySampler, Mix, Pace};

/// Virtual time at which every domain's clients start issuing: far
/// enough past t=0 that each domain's local preload (a handful of puts,
/// microseconds of virtual time) has certainly quiesced fleet-wide.
const CLIENT_START_NS: Time = 2_000_000;

/// Shape of the partitioned cluster and its workload.
#[derive(Debug, Clone, Copy)]
pub struct ParClusterConfig {
    /// Shard platforms — one time domain each.
    pub domains: usize,
    /// Load-generating clients co-resident in each domain.
    pub clients_per_domain: usize,
    /// Requests each client issues.
    pub ops_per_client: u64,
    /// Keys per domain; the global population is `domains *
    /// keys_per_domain`, partitioned by consistent hashing.
    pub keys_per_domain: u64,
    /// Value payload size.
    pub value_bytes: usize,
    /// Percentage of reads (the rest are updates).
    pub read_pct: u32,
    /// Per-client in-flight window.
    pub pipeline: usize,
    /// Virtual nodes per shard on the routing ring.
    pub vnodes: usize,
    /// Seeds every client RNG.
    pub seed: u64,
}

impl Default for ParClusterConfig {
    fn default() -> Self {
        ParClusterConfig {
            domains: 4,
            clients_per_domain: 4,
            ops_per_client: 32,
            keys_per_domain: 16,
            value_bytes: 128,
            read_pct: 80,
            pipeline: 4,
            vnodes: 32,
            seed: 42,
        }
    }
}

/// A cross-domain request: served by the key's owning domain against
/// its local DDS server, answered on the paired response link.
struct ParReq {
    req_id: u64,
    write: bool,
    key: u64,
    value: Vec<u8>,
}

/// The answer to a [`ParReq`]: `ok` means the operation succeeded (and,
/// for reads, found the key).
struct ParResp {
    req_id: u64,
    ok: bool,
}

/// One domain's cross-domain endpoints, indexed by peer domain.
struct Ports {
    req_out: Vec<Option<XSender<ParReq>>>,
    req_in: Vec<(usize, XReceiver<ParReq>)>,
    resp_out: Vec<Option<XSender<ParResp>>>,
    resp_in: Vec<(usize, XReceiver<ParResp>)>,
}

/// What one domain publishes at teardown.
struct DomainOut {
    line: String,
    report: String,
    /// The domain's events, formatted at its teardown with pids and
    /// device names already in its merge namespace.
    trace: TracePart,
    polls: u64,
    /// The local fleet's report; `elapsed_ns` is measured from t=0, i.e.
    /// it is the domain's clock when its last request resolved.
    fleet: FleetReport,
    /// Requests the local fleet routed to a peer domain.
    remote: u64,
}

/// Binds a domain's telemetry and conformance sessions to its execution
/// slices, and exports everything observable at teardown.
struct ParHooks {
    domain: usize,
    telemetry: Guard<Telemetry>,
    check: CheckGuard,
    /// The domain's session while another domain's is in the slot.
    parked: Session,
    fleet: Rc<Cell<Option<(FleetReport, u64)>>>,
    out: Arc<Mutex<Option<DomainOut>>>,
    polls: u64,
}

impl DomainHooks for ParHooks {
    fn enter(&mut self) {
        probe::swap(&mut self.parked);
    }

    fn exit(&mut self) {
        probe::swap(&mut self.parked);
    }

    fn before_teardown(&mut self, sim: &Sim) {
        self.polls = sim.polls();
    }

    fn finish(self: Box<Self>) {
        let violations = self.check.session().finish();
        let report = self.check.session().report();
        assert!(
            violations.is_empty(),
            "domain pd{}: conformance violations — {report}",
            self.domain
        );
        let (fleet, remote) = self
            .fleet
            .get()
            .expect("domain root runs its fleet to completion");
        let line = format!(
            "domain=pd{} issued={} ok={} errors={} local={} remote={} \
             p50_us={:.1} p99_us={:.1} end_us={}",
            self.domain,
            fleet.issued,
            fleet.ok,
            fleet.shed + fleet.errors,
            fleet.issued - remote,
            remote,
            fleet.p50_ns as f64 / 1e3,
            fleet.p99_ns as f64 / 1e3,
            fleet.elapsed_ns / 1_000,
        );
        *self.out.lock().unwrap_or_else(|e| e.into_inner()) = Some(DomainOut {
            line,
            report,
            trace: self
                .telemetry
                .trace_part(self.domain, &format!("pd{}", self.domain)),
            polls: self.polls,
            fleet,
            remote,
        });
        // The guards drop here, entered, and empty the slot.
    }
}

/// Everything observable about one partitioned-cluster run.
pub struct ParRun {
    /// Per-domain summary + conformance lines, domain order.
    pub stdout: String,
    /// Deterministically merged Chrome trace across all domains.
    pub trace: String,
    /// Final virtual time per domain.
    pub finals: Vec<Time>,
    /// Total task polls across every domain (the events/s numerator).
    pub polls: u64,
    /// Requests issued fleet-wide.
    pub issued: u64,
    /// Requests completed successfully fleet-wide.
    pub ok: u64,
    /// Cross-domain requests fleet-wide.
    pub remote: u64,
    /// Latest domain clock at quiesce, ns.
    pub elapsed_ns: u64,
    /// Mean of the per-domain median latencies, ns.
    pub mean_p50_ns: u64,
    /// Worst per-domain p99 latency, ns.
    pub max_p99_ns: u64,
}

/// Runs the partitioned cluster. The output is a pure function of `cfg`.
///
/// `jobs` is ignored (the domains always share one thread); it is kept
/// only because the `benchmark/` crate still passes it.
pub fn run_par(cfg: ParClusterConfig, jobs: usize) -> ParRun {
    assert!(cfg.domains >= 2, "partitioning needs at least two domains");
    assert!(
        cfg.clients_per_domain > 0 && cfg.pipeline > 0,
        "degenerate workload"
    );
    // Client `c` of domain `d` seeds from `seed * 1000 + d * 64 + c`.
    assert!(
        cfg.clients_per_domain <= 64,
        "more than 64 clients per domain would share RNG seeds"
    );
    let mix = Mix {
        read_pct: cfg.read_pct,
        update_pct: 100u32.saturating_sub(cfg.read_pct),
        scan_pct: 0,
    };
    mix.validate();
    let lookahead = NetConfig::default().lookahead_ns();
    let ring = HashRing::new(cfg.domains, cfg.vnodes);
    let mut set = DomainSet::new();
    let ids: Vec<usize> = (0..cfg.domains)
        .map(|d| set.add_domain(format!("pd{d}")))
        .collect();
    let mut ports: Vec<Ports> = (0..cfg.domains)
        .map(|_| Ports {
            req_out: (0..cfg.domains).map(|_| None).collect(),
            req_in: Vec::new(),
            resp_out: (0..cfg.domains).map(|_| None).collect(),
            resp_in: Vec::new(),
        })
        .collect();
    for i in 0..cfg.domains {
        for j in 0..cfg.domains {
            if i == j {
                continue;
            }
            let (tx, rx) = set.link::<ParReq>(ids[i], ids[j], lookahead);
            ports[i].req_out[j] = Some(tx);
            ports[j].req_in.push((i, rx));
            let (tx, rx) = set.link::<ParResp>(ids[i], ids[j], lookahead);
            ports[i].resp_out[j] = Some(tx);
            ports[j].resp_in.push((i, rx));
        }
    }
    let slots: Vec<Arc<Mutex<Option<DomainOut>>>> = (0..cfg.domains)
        .map(|_| Arc::new(Mutex::new(None)))
        .collect();
    for (d, port) in ports.into_iter().enumerate() {
        let ring = ring.clone();
        let out = slots[d].clone();
        set.set_root(ids[d], move || {
            // Sessions first, then the Sim, so the executor epoch and
            // every setup-time probe land inside this domain's sessions.
            let telemetry = Telemetry::install();
            let check = CheckGuard::collecting();
            let fleet = Rc::new(Cell::new(None));
            let sim = Sim::new();
            sim.spawn(domain_root(d, cfg, mix, ring, port, fleet.clone()));
            let hooks = ParHooks {
                domain: d,
                telemetry,
                check,
                parked: Session::default(),
                fleet,
                out,
                polls: 0,
            };
            (sim, Box::new(hooks) as Box<dyn DomainHooks>)
        });
    }
    let finals = set.run(jobs);
    let outs: Vec<DomainOut> = slots
        .iter()
        .map(|s| {
            s.lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("every domain publishes its output at teardown")
        })
        .collect();
    let mut stdout = String::new();
    for out in &outs {
        let _ = writeln!(stdout, "{}", out.line);
        let _ = writeln!(stdout, "{}", out.report);
    }
    let n = outs.len() as u64;
    ParRun {
        stdout,
        trace: merge_traces(outs.iter().map(|o| &o.trace)),
        polls: outs.iter().map(|o| o.polls).sum(),
        issued: outs.iter().map(|o| o.fleet.issued).sum(),
        ok: outs.iter().map(|o| o.fleet.ok).sum(),
        remote: outs.iter().map(|o| o.remote).sum(),
        elapsed_ns: finals.iter().copied().max().unwrap_or(0),
        mean_p50_ns: outs.iter().map(|o| o.fleet.p50_ns).sum::<u64>() / n.max(1),
        max_p99_ns: outs.iter().map(|o| o.fleet.p99_ns).max().unwrap_or(0),
        finals,
    }
}

/// One domain's root: platform + DDS server + local client, ingress
/// service for peer requests, response dispatch, and the local fleet.
async fn domain_root(
    d: usize,
    cfg: ParClusterConfig,
    mix: Mix,
    ring: HashRing,
    ports: Ports,
    out: Rc<Cell<Option<(FleetReport, u64)>>>,
) {
    let total_keys = cfg.domains as u64 * cfg.keys_per_domain;
    let platform = Platform::new_tagged(
        HostSpec::epyc(),
        DpuSpec::bluefield2(),
        &format!("pnode{d}"),
    );
    if let Some(t) = Telemetry::current() {
        platform.register_telemetry(&t);
    }
    let dds = Dds::build(
        platform.clone(),
        DdsConfig {
            kv_index_budget: 2 * total_keys * INDEX_ENTRY_BYTES,
            ..DdsConfig::default()
        },
    )
    .await;
    let local = dds.connect(
        &NetConfig::default(),
        &Endpoint::host(CpuPool::new(format!("parfleet{d}"), 16, 3_000_000_000)),
        &format!("pd{d}-local"),
    );

    // Preload the keys this domain owns; every domain does the same at
    // its own t≈0, so by CLIENT_START_NS the whole population exists.
    preload_keys(
        (0..total_keys).filter(|&key| ring.shard_for(key) == d),
        cfg.value_bytes,
        |key, value| local.kv_put(key, value),
    )
    .await;

    // Ingress: serve each peer's requests against the local DDS and
    // answer on the paired response link. The loops park forever once
    // traffic drains; the executor drops them at teardown.
    let mut resp_out = ports.resp_out;
    for (src, mut rx) in ports.req_in {
        let back = resp_out[src].take().expect("response link to peer");
        let local = local.clone();
        spawn(async move {
            loop {
                let req = rx.recv().await;
                let local = local.clone();
                let back = back.clone();
                spawn(async move {
                    let ok = if req.write {
                        local.kv_put(req.key, Bytes::from(req.value)).await.is_ok()
                    } else {
                        matches!(local.kv_get(req.key).await, Ok(Some(_)))
                    };
                    back.send(ParResp {
                        req_id: req.req_id,
                        ok,
                    });
                });
            }
        });
    }

    // Response dispatch: resolve each answer to its waiting oneshot.
    let pending: Rc<RefCell<HashMap<u64, OneshotSender<ParResp>>>> =
        Rc::new(RefCell::new(HashMap::new()));
    for (_src, mut rx) in ports.resp_in {
        let pending = pending.clone();
        spawn(async move {
            loop {
                let resp = rx.recv().await;
                if let Some(tx) = pending.borrow_mut().remove(&resp.req_id) {
                    let _ = tx.send(resp);
                }
            }
        });
    }

    let req_out = Rc::new(ports.req_out);
    // Doubles as the count of requests this domain routed to a peer.
    let next_id = Rc::new(Cell::new(0u64));
    let remote = next_id.clone();
    let sampler = Rc::new(KeySampler::new(&KeyDist::Uniform { keys: total_keys }));
    let pace = Pace {
        ops: cfg.ops_per_client,
        pipeline: cfg.pipeline,
        ..Pace::default()
    };
    let report = run_clients(
        cfg.clients_per_domain,
        pace,
        0,
        // Fixed global start plus a deterministic stagger, so the fleet's
        // shape is independent of preload duration.
        |c| CLIENT_START_NS + c * 7_919,
        |c| cfg.seed.wrapping_mul(1_000) + (d as u64) * 64 + c,
        move |rng| {
            let key = sampler.sample(rng);
            // The mix has no scans: anything but a read is an update.
            let op = mix.op(rng, key, cfg.value_bytes, 0);
            let write = !matches!(op, Op::KvGet { .. });
            let owner = ring.shard_for(key);
            let local = local.clone();
            let pending = pending.clone();
            let req_out = req_out.clone();
            let next_id = next_id.clone();
            async move {
                if owner == d {
                    return match local.call(op).await? {
                        Reply::NotFound => Err(DpdpuError::Remote("preloaded key missing")),
                        _ => Ok(()),
                    };
                }
                let req_id = next_id.get();
                next_id.set(req_id + 1);
                let (otx, orx) = oneshot();
                pending.borrow_mut().insert(req_id, otx);
                let value = match op {
                    Op::KvPut { value, .. } => value.to_vec(),
                    _ => Vec::new(),
                };
                req_out[owner]
                    .as_ref()
                    .expect("link to every peer")
                    .send(ParReq {
                        req_id,
                        write,
                        key,
                        value,
                    });
                match orx.await {
                    Ok(ParResp { ok: true, .. }) => Ok(()),
                    _ => Err(DpdpuError::Remote("peer domain failed the request")),
                }
            }
        },
    )
    .await;
    out.set(Some((report, remote.get())));
}

/// Scenario: a small partitioned cluster, its per-domain summaries and
/// conformance reports, and its merged trace.
pub(crate) fn par_cluster(seed: u64) -> crate::Output {
    let cfg = ParClusterConfig {
        domains: 3,
        clients_per_domain: 2,
        ops_per_client: 8,
        keys_per_domain: 12,
        value_bytes: 64,
        pipeline: 2,
        seed,
        ..ParClusterConfig::default()
    };
    let run = run_par(cfg, 1);
    let mut stdout = run.stdout;
    let _ = writeln!(
        stdout,
        "domains={} issued={} ok={} remote={} elapsed_us={} polls={}",
        cfg.domains,
        run.issued,
        run.ok,
        run.remote,
        run.elapsed_ns / 1_000,
        run.polls,
    );
    crate::Output {
        table: stdout,
        trace: Some(run.trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ParClusterConfig {
        ParClusterConfig {
            domains: 3,
            clients_per_domain: 2,
            ops_per_client: 6,
            keys_per_domain: 8,
            value_bytes: 64,
            pipeline: 2,
            ..ParClusterConfig::default()
        }
    }

    #[test]
    fn parallel_replay_is_byte_identical_across_job_counts() {
        let a = run_par(small(), 1);
        let b = run_par(small(), 2);
        let c = run_par(small(), 3);
        assert_eq!(a.stdout, b.stdout, "jobs=2 stdout diverged");
        assert_eq!(a.trace, b.trace, "jobs=2 trace diverged");
        assert_eq!(a.stdout, c.stdout, "jobs=3 stdout diverged");
        assert_eq!(a.trace, c.trace, "jobs=3 trace diverged");
        assert_eq!(a.finals, b.finals);
        assert_eq!(a.polls, b.polls);
        assert!(!a.trace.is_empty(), "domains must emit telemetry");
    }

    #[test]
    fn every_request_terminates_and_some_cross_domains() {
        let r = run_par(small(), 2);
        assert_eq!(r.issued, 3 * 2 * 6);
        assert_eq!(r.ok, r.issued, "all keys preloaded: every op must land");
        assert!(
            r.remote > 0,
            "consistent hashing must route some ops off-domain"
        );
        assert!(r.remote < r.issued, "some ops must stay local");
        assert!(r.elapsed_ns > CLIENT_START_NS);
        assert!(r.max_p99_ns >= r.mean_p50_ns);
    }

    #[test]
    fn seeds_steer_the_workload() {
        let mut a_cfg = small();
        a_cfg.seed = 1;
        let mut b_cfg = small();
        b_cfg.seed = 2;
        let a = run_par(a_cfg, 2);
        let b = run_par(b_cfg, 2);
        assert_ne!(a.stdout, b.stdout, "seed must change the key stream");
    }

    #[test]
    #[should_panic(expected = "would share RNG seeds")]
    fn rejects_client_counts_that_collide_seeds() {
        run_par(
            ParClusterConfig {
                clients_per_domain: 65,
                ..small()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "request mix must sum to 100")]
    fn rejects_a_read_percentage_above_100() {
        run_par(
            ParClusterConfig {
                read_pct: 101,
                ..small()
            },
            1,
        );
    }

    #[test]
    fn scenario_emits_stable_shape() {
        let r = par_cluster(7);
        assert!(r.table.contains("domains=3 issued="));
        assert!(r.table.contains("domain=pd2"));
        assert!(r.table.contains("conformance:"));
        assert!(r.trace.is_some_and(|t| !t.is_empty()));
    }
}
