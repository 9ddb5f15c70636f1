//! Sharded DDS cluster: a consistent-hash router over N replica
//! groups, each a full DPU platform (or two, when replicated).
//!
//! The paper measures a *single* DDS server (Figure 9). Production
//! disaggregated storage runs fleets of them: keys are partitioned
//! across servers by consistent hashing, every server runs its own DPU
//! offload stack, and the aggregate host-core saving is (ideally) the
//! per-server saving times the fleet size. This module wires that up
//! inside one simulation:
//!
//! * [`HashRing`] — a virtual-node consistent-hash ring. Adding a
//!   shard moves only ~`1/N` of the key space.
//! * [`DdsCluster`] — N replica groups of [`Dds`] servers on
//!   [`Platform::new_tagged`] platforms (`node0`, `node1`, …, backups
//!   `node0r1`, …), so every CPU pool, PCIe link and SSD is a distinct,
//!   separately-metered resource. With [`ClusterConfig::replicas`]` =
//!   2` each group chains writes primary→backup over the cluster
//!   fabric before acking ([`crate::replication`]).
//! * [`ClusterClient`] — a client endpoint with one fabric connection
//!   per replica ([`FabricKind::Tcp`] by default; RDMA and DPU-issued
//!   RDMA via [`ClusterConfig::net`]), key routing, per-shard
//!   admission control (overflow is *shed* with
//!   [`DpdpuError::Unavailable`]), and a failure detector that
//!   promotes a group's backup when its primary stops answering.
//!
//! Membership grows online: [`ClusterClient::add_shard`] migrates keys
//! along the ring while traffic continues, with dual-read fallbacks
//! keeping every key readable at every intermediate step.
//!
//! Every request is accounted to the conformance layer as a
//! [`Flow::Cluster`] unit per shard, leaving as [`Exit::Ok`], `Shed`
//! (the admission window) or `Failed`: issued == completed + shed +
//! failed at end of run, or the run fails.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;

use dpdpu_check::{Exit, Flow};
use dpdpu_core::DpdpuError;
use dpdpu_des::{Counter, Semaphore, Site};
use dpdpu_hw::{CpuPool, DpuSpec, HostSpec, PcieLink, Platform};
use dpdpu_net::fabric::{Endpoint, FabricKind};
use dpdpu_net::NetConfig;

use crate::proto::{Op, Reply, RetryPolicy};
use crate::replication::{ReplGroupCtl, ReplRole};
use crate::server::{Dds, DdsClient, DdsConfig};

/// Consecutive transport-level failures against one primary before the
/// client *suspects* it and probes. Promotion additionally requires the
/// probe below to fail — a timeout streak alone can be congestion, and
/// deposing a healthy-but-slow primary permanently halves the group.
const FAILOVER_THRESHOLD: u32 = 2;

/// Retry policy for the pre-promotion liveness probe: patient enough to
/// let a slow-but-alive primary answer a storage-free `Ping` (several
/// attempts, spaced past a congestion blip), bounded so a truly dead
/// node converts into a failover within ~10 ms of virtual time.
const PROBE_POLICY: RetryPolicy = RetryPolicy {
    max_attempts: 3,
    request_timeout_ns: 2_000_000,
    base_backoff_ns: 500_000,
    max_backoff_ns: 2_000_000,
    deadline_ns: 10_000_000,
};
/// Attempts per migration step before the migration aborts; paired
/// with [`MIGRATION_BACKOFF_NS`] this rides out any crash window the
/// chaos plans inject.
const MIGRATION_ATTEMPTS: u32 = 64;
/// Backoff between migration-step retries.
const MIGRATION_BACKOFF_NS: u64 = 2_000_000;

/// Retry policy for the primary→backup chain link: fail fast so an
/// unreachable backup converts into a solo grant (or a client-driven
/// failover) within a few milliseconds instead of stalling writes for
/// the client policy's full deadline.
const CHAIN_POLICY: RetryPolicy = RetryPolicy {
    max_attempts: 2,
    request_timeout_ns: 1_000_000,
    base_backoff_ns: 100_000,
    max_backoff_ns: 400_000,
    deadline_ns: 4_000_000,
};

/// 64-bit finalizer (splitmix64): uncorrelates adjacent keys before
/// they land on the ring.
pub(crate) fn ring_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A consistent-hash ring with virtual nodes.
///
/// Each shard owns `vnodes` pseudo-random points on a 64-bit ring; a
/// key belongs to the shard owning the first point at or after the
/// key's hash (wrapping). Virtual nodes smooth the per-shard load and
/// bound key movement on membership change to roughly `1/N`.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)`, sorted by point.
    points: Vec<(u64, usize)>,
    vnodes: usize,
}

impl HashRing {
    /// A ring over shards `0..shards`, each with `vnodes` points.
    pub fn new(shards: usize, vnodes: usize) -> Self {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "virtual-node count must be positive");
        let mut ring = HashRing {
            points: Vec::with_capacity(shards * vnodes),
            vnodes,
        };
        for shard in 0..shards {
            ring.insert_points(shard);
        }
        ring.points.sort_unstable();
        ring
    }

    fn insert_points(&mut self, shard: usize) {
        for v in 0..self.vnodes {
            // Distinct namespace per (shard, vnode): hash of a value no
            // key hash can collide with systematically.
            let point = ring_hash((shard as u64) << 32 | (v as u64) | 0xC1A5_0000_0000_0000);
            self.points.push((point, shard));
        }
    }

    /// Adds a shard's points to the ring.
    pub(crate) fn add_shard(&mut self, shard: usize) {
        assert!(
            !self.points.iter().any(|&(_, s)| s == shard),
            "shard {shard} already on the ring"
        );
        self.insert_points(shard);
        self.points.sort_unstable();
    }

    /// The shard owning `key`.
    pub fn shard_for(&self, key: u64) -> usize {
        let h = ring_hash(key);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        self.points[idx % self.points.len()].1
    }
}

/// Cluster construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of storage shards (replica groups).
    pub shards: usize,
    /// Replicas per shard: 1 = unreplicated (exactly the old
    /// behavior), 2 = chained primary/backup with failover.
    pub replicas: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Per-server DDS configuration.
    pub dds: DdsConfig,
    /// Per-shard client-side in-flight cap; requests beyond it are shed
    /// with [`DpdpuError::Unavailable`] (admission control).
    pub admission: usize,
    /// The whole network stack: link shaping, TCP tunables (including
    /// congestion control), fabric selection, and RDMA-fabric tunables.
    pub net: NetConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            replicas: 1,
            vnodes: 64,
            dds: DdsConfig::default(),
            admission: 64,
            net: NetConfig::default(),
        }
    }
}

/// One logical shard: its replica servers and (when replicated) the
/// group's shared control plane.
pub struct ReplicaGroup {
    /// Replica servers; index 0 is the initial primary.
    pub members: Vec<Rc<Dds>>,
    /// Shared membership/epoch control (replicated groups only).
    pub(crate) ctl: Option<Rc<ReplGroupCtl>>,
}

/// N replica groups of DDS servers on tagged platforms, plus the
/// routing ring every connected client shares — so a membership change
/// is visible fleet-wide at the instant it commits.
pub struct DdsCluster {
    groups: RefCell<Vec<Rc<ReplicaGroup>>>,
    ring: RefCell<HashRing>,
    /// The pre-migration ring, present while keys are in flight; reads
    /// fall back to the old owner for not-yet-copied keys. Retained on
    /// a migration failure — closing the window with keys still on
    /// their old owners would make them unreadable — until a
    /// [`ClusterClient::resume_migration`] drains the rest.
    prev_ring: RefCell<Option<HashRing>>,
    config: ClusterConfig,
}

impl DdsCluster {
    /// Builds `config.shards` replica groups, each server on its own
    /// tagged BlueField-2 platform (`node{i}`, backups `node{i}r{j}`).
    pub async fn build(config: ClusterConfig) -> Rc<Self> {
        assert!(config.shards > 0, "cluster needs at least one shard");
        assert!(
            (1..=2).contains(&config.replicas),
            "chain replication supports 1 (off) or 2 replicas"
        );
        let mut groups = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            groups.push(Self::build_group(&config, i).await);
        }
        Rc::new(DdsCluster {
            groups: RefCell::new(groups),
            ring: RefCell::new(HashRing::new(config.shards, config.vnodes)),
            prev_ring: RefCell::new(None),
            config,
        })
    }

    async fn build_group(config: &ClusterConfig, group: usize) -> Rc<ReplicaGroup> {
        let mut members = Vec::with_capacity(config.replicas);
        for r in 0..config.replicas {
            let tag = if r == 0 {
                format!("node{group}")
            } else {
                format!("node{group}r{r}")
            };
            let platform = Platform::new_tagged(HostSpec::epyc(), DpuSpec::bluefield2(), &tag);
            if let Some(t) = dpdpu_telemetry::Telemetry::current() {
                platform.register_telemetry(&t);
            }
            members.push(Dds::build(platform, config.dds).await);
        }
        let ctl = if config.replicas >= 2 {
            let ctl = ReplGroupCtl::new(group, config.replicas);
            for (r, dds) in members.iter().enumerate() {
                dds.attach_replication(ReplRole::new(ctl.clone(), r));
            }
            // Chain link primary→backup over the cluster fabric. The
            // backup serves the chain exactly like client traffic, so
            // its crash windows gate replication automatically.
            let chain = members[1].connect(
                &config.net,
                &members[0].endpoint(),
                &format!("node{group}-repl"),
            );
            chain.set_policy(CHAIN_POLICY);
            *members[0]
                .replication()
                .expect("role attached")
                .backup
                .borrow_mut() = Some(chain);
            Some(ctl)
        } else {
            None
        };
        Rc::new(ReplicaGroup { members, ctl })
    }

    /// Builds one more replica group (servers plus replication chain)
    /// and returns its shard id. The new shard owns no keys until a
    /// migration moves some to it.
    pub(crate) async fn grow(self: &Rc<Self>) -> usize {
        let group = self.groups.borrow().len();
        let g = Self::build_group(&self.config, group).await;
        self.groups.borrow_mut().push(g);
        group
    }

    /// Number of replica groups built.
    pub fn shards(&self) -> usize {
        self.groups.borrow().len()
    }

    /// Replica group `i`.
    pub fn group(&self, i: usize) -> Rc<ReplicaGroup> {
        self.groups.borrow()[i].clone()
    }

    /// The initial-primary server of every group, in shard order —
    /// per-shard service counters for experiments.
    pub fn primaries(&self) -> Vec<Rc<Dds>> {
        self.groups
            .borrow()
            .iter()
            .map(|g| g.members[0].clone())
            .collect()
    }

    /// The platform backing shard `i`'s initial primary.
    pub fn platform(&self, i: usize) -> Rc<Platform> {
        self.groups.borrow()[i].members[0].platform().clone()
    }

    /// Shard `i`'s replication control plane, when replicated.
    pub fn ctl(&self, i: usize) -> Option<Rc<ReplGroupCtl>> {
        self.groups.borrow()[i].ctl.clone()
    }

    /// A snapshot of the current routing ring.
    pub(crate) fn ring(&self) -> HashRing {
        self.ring.borrow().clone()
    }

    /// The shard currently owning `key`.
    pub fn shard_for(&self, key: u64) -> usize {
        self.ring.borrow().shard_for(key)
    }

    /// The shard that owned `key` before the in-flight migration, if
    /// one is running.
    pub(crate) fn prev_shard_for(&self, key: u64) -> Option<usize> {
        self.prev_ring.borrow().as_ref().map(|r| r.shard_for(key))
    }

    /// True while a migration is moving keys between shards.
    pub fn migrating(&self) -> bool {
        self.prev_ring.borrow().is_some()
    }

    fn begin_migration(&self, new_ring: HashRing) {
        assert!(!self.migrating(), "one migration at a time");
        let old = self.ring.borrow().clone();
        *self.prev_ring.borrow_mut() = Some(old);
        *self.ring.borrow_mut() = new_ring;
    }

    fn end_migration(&self) {
        *self.prev_ring.borrow_mut() = None;
    }

    /// Feeds every live replica's KV digest to the conformance layer.
    /// Call once the workload quiesces: [`dpdpu_check`] fails the run
    /// if any group's surviving replicas diverge.
    pub fn verify_replicas(&self) {
        for (gi, group) in self.groups.borrow().iter().enumerate() {
            let Some(ctl) = &group.ctl else { continue };
            for (r, dds) in group.members.iter().enumerate() {
                if ctl.is_deposed(r) {
                    continue;
                }
                let (entries, bytes, checksum) = dds.kv.digest();
                dpdpu_check::replica_digest(gi, r, entries, bytes, checksum);
            }
        }
    }

    /// Connects a client: one duplex fabric connection per replica
    /// (server side terminated on each node's DPU), the shared hash
    /// ring, and per-shard admission windows.
    ///
    /// With [`FabricKind::RdmaOffload`] the client also gets NE rings:
    /// a client-side DPU (same BlueField-2 part as the servers) is
    /// created to poll them and issue the verbs, so `client_cpu` pays
    /// only ring enqueues and completion polls.
    pub fn connect(self: &Rc<Self>, client_cpu: Rc<CpuPool>) -> Rc<ClusterClient> {
        let client_ep = match self.config.net.fabric {
            FabricKind::RdmaOffload => {
                let spec = DpuSpec::bluefield2();
                Endpoint::offloaded(
                    client_cpu.clone(),
                    CpuPool::new(
                        format!("{}-dpu", client_cpu.name()),
                        spec.cores,
                        spec.clock_hz,
                    ),
                    PcieLink::new(
                        format!("{}-pcie", client_cpu.name()),
                        spec.pcie_bytes_per_sec,
                    ),
                )
            }
            _ => Endpoint::host(client_cpu.clone()),
        };
        let client = Rc::new(ClusterClient {
            cluster: self.clone(),
            name: client_cpu.name().to_string(),
            client_ep,
            admission: self.config.admission,
            conns: RefCell::new(Vec::new()),
        });
        client.ensure_conns();
        client
    }
}

/// One client's connections to one replica group.
struct GroupConn {
    /// The shard's stable label (`"node<g>"`): telemetry tag, and as
    /// `site` the key of its conservation ledger.
    label: String,
    site: Site,
    /// One connection per replica; ops route to the current primary.
    clients: Vec<Rc<DdsClient>>,
    admission: Semaphore,
    shed: Counter,
    /// Consecutive transport-level failures against `streak_primary`.
    streak: Cell<u32>,
    streak_primary: Cell<usize>,
}

/// A sharded client endpoint: key routing, per-replica connections,
/// admission control, failure-detector-driven failover, and online
/// shard add/remove.
pub struct ClusterClient {
    cluster: Rc<DdsCluster>,
    name: String,
    client_ep: Endpoint,
    admission: usize,
    conns: RefCell<Vec<Rc<GroupConn>>>,
}

impl ClusterClient {
    /// The shard that currently owns `key`.
    pub fn shard_for(&self, key: u64) -> usize {
        self.cluster.shard_for(key)
    }

    /// Total requests shed across all shards.
    pub fn total_shed(&self) -> u64 {
        self.conns.borrow().iter().map(|c| c.shed.get()).sum()
    }

    /// The raw client to shard `i`'s current primary (for pipelined
    /// workloads that manage their own batching on top of routing).
    pub fn shard_client(&self, i: usize) -> Rc<DdsClient> {
        let primary = self.cluster.ctl(i).map(|c| c.primary()).unwrap_or(0);
        self.conns.borrow()[i].clients[primary].clone()
    }

    /// Opens connections to any groups added since the last call.
    fn ensure_conns(&self) {
        let groups: Vec<Rc<ReplicaGroup>> = self.cluster.groups.borrow().clone();
        let mut conns = self.conns.borrow_mut();
        for (gi, group) in groups.iter().enumerate().skip(conns.len()) {
            let label = format!("node{gi}");
            let clients = group
                .members
                .iter()
                .enumerate()
                .map(|(r, dds)| {
                    let suffix = if r == 0 {
                        String::new()
                    } else {
                        format!("r{r}")
                    };
                    dds.connect(
                        &self.cluster.config.net,
                        &self.client_ep,
                        &format!("{}-{label}{suffix}", self.name),
                    )
                })
                .collect();
            conns.push(Rc::new(GroupConn {
                admission: Semaphore::new_labeled(&format!("{label}.admission"), self.admission),
                site: Site::new(&label),
                label,
                clients,
                shed: Counter::new(),
                streak: Cell::new(0),
                streak_primary: Cell::new(0),
            }));
        }
    }

    /// Runs `op` against group `group` under conservation accounting
    /// and (when `admit`) admission control. Routes to the group's
    /// current primary; a transport-dead primary trips the failure
    /// detector and fails over to the backup, and a deposed server's
    /// `StaleEpoch` answer re-routes to the new primary.
    async fn call_group(&self, group: usize, op: Op, admit: bool) -> Result<Reply, DpdpuError> {
        self.ensure_conns();
        let conn = self.conns.borrow()[group].clone();
        // Payload bytes the conservation ledger books this op under.
        let bytes = match &op {
            Op::KvPut { value, .. } | Op::MigratePut { value, .. } => 8 + value.len() as u64,
            Op::KvScan { .. } => 12,
            Op::DropKeys { keys, .. } => 8 * keys.len() as u64,
            _ => 8,
        };
        dpdpu_check::flow_in(Flow::Cluster, conn.site, bytes);
        let _permit = if admit {
            match conn.admission.try_acquire() {
                Some(p) => Some(p),
                None => {
                    conn.shed.inc();
                    dpdpu_check::flow_out(Flow::Cluster, conn.site, Exit::Shed, bytes);
                    dpdpu_telemetry::count("cluster_shed", &[("shard", &conn.label)]);
                    return Err(DpdpuError::Unavailable("shard admission window"));
                }
            }
        } else {
            None
        };
        dpdpu_telemetry::count("cluster_requests", &[("shard", &conn.label)]);
        let result = self.routed_call(&conn, group, op).await;
        match &result {
            Ok(_) => dpdpu_check::flow_out(Flow::Cluster, conn.site, Exit::Ok, bytes),
            Err(_) => dpdpu_check::flow_out(Flow::Cluster, conn.site, Exit::Failed, bytes),
        }
        result
    }

    async fn routed_call(
        &self,
        conn: &Rc<GroupConn>,
        group: usize,
        op: Op,
    ) -> Result<Reply, DpdpuError> {
        let ctl = self.cluster.ctl(group);
        let mut rerouted = false;
        loop {
            let primary = ctl.as_ref().map(|c| c.primary()).unwrap_or(0);
            let client = conn.clients[primary].clone();
            match client.call(op.clone()).await {
                Ok(v) => {
                    conn.streak.set(0);
                    return Ok(v);
                }
                Err(DpdpuError::StaleEpoch) if !rerouted => {
                    // A deposed server answered: another client already
                    // failed the group over. Re-route to the current
                    // primary once.
                    rerouted = true;
                }
                Err(
                    e @ (DpdpuError::Timeout { .. }
                    | DpdpuError::RetriesExhausted { .. }
                    | DpdpuError::ConnectionClosed),
                ) => {
                    let Some(ctl) = &ctl else { return Err(e) };
                    if conn.streak_primary.get() != primary {
                        conn.streak_primary.set(primary);
                        conn.streak.set(0);
                    }
                    conn.streak.set(conn.streak.get() + 1);
                    if conn.streak.get() >= FAILOVER_THRESHOLD
                        && !rerouted
                        && ctl.primary() == primary
                    {
                        // Suspicion confirmed only by a failed probe: a
                        // slow-but-alive primary answers the ping and
                        // keeps its seat (the timeout streak resets; the
                        // caller still sees this op's failure).
                        let probe = conn.clients[primary].clone();
                        if probe.call_with(PROBE_POLICY, Op::Ping).await.is_ok() {
                            conn.streak.set(0);
                            return Err(e);
                        }
                        if ctl.primary() == primary && ctl.promote().is_some() {
                            dpdpu_telemetry::count("cluster_failovers", &[("shard", &conn.label)]);
                            conn.streak.set(0);
                            rerouted = true;
                            continue;
                        }
                    }
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The one routed entry point: runs a KV op against the shard (or
    /// shards) the ring assigns it. [`ClusterClient::kv_get`],
    /// [`ClusterClient::kv_put`] and [`ClusterClient::kv_scan`] are this
    /// call with the reply unpacked; the gateway queues the [`Op`] itself
    /// and load generators hand over the one they drew.
    pub async fn call(&self, op: Op) -> Result<Reply, DpdpuError> {
        match op {
            Op::KvGet { key } => self.routed_get(key).await,
            // Writes always go to the ring's *current* owner, so a
            // migration never loses a concurrent write: the copy path is
            // put-if-absent and cannot clobber it.
            Op::KvPut { key, .. } => self.call_group(self.cluster.shard_for(key), op, true).await,
            Op::KvScan { .. } => self.routed_scan(op).await,
            _ => Err(DpdpuError::Unavailable("routing for a non-KV op")),
        }
    }

    /// During a migration the key may sit on its old owner (not yet
    /// copied) or land on the new owner between probes, so a miss falls
    /// back through both rings before declaring the key absent — no key
    /// is ever unreadable mid-migration.
    async fn routed_get(&self, key: u64) -> Result<Reply, DpdpuError> {
        let get = Op::KvGet { key };
        let migrating0 = self.cluster.migrating();
        let first = self.cluster.shard_for(key);
        let hit = self.call_group(first, get.clone(), true).await?;
        if hit != Reply::NotFound {
            return Ok(hit);
        }
        if let Some(prev) = self.cluster.prev_shard_for(key) {
            if prev != first {
                let hit = self.call_group(prev, get.clone(), true).await?;
                if hit != Reply::NotFound {
                    return Ok(hit);
                }
            }
        }
        // The copy/drop can race between the probes above; the ring's
        // current owner is authoritative once the old owner misses.
        let cur = self.cluster.shard_for(key);
        if migrating0 || self.cluster.migrating() || cur != first {
            return self.call_group(cur, get, true).await;
        }
        Ok(Reply::NotFound)
    }

    /// The range's keys are scattered across shards by the hash
    /// partitioning, so every shard is queried and the results
    /// merged in key order. Under membership churn a key can
    /// momentarily exist on two shards; the current ring owner's copy
    /// wins.
    async fn routed_scan(&self, scan: Op) -> Result<Reply, DpdpuError> {
        self.ensure_conns();
        let shards = self.conns.borrow().len();
        let mut hits: Vec<(u64, Bytes, usize)> = Vec::new();
        for shard in 0..shards {
            for (k, v) in self.call_group(shard, scan.clone(), true).await?.rows() {
                hits.push((k, v, shard));
            }
        }
        hits.sort_by_key(|&(k, _, s)| (k, s != self.cluster.shard_for(k)));
        let mut merged: Vec<(u64, Bytes)> = Vec::with_capacity(hits.len());
        for (k, v, _) in hits {
            if merged.last().is_none_or(|&(lk, _)| lk != k) {
                merged.push((k, v));
            }
        }
        Ok(Reply::Scan(merged))
    }

    /// Routed KV get: `None` when no owner, old or new, holds the key.
    pub async fn kv_get(&self, key: u64) -> Result<Option<Bytes>, DpdpuError> {
        self.call(Op::KvGet { key }).await.map(Reply::value)
    }

    /// Routed KV put.
    pub async fn kv_put(&self, key: u64, value: Bytes) -> Result<(), DpdpuError> {
        self.call(Op::KvPut { key, value }).await.map(Reply::ack)
    }

    /// Cluster-wide range scan, merged in key order.
    pub async fn kv_scan(
        &self,
        start_key: u64,
        count: u32,
    ) -> Result<Vec<(u64, Bytes)>, DpdpuError> {
        self.call(Op::KvScan { start_key, count })
            .await
            .map(Reply::rows)
    }

    /// Runs one migration step against `group`, outside admission
    /// control, retrying until it lands or the attempt budget runs dry
    /// — rides out crash windows (the failure detector fails the group
    /// over underneath the retries).
    async fn migration_step(&self, group: usize, op: Op) -> Result<Reply, DpdpuError> {
        let mut last = DpdpuError::Unavailable("migration retries exhausted");
        for _ in 0..MIGRATION_ATTEMPTS {
            match self.call_group(group, op.clone(), false).await {
                Ok(v) => return Ok(v),
                Err(e) => {
                    last = e;
                    dpdpu_des::sleep(MIGRATION_BACKOFF_NS).await;
                }
            }
        }
        Err(last)
    }

    /// Copies every key `src` no longer owns under `ring` to its new
    /// owner (put-if-absent), then drops the moved keys from `src`.
    async fn migrate_out(&self, src: usize, ring: &HashRing) -> Result<(), DpdpuError> {
        let keys = self.migration_step(src, Op::ListKeys).await?.keys();
        let moving: Vec<u64> = keys
            .into_iter()
            .filter(|&k| ring.shard_for(k) != src)
            .collect();
        for &key in &moving {
            let value = self.migration_step(src, Op::KvGet { key }).await?.value();
            // Already dropped by a prior (aborted) pass: nothing to copy.
            let Some(value) = value else { continue };
            let copy = Op::MigratePut { key, value };
            self.migration_step(ring.shard_for(key), copy).await?.ack();
        }
        if !moving.is_empty() {
            let drop = Op::DropKeys {
                epoch: 0,
                keys: moving,
            };
            self.migration_step(src, drop).await?.ack();
        }
        Ok(())
    }

    /// Drains every shard's misplaced keys to their owners under the
    /// (already-installed) post-migration ring, then — only on full
    /// success — closes the dual-read window. On failure the window stays open: every not-yet-copied
    /// key remains readable through the previous ring, and a later
    /// [`ClusterClient::resume_migration`] finishes the drain (each
    /// step is idempotent: copies are put-if-absent, already-drained
    /// sources list nothing to move).
    async fn drain_migration(&self) -> Result<(), DpdpuError> {
        let ring = self.cluster.ring();
        for src in 0..self.cluster.shards() {
            self.migrate_out(src, &ring).await?;
        }
        self.cluster.end_migration();
        Ok(())
    }

    /// Retries the drain of a migration that previously failed (e.g.
    /// a source shard stayed dark past the retry budget). No-op when no
    /// migration is in flight.
    pub async fn resume_migration(&self) -> Result<(), DpdpuError> {
        if !self.cluster.migrating() {
            return Ok(());
        }
        self.ensure_conns();
        self.drain_migration().await
    }

    /// Adds a brand-new shard to the cluster and live-migrates the
    /// keys the ring assigns it (~`1/N` of the key space) while
    /// traffic continues. Returns the new shard id. On a migration
    /// failure the dual-read window stays open (no key becomes
    /// unreadable) and [`ClusterClient::resume_migration`] completes
    /// the move.
    pub async fn add_shard(&self) -> Result<usize, DpdpuError> {
        let new = self.cluster.grow().await;
        self.ensure_conns();
        let mut new_ring = self.cluster.ring();
        new_ring.add_shard(new);
        self.cluster.begin_migration(new_ring);
        self.drain_migration().await.map(|()| new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    use dpdpu_des::block_on;

    /// 10K distinct keys drawn from a zipfian(θ≈1) rank distribution
    /// over 100K ranks, scrambled onto the full u64 space — the key
    /// population a skewed KV workload routes through the ring.
    fn zipfian_keys(n: usize) -> Vec<u64> {
        let ranks = 100_000usize;
        let mut cum = Vec::with_capacity(ranks);
        let mut total = 0.0f64;
        for r in 1..=ranks {
            total += 1.0 / r as f64;
            cum.push(total);
        }
        // Deterministic xorshift uniforms; inversion-sample the rank.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut seen = HashSet::new();
        let mut keys = Vec::with_capacity(n);
        while keys.len() < n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64 * total;
            let rank = cum.partition_point(|&c| c < u) + 1;
            if seen.insert(rank) {
                keys.push(ring_hash(rank as u64 ^ 0xDEAD_BEEF_CAFE_F00D));
            }
        }
        keys
    }

    #[test]
    fn ring_balances_zipfian_keys_within_2x() {
        let shards = 8;
        let ring = HashRing::new(shards, 64);
        let keys = zipfian_keys(10_000);
        let mut load = vec![0usize; shards];
        for &k in &keys {
            load[ring.shard_for(k)] += 1;
        }
        let mean = keys.len() / shards;
        for (shard, &n) in load.iter().enumerate() {
            assert!(
                n <= 2 * mean && n >= mean / 2,
                "shard {shard} owns {n} of {} keys (mean {mean}): outside the 2x bound",
                keys.len()
            );
        }
    }

    #[test]
    fn ring_add_shard_moves_less_than_2_over_n() {
        let n = 8;
        let before = HashRing::new(n, 64);
        let mut after = before.clone();
        after.add_shard(n);
        let keys = zipfian_keys(10_000);
        let moved = keys
            .iter()
            .filter(|&&k| before.shard_for(k) != after.shard_for(k))
            .count();
        // Consistent hashing moves ~1/(n+1) of keys to the new shard;
        // anything at or past 2/n means the ring reshuffled.
        assert!(
            moved < keys.len() * 2 / n,
            "adding a shard moved {moved}/{} keys (bound {})",
            keys.len(),
            keys.len() * 2 / n
        );
        // Every moved key landed on the new shard — no lateral moves.
        for &k in &keys {
            if before.shard_for(k) != after.shard_for(k) {
                assert_eq!(after.shard_for(k), n, "key moved between old shards");
            }
        }
    }

    #[test]
    fn ring_is_deterministic_across_instances() {
        let a = HashRing::new(5, 32);
        let b = HashRing::new(5, 32);
        for k in 0..1_000u64 {
            assert_eq!(a.shard_for(k), b.shard_for(k));
        }
    }

    #[test]
    fn cluster_routes_puts_and_gets_across_all_shards() {
        let _check = dpdpu_check::CheckGuard::new();
        block_on(async {
            let cluster = DdsCluster::build(ClusterConfig {
                shards: 4,
                ..ClusterConfig::default()
            })
            .await;
            let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
            let client = cluster.connect(client_cpu);
            for key in 0..64u64 {
                client
                    .kv_put(key, Bytes::from(format!("value-{key}")))
                    .await
                    .unwrap();
            }
            for key in 0..64u64 {
                assert_eq!(
                    client.kv_get(key).await.unwrap().unwrap(),
                    Bytes::from(format!("value-{key}")),
                );
            }
            // 64 hashed keys across 4 shards: every server saw traffic.
            for (i, node) in cluster.primaries().iter().enumerate() {
                assert!(
                    node.served_dpu.get() + node.served_host.get() > 0,
                    "shard {i} served nothing"
                );
            }
            assert_eq!(client.total_shed(), 0, "no overload in this workload");
        });
    }

    #[test]
    fn cluster_routes_over_every_fabric() {
        // The same put/get workload must behave identically over every
        // shard transport. The DDS application itself still host-executes
        // writes on every fabric, but the transport's own host cost
        // differs: offloaded TCP pays host ring cycles per message,
        // host-verbs RDMA pays verb-issue/CQ-poll cycles, and
        // rdma-offload pays nothing — so server host time must be
        // strictly lowest there.
        let mut host_busy: HashMap<FabricKind, u64> = HashMap::new();
        for fabric in FabricKind::ALL {
            let _check = dpdpu_check::CheckGuard::new();
            let busy = Rc::new(std::cell::Cell::new(0u64));
            let busy2 = busy.clone();
            block_on(async move {
                let cluster = DdsCluster::build(ClusterConfig {
                    shards: 3,
                    net: NetConfig::default().with_fabric(fabric),
                    ..ClusterConfig::default()
                })
                .await;
                let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
                let client = cluster.connect(client_cpu);
                for key in 0..48u64 {
                    client
                        .kv_put(key, Bytes::from(format!("{fabric}-{key}")))
                        .await
                        .unwrap();
                }
                for key in 0..48u64 {
                    assert_eq!(
                        client.kv_get(key).await.unwrap().unwrap(),
                        Bytes::from(format!("{fabric}-{key}")),
                        "{fabric}: wrong value back"
                    );
                }
                busy2.set(
                    (0..cluster.shards())
                        .map(|i| cluster.platform(i).host_cpu.busy_ns())
                        .sum(),
                );
            });
            host_busy.insert(fabric, busy.get());
        }
        assert!(
            host_busy[&FabricKind::RdmaOffload] < host_busy[&FabricKind::Tcp],
            "rdma-offload must spend less server-host time than TCP: {host_busy:?}"
        );
        assert!(
            host_busy[&FabricKind::RdmaOffload] < host_busy[&FabricKind::Rdma],
            "rdma-offload must spend less server-host time than host-verbs RDMA: {host_busy:?}"
        );
    }

    #[test]
    fn cluster_scan_merges_shards_in_key_order() {
        block_on(async {
            let cluster = DdsCluster::build(ClusterConfig {
                shards: 3,
                ..ClusterConfig::default()
            })
            .await;
            let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
            let client = cluster.connect(client_cpu);
            for key in 0..16u64 {
                client
                    .kv_put(key, Bytes::from(vec![key as u8; 16]))
                    .await
                    .unwrap();
            }
            let hits = client.kv_scan(0, 16).await.unwrap();
            assert_eq!(hits.len(), 16);
            let keys: Vec<u64> = hits.iter().map(|&(k, _)| k).collect();
            assert_eq!(keys, (0..16u64).collect::<Vec<_>>());
            // The range really was scattered: more than one shard holds it.
            let owners: HashSet<usize> = (0..16u64).map(|k| client.shard_for(k)).collect();
            assert!(
                owners.len() > 1,
                "hash partitioning should scatter the range"
            );
        });
    }

    #[test]
    fn admission_control_sheds_when_a_shard_saturates() {
        let check = dpdpu_check::CheckGuard::new();
        let shed = block_on(async {
            let cluster = DdsCluster::build(ClusterConfig {
                shards: 2,
                admission: 2,
                ..ClusterConfig::default()
            })
            .await;
            let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
            let client = cluster.connect(client_cpu);
            client.kv_put(1, Bytes::from_static(b"v")).await.unwrap();
            // Fire a burst far above the 2-deep admission window.
            let mut handles = Vec::new();
            for _ in 0..32 {
                let client = client.clone();
                handles.push(dpdpu_des::spawn(async move {
                    match client.kv_get(1).await {
                        Ok(v) => {
                            assert_eq!(v.unwrap(), Bytes::from_static(b"v"));
                            true
                        }
                        Err(DpdpuError::Unavailable(_)) => false,
                        Err(e) => panic!("unexpected error {e:?}"),
                    }
                }));
            }
            let mut ok = 0u64;
            let mut shed = 0u64;
            for h in handles {
                if h.await {
                    ok += 1;
                } else {
                    shed += 1;
                }
            }
            assert!(shed > 0, "burst must overflow the admission window");
            assert!(ok > 0, "admitted requests must complete");
            assert_eq!(client.total_shed(), shed);
            shed
        });
        // Every issued op resolved — the CheckGuard verifies the
        // cluster-conservation invariant on drop.
        let report = check.session().report();
        assert!(report.contains("cluster_ops="), "report: {report}");
        assert!(
            report.contains(&format!("cluster_shed={shed}")),
            "report: {report}"
        );
    }

    #[test]
    fn tagged_platforms_keep_per_shard_resources_distinct() {
        block_on(async {
            let cluster = DdsCluster::build(ClusterConfig {
                shards: 2,
                ..ClusterConfig::default()
            })
            .await;
            let names: HashSet<String> = (0..2)
                .map(|i| cluster.platform(i).host_cpu.name().to_string())
                .collect();
            assert_eq!(names.len(), 2, "host CPU pools must be distinct: {names:?}");
            let mut loads = HashMap::new();
            for i in 0..2 {
                loads.insert(i, cluster.platform(i).tag.clone());
            }
            assert_eq!(loads[&0], "node0");
            assert_eq!(loads[&1], "node1");
        });
    }

    #[test]
    fn replicated_cluster_serves_and_replicas_converge() {
        let _check = dpdpu_check::CheckGuard::new();
        let cluster = block_on(async move {
            let cluster = DdsCluster::build(ClusterConfig {
                shards: 2,
                replicas: 2,
                ..ClusterConfig::default()
            })
            .await;
            let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
            let client = cluster.connect(client_cpu);
            for key in 0..24u64 {
                client
                    .kv_put(key, Bytes::from(format!("value-{key}")))
                    .await
                    .unwrap();
            }
            for key in 0..24u64 {
                assert_eq!(
                    client.kv_get(key).await.unwrap().unwrap(),
                    Bytes::from(format!("value-{key}")),
                );
            }
            // Backup tags are distinct platforms.
            for g in 0..2 {
                let group = cluster.group(g);
                assert_eq!(group.members.len(), 2);
                assert_eq!(
                    group.members[1].platform().tag,
                    format!("node{g}r1"),
                    "backup runs on its own tagged platform"
                );
                // Writes actually chained: the backup applied them.
                let role = group.members[0].replication().unwrap();
                assert!(role.chained.get() > 0, "group {g} chained no writes");
                assert_eq!(role.solo_commits.get(), 0);
            }
            cluster
        });
        // After quiesce: every group's replicas hold identical state.
        cluster.verify_replicas();
        for g in 0..2 {
            let group = cluster.group(g);
            assert_eq!(group.members[0].kv.digest(), group.members[1].kv.digest());
        }
    }

    #[test]
    fn failover_promotes_backup_and_fences_old_primary() {
        let _guard = dpdpu_faults::SessionGuard::new(
            dpdpu_faults::FaultPlan::new(42)
                // node0's primary freezes from 1ms to 400ms of virtual time.
                .shard_crash("node0", 1_000_000, 400_000_000),
        );
        let _check = dpdpu_check::CheckGuard::new();
        block_on(async move {
            let cluster = DdsCluster::build(ClusterConfig {
                shards: 1,
                replicas: 2,
                ..ClusterConfig::default()
            })
            .await;
            let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
            let client = cluster.connect(client_cpu);
            // Seed a key before the crash window opens.
            client
                .kv_put(7, Bytes::from_static(b"before"))
                .await
                .unwrap();
            dpdpu_des::sleep(2_000_000).await; // enter the window
                                               // Writes during the crash: the first ops fail while the
                                               // detector counts, then the backup takes over.
            let mut acked = 0;
            for i in 0..6u64 {
                if client
                    .kv_put(100 + i, Bytes::from(format!("during-{i}")))
                    .await
                    .is_ok()
                {
                    acked += 1;
                }
            }
            let ctl = cluster.ctl(0).unwrap();
            assert_eq!(ctl.promotions.get(), 1, "exactly one failover");
            assert_eq!(ctl.primary(), 1, "backup promoted");
            assert!(ctl.is_deposed(0), "old primary fenced out");
            assert!(ctl.epoch() > 1, "epoch advanced");
            assert!(acked > 0, "writes resume after failover");
            // The chained key survives the failover, served by the backup.
            assert_eq!(
                client.kv_get(7).await.unwrap().unwrap(),
                Bytes::from_static(b"before")
            );
            // Old primary's crash window ends; it wakes as a zombie —
            // every request it gets is answered StaleEpoch, and routed
            // calls keep landing on the new primary.
            dpdpu_des::sleep(500_000_000).await;
            assert_eq!(
                client.kv_get(7).await.unwrap().unwrap(),
                Bytes::from_static(b"before")
            );
            let zombie = cluster.group(0).members[0].replication().unwrap();
            assert!(zombie.deposed(), "resurrected primary stays deposed");
        });
    }

    #[test]
    fn add_shard_migrates_keys_and_keeps_them_readable() {
        let _check = dpdpu_check::CheckGuard::new();
        block_on(async {
            let cluster = DdsCluster::build(ClusterConfig {
                shards: 2,
                ..ClusterConfig::default()
            })
            .await;
            let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
            let client = cluster.connect(client_cpu);
            for key in 0..48u64 {
                client
                    .kv_put(key, Bytes::from(format!("v-{key}")))
                    .await
                    .unwrap();
            }
            let before = cluster.ring();
            let new = client.add_shard().await.unwrap();
            assert_eq!(new, 2);
            let after = cluster.ring();
            // <2/N of this key population moved, all of it to the new shard.
            let moved: Vec<u64> = (0..48u64)
                .filter(|&k| before.shard_for(k) != after.shard_for(k))
                .collect();
            assert!(moved.len() < 48 * 2 / 3, "moved {} of 48 keys", moved.len());
            for &k in &moved {
                assert_eq!(after.shard_for(k), new);
            }
            // Every key still readable, moved ones from the new shard.
            for key in 0..48u64 {
                assert_eq!(
                    client.kv_get(key).await.unwrap().unwrap(),
                    Bytes::from(format!("v-{key}")),
                    "key {key} lost in migration"
                );
            }
            // Old owners really dropped their moved keys.
            let primaries = cluster.primaries();
            for &k in &moved {
                assert!(
                    !primaries[before.shard_for(k)].kv.contains(k),
                    "key {k} still on its old owner"
                );
                assert!(primaries[new].kv.contains(k));
            }
        });
    }

    #[test]
    fn aborted_migration_keeps_keys_readable_and_resumes() {
        // node0 goes dark long enough to exhaust the whole migration
        // retry budget (64 × ~11.4ms ≈ 730ms), so add_shard fails
        // mid-drain. The dual-read window must stay open — every key
        // readable — and resume_migration finishes the move later.
        let _guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(42).shard_crash(
            "node0",
            50_000_000,
            1_000_000_000,
        ));
        let _check = dpdpu_check::CheckGuard::new();
        block_on(async {
            let cluster = DdsCluster::build(ClusterConfig {
                shards: 2,
                ..ClusterConfig::default()
            })
            .await;
            let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
            let client = cluster.connect(client_cpu);
            for key in 0..48u64 {
                client
                    .kv_put(key, Bytes::from(format!("v-{key}")))
                    .await
                    .unwrap();
            }
            let before = cluster.ring();
            dpdpu_des::sleep(55_000_000).await; // enter the crash window
            let err = client.add_shard().await;
            assert!(err.is_err(), "migration must abort inside the window");
            assert!(
                cluster.migrating(),
                "failed migration must keep the dual-read window open"
            );
            // Ride out the rest of the crash window, then verify the
            // half-migrated cluster serves every key through dual-read.
            dpdpu_des::sleep(400_000_000).await;
            for key in 0..48u64 {
                assert_eq!(
                    client.kv_get(key).await.unwrap().unwrap(),
                    Bytes::from(format!("v-{key}")),
                    "key {key} unreadable after aborted migration"
                );
            }
            client.resume_migration().await.unwrap();
            assert!(!cluster.migrating(), "resume must close the window");
            let after = cluster.ring();
            assert!(
                (0..48u64).any(|key| after.shard_for(key) == 2),
                "the ring routes keys to the new shard"
            );
            let primaries = cluster.primaries();
            for key in 0..48u64 {
                assert_eq!(
                    client.kv_get(key).await.unwrap().unwrap(),
                    Bytes::from(format!("v-{key}")),
                    "key {key} lost across abort+resume"
                );
                if before.shard_for(key) != after.shard_for(key) {
                    assert!(
                        !primaries[before.shard_for(key)].kv.contains(key),
                        "moved key {key} still on its old owner"
                    );
                    assert!(primaries[after.shard_for(key)].kv.contains(key));
                }
            }
            // resume_migration with no migration in flight is a no-op.
            client.resume_migration().await.unwrap();
        });
    }

    #[test]
    fn probe_keeps_a_slow_but_alive_primary_in_its_seat() {
        // The primary stalls just long enough for one client to rack up
        // FAILOVER_THRESHOLD consecutive op failures under a tightened
        // retry policy — but it answers the confirmation ping (the
        // probe's longer budget reaches past the stall), so no failover
        // happens and the primary keeps its seat.
        let _guard = dpdpu_faults::SessionGuard::new(
            dpdpu_faults::FaultPlan::new(42).shard_crash("node0", 1_000_000, 10_000_000),
        );
        let _check = dpdpu_check::CheckGuard::new();
        block_on(async {
            let cluster = DdsCluster::build(ClusterConfig {
                shards: 1,
                replicas: 2,
                ..ClusterConfig::default()
            })
            .await;
            let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
            let client = cluster.connect(client_cpu);
            client.kv_put(7, Bytes::from_static(b"seed")).await.unwrap();
            // One attempt, 2ms timeout: each op during the stall fails
            // fast, reaching the threshold while the stall still holds.
            client.shard_client(0).set_policy(RetryPolicy {
                max_attempts: 1,
                request_timeout_ns: 2_000_000,
                base_backoff_ns: 100_000,
                max_backoff_ns: 1_000_000,
                deadline_ns: 10_000_000,
            });
            dpdpu_des::sleep(1_500_000).await; // enter the stall
            let mut failures = 0;
            for i in 0..FAILOVER_THRESHOLD as u64 {
                if client
                    .kv_put(100 + i, Bytes::from_static(b"during"))
                    .await
                    .is_err()
                {
                    failures += 1;
                }
            }
            assert_eq!(
                failures, FAILOVER_THRESHOLD as u64,
                "ops during the stall must fail to arm the detector"
            );
            let ctl = cluster.ctl(0).unwrap();
            assert_eq!(
                ctl.promotions.get(),
                0,
                "probe must veto the failover: the primary is alive"
            );
            assert_eq!(ctl.primary(), 0, "primary keeps its seat");
            assert!(!ctl.is_deposed(0));
            // After the stall the same primary serves again.
            dpdpu_des::sleep(20_000_000).await;
            assert_eq!(
                client.kv_get(7).await.unwrap().unwrap(),
                Bytes::from_static(b"seed")
            );
            client
                .kv_put(8, Bytes::from_static(b"after"))
                .await
                .unwrap();
            assert_eq!(ctl.promotions.get(), 0);
        });
    }

    #[test]
    fn chain_forwarded_drop_from_a_deposed_epoch_is_fenced() {
        // A DropKeys stamped with a pre-failover epoch must bounce off
        // the promoted replica's fence exactly like a stale ReplPut —
        // while client-originated drops (epoch 0) still land.
        let _check = dpdpu_check::CheckGuard::new();
        block_on(async {
            let cluster = DdsCluster::build(ClusterConfig {
                shards: 1,
                replicas: 2,
                ..ClusterConfig::default()
            })
            .await;
            let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
            let client = cluster.connect(client_cpu);
            client.kv_put(7, Bytes::from_static(b"keep")).await.unwrap();
            let ctl = cluster.ctl(0).unwrap();
            let old_epoch = ctl.epoch();
            ctl.promote().unwrap();
            // shard_client now resolves to the promoted backup, whose
            // fence sits at the new epoch.
            let new_primary = client.shard_client(0);
            let stale = new_primary
                .call(Op::DropKeys {
                    epoch: old_epoch,
                    keys: vec![7],
                })
                .await;
            assert!(
                matches!(stale, Err(DpdpuError::StaleEpoch)),
                "stale-epoch drop must be fenced, got {stale:?}"
            );
            let role = cluster.group(0).members[1].replication().unwrap();
            assert!(role.stale_rejections.get() > 0, "rejection not counted");
            assert_eq!(
                client.kv_get(7).await.unwrap().unwrap(),
                Bytes::from_static(b"keep"),
                "fenced drop must not reach the index"
            );
            // A client-originated drop (epoch 0) still works.
            let drop = Op::DropKeys {
                epoch: 0,
                keys: vec![7],
            };
            assert_eq!(new_primary.call(drop).await.unwrap(), Reply::Ok);
            assert_eq!(client.kv_get(7).await.unwrap(), None);
        });
    }
}
