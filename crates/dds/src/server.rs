//! The DDS storage server (paper Figure 9) and a request/response client.
//!
//! Requests arrive over the (simulated) network at the DPU. The server
//! parses each message, asks the [`TrafficDirector`] whether the offload
//! engine can serve it, and executes it either entirely on the DPU or on
//! the host endpoint (crossing PCIe twice and spending host CPU). The
//! measured outcome — host cores saved as a function of offloadable
//! traffic — is the crate's reproduction of "DDS can save up to 10s of
//! CPU cores per storage server" (§9).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;

use dpdpu_core::DpdpuError;
use dpdpu_des::{oneshot, spawn, timeout, Counter, OneshotSender};
use dpdpu_hw::{costs, Platform};
use dpdpu_net::fabric::{Endpoint, FabricReceiver, FabricSender};
use dpdpu_net::NetConfig;
use dpdpu_storage::{FileService, FsError};

use crate::director::{Route, TrafficDirector};
use crate::kv::{DpuPut, KvStore, Residency};
use crate::pageserver::{PageServer, PAGE_SIZE};
use crate::proto::{ErrorCode, Op, Reply, Request, Response, RetryPolicy};
use crate::replication::ReplRole;

/// DPU cycles to parse one request and consult the director.
const DPU_PARSE_CYCLES: u64 = 800;
/// DPU cycles of application logic per DPU-served request (offload
/// engine, zero-copy handoff).
const DPU_APP_CYCLES: u64 = 2_000;
/// Host cycles of application logic per host-served request (socket
/// wakeup, request dispatch, buffer management) — on top of storage I/O
/// and replay costs charged by the layers below. A DPU-served request
/// costs the host nothing, so this is the whole per-request saving.
pub const HOST_APP_CYCLES: u64 = 12_000;

/// One connection's replay cache: `req_id` -> `None` while the request
/// is in flight, `Some(framed response)` once answered.
type ReplayCache = RefCell<HashMap<u64, Option<Bytes>>>;

/// The calls a [`Dds::connect`]ed client has finished, oldest first:
/// `(request frames the client had sent when the call ended, req_id)`.
/// The client appends, the server retires; nothing crosses the wire.
type Retired = Rc<RefCell<VecDeque<(u64, u64)>>>;

/// Server construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct DdsConfig {
    /// Enable the DDS offload path (false = legacy all-host baseline).
    pub offload_enabled: bool,
    /// DPU-memory budget for the KV index (drives partial offloading).
    pub kv_index_budget: u64,
    /// Pages hosted by the page server.
    pub num_pages: u64,
    /// DPU-memory page cache in front of the SSD, in pages (0 = none;
    /// the §9 "caching in DPU-backed file system" extension).
    pub dpu_cache_pages: usize,
}

impl Default for DdsConfig {
    fn default() -> Self {
        DdsConfig {
            offload_enabled: true,
            kv_index_budget: 1 << 20,
            num_pages: 1_024,
            dpu_cache_pages: 0,
        }
    }
}

/// The assembled storage server.
pub struct Dds {
    platform: Rc<Platform>,
    /// Request router (Q2).
    pub director: TrafficDirector,
    /// FASTER-style KV integration.
    pub kv: Rc<KvStore>,
    /// Hyperscale-style page-server integration.
    pub pages: Rc<PageServer>,
    /// Requests served on the DPU path.
    pub served_dpu: Counter,
    /// Requests served on the host path.
    pub served_host: Counter,
    /// Requests whose DPU execution failed and were re-run on the host
    /// (graceful degradation; also opens the director's breaker).
    pub host_fallbacks: Counter,
    /// Requests that failed on both paths and were answered with
    /// [`Reply::Error`].
    pub(crate) exec_errors: Counter,
    /// Duplicate requests (client retries of an id this connection has
    /// already answered) served from the per-connection replay cache
    /// instead of being re-executed.
    pub(crate) dup_replays: Counter,
    /// Replay-cache entries held right now, over every connection.
    pub(crate) replay_entries: Cell<usize>,
    /// Membership in a replica group, attached by the cluster when it
    /// runs with `replicas >= 2`. Absent, the server behaves exactly as
    /// an unreplicated shard.
    repl: RefCell<Option<Rc<ReplRole>>>,
}

impl Dds {
    /// Builds the server: boots the Storage Engine with
    /// `FileService::boot`, which registers the platform with an installed
    /// telemetry session, formats the unified file system and starts the
    /// DPU file service, then instantiates both application integrations.
    pub async fn build(platform: Rc<Platform>, config: DdsConfig) -> Rc<Self> {
        let service = FileService::boot(&platform);
        let kv = KvStore::create(
            service.clone(),
            platform.dpu_mem.clone(),
            config.kv_index_budget,
            "faster.log",
        )
        .await
        .expect("fresh fs cannot fail");
        let cache = if config.dpu_cache_pages > 0 {
            Some(
                dpdpu_storage::PageCache::new(&platform.dpu_mem, config.dpu_cache_pages, PAGE_SIZE)
                    .expect("cache must fit in DPU memory"),
            )
        } else {
            None
        };
        let pages = PageServer::with_cache(service, config.num_pages, cache)
            .await
            .expect("fresh fs cannot fail");
        Rc::new(Dds {
            platform,
            director: TrafficDirector::new(config.offload_enabled),
            kv,
            pages,
            served_dpu: Counter::new(),
            served_host: Counter::new(),
            host_fallbacks: Counter::new(),
            exec_errors: Counter::new(),
            dup_replays: Counter::new(),
            replay_entries: Cell::new(0),
            repl: RefCell::new(None),
        })
    }

    /// The platform (for CPU accounting in experiments).
    pub fn platform(&self) -> &Rc<Platform> {
        &self.platform
    }

    /// Attaches one client: connects `client` to this server over
    /// `net`'s fabric, serves the server half and returns a
    /// [`DdsClient`] on the client half. `label` names the connection's
    /// resources. The server half ends on the DPU, where the director
    /// routes: the transport costs the host nothing, and the host sees
    /// only what `Dds::host_exec` forwards. The two halves share a
    /// ledger of finished calls, so the server's replay cache holds only
    /// calls the client may still retry (see [`Dds::serve`]).
    pub fn connect(
        self: &Rc<Self>,
        net: &NetConfig,
        client: &Endpoint,
        label: &str,
    ) -> Rc<DdsClient> {
        let server = Endpoint::dpu_native(&self.platform);
        let (client_conn, server_conn) = net.connect(client, &server, label);
        let (stx, srx) = server_conn.split();
        let retired = Retired::default();
        self.serve_retiring(srx, stx, Some(retired.clone()));
        let (ctx, crx) = client_conn.split();
        DdsClient::with_ledger(ctx, crx, Some(retired))
    }

    /// Joins this server to a replica group. Called by the cluster once
    /// the group's fabric chain is wired, before traffic starts.
    pub(crate) fn attach_replication(&self, role: Rc<ReplRole>) {
        *self.repl.borrow_mut() = Some(role);
    }

    /// This server's replication role, when clustered with replicas.
    pub fn replication(&self) -> Option<Rc<ReplRole>> {
        self.repl.borrow().clone()
    }

    /// Classifies one request: can the offload engine serve it alone?
    fn wants_dpu(&self, op: &Op) -> bool {
        let resident = |key: &u64| self.kv.residency(*key) == Residency::Dpu;
        match op {
            // A put to a DPU-resident key is ordered where its entry
            // lives: the per-key chain stripe, the epoch stamp, the log
            // append and the replay cache are all DPU state, so the host
            // adds nothing. A missing, host-resident or promoting key's
            // put takes the host path, as in DDS's integration.
            Op::KvGet { key } | Op::KvPut { key, .. } => resident(key),
            // A liveness probe touches no storage at all.
            Op::Ping => true,
            // A migration copy is put-if-absent over the whole index, and
            // page-log replay needs host memory.
            Op::MigratePut { .. } | Op::AppendLog { .. } => false,
            Op::GetPage { page_id } => self.pages.is_clean(*page_id),
            // A scan is DPU-servable only when every present key of the
            // range is DPU-resident; one host-partition key drags the
            // whole request to the host.
            Op::KvScan { start_key, count } => self.kv.range_resident_dpu(*start_key, *count),
            // An op delivered by the chain was ordered by the primary
            // already; the log lives on the DPU file service, so the
            // backup's host adds nothing when every key it touches has
            // a DPU-resident index entry. An absent or host-resident key
            // (a first write, a key past the budget) takes the host path.
            Op::ReplPut { key, .. } => resident(key),
            Op::DropKeys { epoch, keys } if *epoch > 0 => keys.iter().all(resident),
            // A migration's own drop (epoch 0) is a client op of the
            // primary, and the key listing walks the full index: host
            // path.
            Op::ListKeys | Op::DropKeys { .. } => false,
        }
    }

    /// Handles one already-received request, charging the serving path.
    pub(crate) async fn handle(&self, req: Request) -> Response {
        let reply = self.reply_to(&req).await;
        Response {
            req_id: req.req_id,
            reply,
        }
    }

    /// Routes and executes `req.op`; only the host path's PCIe charges
    /// look at the envelope (they are sized by the whole message).
    async fn reply_to(&self, req: &Request) -> Reply {
        let req_kind = req.op.name();
        let mut req_span = dpdpu_telemetry::span("dpu", "dds-server", req.op.span_name());
        // Parse + director lookup on the DPU.
        self.platform.dpu_cpu.exec(DPU_PARSE_CYCLES).await;
        // A deposed replica is fenced out of the group forever: every
        // request — reads included — answers `StaleEpoch`, so a zombie
        // primary resurrected after failover can neither ack writes nor
        // serve reads of state the surviving chain has moved past.
        let repl = self.repl.borrow().clone();
        if let Some(role) = repl {
            if role.deposed() {
                req_span.attr("route", "fenced");
                return role.stand_down();
            }
        }
        let route = self.director.route(self.wants_dpu(&req.op));
        req_span.attr("route", route.name());
        dpdpu_telemetry::count(
            "dds_requests",
            &[("kind", req_kind), ("route", route.name())],
        );
        match route {
            Route::Dpu => {
                // A put holds its entry on the DPU until it indexes.
                let ordered = match req.op {
                    Op::KvPut { key, .. } | Op::ReplPut { key, .. } => {
                        Some(self.kv.order_on_dpu(key))
                    }
                    _ => None,
                };
                self.platform.dpu_cpu.exec(DPU_APP_CYCLES).await;
                match self.try_exec(&req.op, ordered).await {
                    Ok(reply) => {
                        self.served_dpu.inc();
                        reply
                    }
                    Err(_) => {
                        // The DPU path failed even after the storage
                        // layer's own retries: open the director's
                        // breaker and re-execute on the host, which can
                        // always serve (graceful degradation, §9).
                        self.director.record_dpu_fault();
                        self.host_fallbacks.inc();
                        dpdpu_telemetry::count("dds_fallbacks", &[("kind", req_kind)]);
                        self.host_exec(req).await
                    }
                }
            }
            Route::Host => self.host_exec(req).await,
        }
    }

    /// Serves one request on the host path: PCIe crossing, kernel network
    /// stack, host application logic, execution, PCIe return. A storage
    /// failure here is terminal and becomes a [`Reply::Error`] — the
    /// client always gets an answer.
    async fn host_exec(&self, req: &Request) -> Reply {
        self.served_host.inc();
        // NIC→host handoff, kernel network stack, app logic.
        self.platform
            .host_dpu_pcie
            .dma(req.encoded_len() as u64)
            .await;
        dpdpu_des::sleep(costs::HOST_KERNEL_NET_NS).await;
        self.platform.host_cpu.exec(HOST_APP_CYCLES).await;
        let reply = match self.try_exec(&req.op, None).await {
            Ok(reply) => reply,
            Err(_) => {
                self.exec_errors.inc();
                dpdpu_telemetry::count("dds_exec_errors", &[]);
                Reply::Error(ErrorCode::Storage)
            }
        };
        // Response descends back through the DPU.
        let resp = Response {
            req_id: req.req_id,
            reply,
        };
        self.platform
            .host_dpu_pcie
            .dma(resp.encoded_len() as u64)
            .await;
        // The get is counted; a key hotter than the coldest DPU entry
        // takes its slot, by a DMA off the reply's path.
        if let Op::KvGet { key } = req.op {
            self.kv.promote_if_hot(key, &self.platform.host_dpu_pcie);
        }
        resp.reply
    }

    /// Executes the application operation (costs inside the KV / page
    /// server / file service layers are charged by those layers).
    /// Storage failures — e.g. injected SSD errors that survive the file
    /// service's retries — surface as `Err` for the caller to degrade on.
    /// `ordered` is the ticket of a put the DPU ordered.
    async fn try_exec(&self, op: &Op, ordered: Option<DpuPut>) -> Result<Reply, FsError> {
        Ok(match op {
            Op::KvGet { key } => match self.kv.get(*key).await? {
                Some(data) => Reply::Data(data),
                None => Reply::NotFound,
            },
            Op::KvPut { key, value } => {
                let role = self.repl.borrow().clone();
                match role {
                    Some(role) => {
                        return self.repl_commit(&role, *key, value, false, ordered).await
                    }
                    None => {
                        self.kv.put_ordered(*key, value, ordered).await?;
                        Reply::Ok
                    }
                }
            }
            Op::GetPage { page_id } => {
                let data = if self.pages.is_clean(*page_id) {
                    self.pages.get_page_dpu(*page_id).await?
                } else {
                    self.pages
                        .get_page_host(*page_id, &self.platform.host_cpu)
                        .await?
                };
                Reply::Data(data)
            }
            Op::AppendLog {
                page_id,
                offset,
                delta,
            } => {
                self.pages
                    .append_log(*page_id, *offset, delta.clone())
                    .await?;
                Reply::Ok
            }
            Op::KvScan { start_key, count } => Reply::Scan(self.kv.scan(*start_key, *count).await?),
            Op::ReplPut { epoch, key, value } => {
                let role = self.repl.borrow().clone();
                match role {
                    Some(role) if *epoch >= role.fence.get() => {
                        self.kv.put_ordered(*key, value, ordered).await?;
                        // The fence is checked again after the apply: a
                        // primary whose chain call timed out meanwhile
                        // took a solo grant and deposed this replica, so
                        // this replica must not ack the write.
                        if role.deposed() || *epoch < role.fence.get() {
                            return Ok(role.stand_down());
                        }
                        // Record the ack at apply time, not when the
                        // primary hears back: a promotion landing between
                        // the two must not make this write look like it
                        // was acked under a stale epoch.
                        dpdpu_check::repl_write_acked(role.ctl.group, *epoch);
                        Reply::Ok
                    }
                    Some(role) => role.stand_down(),
                    None => Reply::Error(ErrorCode::Unavailable),
                }
            }
            Op::MigratePut { key, value } => {
                let role = self.repl.borrow().clone();
                match role {
                    // The replicated path holds the key's place in the
                    // chain order across the presence check and the put,
                    // so a same-key client put cannot slip between them.
                    Some(role) => return self.repl_commit(&role, *key, value, true, None).await,
                    None => {
                        // Put-if-absent, decided at index-update time: a
                        // client write that already landed — or is still
                        // in flight — on this (new) owner must win over
                        // the stale copy arriving from the old owner.
                        self.kv.put_if_absent(*key, value).await?;
                        Reply::Ok
                    }
                }
            }
            Op::ListKeys => Reply::Keys(self.kv.keys()),
            Op::DropKeys { epoch, keys } => {
                let role = self.repl.borrow().clone();
                // A chain-forwarded drop (epoch > 0) is fenced exactly
                // like ReplPut: a drop stamped by a since-deposed
                // primary must not reach this replica's index.
                if let Some(role) = &role {
                    if *epoch > 0 && *epoch < role.fence.get() {
                        return Ok(role.stand_down());
                    }
                }
                if let Some(role) = role.filter(|r| r.is_primary() && !r.deposed()) {
                    // Forward the drop down the chain first so it lands
                    // FIFO-after any in-flight replicated puts for the
                    // same keys, stamped with the epoch this primary
                    // holds right now. It waits for every key's place in
                    // the chain order, taking each stripe once, ascending.
                    let _order = role.order_keys(keys).await;
                    if !role.ctl.primary_is_solo() {
                        let backup = role.backup.borrow().clone();
                        if let Some(backup) = backup {
                            let fwd = Op::DropKeys {
                                epoch: role.ctl.epoch(),
                                keys: keys.clone(),
                            };
                            if backup.call(fwd).await.is_err() {
                                // Unreachable backup would keep the
                                // dropped keys forever: depose it so the
                                // divergence check only counts live
                                // replicas.
                                let _ = role.ctl.solo_grant(role.me);
                            }
                        }
                    }
                }
                for key in keys {
                    self.kv.drop_key(*key);
                }
                Reply::Ok
            }
            Op::Ping => Reply::Ok,
        })
    }

    /// Commits one write on a replicated shard: apply locally and chain
    /// to the backup at once, ack only once the chain (or an
    /// epoch-fenced solo grant) holds the write. `if_absent` gives
    /// migration copies put-if-absent semantics; `ordered` is the ticket
    /// of a put the DPU ordered.
    async fn repl_commit(
        &self,
        role: &Rc<ReplRole>,
        key: u64,
        value: &Bytes,
        if_absent: bool,
        ordered: Option<DpuPut>,
    ) -> Result<Reply, FsError> {
        // One replicated commit per key at a time: the backup must apply
        // a key's writes in this primary's apply order or same-key races
        // would leave the replicas permanently divergent. Other keys'
        // commits overlap this one.
        let _order = role.order_key(key).await;
        if role.deposed() || !role.is_primary() {
            return Ok(role.stand_down());
        }
        if if_absent && self.kv.contains(key) {
            return Ok(Reply::Ok);
        }
        let epoch = role.ctl.epoch();
        let backup = if role.ctl.primary_is_solo() {
            None
        } else {
            role.backup.borrow().clone()
        };
        let Some(backup) = backup else {
            self.kv.put_ordered(key, value, ordered).await?;
            // Solo already, or no chain link wired: make the solo claim
            // explicit before acking unreplicated writes.
            let e = if role.ctl.primary_is_solo() {
                role.ctl.epoch()
            } else {
                match role.ctl.solo_grant(role.me) {
                    Some(e) => e,
                    None => return Ok(role.stand_down()),
                }
            };
            role.solo_commits.inc();
            dpdpu_check::repl_write_acked(role.ctl.group, e);
            return Ok(Reply::Ok);
        };
        role.chained.inc();
        let fwd = Op::ReplPut {
            epoch,
            key,
            value: value.clone(),
        };
        // The backup's round trip runs beside the local apply, so the
        // key's place is held for the slower of the two, not their sum.
        // It is a task of its own so that its wakes never re-poll the
        // apply.
        let chained = spawn(async move { backup.call(fwd).await });
        let local = self.kv.put_ordered(key, value, ordered).await;
        match (local, chained.await) {
            // Both copies applied (the backup recorded the ack itself).
            (Ok(()), Ok(Reply::Ok)) => Ok(Reply::Ok),
            // Only the backup holds the write: hand it the group, so the
            // client's re-route lands on the copy that has it. With no
            // candidate to promote, the local error stands.
            (Err(e), Ok(Reply::Ok)) => {
                if role.ctl.primary() == role.me && role.ctl.promote().is_none() {
                    return Err(e);
                }
                Ok(role.stand_down())
            }
            (_, Ok(other)) => unreachable!("unexpected replication reply {other:?}"),
            // The fence rose past us: a failover already promoted the
            // backup. Stand down without acking.
            (_, Err(DpdpuError::StaleEpoch)) => Ok(role.stand_down()),
            // Backup unreachable (it may still hold the write): depose
            // it and go on solo at a fresh epoch. A failed local apply
            // is still the client's error.
            (local, Err(_)) => match role.ctl.solo_grant(role.me) {
                Some(e) => {
                    local?;
                    role.solo_commits.inc();
                    dpdpu_check::repl_write_acked(role.ctl.group, e);
                    Ok(Reply::Ok)
                }
                // Refused: a failover promoted past us mid-write.
                None => Ok(role.stand_down()),
            },
        }
    }

    /// Serves requests from one half of a fabric connection, answering
    /// on the other. Accepts raw TCP halves or any
    /// [`dpdpu_net::fabric`] connection's halves. Each request is
    /// handled concurrently (the DPU pipeline of §4).
    ///
    /// Execution is **at-most-once per connection**: clients retry with
    /// the same request id, so a duplicate of an in-flight request is
    /// dropped (the original's response is still on its way) and a
    /// duplicate of a completed one is answered from a replay cache
    /// without re-executing. Without this, a zombie duplicate of an old
    /// write landing after a newer same-key write would silently
    /// resurrect the old value — a lost update. The one reply that is
    /// not cached is [`ErrorCode::Storage`]: the op never took effect,
    /// and the client retries it in case the fault was transient.
    ///
    /// Halves wired by hand have no ledger of finished calls, so their
    /// cache lives as long as the connection; [`Dds::connect`] bounds it.
    pub fn serve(self: &Rc<Self>, rx: impl Into<FabricReceiver>, tx: impl Into<FabricSender>) {
        self.serve_retiring(rx.into(), tx.into(), None);
    }

    /// [`Dds::serve`], retiring cache entries through the client's
    /// `retired` ledger when the connection has one. Before it handles
    /// frame `seen` (1-based, counting every frame deframed, dropped
    /// ones included), the server forgets each call that ended after at
    /// most `seen - 1` frames were sent: the stream is FIFO, so every
    /// copy of that request came before this frame and has been met.
    fn serve_retiring(
        self: &Rc<Self>,
        mut rx: FabricReceiver,
        tx: FabricSender,
        retired: Option<Retired>,
    ) {
        let this = self.clone();
        spawn(async move {
            let tag = this.platform.tag.clone();
            let mut deframer = crate::proto::Deframer::new();
            let dedup = Rc::new(ReplayCache::default());
            let mut seen = 0u64;
            while let Some(chunk) = rx.recv().await {
                for msg in deframer.push(&chunk) {
                    seen += 1;
                    if let Some(retired) = &retired {
                        let mut retired = retired.borrow_mut();
                        while let Some(&(sent, req_id)) = retired.front() {
                            if sent >= seen {
                                break;
                            }
                            retired.pop_front();
                            this.forget(&dedup, req_id);
                        }
                    }
                    if dpdpu_faults::shard_down(&tag) {
                        // The node is down: the request vanishes with it.
                        // Durable state survives the crash; the client's
                        // retries cover recovery.
                        continue;
                    }
                    let req = match Request::decode(&msg) {
                        Ok(r) => r,
                        Err(_) => continue, // non-storage traffic: ignore here
                    };
                    let req_id = req.req_id;
                    match dedup.borrow_mut().entry(req_id) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            if let Some(cached) = e.get() {
                                this.dup_replays.inc();
                                if !dpdpu_faults::shard_down(&tag) {
                                    tx.send(cached.clone());
                                }
                            }
                            continue;
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(None);
                            this.replay_entries.set(this.replay_entries.get() + 1);
                        }
                    }
                    let this = this.clone();
                    let tx = tx.clone();
                    let dedup = dedup.clone();
                    let tag = tag.clone();
                    spawn(async move {
                        let resp = this.handle(req).await;
                        let framed = crate::proto::frame(&resp.encode());
                        if resp.reply == Reply::Error(ErrorCode::Storage) {
                            // Not an answer to cache: every storage error
                            // surfaces before the op takes effect, so the
                            // client's retry of this id may re-execute.
                            this.forget(&dedup, req_id);
                        } else if let Some(slot) = dedup.borrow_mut().get_mut(&req_id) {
                            // The replay cache still records the response
                            // — state survives a crash; only the send
                            // vanishes with the downed node. A call its
                            // client already retired has no slot left.
                            *slot = Some(framed.clone());
                        }
                        if !dpdpu_faults::shard_down(&tag) {
                            tx.send(framed);
                        }
                    });
                }
            }
        });
    }

    /// Drops `req_id`'s replay-cache entry, if it has one.
    fn forget(&self, dedup: &ReplayCache, req_id: u64) {
        if dedup.borrow_mut().remove(&req_id).is_some() {
            self.replay_entries.set(self.replay_entries.get() - 1);
        }
    }
}

/// A client that correlates responses by request id over a fabric
/// connection (TCP by default; any [`dpdpu_net::fabric`] kind).
///
/// Every call runs under a [`RetryPolicy`]: a per-attempt response
/// timeout, exponential backoff between attempts, an attempt limit, and
/// an overall deadline. A request therefore always reaches a terminal
/// state — a response, a typed [`DpdpuError`], or deadline expiry — even
/// when the network drops frames or the server answers with an error.
pub struct DdsClient {
    tx: FabricSender,
    pending: Rc<RefCell<HashMap<u64, OneshotSender<Reply>>>>,
    next_id: Cell<u64>,
    policy: Cell<RetryPolicy>,
    /// Request frames sent on this connection so far.
    sent: Cell<u64>,
    /// Where finished calls are reported, on a [`Dds::connect`]ion.
    retired: Option<Retired>,
    /// Attempts re-sent after a timeout or a server-reported error.
    pub retries: Counter,
    /// Per-attempt response timeouts observed.
    pub timeouts: Counter,
    /// Calls that surfaced a terminal error to the caller.
    pub failures: Counter,
}

impl DdsClient {
    /// Builds a client over an established connection's halves (TCP or
    /// any fabric) and starts its response demultiplexer.
    pub fn new(tx: impl Into<FabricSender>, rx: impl Into<FabricReceiver>) -> Rc<Self> {
        Self::with_ledger(tx.into(), rx.into(), None)
    }

    /// [`DdsClient::new`], reporting every finished call to `retired`.
    fn with_ledger(tx: FabricSender, mut rx: FabricReceiver, retired: Option<Retired>) -> Rc<Self> {
        let pending: Rc<RefCell<HashMap<u64, OneshotSender<Reply>>>> =
            Rc::new(RefCell::new(HashMap::new()));
        {
            let pending = pending.clone();
            spawn(async move {
                let mut deframer = crate::proto::Deframer::new();
                while let Some(chunk) = rx.recv().await {
                    for msg in deframer.push(&chunk) {
                        if let Ok(resp) = Response::decode(&msg) {
                            if let Some(tx) = pending.borrow_mut().remove(&resp.req_id) {
                                let _ = tx.send(resp.reply);
                            }
                        }
                    }
                }
                // Stream closed: cancel every waiter so no call hangs
                // forever — dropping the senders resolves the paired
                // receivers with `Cancelled` → `ConnectionClosed`.
                pending.borrow_mut().clear();
            });
        }
        Rc::new(DdsClient {
            tx,
            pending,
            next_id: Cell::new(1),
            policy: Cell::new(RetryPolicy::default()),
            sent: Cell::new(0),
            retired,
            retries: Counter::new(),
            timeouts: Counter::new(),
            failures: Counter::new(),
        })
    }

    /// Replaces the retry policy used by [`DdsClient::call`] and the
    /// typed helpers.
    pub fn set_policy(&self, policy: RetryPolicy) {
        self.policy.set(policy);
    }

    fn fresh_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// Issues one request under the client's default [`RetryPolicy`].
    pub async fn call(&self, op: Op) -> Result<Reply, DpdpuError> {
        self.call_with(self.policy.get(), op).await
    }

    /// Issues one request under an explicit policy. Retries re-send with
    /// the same request id, so a late response to an earlier attempt
    /// still completes the call (and duplicate responses are dropped by
    /// the demultiplexer).
    pub(crate) async fn call_with(&self, policy: RetryPolicy, op: Op) -> Result<Reply, DpdpuError> {
        let req = Request {
            req_id: self.fresh_id(),
            op,
        };
        let _end = CallEnd {
            client: self,
            req_id: req.req_id,
        };
        let start = dpdpu_des::now();
        let mut attempt = 1u32;
        loop {
            let elapsed = dpdpu_des::now() - start;
            if elapsed >= policy.deadline_ns {
                self.failures.inc();
                return Err(DpdpuError::Timeout {
                    elapsed_ns: elapsed,
                });
            }
            let wait = policy.request_timeout_ns.min(policy.deadline_ns - elapsed);
            let (otx, orx) = oneshot();
            self.pending.borrow_mut().insert(req.req_id, otx);
            self.tx.send(crate::proto::frame(&req.encode()));
            self.sent.set(self.sent.get() + 1);
            match timeout(wait, orx).await {
                Ok(Ok(Reply::Error(ErrorCode::StaleEpoch))) => {
                    // Fencing is terminal at this epoch: the server was
                    // deposed and will never recover here. Surface
                    // immediately — no retry — so the caller re-routes
                    // to the group's current primary.
                    self.failures.inc();
                    return Err(DpdpuError::StaleEpoch);
                }
                Ok(Ok(Reply::Error(code))) => {
                    // Terminal server answer; retry in case the fault
                    // was transient, error out once attempts run dry.
                    if attempt >= policy.max_attempts {
                        self.failures.inc();
                        return Err(match code {
                            ErrorCode::Storage => DpdpuError::Remote("storage error"),
                            ErrorCode::Unavailable => DpdpuError::Unavailable("dds server"),
                            ErrorCode::StaleEpoch => DpdpuError::StaleEpoch,
                        });
                    }
                }
                Ok(Ok(reply)) => return Ok(reply),
                Ok(Err(_cancelled)) => {
                    // Demultiplexer dropped our waiter: stream closed.
                    self.failures.inc();
                    return Err(DpdpuError::ConnectionClosed);
                }
                Err(_elapsed) => {
                    self.pending.borrow_mut().remove(&req.req_id);
                    self.timeouts.inc();
                    dpdpu_telemetry::count("dds_client_timeouts", &[]);
                    if attempt >= policy.max_attempts {
                        self.failures.inc();
                        return Err(DpdpuError::RetriesExhausted { attempts: attempt });
                    }
                }
            }
            dpdpu_telemetry::count("dds_client_retries", &[]);
            self.retries.inc();
            dpdpu_des::sleep(policy.backoff_ns(attempt)).await;
            attempt += 1;
        }
    }

    /// KV get.
    pub async fn kv_get(&self, key: u64) -> Result<Option<Bytes>, DpdpuError> {
        self.call(Op::KvGet { key }).await.map(Reply::value)
    }

    /// KV put.
    pub async fn kv_put(&self, key: u64, value: Bytes) -> Result<(), DpdpuError> {
        self.call(Op::KvPut { key, value }).await.map(Reply::ack)
    }

    /// GetPage.
    pub async fn get_page(&self, page_id: u64) -> Result<Bytes, DpdpuError> {
        let page = self.call(Op::GetPage { page_id }).await?.value();
        Ok(page.expect("a page is never absent"))
    }

    /// Ship one WAL record.
    pub async fn append_log(
        &self,
        page_id: u64,
        offset: u32,
        delta: Bytes,
    ) -> Result<(), DpdpuError> {
        let record = Op::AppendLog {
            page_id,
            offset,
            delta,
        };
        self.call(record).await.map(Reply::ack)
    }
}

/// Retires one call when it ends, by any return or by being dropped:
/// the client never sends its id again, so every copy is among the
/// frames sent so far.
struct CallEnd<'a> {
    client: &'a DdsClient,
    req_id: u64,
}

impl Drop for CallEnd<'_> {
    fn drop(&mut self) {
        if let Some(retired) = &self.client.retired {
            retired
                .borrow_mut()
                .push_back((self.client.sent.get(), self.req_id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::block_on;
    use dpdpu_hw::{CpuPool, LinkConfig};
    use dpdpu_net::tcp::TcpConnector;

    /// Builds server + connected client inside a running sim.
    async fn testbed(config: DdsConfig) -> (Rc<Dds>, Rc<DdsClient>, Rc<Platform>) {
        let platform = Platform::default_bf2();
        let dds = Dds::build(platform.clone(), config).await;
        let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
        let client = dds.connect(&NetConfig::default(), &Endpoint::host(client_cpu), "client");
        (dds, client, platform)
    }

    #[test]
    fn kv_end_to_end_over_the_network() {
        block_on(async {
            let (_dds, client, _p) = testbed(DdsConfig::default()).await;
            client
                .kv_put(1, Bytes::from_static(b"value-1"))
                .await
                .unwrap();
            client
                .kv_put(2, Bytes::from_static(b"value-2"))
                .await
                .unwrap();
            assert_eq!(
                client.kv_get(1).await.unwrap().unwrap(),
                Bytes::from_static(b"value-1")
            );
            assert_eq!(
                client.kv_get(2).await.unwrap().unwrap(),
                Bytes::from_static(b"value-2")
            );
            assert_eq!(client.kv_get(42).await.unwrap(), None);
        });
    }

    #[test]
    fn kv_scan_end_to_end_routes_by_residency() {
        block_on(async {
            let config = DdsConfig {
                kv_index_budget: 4 * crate::kv::INDEX_ENTRY_BYTES,
                ..DdsConfig::default()
            };
            let (dds, client, _p) = testbed(config).await;
            for k in 0..8u64 {
                client
                    .kv_put(k, Bytes::from(vec![k as u8; 64]))
                    .await
                    .unwrap();
            }
            let served_dpu_before = dds.served_dpu.get();
            // Keys 0..4 are DPU-resident: that scan serves on the DPU.
            let scan = |count| Op::KvScan {
                start_key: 0,
                count,
            };
            let hits = client.call(scan(4)).await.unwrap().rows();
            assert_eq!(hits.len(), 4);
            assert_eq!(dds.served_dpu.get(), served_dpu_before + 1);
            // Keys 4..8 overflowed to the host: host-served scan.
            let served_host_before = dds.served_host.get();
            let hits = client.call(scan(8)).await.unwrap().rows();
            assert_eq!(hits.len(), 8);
            assert_eq!(hits[5], (5, Bytes::from(vec![5u8; 64])));
            assert_eq!(dds.served_host.get(), served_host_before + 1);
        });
    }

    #[test]
    fn duplicate_requests_replay_without_reexecution() {
        block_on(async {
            let platform = Platform::default_bf2();
            let dds = Dds::build(platform.clone(), DdsConfig::default()).await;
            let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
            let server_side = Endpoint::offloaded(
                platform.host_cpu.clone(),
                platform.dpu_cpu.clone(),
                platform.host_dpu_pcie.clone(),
            );
            let client_side = Endpoint::host(client_cpu);
            let net = TcpConnector::new(LinkConfig::rack_100g());
            let (c2s_tx, c2s_rx) = net.stream(client_side.clone(), server_side.clone());
            let (s2c_tx, mut s2c_rx) = net.stream(server_side, client_side);
            dds.serve(c2s_rx, s2c_tx);
            let mut deframer = crate::proto::Deframer::new();
            let mut responses = Vec::new();
            // Preload one key, then re-send the same get three times — as
            // a retrying client does after timeouts.
            c2s_tx.send(crate::proto::frame(
                &Request {
                    req_id: 1,
                    op: Op::KvPut {
                        key: 1,
                        value: Bytes::from_static(b"v"),
                    },
                }
                .encode(),
            ));
            while responses.is_empty() {
                let chunk = s2c_rx.recv().await.expect("stream open");
                for msg in deframer.push(&chunk) {
                    responses.push(Response::decode(&msg).unwrap());
                }
            }
            assert_eq!(
                responses[0],
                Response {
                    req_id: 1,
                    reply: Reply::Ok
                }
            );
            let served_before = dds.served_dpu.get() + dds.served_host.get();
            // Await each response before re-sending: the duplicates reach
            // the server after the original completed, so they replay the
            // cached response. (In-flight duplicates are dropped instead —
            // the retrying client's timeout covers that case.)
            for round in 1..=3 {
                c2s_tx.send(crate::proto::frame(
                    &Request {
                        req_id: 777,
                        op: Op::KvGet { key: 1 },
                    }
                    .encode(),
                ));
                while responses.len() < 1 + round {
                    let chunk = s2c_rx.recv().await.expect("stream open");
                    for msg in deframer.push(&chunk) {
                        responses.push(Response::decode(&msg).unwrap());
                    }
                }
            }
            for resp in &responses[1..] {
                assert_eq!(
                    *resp,
                    Response {
                        req_id: 777,
                        reply: Reply::Data(Bytes::from_static(b"v"))
                    }
                );
            }
            assert_eq!(
                dds.served_dpu.get() + dds.served_host.get(),
                served_before + 1,
                "duplicates must not re-execute"
            );
            assert_eq!(dds.dup_replays.get(), 2);
        });
    }

    /// A connection built by [`Dds::connect`] retires each call's replay
    /// entry once no copy of it can still arrive: 2 000 pipelined calls
    /// leave at most a window's worth cached, where a cache that lived
    /// as long as the connection would hold all 2 000.
    #[test]
    fn replay_cache_is_bounded_by_the_window() {
        const WINDOW: usize = 8;
        block_on(async {
            let (dds, client, _p) = testbed(DdsConfig::default()).await;
            let window = dpdpu_des::Semaphore::new(WINDOW);
            let mut peak = 0;
            let mut calls = Vec::new();
            for i in 0..2_000u64 {
                let slot = window.acquire().await;
                peak = peak.max(dds.replay_entries.get());
                let client = client.clone();
                calls.push(spawn(async move {
                    let _slot = slot;
                    client.kv_get(i % 16).await.unwrap();
                }));
            }
            for call in calls {
                call.await;
            }
            let left = dds.replay_entries.get();
            assert!(left <= WINDOW, "{left} entries cached after the run");
            assert!(peak <= WINDOW, "{peak} entries cached at once");
        });
    }

    /// Retirement waits for the stream position, not the call's end:
    /// attempt 1 of a put times out just before its answer arrives,
    /// attempt 2 leaves at once, and the late answer completes the call
    /// while attempt 2 is still on the wire. Attempt 2 must meet the
    /// cached answer, not run the put a second time.
    #[test]
    fn a_duplicate_sent_before_retirement_is_still_replayed() {
        block_on(async {
            let (dds, client, _p) = testbed(DdsConfig::default()).await;
            let value = Bytes::from(vec![7u8; 1_024]);
            // A warm put's round trip, measured on a put of the same size.
            client.kv_put(1, value.clone()).await.unwrap();
            let t0 = dpdpu_des::now();
            client.kv_put(2, value.clone()).await.unwrap();
            let rtt = dpdpu_des::now() - t0;
            client.set_policy(RetryPolicy {
                request_timeout_ns: rtt - 500,
                base_backoff_ns: 0,
                ..RetryPolicy::default()
            });
            let log = dds.kv.log_bytes();
            client.kv_put(3, value).await.unwrap();
            assert_eq!((client.timeouts.get(), client.retries.get()), (1, 1));
            let appended = dds.kv.log_bytes() - log;
            // Let attempt 2 land and be answered.
            dpdpu_des::sleep(rtt).await;
            assert_eq!(dds.dup_replays.get(), 1, "attempt 2 met the cache");
            assert_eq!(
                dds.kv.log_bytes() - log,
                appended,
                "attempt 2 ran the put again"
            );
        });
    }

    #[test]
    fn page_server_end_to_end() {
        block_on(async {
            let (dds, client, _p) = testbed(DdsConfig::default()).await;
            client
                .append_log(3, 16, Bytes::from_static(b"wal-bytes"))
                .await
                .unwrap();
            assert!(!dds.pages.is_clean(3));
            // Pages are larger than one TCP segment: this exercises the
            // length-prefixed framing layer.
            let page = client.get_page(3).await.unwrap();
            assert_eq!(page.len(), 8_192);
            assert_eq!(&page[16..25], b"wal-bytes");
            // Host replayed it; now it's clean and DPU-servable.
            assert!(dds.pages.is_clean(3));
            let page2 = client.get_page(3).await.unwrap();
            assert_eq!(page2, page);
        });
    }

    #[test]
    fn large_values_cross_segment_boundaries() {
        block_on(async {
            let (_dds, client, _p) = testbed(DdsConfig::default()).await;
            // Value bigger than several segments.
            let value: Vec<u8> = (0..40_000u32).map(|i| (i % 249) as u8).collect();
            client.kv_put(9, Bytes::from(value.clone())).await.unwrap();
            assert_eq!(client.kv_get(9).await.unwrap().unwrap(), Bytes::from(value));
        });
    }

    #[test]
    fn a_first_write_routes_host_then_its_key_routes_dpu() {
        block_on(async {
            let (dds, client, p) = testbed(DdsConfig::default()).await;
            client.kv_put(7, Bytes::from_static(b"x")).await.unwrap(); // host
            let host_ns = p.host_cpu.busy_ns();
            client.kv_get(7).await.unwrap(); // dpu (index resident)
            client.kv_put(7, Bytes::from_static(b"y")).await.unwrap(); // dpu
            assert_eq!(
                client.kv_get(7).await.unwrap().unwrap(),
                Bytes::from_static(b"y")
            );
            assert_eq!(dds.served_host.get(), 1);
            assert_eq!(dds.served_dpu.get(), 3);
            assert_eq!(p.host_cpu.busy_ns(), host_ns, "the DPU path costs the host");
        });
    }

    #[test]
    fn offload_disabled_sends_everything_to_host() {
        block_on(async {
            let config = DdsConfig {
                offload_enabled: false,
                ..DdsConfig::default()
            };
            let (dds, client, _p) = testbed(config).await;
            client.kv_put(1, Bytes::from_static(b"v")).await.unwrap();
            client.kv_get(1).await.unwrap();
            client.get_page(0).await.unwrap();
            assert_eq!(dds.served_dpu.get(), 0);
            assert_eq!(dds.served_host.get(), 3);
        });
    }

    #[test]
    fn offload_saves_host_cpu_fig9() {
        // The §9 claim in miniature: same read-heavy workload, with and
        // without DDS offloading; compare host cores consumed.
        let run = |offload: bool| {
            block_on(async move {
                let config = DdsConfig {
                    offload_enabled: offload,
                    ..DdsConfig::default()
                };
                let (_dds, client, p) = testbed(config).await;
                for k in 0..32u64 {
                    client
                        .kv_put(k, Bytes::from(vec![k as u8; 256]))
                        .await
                        .unwrap();
                }
                let t0 = dpdpu_des::now();
                p.host_cpu.reset_stats();
                for i in 0..512u64 {
                    client.kv_get(i % 32).await.unwrap();
                }
                let elapsed = (dpdpu_des::now() - t0).max(1);
                p.host_cpu.busy_ns() as f64 / elapsed as f64
            })
        };
        let baseline = run(false);
        let offloaded = run(true);
        assert!(
            offloaded < baseline / 4.0,
            "DDS must slash host CPU on reads: baseline={baseline:.4} offloaded={offloaded:.4}"
        );
    }

    #[test]
    fn dpu_cache_accelerates_hot_get_page() {
        block_on(async {
            let config = DdsConfig {
                dpu_cache_pages: 32,
                ..DdsConfig::default()
            };
            let (dds, client, p) = testbed(config).await;
            // Warm one hot page.
            client.get_page(5).await.unwrap();
            let reads_before = p.ssd.reads.get();
            let t0 = dpdpu_des::now();
            for _ in 0..8 {
                client.get_page(5).await.unwrap();
            }
            let warm = (dpdpu_des::now() - t0) / 8;
            assert_eq!(p.ssd.reads.get(), reads_before, "hot page stays cached");
            // Compare against an uncached page's latency.
            let t1 = dpdpu_des::now();
            client.get_page(99).await.unwrap();
            let cold = dpdpu_des::now() - t1;
            assert!(
                warm < cold,
                "cached page must be faster: warm={warm} cold={cold}"
            );
            assert_eq!(dds.pages.dirty_pages(), 0);
        });
    }

    #[test]
    fn partial_offload_under_tight_index_budget() {
        block_on(async {
            let config = DdsConfig {
                kv_index_budget: 8 * crate::kv::INDEX_ENTRY_BYTES,
                ..DdsConfig::default()
            };
            let (dds, client, _p) = testbed(config).await;
            for k in 0..32u64 {
                client.kv_put(k, Bytes::from_static(b"v")).await.unwrap();
            }
            for k in 0..32u64 {
                client.kv_get(k).await.unwrap();
            }
            // 8 keys fit on the DPU; the rest of the gets go to the host.
            assert_eq!(dds.served_dpu.get(), 8);
            assert_eq!(dds.served_host.get(), 32 + 24);
            let (dpu_keys, host_keys) = dds.kv.partition_sizes();
            assert_eq!((dpu_keys, host_keys), (8, 24));
        });
    }

    #[test]
    fn dpu_storage_fault_degrades_to_host() {
        let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(7));
        let faults = guard.session.clone();
        block_on(async move {
            let (dds, client, _p) = testbed(DdsConfig::default()).await;
            client.kv_put(1, Bytes::from_static(b"v")).await.unwrap(); // host
            assert_eq!(
                client.kv_get(1).await.unwrap().unwrap(),
                Bytes::from_static(b"v")
            ); // dpu (index resident)
            assert_eq!(dds.served_dpu.get(), 1);
            // Fail more consecutive SSD reads than the file service's
            // retry budget: the DPU execution fails, the director opens
            // its breaker, and the host re-executes the same request.
            faults.arm(dpdpu_faults::FaultSite::SsdRead, 0, 4);
            assert_eq!(
                client.kv_get(1).await.unwrap().unwrap(),
                Bytes::from_static(b"v"),
                "request must still be answered, via the host"
            );
            assert_eq!(dds.host_fallbacks.get(), 1);
            assert!(dds.director.is_degraded(), "breaker open after the fault");
            // Inside the penalty window even DPU-resident keys go host.
            assert_eq!(
                client.kv_get(1).await.unwrap().unwrap(),
                Bytes::from_static(b"v")
            );
            assert_eq!(dds.director.degraded.get(), 1);
            assert_eq!(dds.served_dpu.get(), 1, "no DPU service while degraded");
        });
    }

    #[test]
    fn timed_out_request_backs_off_and_retries() {
        let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(11));
        let faults = guard.session.clone();
        block_on(async move {
            let (dds, client, _p) = testbed(DdsConfig::default()).await;
            // Per-attempt timeout below the TCP retransmission timeout:
            // a dropped request frame forces a client-level retry rather
            // than silently waiting out the transport's recovery.
            client.set_policy(RetryPolicy {
                request_timeout_ns: 400_000,
                base_backoff_ns: 50_000,
                ..RetryPolicy::default()
            });
            faults.arm(dpdpu_faults::FaultSite::LinkDrop, 0, 1);
            client.kv_put(5, Bytes::from_static(b"late")).await.unwrap();
            assert!(client.timeouts.get() >= 1, "first attempt must time out");
            assert!(client.retries.get() >= 1, "client must have retried");
            assert!(dds.served_host.get() >= 1, "put is ultimately host-served");
            assert_eq!(
                client.kv_get(5).await.unwrap().unwrap(),
                Bytes::from_static(b"late")
            );
        });
    }

    #[test]
    fn unrecoverable_storage_error_is_typed_not_hung() {
        let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(3));
        let faults = guard.session.clone();
        block_on(async move {
            let (dds, client, _p) = testbed(DdsConfig::default()).await;
            client.kv_put(1, Bytes::from_static(b"v")).await.unwrap();
            // Every read fails, on both paths, for every client attempt:
            // the call must still reach a terminal state — a typed error,
            // not a hung future.
            faults.arm(dpdpu_faults::FaultSite::SsdRead, 0, 1_000);
            let err = client.kv_get(1).await.unwrap_err();
            assert!(
                matches!(err, DpdpuError::Remote(_)),
                "expected a remote storage error, got {err:?}"
            );
            assert!(dds.exec_errors.get() >= 1, "host path reported the failure");
            assert!(client.failures.get() >= 1);
        });
    }

    /// A `Storage` reply is not a cached answer: the client re-sends the
    /// same request id "in case the fault was transient", and that retry
    /// must re-execute rather than be served the error again from the
    /// at-most-once replay cache.
    #[test]
    fn retry_after_a_transient_storage_error_reexecutes() {
        let _check = dpdpu_check::CheckGuard::new();
        let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(3));
        let faults = guard.session.clone();
        block_on(async move {
            let (dds, client, _p) = testbed(DdsConfig::default()).await;
            client.kv_put(1, Bytes::from_static(b"v")).await.unwrap();
            // Exactly one request's worth of failures: 4 device reads on
            // the DPU path, 4 on the host re-execution.
            faults.arm(dpdpu_faults::FaultSite::SsdRead, 0, 8);
            assert_eq!(
                client.kv_get(1).await.unwrap().unwrap(),
                Bytes::from_static(b"v"),
                "the fault was transient: the retry must read the value"
            );
            assert_eq!(dds.exec_errors.get(), 1);
            assert!(client.retries.get() >= 1);
            assert_eq!(dds.dup_replays.get(), 0, "the error was replayed");
        });
    }

    /// The two error arms together: a failed replay answers `Storage`,
    /// the retry re-executes, and the re-execution still finds the
    /// acknowledged log records to replay.
    #[test]
    fn get_page_survives_a_failed_replay() {
        let _check = dpdpu_check::CheckGuard::new();
        let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(3));
        let faults = guard.session.clone();
        block_on(async move {
            let (dds, client, _p) = testbed(DdsConfig::default()).await;
            client
                .append_log(4, 0, Bytes::from_static(b"NEW"))
                .await
                .unwrap();
            faults.arm(dpdpu_faults::FaultSite::SsdRead, 0, 4);
            let page = client.get_page(4).await.unwrap();
            assert_eq!(&page[0..3], b"NEW", "acknowledged log record lost");
            assert_eq!(dds.exec_errors.get(), 1);
            assert!(dds.pages.is_clean(4));
        });
    }
}
