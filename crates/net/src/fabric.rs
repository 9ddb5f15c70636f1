//! Cluster fabric: pluggable shard transports (paper §6, Fig. 7 made
//! load-bearing).
//!
//! `DdsCluster` moves its per-shard request/response traffic over a
//! [`Connection`] pair, and [`NetConfig::connect`] is the one way to
//! build one: the application names *who* it talks to (two
//! [`Endpoint`]s) and [`NetConfig::fabric`] picks among three
//! interchangeable fabrics:
//!
//! * [`FabricKind::Tcp`] — the offloaded-TCP path, wrapped with **zero**
//!   added tasks or queues so the default cluster behaves (and traces)
//!   exactly as a bare [`TcpConnector`] duplex does;
//! * [`FabricKind::Rdma`] — an RPC layer over [`crate::rdma`]'s verbs
//!   model: host-issued QPs, two-sided sends for requests, one-sided
//!   writes for bulk payloads, and credit-based flow control sized so
//!   the receive-side NIC backlog (posted-receive pool) never
//!   underflows;
//! * [`FabricKind::RdmaOffload`] — the same RPC layer riding the NE
//!   request/completion rings of [`crate::rdma_offload`]: the client
//!   host issues zero verbs (its DPU polls the rings and issues them),
//!   and the server side terminates *natively on the DPU* — the DDS
//!   engine lives there, so server host cores spend nothing on
//!   transport at all (the Hyperion-style zero-CPU data path).
//!
//! Whether an endpoint's stack runs on host cores or on its DPU, and
//! whether its application sits on the host or on the DPU too, is a
//! fact about the [`Endpoint`] (one enum), not about the API or the
//! argument order: every fabric reads it the same way.
//!
//! ## Wire format and credits
//!
//! Every fabric message is `[tag:u8][credits:u32 LE][payload]`. A data
//! message (`tag 0`) consumes one credit from the sender's window; a
//! credit grant (`tag 1`, empty payload) consumes none. Each receive
//! pump counts messages it has delivered to the application and flushes
//! a grant once it owes half a window, so a sender blocked on an empty
//! window (all `W` messages in flight ⇒ the peer owes ≥ `W/2`) is
//! always replenished — the scheme cannot deadlock. Because at most `W`
//! data messages are uncredited per direction, the NIC-side buffered
//! backlog (the `rnr` count of [`crate::rdma::RdmaStats`]) is bounded
//! by `W` plus the handful of in-flight grants.
//!
//! ## Faults
//!
//! The QPs run on fault-exempt links (a NicMsg lost on the wire would
//! strand its completion), and loss is instead injected *above* the
//! NIC: before each post the send path consults
//! [`dpdpu_faults::link_verdict`]; a `Drop` models a lost WQE /
//! RNR NAK — the pump backs off exponentially, records the retry with
//! [`dpdpu_check::fault_handled`], and re-issues. Drops happen before
//! transmission, so no duplicates reach the peer and credit accounting
//! stays exact.
//!
//! Conservation is enforced end to end by the `dpdpu-check` fabric
//! invariant: per direction, messages/bytes delivered == sent, and
//! credits consumed − returned never exceeds the window.

use std::rc::Rc;

use bytes::{BufMut, Bytes, BytesMut};
use dpdpu_check::{Exit, Flow};
use dpdpu_des::{channel, race, sleep, spawn, Either, Receiver, Sender, Site, Time};
use dpdpu_hw::{CpuPool, PcieLink, Platform};

use crate::config::NetConfig;
use crate::rdma::{rdma_pair_named, RdmaOpKind, RdmaQp};
use crate::rdma_offload::{offload_qp_with_recv, OffloadRecvStream, OffloadedQp};
use crate::tcp::{TcpConnector, TcpReceiver, TcpSender};

/// Which fabric a cluster connection rides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// Offloaded TCP (the original DDS transport).
    Tcp,
    /// RDMA verbs issued by host cores.
    Rdma,
    /// RDMA verbs issued by the DPU: a host application sits behind NE
    /// rings, a DPU-native one (a DDS server's half) terminates on the
    /// DPU with no host involvement.
    RdmaOffload,
}

impl FabricKind {
    /// Stable lowercase name (CLI flags, tables, reports).
    pub(crate) fn name(self) -> &'static str {
        match self {
            FabricKind::Tcp => "tcp",
            FabricKind::Rdma => "rdma",
            FabricKind::RdmaOffload => "rdma-offload",
        }
    }

    /// Parses a fabric's name: `tcp`, `rdma`, `rdma-offload` (or
    /// `rdma_offload`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tcp" => Some(FabricKind::Tcp),
            "rdma" => Some(FabricKind::Rdma),
            "rdma-offload" | "rdma_offload" => Some(FabricKind::RdmaOffload),
            _ => None,
        }
    }

    /// All fabrics, in sweep order.
    pub const ALL: [FabricKind; 3] = [FabricKind::Tcp, FabricKind::Rdma, FabricKind::RdmaOffload];
}

impl std::fmt::Display for FabricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// RDMA-fabric tunables (ignored by the TCP fabric, which keeps its own
/// sliding-window flow control).
#[derive(Debug, Clone, Copy)]
pub struct FabricParams {
    /// Per-direction credit window: max uncredited data messages in
    /// flight. Doubles as the posted-receive pool depth the receive
    /// side must sustain.
    pub credit_window: u32,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams { credit_window: 32 }
    }
}

/// Payloads at or above this ride a one-sided write plus a 0-byte
/// notify send instead of a plain two-sided send.
const BULK_THRESHOLD: usize = 4_096;
/// Base RNR-style backoff after a dropped WQE; doubles per consecutive
/// retry (capped at 6 doublings).
const RNR_BACKOFF_NS: Time = 2_000;

/// One endpoint's compute resources: who the network stack on this
/// side can charge. With a DPU the stack runs there (TCP protocol
/// cycles, NE rings); without one it runs on host cores.
#[derive(Clone)]
pub struct Endpoint {
    /// Host cores.
    pub(crate) host_cpu: Rc<CpuPool>,
    /// Where the stack runs, and where the application it serves sits.
    pub(crate) stack: Stack,
}

/// Where an endpoint's network stack runs.
#[derive(Clone)]
pub(crate) enum Stack {
    /// The kernel stack, on host cores.
    Host,
    /// The stack on DPU cores, the application on the host: every
    /// message crosses the NE rings and the host↔DPU PCIe.
    Offloaded(Rc<CpuPool>, Rc<PcieLink>),
    /// The stack and the application both on the DPU (a DDS server's
    /// half): the transport ends there, and the host sees a message
    /// only when the application forwards it.
    DpuNative(Rc<CpuPool>, Rc<PcieLink>),
}

impl Stack {
    /// The DPU cores and host↔DPU PCIe, when the stack runs on a DPU.
    pub(crate) fn dpu(&self) -> Option<(&Rc<CpuPool>, &Rc<PcieLink>)> {
        match self {
            Stack::Host => None,
            Stack::Offloaded(cpu, pcie) | Stack::DpuNative(cpu, pcie) => Some((cpu, pcie)),
        }
    }
}

impl Endpoint {
    /// A host-only endpoint (no DPU).
    pub fn host(host_cpu: Rc<CpuPool>) -> Self {
        Endpoint {
            host_cpu,
            stack: Stack::Host,
        }
    }

    /// An endpoint with its stack on a DPU and its application on the
    /// host: an offload-fabric client, whose host sits behind its DPU's
    /// rings. A server's half, and a primary's chain link, is
    /// [`Endpoint::dpu_native`].
    pub fn offloaded(host_cpu: Rc<CpuPool>, dpu_cpu: Rc<CpuPool>, pcie: Rc<PcieLink>) -> Self {
        Endpoint {
            host_cpu,
            stack: Stack::Offloaded(dpu_cpu, pcie),
        }
    }

    /// `platform` with the stack *and* the application on its DPU: the
    /// half a DDS server serves. The transport costs its host nothing;
    /// the host pays only for requests the application routes to it.
    pub fn dpu_native(platform: &Platform) -> Self {
        Endpoint {
            host_cpu: platform.host_cpu.clone(),
            stack: Stack::DpuNative(platform.dpu_cpu.clone(), platform.host_dpu_pcie.clone()),
        }
    }
}

/// Sending half of a fabric connection. Clonable and synchronous, like
/// [`TcpSender`]: messages enqueue immediately and the transport's own
/// flow control paces the wire.
#[derive(Clone)]
pub struct FabricSender {
    inner: SenderInner,
}

#[derive(Clone)]
enum SenderInner {
    Tcp(TcpSender),
    Pump(Sender<Bytes>),
}

impl FabricSender {
    /// Queues one application message for transmission.
    pub fn send(&self, data: Bytes) {
        match &self.inner {
            SenderInner::Tcp(tx) => tx.send(data),
            SenderInner::Pump(tx) => {
                tx.send(data).expect("fabric send pump gone");
            }
        }
    }
}

impl From<TcpSender> for FabricSender {
    fn from(tx: TcpSender) -> Self {
        FabricSender {
            inner: SenderInner::Tcp(tx),
        }
    }
}

/// Receiving half of a fabric connection.
pub struct FabricReceiver {
    inner: ReceiverInner,
}

enum ReceiverInner {
    Tcp(TcpReceiver),
    Chan(Receiver<Bytes>),
}

impl FabricReceiver {
    /// Next in-order application message; `None` once the peer is gone.
    pub async fn recv(&mut self) -> Option<Bytes> {
        match &mut self.inner {
            ReceiverInner::Tcp(rx) => rx.recv().await,
            ReceiverInner::Chan(rx) => rx.recv().await,
        }
    }
}

impl From<TcpReceiver> for FabricReceiver {
    fn from(rx: TcpReceiver) -> Self {
        FabricReceiver {
            inner: ReceiverInner::Tcp(rx),
        }
    }
}

/// One endpoint's handle on an established fabric connection.
pub struct Connection {
    tx: FabricSender,
    rx: FabricReceiver,
}

impl Connection {
    /// Consumes the connection into its duplex halves.
    pub fn split(self) -> (FabricSender, FabricReceiver) {
        (self.tx, self.rx)
    }
}

impl NetConfig {
    /// Connects `a` to `b` over this configuration's fabric; `label`
    /// names the connection's resources (links, conservation sites) and
    /// must be unique per connection within a simulation. Returns
    /// `(a_conn, b_conn)`.
    ///
    /// # Panics
    /// With [`FabricKind::RdmaOffload`] when either endpoint has no DPU.
    pub fn connect(&self, a: &Endpoint, b: &Endpoint, label: &str) -> (Connection, Connection) {
        let ((a_tx, a_rx), (b_tx, b_rx)) = match self.fabric {
            // The halves wrap `TcpSender`/`TcpReceiver` directly — no
            // extra tasks, channels, or costs.
            FabricKind::Tcp => {
                let ((a_tx, a_rx), (b_tx, b_rx)) = TcpConnector::new(self.link)
                    .params(self.tcp)
                    .duplex(a.clone(), b.clone());
                ((a_tx.into(), a_rx.into()), (b_tx.into(), b_rx.into()))
            }
            // One RPC layer over one QP pair. Host verbs: each side's
            // host cores issue its QP (the §6 baseline — WQE build, QP
            // lock, doorbell MMIO and CQ polls all land there), and a
            // payload crosses PCIe when that side's application lives
            // on its DPU. Offload: DPU cores issue both QPs; a side
            // whose application is on its host sits behind NE rings —
            // the host enqueues descriptors and polls completions — and
            // a DPU-native side (a DDS server's half) terminates on its
            // DPU: zero host cycles, zero PCIe per request. The
            // endpoint's `Stack` decides which, as it does for TCP.
            FabricKind::Rdma | FabricKind::RdmaOffload => {
                let offload = self.fabric == FabricKind::RdmaOffload;
                let issuer = |e: &Endpoint, role: &str| match (offload, e.stack.dpu()) {
                    (false, _) => e.host_cpu.clone(),
                    (true, Some((cpu, _))) => cpu.clone(),
                    (true, None) => {
                        panic!("rdma-offload fabric needs a DPU on the {role} endpoint")
                    }
                };
                let (a_issuer, b_issuer) = (issuer(a, "client"), issuer(b, "server"));
                // Loss is injected above the NIC, so the wire itself is
                // made lossless.
                let mut cfg = self.link;
                cfg.loss_rate = 0.0;
                let (qa, qb) =
                    rdma_pair_named(a_issuer, b_issuer, cfg, &format!("{label}.rdma"), true);
                let a2b = Site::new(&format!("{label}.a2b"));
                let b2a = Site::new(&format!("{label}.b2a"));
                let io = |e: &Endpoint, qp: Rc<RdmaQp>| match (&e.stack, offload) {
                    (Stack::Offloaded(dpu, pcie), true) => {
                        let (qp, stream) =
                            offload_qp_with_recv(e.host_cpu.clone(), dpu.clone(), pcie.clone(), qp);
                        (FabricTx::Rings { qp }, FabricRx::Rings { stream })
                    }
                    (Stack::DpuNative(_, pcie), false) => qp_io(qp, Some(pcie.clone())),
                    _ => qp_io(qp, None),
                };
                let (a_io, b_io) = (io(a, qa), io(b, qb));
                let params = self.fabric_params;
                (
                    spawn_endpoint(a_io, params, a2b, b2a),
                    spawn_endpoint(b_io, params, b2a, a2b),
                )
            }
        };
        (
            Connection { tx: a_tx, rx: a_rx },
            Connection { tx: b_tx, rx: b_rx },
        )
    }
}

// ---- shared RDMA RPC layer ------------------------------------------

const TAG_DATA: u8 = 0;
const TAG_CREDIT: u8 = 1;
const HDR_BYTES: usize = 5;

fn encode(tag: u8, credits: u32, payload: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(HDR_BYTES + payload.len());
    buf.put_u8(tag);
    buf.put_u32_le(credits);
    buf.extend_from_slice(payload);
    buf.freeze()
}

fn decode(mut raw: Bytes) -> (u8, u32, Bytes) {
    assert!(raw.len() >= HDR_BYTES, "fabric frame too short");
    let hdr = raw.split_to(HDR_BYTES);
    let tag = hdr[0];
    let credits = u32::from_le_bytes([hdr[1], hdr[2], hdr[3], hdr[4]]);
    (tag, credits, raw)
}

/// The submit half of one RDMA-fabric endpoint.
enum FabricTx {
    /// Verbs issued directly on the QP's processor (host cores for the
    /// plain RDMA fabric, DPU cores for the offload fabric's server
    /// side). `xfer_pcie` is set when the application lives across PCIe
    /// from the verbs processor (a server whose DDS engine runs on the
    /// DPU while the host issues the verbs): every submitted payload
    /// crosses it once.
    Qp {
        qp: Rc<RdmaQp>,
        xfer_pcie: Option<Rc<PcieLink>>,
    },
    /// Host behind NE rings: the DPU issues every verb, and a send
    /// returns once its descriptor is in the ring.
    Rings { qp: Rc<OffloadedQp> },
}

/// The receive half of one RDMA-fabric endpoint.
enum FabricRx {
    /// Receives reaped on the QP's processor; `xfer_pcie` as above, for
    /// payloads that must cross to the application's memory.
    Qp {
        qp: Rc<RdmaQp>,
        xfer_pcie: Option<Rc<PcieLink>>,
    },
    /// Host draining the DPU-fed completion ring.
    Rings { stream: OffloadRecvStream },
}

/// Both halves of an endpoint whose verbs are issued directly on `qp`.
fn qp_io(qp: Rc<RdmaQp>, xfer_pcie: Option<Rc<PcieLink>>) -> (FabricTx, FabricRx) {
    (
        FabricTx::Qp {
            qp: qp.clone(),
            xfer_pcie: xfer_pcie.clone(),
        },
        FabricRx::Qp { qp, xfer_pcie },
    )
}

impl FabricTx {
    async fn send(&self, framed: Bytes, bulk: bool) {
        match self {
            FabricTx::Qp { qp, xfer_pcie } => {
                if let Some(pcie) = xfer_pcie {
                    // App memory is on the other side of PCIe from the
                    // NIC-visible buffers the verbs post from.
                    pcie.dma(framed.len() as u64).await;
                }
                // Pipelined posts: wire order is preserved (RC QP),
                // and overlapping round trips is what keeps a message
                // stream from paying one RTT per message.
                if bulk {
                    // Payload placed by a one-sided write; a 0-byte
                    // notify send delivers the message.
                    qp.post_pipelined(RdmaOpKind::Write, framed.len() as u64, None)
                        .await;
                    qp.post_pipelined(RdmaOpKind::Send, 0, Some(framed)).await;
                } else {
                    let bytes = framed.len() as u64;
                    qp.post_pipelined(RdmaOpKind::Send, bytes, Some(framed))
                        .await;
                }
            }
            FabricTx::Rings { qp } => {
                if bulk {
                    qp.send_bulk_pipelined(framed).await;
                } else {
                    qp.send_pipelined(framed).await;
                }
            }
        }
    }
}

impl FabricRx {
    async fn recv(&mut self) -> Option<Bytes> {
        match self {
            FabricRx::Qp { qp, xfer_pcie } => {
                let raw = qp.recv().await;
                if let Some(pcie) = xfer_pcie {
                    pcie.dma(raw.len() as u64).await;
                }
                Some(raw)
            }
            FabricRx::Rings { stream } => stream.recv().await,
        }
    }
}

/// Waits out the fault layer's verdict for one WQE: a `Drop` is a lost
/// WQE / RNR NAK — back off exponentially and retry; a `Delay` stalls
/// the doorbell. Returns once the WQE may be issued.
async fn wqe_gate() {
    let mut attempt = 0u32;
    loop {
        match dpdpu_faults::link_verdict() {
            dpdpu_faults::LinkVerdict::Deliver => return,
            dpdpu_faults::LinkVerdict::Delay(ns) => {
                sleep(ns).await;
                return;
            }
            dpdpu_faults::LinkVerdict::Drop => {
                dpdpu_check::fault_handled(dpdpu_faults::FaultSite::LinkDrop.label(), "retried");
                sleep(RNR_BACKOFF_NS << attempt.min(6)).await;
                attempt += 1;
            }
        }
    }
}

/// Spawns the send and receive pumps for one RDMA-fabric endpoint and
/// returns its application-facing halves.
///
/// `site_out` / `site_in` name the two directions for conservation
/// accounting: this endpoint records sends on `site_out` and deliveries
/// on `site_in`; the peer is constructed with the names swapped.
fn spawn_endpoint(
    (tx_io, mut rx_io): (FabricTx, FabricRx),
    params: FabricParams,
    site_out: Site,
    site_in: Site,
) -> (FabricSender, FabricReceiver) {
    let (app_in_tx, mut app_in_rx) = channel::<Bytes>();
    let (app_out_tx, app_out_rx) = channel::<Bytes>();
    let (credit_tx, mut credit_rx) = channel::<u32>();
    let (wire_tx, mut wire_rx) = channel::<(Bytes, bool)>();
    // Teardown: once the application drops its sender, the send pump
    // tells the receive pump to stand down too. Both then release the
    // wire channel, the wire pump exits, and the transport I/O handles
    // drop — which hangs up an NE ring and lets its poller exit.
    let (shutdown_tx, mut shutdown_rx) = channel::<()>();
    dpdpu_check::fabric_conn_open(site_out, params.credit_window as u64);

    // Send pump: gate each data message on the credit window, then
    // issue it. Grants from the receive pump bypass the window.
    {
        let wire_tx = wire_tx.clone();
        spawn(async move {
            let mut avail = params.credit_window;
            while let Some(msg) = app_in_rx.recv().await {
                while avail == 0 {
                    match credit_rx.recv().await {
                        Some(n) => avail += n,
                        None => return,
                    }
                }
                avail -= 1;
                dpdpu_check::fabric_credit_consumed(site_out, 1);
                let len = msg.len();
                let framed = encode(TAG_DATA, 0, &msg);
                dpdpu_check::flow_in(Flow::Fabric, site_out, len as u64);
                if wire_tx.send((framed, len >= BULK_THRESHOLD)).is_err() {
                    return;
                }
            }
            let _ = shutdown_tx.send(());
        });
    }

    // Wire pump: the single owner of the QP's submit path. Serializes
    // data messages and credit grants, applying the WQE fault gate to
    // each.
    spawn(async move {
        while let Some((framed, bulk)) = wire_rx.recv().await {
            wqe_gate().await;
            tx_io.send(framed, bulk).await;
        }
    });

    // Receive pump: demultiplex grants from data, deliver payloads to
    // the application, and grant credits back once half a window is
    // owed.
    spawn(async move {
        let mut owed = 0u32;
        loop {
            let raw = match race(rx_io.recv(), shutdown_rx.recv()).await {
                Either::Left(Some(raw)) => raw,
                // Transport closed, or the application hung up.
                Either::Left(None) | Either::Right(_) => return,
            };
            let (tag, credits, payload) = decode(raw);
            if credits > 0 {
                dpdpu_check::fabric_credit_returned(site_out, credits as u64);
                if credit_tx.send(credits).is_err() {
                    return;
                }
            }
            if tag != TAG_DATA {
                continue;
            }
            dpdpu_check::flow_out(Flow::Fabric, site_in, Exit::Ok, payload.len() as u64);
            if app_out_tx.send(payload).is_err() {
                return;
            }
            owed += 1;
            if owed * 2 >= params.credit_window {
                let grant = encode(TAG_CREDIT, owed, &Bytes::new());
                owed = 0;
                if wire_tx.send((grant, false)).is_err() {
                    return;
                }
            }
        }
    });

    (
        FabricSender {
            inner: SenderInner::Pump(app_in_tx),
        },
        FabricReceiver {
            inner: ReceiverInner::Chan(app_out_rx),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_check::CheckGuard;
    use dpdpu_des::Sim;
    use std::cell::Cell;

    fn host_endpoint(tag: &str) -> Endpoint {
        Endpoint::host(CpuPool::new(format!("{tag}-host"), 8, 3_000_000_000))
    }

    fn dpu_endpoint(tag: &str) -> Endpoint {
        Endpoint::offloaded(
            CpuPool::new(format!("{tag}-host"), 8, 3_000_000_000),
            CpuPool::new(format!("{tag}-dpu"), 8, 2_000_000_000),
            PcieLink::new(format!("{tag}-pcie"), 16_000_000_000),
        )
    }

    /// `dpu_endpoint` with the application on the DPU too: a server half.
    fn dpu_native_endpoint(tag: &str) -> Endpoint {
        Endpoint {
            host_cpu: CpuPool::new(format!("{tag}-host"), 8, 3_000_000_000),
            stack: Stack::DpuNative(
                CpuPool::new(format!("{tag}-dpu"), 8, 2_000_000_000),
                PcieLink::new(format!("{tag}-pcie"), 16_000_000_000),
            ),
        }
    }

    fn endpoints_for(kind: FabricKind, tag: &str) -> (Endpoint, Endpoint) {
        match kind {
            FabricKind::Tcp | FabricKind::Rdma => (
                host_endpoint(&format!("{tag}-a")),
                host_endpoint(&format!("{tag}-b")),
            ),
            FabricKind::RdmaOffload => (
                dpu_endpoint(&format!("{tag}-a")),
                dpu_native_endpoint(&format!("{tag}-b")),
            ),
        }
    }

    /// Client sends `n` requests; server echoes each with a byte
    /// appended; client checks order and contents.
    fn echo_run(kind: FabricKind, n: usize, payload_len: usize) {
        let _check = CheckGuard::new();
        let mut sim = Sim::new();
        let ok = Rc::new(Cell::new(0usize));
        let ok2 = ok.clone();
        sim.spawn(async move {
            let (a, b) = endpoints_for(kind, kind.name());
            let net = NetConfig::default().with_fabric(kind);
            let (ca, cb) = net.connect(&a, &b, &format!("t-{kind}"));
            let (a_tx, mut a_rx) = ca.split();
            let (b_tx, mut b_rx) = cb.split();
            spawn(async move {
                while let Some(req) = b_rx.recv().await {
                    let mut resp = req.to_vec();
                    resp.push(0xEE);
                    b_tx.send(Bytes::from(resp));
                }
            });
            for i in 0..n {
                let msg = vec![i as u8; payload_len];
                a_tx.send(Bytes::from(msg.clone()));
                let resp = a_rx.recv().await.expect("echo alive");
                assert_eq!(&resp[..payload_len], &msg[..]);
                assert_eq!(resp[payload_len], 0xEE);
                ok2.set(ok2.get() + 1);
            }
        });
        sim.run();
        drop(sim);
        assert_eq!(ok.get(), n, "{kind}: echo loop stalled");
    }

    #[test]
    fn tcp_fabric_echoes_in_order() {
        echo_run(FabricKind::Tcp, 20, 64);
    }

    #[test]
    fn rdma_fabric_echoes_in_order() {
        echo_run(FabricKind::Rdma, 20, 64);
    }

    #[test]
    fn rdma_offload_fabric_echoes_in_order() {
        echo_run(FabricKind::RdmaOffload, 20, 64);
    }

    #[test]
    fn bulk_payloads_ride_the_write_path_intact() {
        // 64 KiB ≫ the 4 KiB bulk threshold: exercises write + notify.
        echo_run(FabricKind::Rdma, 4, 64 * 1024);
        echo_run(FabricKind::RdmaOffload, 4, 64 * 1024);
    }

    #[test]
    fn more_messages_than_credit_window_make_progress() {
        // 3× the window through each fabric: the grant path must keep
        // replenishing the sender or the echo loop stalls.
        let n = FabricParams::default().credit_window as usize * 3;
        echo_run(FabricKind::Rdma, n, 32);
        echo_run(FabricKind::RdmaOffload, n, 32);
    }

    /// Echoes 50 requests from `a` to `b` over rdma-offload and returns
    /// the busy time of each side's host.
    fn offload_echo_host_busy(a: Endpoint, b: Endpoint) -> (u64, u64) {
        let _check = CheckGuard::new();
        let mut sim = Sim::new();
        let busy = Rc::new(Cell::new((u64::MAX, u64::MAX)));
        let busy2 = busy.clone();
        sim.spawn(async move {
            let (a_host, b_host) = (a.host_cpu.clone(), b.host_cpu.clone());
            let net = NetConfig::default().with_fabric(FabricKind::RdmaOffload);
            let (ca, cb) = net.connect(&a, &b, "t-idle");
            let (a_tx, mut a_rx) = ca.split();
            let (b_tx, mut b_rx) = cb.split();
            spawn(async move {
                while let Some(req) = b_rx.recv().await {
                    b_tx.send(req);
                }
            });
            for _ in 0..50 {
                a_tx.send(Bytes::from_static(b"req"));
                a_rx.recv().await.expect("echo alive");
            }
            busy2.set((a_host.busy_ns(), b_host.busy_ns()));
        });
        sim.run();
        drop(sim);
        busy.get()
    }

    #[test]
    fn offload_fabric_leaves_server_host_idle() {
        let (a, b) = endpoints_for(FabricKind::RdmaOffload, "idle");
        assert_eq!(
            offload_echo_host_busy(a, b).1,
            0,
            "rdma-offload server transport must cost zero host cycles"
        );
    }

    #[test]
    fn the_stack_not_the_argument_order_picks_rings_or_dpu_termination() {
        // A DPU-native side terminates on its DPU and an offloaded one
        // sits behind NE rings, whichever side of `connect` each is on.
        let (a_busy, b_busy) =
            offload_echo_host_busy(dpu_native_endpoint("swap-a"), dpu_endpoint("swap-b"));
        assert_eq!(a_busy, 0, "a DPU-native client costs its host nothing");
        assert!(b_busy > 0, "an offloaded server's host drains its rings");
    }

    #[test]
    #[should_panic(expected = "needs a DPU on the client endpoint")]
    fn offload_fabric_rejects_a_host_only_client() {
        // Rejected before anything is spawned: no simulation needed.
        let net = NetConfig::default().with_fabric(FabricKind::RdmaOffload);
        net.connect(&host_endpoint("a"), &dpu_endpoint("b"), "t-no-dpu");
    }

    #[test]
    #[should_panic(expected = "needs a DPU on the server endpoint")]
    fn offload_fabric_rejects_a_host_only_server() {
        // Rejected before anything is spawned: no simulation needed.
        let net = NetConfig::default().with_fabric(FabricKind::RdmaOffload);
        net.connect(&dpu_endpoint("a"), &host_endpoint("b"), "t-no-dpu");
    }

    #[test]
    fn endpoint_of_a_platform_is_its_host_dpu_and_pcie() {
        let p = Platform::default_bf2();
        let ep = Endpoint::offloaded(
            p.host_cpu.clone(),
            p.dpu_cpu.clone(),
            p.host_dpu_pcie.clone(),
        );
        let (dpu_cpu, pcie) = ep.stack.dpu().expect("platform endpoints have a DPU");
        assert!(Rc::ptr_eq(&ep.host_cpu, &p.host_cpu));
        assert!(Rc::ptr_eq(dpu_cpu, &p.dpu_cpu));
        assert!(Rc::ptr_eq(pcie, &p.host_dpu_pcie));
        assert!(matches!(ep.stack, Stack::Offloaded(..)));
        let native = Endpoint::dpu_native(&p);
        assert!(matches!(native.stack, Stack::DpuNative(..)));
        let (dpu_cpu, pcie) = native.stack.dpu().expect("a DPU-native endpoint has a DPU");
        assert!(Rc::ptr_eq(&native.host_cpu, &p.host_cpu));
        assert!(Rc::ptr_eq(dpu_cpu, &p.dpu_cpu));
        assert!(Rc::ptr_eq(pcie, &p.host_dpu_pcie));
    }

    #[test]
    fn fabric_kind_parse_round_trips() {
        for kind in FabricKind::ALL {
            assert_eq!(FabricKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            FabricKind::parse("rdma_offload"),
            Some(FabricKind::RdmaOffload)
        );
        assert_eq!(FabricKind::parse("infiniband"), None);
    }
}
