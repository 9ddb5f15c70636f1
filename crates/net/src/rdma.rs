//! RDMA verbs with explicit issue-side CPU costs.
//!
//! The paper (§6) observes that although RDMA bypasses the remote CPU,
//! *issuing* operations is still costly on the local CPU: building the
//! WQE, taking the queue-pair lock with memory fences, and ringing the
//! doorbell — an uncached MMIO write that stalls the pipeline. This
//! module models a queue pair with those costs so the DPU-offloaded
//! variant ([`crate::rdma_offload`]) has an honest baseline.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use bytes::Bytes;
use dpdpu_des::{channel, oneshot, sleep, spawn, Counter, OneshotReceiver, Receiver, Sender};
use dpdpu_hw::{costs, CpuPool, Link, LinkConfig};

/// One-sided or two-sided RDMA operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RdmaOpKind {
    /// One-sided write to remote memory.
    Write,
    /// One-sided read from remote memory.
    Read,
    /// Two-sided send (consumes a posted receive).
    Send,
}

/// Wire messages between the two NICs. The payload rides along for
/// two-sided sends so a receive-side application could consume it; the
/// timing model only needs its length.
enum NicMsg {
    Request {
        kind: RdmaOpKind,
        bytes: u64,
        payload: Option<Bytes>,
        op_id: u64,
    },
    Response {
        bytes: u64,
        op_id: u64,
    },
}

impl NicMsg {
    fn wire_bytes(&self) -> u64 {
        match self {
            NicMsg::Request { kind, bytes, .. } => match kind {
                RdmaOpKind::Write | RdmaOpKind::Send => 40 + bytes,
                RdmaOpKind::Read => 40,
            },
            NicMsg::Response { bytes, .. } => 40 + bytes,
        }
    }
}

/// Statistics for one queue pair.
#[derive(Default)]
pub struct RdmaStats {
    /// Operations completed.
    pub(crate) ops: Counter,
    /// Payload bytes moved.
    pub(crate) bytes: Counter,
    /// Two-sided sends that arrived with **no** posted receive. Real
    /// hardware raises receiver-not-ready (RNR NAK) here and the sender
    /// backs off and retries; this model buffers the payload in the NIC
    /// instead (nothing is ever silently dropped) but counts each event
    /// so flow-control layers can prove their window kept the backlog
    /// bounded.
    pub(crate) rnr: Counter,
    /// High-water mark of that NIC-buffered backlog.
    pub(crate) rnr_peak: Counter,
}

/// A local RDMA queue pair bound to a remote peer.
///
/// `post` models the verbs issue path on the caller's CPU pool; the NIC
/// and wire then run asynchronously; the completion-queue entry is
/// polled inline (`post`) or by a spawned reaper (`post_pipelined`).
pub struct RdmaQp {
    cpu: Rc<CpuPool>,
    nic_tx: Sender<(NicMsg, dpdpu_des::OneshotSender<()>)>,
    next_op: std::cell::Cell<u64>,
    recv_state: Rc<RefCell<RecvState>>,
    /// Per-QP statistics.
    pub stats: Rc<RdmaStats>,
}

/// Two-sided receive machinery: posted receives are matched with
/// arriving Send payloads in order (an RNR-free model: un-matched
/// payloads queue in the NIC buffer instead of being dropped).
#[derive(Default)]
struct RecvState {
    /// Posted receives in post order, each under the ticket its
    /// [`PostedRecv`] withdraws it by.
    posted: VecDeque<(u64, dpdpu_des::OneshotSender<Bytes>)>,
    pending: VecDeque<Bytes>,
    next_ticket: u64,
}

/// A posted receive waiting for its payload. Dropped unfilled, it
/// withdraws itself, so the next arrival goes to a live receive or the
/// NIC buffer; dropped filled but unread, it hands its payload back to
/// the front of the buffer. Either way no payload is lost.
struct PostedRecv<'a> {
    state: &'a RefCell<RecvState>,
    ticket: u64,
    rx: OneshotReceiver<Bytes>,
    done: bool,
}

impl Future for PostedRecv<'_> {
    type Output = Bytes;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Bytes> {
        let payload = std::task::ready!(Pin::new(&mut self.rx).poll(cx));
        self.done = true;
        Poll::Ready(payload.expect("NIC engine alive"))
    }
}

impl Drop for PostedRecv<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let mut rs = self.state.borrow_mut();
        if let Some(i) = rs.posted.iter().position(|(t, _)| *t == self.ticket) {
            rs.posted.remove(i);
        } else if let Poll::Ready(Ok(payload)) =
            Pin::new(&mut self.rx).poll(&mut Context::from_waker(Waker::noop()))
        {
            rs.pending.push_front(payload);
        }
    }
}

/// Creates a connected pair of queue pairs over a duplex link.
///
/// `a_cpu` / `b_cpu` are the processors that *issue* verbs on each side
/// (host cores for the baseline, DPU cores for the offloaded design).
/// Remote one-sided operations consume **no** CPU on the passive side —
/// the property that makes RDMA attractive.
pub fn rdma_pair(
    a_cpu: Rc<CpuPool>,
    b_cpu: Rc<CpuPool>,
    cfg: LinkConfig,
) -> (Rc<RdmaQp>, Rc<RdmaQp>) {
    rdma_pair_named(a_cpu, b_cpu, cfg, "rdma", false)
}

/// [`rdma_pair`] with a caller-chosen link-name prefix and an optional
/// fault exemption.
///
/// Distinct names keep the conservation accounting of several QP pairs
/// in one simulation separate. Fault-exempt pairs are for transports
/// that inject loss *above* the NIC (e.g. the cluster fabric's dropped
/// WQEs with RNR-style retry): a NicMsg silently lost on the wire would
/// strand its completion forever, so the wire itself must be lossless.
pub(crate) fn rdma_pair_named(
    a_cpu: Rc<CpuPool>,
    b_cpu: Rc<CpuPool>,
    cfg: LinkConfig,
    label: &str,
    fault_exempt: bool,
) -> (Rc<RdmaQp>, Rc<RdmaQp>) {
    let build = |name: String| {
        if fault_exempt {
            Link::new_fault_exempt(name, cfg)
        } else {
            Link::new(name, cfg)
        }
    };
    let (link_ab, rx_ab) = build(format!("{label}-ab"));
    let (link_ba, rx_ba) = build(format!("{label}-ba"));
    let a = make_qp(a_cpu, link_ab, rx_ba);
    let b = make_qp(b_cpu, link_ba, rx_ab);
    (a, b)
}

fn make_qp(
    cpu: Rc<CpuPool>,
    out_link: Rc<Link<NicMsg>>,
    mut in_rx: Receiver<NicMsg>,
) -> Rc<RdmaQp> {
    let stats = Rc::new(RdmaStats::default());
    let recv_state: Rc<RefCell<RecvState>> = Rc::new(RefCell::new(RecvState::default()));
    let matcher_recv = recv_state.clone();
    let (nic_tx, mut nic_rx) = channel::<(NicMsg, dpdpu_des::OneshotSender<()>)>();

    // Local NIC engine: serializes WQE processing per QP, sends on the
    // wire, and signals completions.
    {
        let matcher_link = out_link.clone();
        let matcher_stats = stats.clone();
        let (done_tx, mut done_rx) = channel::<(u64, dpdpu_des::OneshotSender<()>)>();
        // Completion matcher: pairs wire responses with waiting ops.
        spawn(async move {
            let mut waiting: std::collections::HashMap<u64, dpdpu_des::OneshotSender<()>> =
                std::collections::HashMap::new();
            let mut responses: std::collections::HashMap<u64, u64> =
                std::collections::HashMap::new();
            // The local QP handle may be dropped (no more posts) while
            // this NIC must keep serving *passive* remote operations.
            let mut posts_open = true;
            loop {
                enum NicEvt {
                    Done(Option<(u64, dpdpu_des::OneshotSender<()>)>),
                    Wire(Option<NicMsg>),
                }
                let evt = if posts_open {
                    match dpdpu_des::race(done_rx.recv(), in_rx.recv()).await {
                        dpdpu_des::Either::Left(v) => NicEvt::Done(v),
                        dpdpu_des::Either::Right(v) => NicEvt::Wire(v),
                    }
                } else {
                    NicEvt::Wire(in_rx.recv().await)
                };
                match evt {
                    NicEvt::Done(Some((op_id, tx))) => {
                        if responses.remove(&op_id).is_some() {
                            let _ = tx.send(());
                        } else {
                            waiting.insert(op_id, tx);
                        }
                    }
                    NicEvt::Done(None) => posts_open = false,
                    NicEvt::Wire(Some(msg)) => match msg {
                        NicMsg::Response { op_id, bytes } => {
                            matcher_stats.bytes.add(bytes);
                            if let Some(tx) = waiting.remove(&op_id) {
                                let _ = tx.send(());
                            } else {
                                responses.insert(op_id, bytes);
                            }
                        }
                        NicMsg::Request {
                            kind,
                            bytes,
                            op_id,
                            payload,
                        } => {
                            // Passive side: the NIC serves remote ops in
                            // hardware with zero local CPU.
                            sleep(costs::RDMA_NIC_OP_NS).await;
                            if kind == RdmaOpKind::Send {
                                // Deliver to a posted receive (or buffer).
                                let payload = payload.unwrap_or_default();
                                let waiter = matcher_recv.borrow_mut().posted.pop_front();
                                match waiter {
                                    Some((_, tx)) => {
                                        let _ = tx.send(payload);
                                    }
                                    None => {
                                        // Receiver not ready: the RNR
                                        // case. Buffer (never drop) and
                                        // count it.
                                        let mut rs = matcher_recv.borrow_mut();
                                        rs.pending.push_back(payload);
                                        matcher_stats.rnr.inc();
                                        let depth = rs.pending.len() as u64;
                                        let peak = matcher_stats.rnr_peak.get();
                                        if depth > peak {
                                            matcher_stats.rnr_peak.add(depth - peak);
                                        }
                                    }
                                }
                            }
                            let resp_bytes = if kind == RdmaOpKind::Read { bytes } else { 0 };
                            let msg = NicMsg::Response {
                                bytes: resp_bytes,
                                op_id,
                            };
                            let wire = msg.wire_bytes();
                            matcher_link.send(msg, wire).await;
                        }
                    },
                    NicEvt::Wire(None) => return,
                }
            }
        });
        let stats2 = stats.clone();
        spawn(async move {
            while let Some((msg, tx)) = nic_rx.recv().await {
                // NIC QP processing latency.
                sleep(costs::RDMA_NIC_OP_NS).await;
                let op_id = match &msg {
                    NicMsg::Request { op_id, bytes, .. } => {
                        stats2.ops.inc();
                        stats2.bytes.add(*bytes);
                        *op_id
                    }
                    _ => unreachable!("only requests are posted"),
                };
                let wire = msg.wire_bytes();
                out_link.send(msg, wire).await;
                let _ = done_tx.send((op_id, tx));
            }
        });
    }

    Rc::new(RdmaQp {
        cpu,
        nic_tx,
        next_op: std::cell::Cell::new(0),
        recv_state,
        stats,
    })
}

impl RdmaQp {
    /// The issue half of every post: the issuing CPU pays WQE
    /// construction + QP lock + doorbell (the §6 overhead), then the WQE
    /// is on the queue pair. Resolves to the completion-queue entry.
    async fn issue(
        &self,
        kind: RdmaOpKind,
        bytes: u64,
        payload: Option<Bytes>,
    ) -> OneshotReceiver<()> {
        self.cpu.exec(costs::RDMA_VERB_ISSUE_CYCLES).await;
        let op_id = self.next_op.get();
        self.next_op.set(op_id + 1);
        let (tx, rx) = oneshot();
        let request = NicMsg::Request {
            kind,
            bytes,
            payload,
            op_id,
        };
        if self.nic_tx.send((request, tx)).is_err() {
            panic!("NIC engine gone");
        }
        rx
    }

    /// Posts one operation through the verbs path and waits for its
    /// completion-queue entry, then pays the CQ poll.
    pub(crate) async fn post(&self, kind: RdmaOpKind, bytes: u64, payload: Option<Bytes>) {
        let cqe = self.issue(kind, bytes, payload).await;
        let _ = cqe.await;
        self.cpu.exec(costs::RDMA_CQ_POLL_CYCLES).await;
    }

    /// Posts one operation and returns as soon as the WQE is on the
    /// queue pair; the completion-queue entry is reaped by a spawned
    /// poller that pays the CQ-poll cycles when it lands. An RC QP
    /// transmits WQEs in post order, so back-to-back pipelined posts
    /// from one pump keep wire order while their round trips overlap —
    /// the verbs pipelining a message stream needs to avoid paying one
    /// full network round trip per message. Total CPU cost is the same
    /// as [`post`](Self::post); only the issuing task's wait changes.
    ///
    /// Not for one-sided *reads* a caller consumes the result of —
    /// those need [`post`](Self::post)'s completion semantics.
    pub(crate) async fn post_pipelined(
        &self,
        kind: RdmaOpKind,
        bytes: u64,
        payload: Option<Bytes>,
    ) {
        let cqe = self.issue(kind, bytes, payload).await;
        let cpu = self.cpu.clone();
        spawn(async move {
            if cqe.await.is_ok() {
                cpu.exec(costs::RDMA_CQ_POLL_CYCLES).await;
            }
        });
    }

    /// One-sided write of `bytes`.
    pub async fn write(&self, bytes: u64) {
        self.post(RdmaOpKind::Write, bytes, None).await;
    }

    /// Posts a receive and waits for the next incoming two-sided send's
    /// payload. Posting the receive WQE costs issue-side CPU, and reaping
    /// the completion costs a CQ poll — two-sided RDMA is not free on the
    /// passive side, which is exactly why one-sided ops matter (§6).
    /// Dropped before its payload arrives, it withdraws the receive.
    pub(crate) async fn recv(&self) -> Bytes {
        self.cpu.exec(costs::RDMA_VERB_ISSUE_CYCLES / 2).await;
        let pending = self.recv_state.borrow_mut().pending.pop_front();
        let payload = match pending {
            Some(p) => p,
            None => {
                let (tx, rx) = oneshot();
                let ticket = {
                    let mut rs = self.recv_state.borrow_mut();
                    let ticket = rs.next_ticket;
                    rs.next_ticket += 1;
                    rs.posted.push_back((ticket, tx));
                    ticket
                };
                PostedRecv {
                    state: &self.recv_state,
                    ticket,
                    rx,
                    done: false,
                }
                .await
            }
        };
        self.cpu.exec(costs::RDMA_CQ_POLL_CYCLES).await;
        payload
    }
}

#[cfg(test)]
impl RdmaQp {
    /// Receives posted and not yet filled.
    pub(crate) fn posted_receives(&self) -> usize {
        self.recv_state.borrow().posted.len()
    }

    /// One-sided read of `bytes`.
    async fn read(&self, bytes: u64) {
        self.post(RdmaOpKind::Read, bytes, None).await;
    }

    /// Two-sided send carrying a payload.
    async fn send(&self, payload: Bytes) {
        let bytes = payload.len() as u64;
        self.post(RdmaOpKind::Send, bytes, Some(payload)).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{join_all, now, Sim};

    fn pair() -> (Rc<RdmaQp>, Rc<RdmaQp>, Rc<CpuPool>, Rc<CpuPool>) {
        let a_cpu = CpuPool::new("a", 8, 3_000_000_000);
        let b_cpu = CpuPool::new("b", 8, 3_000_000_000);
        let (a, b) = rdma_pair(a_cpu.clone(), b_cpu.clone(), LinkConfig::rack_100g());
        (a, b, a_cpu, b_cpu)
    }

    #[test]
    fn one_sided_write_completes_with_remote_cpu_idle() {
        let mut sim = Sim::new();
        let remote_busy = Rc::new(std::cell::Cell::new(0u64));
        let rb = remote_busy.clone();
        sim.spawn(async move {
            let (a, _b, _a_cpu, b_cpu) = pair();
            a.write(8_192).await;
            assert!(now() > 0);
            rb.set(b_cpu.busy_ns());
            assert_eq!(a.stats.ops.get(), 1);
            assert_eq!(a.stats.bytes.get(), 8_192);
        });
        sim.run();
        assert_eq!(
            remote_busy.get(),
            0,
            "one-sided ops must not touch remote CPU"
        );
    }

    #[test]
    fn read_returns_after_round_trip_with_payload() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (a, _b, _ac, _bc) = pair();
            let t0 = now();
            a.read(8_192).await;
            let elapsed = now() - t0;
            // Must cover two propagation delays + two NIC ops + payload
            // serialization.
            assert!(elapsed > 2 * 2_000, "elapsed={elapsed}");
        });
        sim.run();
    }

    #[test]
    fn issue_cost_accrues_on_local_cpu() {
        let mut sim = Sim::new();
        let busy = Rc::new(std::cell::Cell::new(0u64));
        let busy2 = busy.clone();
        sim.spawn(async move {
            let (a, _b, a_cpu, _bc) = pair();
            for _ in 0..100 {
                a.write(64).await;
            }
            busy2.set(a_cpu.busy_ns());
        });
        sim.run();
        // 100 ops × (450 issue + 120 poll) cycles at 3 GHz = 19 µs.
        let expect = 100 * (costs::RDMA_VERB_ISSUE_CYCLES + costs::RDMA_CQ_POLL_CYCLES) / 3;
        assert_eq!(busy.get(), expect);
    }

    #[test]
    fn two_sided_send_recv_delivers_payload() {
        let mut sim = Sim::new();
        let done = Rc::new(std::cell::Cell::new(false));
        let d2 = done.clone();
        sim.spawn(async move {
            let (a, b, _ac, _bc) = pair();
            // Receiver posts first (blocks until the send lands).
            let receiver = dpdpu_des::spawn(async move { b.recv().await });
            a.send(Bytes::from_static(b"records batch 1")).await;
            let got = receiver.await;
            assert_eq!(got, Bytes::from_static(b"records batch 1"));
            d2.set(true);
        });
        sim.run();
        assert!(done.get(), "send/recv deadlocked");
    }

    #[test]
    fn a_dropped_receive_loses_no_payload() {
        // Dropped unfilled, a receive is withdrawn and the next payload
        // waits in the NIC buffer; dropped filled but unread, it hands
        // its payload back. Either way the next receive gets it.
        dpdpu_des::block_on(async {
            let (a, b, _, _) = pair();
            for filled in [false, true] {
                let mut recv = Box::pin(b.recv());
                let posted = dpdpu_des::race(recv.as_mut(), sleep(5_000)).await;
                assert!(matches!(posted, dpdpu_des::Either::Right(())));
                assert_eq!(b.posted_receives(), 1);
                if filled {
                    a.send(Bytes::from_static(b"filled")).await;
                    assert_eq!(b.posted_receives(), 0, "the payload filled it");
                    drop(recv);
                } else {
                    drop(recv);
                    assert_eq!(b.posted_receives(), 0, "the receive is withdrawn");
                    a.send(Bytes::from_static(b"unfilled")).await;
                }
                let want: &[u8] = if filled { b"filled" } else { b"unfilled" };
                assert_eq!(b.recv().await, want);
            }
        });
    }

    #[test]
    fn unmatched_sends_buffer_until_receives_post() {
        let mut sim = Sim::new();
        let done = Rc::new(std::cell::Cell::new(false));
        let d2 = done.clone();
        sim.spawn(async move {
            let (a, b, _ac, _bc) = pair();
            for i in 0..5u8 {
                a.send(Bytes::from(vec![i; 8])).await;
            }
            // Late receives drain the buffered payloads in order.
            for i in 0..5u8 {
                assert_eq!(b.recv().await, Bytes::from(vec![i; 8]));
            }
            d2.set(true);
        });
        sim.run();
        assert!(done.get(), "buffered recv deadlocked");
    }

    #[test]
    fn posted_receive_exhaustion_is_rnr_buffered_counted_and_deterministic() {
        // Regression for the posted-receive exhaustion path: a burst of
        // two-sided sends with **no** receive posted must be buffered
        // NIC-side (RNR semantics — never silently dropped), surface in
        // the `rnr`/`rnr_peak` stats, and drain losslessly in order.
        // The whole episode must also be deterministic across runs.
        fn run_once() -> (u64, u64, u64) {
            let mut sim = Sim::new();
            let out = Rc::new(std::cell::Cell::new((0u64, 0u64, 0u64)));
            let out2 = out.clone();
            sim.spawn(async move {
                let (a, b, _ac, _bc) = pair();
                // Phase 1: 8 sends land with zero posted receives.
                for i in 0..8u8 {
                    a.send(Bytes::from(vec![i; 16])).await;
                }
                assert_eq!(b.stats.rnr.get(), 8, "each unmatched send is an RNR event");
                assert_eq!(b.stats.rnr_peak.get(), 8, "backlog high-water mark");
                // Phase 2: late receives drain the backlog in order —
                // nothing was dropped.
                for i in 0..8u8 {
                    assert_eq!(b.recv().await, Bytes::from(vec![i; 16]));
                }
                // Phase 3: a pre-posted receive is NOT an RNR event.
                let b2 = b.clone();
                let receiver = dpdpu_des::spawn(async move { b2.recv().await });
                a.send(Bytes::from_static(b"matched")).await;
                assert_eq!(receiver.await, Bytes::from_static(b"matched"));
                assert_eq!(b.stats.rnr.get(), 8, "matched send must not count");
                out2.set((b.stats.rnr.get(), b.stats.rnr_peak.get(), now()));
            });
            sim.run();
            out.get()
        }
        let first = run_once();
        let second = run_once();
        assert_eq!(first, second, "RNR episode must be deterministic");
    }

    #[test]
    fn recv_costs_cpu_on_the_passive_side() {
        let mut sim = Sim::new();
        sim.spawn(async move {
            let (a, b, _ac, b_cpu) = pair();
            let receiver = dpdpu_des::spawn(async move { b.recv().await });
            a.send(Bytes::from_static(b"x")).await;
            receiver.await;
            assert!(
                b_cpu.busy_ns() > 0,
                "two-sided ops must consume passive-side CPU"
            );
        });
        sim.run();
    }

    #[test]
    fn pipelined_posts_cost_the_same_cpu_and_overlap_round_trips() {
        // `post` and `post_pipelined` share one issue half and pay one
        // CQ poll per op; only where the completion is awaited differs.
        const N: u8 = 32;
        let run = |pipelined: bool| {
            let a_cpu = CpuPool::new("a", 8, 3_000_000_000);
            let b_cpu = CpuPool::new("b", 8, 3_000_000_000);
            let issuer = a_cpu.clone();
            let delivered_at = dpdpu_des::block_on(async move {
                let (a, b) = rdma_pair(issuer, b_cpu, LinkConfig::rack_100g());
                dpdpu_des::spawn(async move {
                    for i in 0..N {
                        let msg = Some(Bytes::from(vec![i; 64]));
                        if pipelined {
                            a.post_pipelined(RdmaOpKind::Send, 64, msg).await;
                        } else {
                            a.post(RdmaOpKind::Send, 64, msg).await;
                        }
                    }
                });
                for i in 0..N {
                    assert_eq!(b.recv().await[0], i, "wire order");
                }
                now()
            });
            (a_cpu.busy_ns(), delivered_at)
        };
        let (inline_busy, inline_ns) = run(false);
        let (pipelined_busy, pipelined_ns) = run(true);
        let per_op = costs::RDMA_VERB_ISSUE_CYCLES + costs::RDMA_CQ_POLL_CYCLES;
        assert_eq!(inline_busy, N as u64 * per_op / 3);
        assert_eq!(pipelined_busy, inline_busy);
        assert!(
            pipelined_ns * 2 < inline_ns,
            "pipelined={pipelined_ns} inline={inline_ns}"
        );
    }

    #[test]
    fn concurrent_ops_pipeline_on_the_wire() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (a, _b, _ac, _bc) = pair();
            let t0 = now();
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let a = a.clone();
                    dpdpu_des::spawn(async move { a.write(8_192).await })
                })
                .collect();
            join_all(handles).await;
            let elapsed = now() - t0;
            // Sequential would be ≥16 RTTs ≈ 16×~5µs; pipelined must be
            // far below that.
            assert!(elapsed < 40_000, "elapsed={elapsed}");
            assert_eq!(a.stats.ops.get(), 16);
        });
        sim.run();
    }
}
