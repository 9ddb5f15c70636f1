//! DPU-optimized RDMA (paper Figure 7).
//!
//! The host stops issuing verbs. Instead it appends request descriptors
//! to a lock-free, DMA-accessible ring (a plain cached store — no QP
//! lock, no fence, no doorbell MMIO), and the Network Engine on the DPU
//! polls the ring with the DPU's DMA engine, issues the actual RDMA
//! operations from the DPU side, and pushes completions back through a
//! completion ring the host polls cheaply.
//!
//! Both rings work as rings. A message sender returns once its
//! descriptor is in the ring, so a burst of messages lands in one poll
//! batch; the poller writes each completion descriptor back as a posted
//! PCIe write and moves on to the next descriptor while it is in
//! flight; and the inbound pump posts each payload's DMA into host
//! memory the same way. The DMA lane is FIFO with a constant round
//! trip, so posted writes land in the order they were issued.
//!
//! Host cost per op drops from `RDMA_VERB_ISSUE_CYCLES +
//! RDMA_CQ_POLL_CYCLES` (≈570 cycles) to `NE_RING_ENQUEUE_CYCLES` plus a
//! batched completion poll (≈100 cycles) — the Figure 7 saving — at the
//! price of one PCIe hop of added latency and DPU CPU cycles.

use std::rc::Rc;

use bytes::Bytes;
use dpdpu_des::{channel, oneshot, race, spawn, Counter, Either, OneshotSender, Receiver, Sender};
use dpdpu_hw::{costs, CpuPool, PcieLink};

use crate::rdma::{RdmaOpKind, RdmaQp};

/// Statistics for the offloaded path.
#[derive(Default)]
pub struct OffloadStats {
    /// Descriptors the DPU pulled from the host ring.
    pub(crate) polled: Counter,
    /// DMA batches the poller issued.
    pub(crate) poll_batches: Counter,
    /// Completions pushed back to the host.
    pub(crate) completions: Counter,
}

struct RingEntry {
    kind: RdmaOpKind,
    bytes: u64,
    /// A message the DPU delivers to the peer (DMA'd from host memory
    /// first). A message of kind `Write` is placed by a one-sided
    /// write, then delivered by a 0-byte notify send — one descriptor,
    /// one payload DMA, two verbs. `None` is a one-sided op whose verb
    /// the poller waits out before it writes the completion back.
    payload: Option<Bytes>,
    /// Fired when the completion descriptor lands in host memory; `None`
    /// for a message, whose sender does not wait for it.
    done: Option<OneshotSender<()>>,
}

/// The host-visible handle: a request ring plus a completion await.
pub struct OffloadedQp {
    host_cpu: Rc<CpuPool>,
    ring: Sender<RingEntry>,
    /// Path statistics.
    pub stats: Rc<OffloadStats>,
}

/// Max descriptors fetched per DMA batch.
const POLL_BATCH: usize = 16;

/// Wraps an [`RdmaQp`] whose verbs are issued *by the DPU* behind
/// host-side rings. `dpu_qp` should have been created with the DPU's CPU
/// pool as its issuing processor.
pub fn offload_qp(
    host_cpu: Rc<CpuPool>,
    dpu_cpu: Rc<CpuPool>,
    pcie: Rc<PcieLink>,
    dpu_qp: Rc<RdmaQp>,
) -> Rc<OffloadedQp> {
    let (ring, mut entries) = channel::<RingEntry>();
    let stats = Rc::new(OffloadStats::default());

    // The NE poller on the DPU.
    {
        let stats = stats.clone();
        spawn(async move {
            // Runs until the host handle is dropped and its ring drained.
            while let Some(batch) = pcie.poll_ring(&mut entries, POLL_BATCH).await {
                stats.poll_batches.inc();
                stats.polled.add(batch.len() as u64);
                for RingEntry {
                    kind,
                    bytes,
                    payload,
                    done,
                } in batch
                {
                    // DPU-side software issue (cheaper than host verbs and
                    // off the host entirely).
                    dpu_cpu.exec(costs::DPU_RDMA_ISSUE_CYCLES).await;
                    // Payload for writes/sends is DMA'd from host memory.
                    if kind != RdmaOpKind::Read && bytes > 0 {
                        pcie.dma(bytes).await;
                    }
                    match payload {
                        // Payload by one-sided write, delivery by a
                        // 0-byte notify send — the payload crossed PCIe
                        // once, above.
                        Some(msg) if kind == RdmaOpKind::Write => {
                            dpu_qp.post_pipelined(RdmaOpKind::Write, bytes, None).await;
                            dpu_cpu.exec(costs::DPU_RDMA_ISSUE_CYCLES).await;
                            dpu_qp.post_pipelined(RdmaOpKind::Send, 0, Some(msg)).await;
                        }
                        Some(msg) => dpu_qp.post_pipelined(kind, bytes, Some(msg)).await,
                        None => dpu_qp.post(kind, bytes, None).await,
                    }
                    if kind == RdmaOpKind::Read && bytes > 0 {
                        // Read payload lands in host memory by DMA.
                        pcie.dma(bytes).await;
                    }
                    // Completion descriptor back to the host ring: a
                    // posted write, in flight while the poller moves on.
                    let (pcie, stats) = (pcie.clone(), stats.clone());
                    spawn(async move {
                        pcie.dma(costs::RING_DESC_BYTES).await;
                        stats.completions.inc();
                        if let Some(done) = done {
                            let _ = done.send(());
                        }
                    });
                }
            }
        });
    }

    Rc::new(OffloadedQp {
        host_cpu,
        ring,
        stats,
    })
}

/// [`offload_qp`] plus an inbound path: the DPU keeps receives posted on
/// the underlying QP, DMAs each arriving two-sided payload into host
/// memory alongside its completion descriptor, and the host drains them
/// through [`OffloadRecvStream`] at completion-ring poll cost. With both
/// directions behind rings the host issues **zero verbs** end to end.
pub(crate) fn offload_qp_with_recv(
    host_cpu: Rc<CpuPool>,
    dpu_cpu: Rc<CpuPool>,
    pcie: Rc<PcieLink>,
    dpu_qp: Rc<RdmaQp>,
) -> (Rc<OffloadedQp>, OffloadRecvStream) {
    let oqp = offload_qp(host_cpu.clone(), dpu_cpu, pcie.clone(), dpu_qp.clone());
    let (tx, rx) = channel::<Bytes>();
    spawn(async move {
        loop {
            // The DPU re-posts the receive and reaps its completion
            // (dpu_qp's issuing processor is the DPU pool). A host that
            // hangs up ends the pump at once, traffic or none: the
            // unfilled receive is withdrawn as the race drops it.
            let payload = match race(dpu_qp.recv(), tx.closed()).await {
                Either::Left(payload) => payload,
                Either::Right(()) => return,
            };
            // A posted write: the pump re-posts its receive while the
            // payload is in flight. The lane is FIFO with a constant
            // round trip, so payloads reach the host in arrival order.
            let (pcie, tx) = (pcie.clone(), tx.clone());
            spawn(async move {
                pcie.dma(costs::RING_DESC_BYTES + payload.len() as u64)
                    .await;
                let _ = tx.send(payload);
            });
        }
    });
    (oqp, OffloadRecvStream { host_cpu, rx })
}

/// Host-side handle on the inbound completion ring: messages the DPU
/// received and DMA'd into host memory, reaped at batched-poll cost.
pub(crate) struct OffloadRecvStream {
    host_cpu: Rc<CpuPool>,
    rx: Receiver<Bytes>,
}

impl OffloadRecvStream {
    /// Next inbound two-sided payload (`None` if the pump is gone).
    pub(crate) async fn recv(&mut self) -> Option<Bytes> {
        let payload = self.rx.recv().await?;
        self.host_cpu.exec(costs::NE_RING_ENQUEUE_CYCLES / 4).await;
        Some(payload)
    }
}

impl OffloadedQp {
    /// Appends one descriptor to the request ring: a plain store, no
    /// lock, no doorbell.
    async fn enqueue(
        &self,
        kind: RdmaOpKind,
        bytes: u64,
        payload: Option<Bytes>,
        done: Option<OneshotSender<()>>,
    ) {
        self.host_cpu.exec(costs::NE_RING_ENQUEUE_CYCLES).await;
        let entry = RingEntry {
            kind,
            bytes,
            payload,
            done,
        };
        // A descriptor nobody takes must not read as a submitted verb.
        self.ring.send(entry).ok().expect("DPU poller alive");
    }

    /// The host's share of reaping one completion: a batched
    /// completion-ring poll, far cheaper than a CQ poll.
    async fn reap(&self) {
        self.host_cpu.exec(costs::NE_RING_ENQUEUE_CYCLES / 4).await;
    }

    /// Posts a one-sided operation from the host: a ring enqueue (no
    /// lock, no doorbell), then an await of the completion ring. The
    /// await models the §6 requirement that "applications only spend
    /// minimal resources polling responses".
    pub(crate) async fn post(&self, kind: RdmaOpKind, bytes: u64) {
        let (tx, rx) = oneshot();
        self.enqueue(kind, bytes, None, Some(tx)).await;
        rx.await.expect("DPU poller alive");
        self.reap().await;
    }

    /// One-sided write.
    pub async fn write(&self, bytes: u64) {
        self.post(RdmaOpKind::Write, bytes).await;
    }

    /// Two-sided send carrying `payload`, issued by the DPU; returns
    /// once the descriptor is in the ring, before the DPU has even
    /// polled it. Ring order is wire order, so a message pump keeps
    /// submitting while earlier messages wait in the ring, and a burst
    /// shares one poll batch instead of paying one ring cycle per
    /// message. The caller bounds the ring's depth (the fabric's
    /// credit window); the host still pays the completion poll for
    /// every message.
    pub(crate) async fn send_pipelined(&self, payload: Bytes) {
        let bytes = payload.len() as u64;
        self.enqueue(RdmaOpKind::Send, bytes, Some(payload), None)
            .await;
        self.reap().await;
    }

    /// Bulk message: payload placed by a one-sided write, delivery
    /// signalled by a 0-byte notify send (both DPU-issued), submitted
    /// as in [`send_pipelined`](Self::send_pipelined).
    pub(crate) async fn send_bulk_pipelined(&self, payload: Bytes) {
        let bytes = payload.len() as u64;
        self.enqueue(RdmaOpKind::Write, bytes, Some(payload), None)
            .await;
        self.reap().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdma::rdma_pair;
    use dpdpu_check::CheckGuard;
    use dpdpu_des::{block_on, join_all, now, sleep, Sim};
    use dpdpu_hw::LinkConfig;

    struct Testbed {
        host_cpu: Rc<CpuPool>,
        dpu_cpu: Rc<CpuPool>,
        qp: Rc<OffloadedQp>,
        /// The peer's QP, issued by its own cores.
        remote_qp: Rc<RdmaQp>,
    }

    fn build() -> Testbed {
        let host_cpu = CpuPool::new("host", 8, 3_000_000_000);
        let dpu_cpu = CpuPool::new("dpu", 8, 2_500_000_000);
        let remote = CpuPool::new("remote", 8, 3_000_000_000);
        let pcie = PcieLink::new("pcie", 16_000_000_000);
        // The DPU issues the real verbs.
        let (dpu_side_qp, remote_qp) = rdma_pair(dpu_cpu.clone(), remote, LinkConfig::rack_100g());
        let qp = offload_qp(host_cpu.clone(), dpu_cpu.clone(), pcie, dpu_side_qp);
        Testbed {
            host_cpu,
            dpu_cpu,
            qp,
            remote_qp,
        }
    }

    #[test]
    fn write_completes_through_the_rings() {
        let mut sim = Sim::new();
        let stats = Rc::new(std::cell::Cell::new((0u64, 0u64)));
        let stats2 = stats.clone();
        sim.spawn(async move {
            let tb = build();
            tb.qp.write(8_192).await;
            stats2.set((tb.qp.stats.polled.get(), tb.qp.stats.completions.get()));
        });
        sim.run();
        assert_eq!(stats.get(), (1, 1));
    }

    #[test]
    fn host_cpu_cost_is_an_order_of_magnitude_lower() {
        // Figure 7's point: compare host cycles per op, verbs vs rings.
        let ops = 200u64;

        // Baseline: host issues verbs directly.
        let mut sim = Sim::new();
        let host_busy = Rc::new(std::cell::Cell::new(0u64));
        let hb = host_busy.clone();
        sim.spawn(async move {
            let host = CpuPool::new("host", 8, 3_000_000_000);
            let remote = CpuPool::new("remote", 8, 3_000_000_000);
            let (qp, _r) = rdma_pair(host.clone(), remote, LinkConfig::rack_100g());
            for _ in 0..ops {
                qp.write(4_096).await;
            }
            hb.set(host.busy_ns());
        });
        sim.run();
        let verbs_busy = host_busy.get();

        // Offloaded path.
        let mut sim = Sim::new();
        let host_busy = Rc::new(std::cell::Cell::new(0u64));
        let hb = host_busy.clone();
        sim.spawn(async move {
            let tb = build();
            for _ in 0..ops {
                tb.qp.write(4_096).await;
            }
            hb.set(tb.host_cpu.busy_ns());
        });
        sim.run();
        let ring_busy = host_busy.get();

        assert!(
            ring_busy * 2 < verbs_busy,
            "ring path must at least halve host cycles: verbs={verbs_busy} rings={ring_busy}"
        );
    }

    #[test]
    fn dpu_absorbs_the_issue_work() {
        let mut sim = Sim::new();
        let busy = Rc::new(std::cell::Cell::new(0u64));
        let b2 = busy.clone();
        sim.spawn(async move {
            let tb = build();
            for _ in 0..50 {
                tb.qp.write(1_024).await;
            }
            b2.set(tb.dpu_cpu.busy_ns());
        });
        sim.run();
        assert!(busy.get() > 0, "DPU must be doing the issuing");
    }

    #[test]
    fn batched_polling_amortizes_dma() {
        let mut sim = Sim::new();
        let out = Rc::new(std::cell::Cell::new((0u64, 0u64)));
        let out2 = out.clone();
        sim.spawn(async move {
            let tb = build();
            // Burst of concurrent ops lands in one or two poll batches.
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let qp = tb.qp.clone();
                    dpdpu_des::spawn(async move { qp.write(256).await })
                })
                .collect();
            join_all(handles).await;
            out2.set((tb.qp.stats.polled.get(), tb.qp.stats.poll_batches.get()));
        });
        sim.run();
        let (polled, batches) = out.get();
        assert_eq!(polled, 16);
        assert!(batches <= 4, "expected batching, got {batches} batches");
    }

    #[test]
    fn latency_penalty_is_bounded() {
        // Offload adds PCIe hops; it must cost microseconds, not more.
        let mut sim = Sim::new();
        sim.spawn(async move {
            let tb = build();
            let t0 = now();
            tb.qp.write(4_096).await;
            let lat = now() - t0;
            assert!(
                lat < 50_000,
                "one op should complete in <50µs, took {lat}ns"
            );
        });
        sim.run();
    }

    #[test]
    fn a_burst_of_messages_shares_the_ring() {
        // The wire pump's pattern: one task submits back to back. Each
        // send returns once its descriptor is in the ring, so the burst
        // rides one or two poll batches, and the last message arrives
        // after one ring cycle plus the burst's payload fetches (about
        // 25 us), not after 16 full ring cycles (about 75 us: probe,
        // descriptor fetch, payload fetch and completion write, each).
        const BURST: u8 = 16;
        let (batches, order, last_at) = block_on(async {
            let tb = build();
            let remote_qp = tb.remote_qp.clone();
            let arrivals = spawn(async move {
                let mut got = Vec::new();
                for _ in 0..BURST {
                    got.push((remote_qp.recv().await[0], now()));
                }
                got
            });
            for i in 0..BURST {
                tb.qp.send_pipelined(Bytes::from(vec![i; 64])).await;
            }
            let got = arrivals.await;
            let order: Vec<u8> = got.iter().map(|&(i, _)| i).collect();
            (tb.qp.stats.poll_batches.get(), order, got[got.len() - 1].1)
        });
        assert!(
            batches <= 2,
            "a burst must share the ring: {batches} poll batches"
        );
        assert_eq!(
            order,
            (0..BURST).collect::<Vec<_>>(),
            "ring order is wire order"
        );
        assert!(
            last_at < 40_000,
            "the burst's last message must arrive within 40 us, arrived at {last_at} ns"
        );
    }

    #[test]
    fn a_pump_whose_host_hangs_up_with_no_traffic_exits() {
        // No message ever arrives: the pump is parked on its posted
        // receive when the host drops its stream, and it must exit at
        // once, withdrawing the receive, instead of holding its QP and
        // PCIe link for the rest of the run.
        let out = block_on(async {
            let host_cpu = CpuPool::new("host", 8, 3_000_000_000);
            let dpu_cpu = CpuPool::new("dpu", 8, 2_500_000_000);
            let remote = CpuPool::new("remote", 8, 3_000_000_000);
            let pcie = PcieLink::new("pcie", 16_000_000_000);
            let (dpu_qp, _remote_qp) = rdma_pair(dpu_cpu.clone(), remote, LinkConfig::rack_100g());
            let (qp, stream) =
                offload_qp_with_recv(host_cpu, dpu_cpu, pcie.clone(), dpu_qp.clone());
            sleep(10_000).await;
            let posted = dpu_qp.posted_receives();
            drop((qp, stream));
            sleep(10_000).await;
            (
                posted,
                dpu_qp.posted_receives(),
                Rc::strong_count(&dpu_qp),
                Rc::strong_count(&pcie),
            )
        });
        assert_eq!(out.0, 1, "the pump parks on one posted receive");
        assert_eq!(out.1, 0, "the exiting pump withdraws its receive");
        assert_eq!(
            (out.2, out.3),
            (1, 1),
            "the poller and the inbound pump must have exited"
        );
    }

    #[test]
    fn teardown_with_dmas_in_flight_quiesces_and_balances() {
        // Both host handles drop while the poller's completion writes
        // and the pump's inbound DMAs are posted. Every posted write
        // still lands (the PCIe ledger balances under the strict
        // session), the poller exits once its ring is drained, and the
        // pump exits as the host hangs up, with no message after it.
        const SENDS: u64 = 8;
        let check = CheckGuard::new();
        let session = check.session().clone();
        let mut sim = Sim::new();
        let out = Rc::new(std::cell::Cell::new(None));
        let out2 = out.clone();
        sim.spawn(async move {
            let host_cpu = CpuPool::new("host", 8, 3_000_000_000);
            let dpu_cpu = CpuPool::new("dpu", 8, 2_500_000_000);
            let remote = CpuPool::new("remote", 8, 3_000_000_000);
            let pcie = PcieLink::new("pcie", 16_000_000_000);
            let (dpu_qp, remote_qp) = rdma_pair(dpu_cpu.clone(), remote, LinkConfig::rack_100g());
            let (qp, mut stream) =
                offload_qp_with_recv(host_cpu, dpu_cpu, pcie.clone(), dpu_qp.clone());
            for i in 0..SENDS {
                let msg = Bytes::from(vec![i as u8; 512]);
                remote_qp
                    .post_pipelined(RdmaOpKind::Send, 512, Some(msg))
                    .await;
                qp.send_pipelined(Bytes::from(vec![i as u8; 512])).await;
            }
            stream.recv().await.expect("pump alive");
            // PCIe bytes that entered the ledger but have not landed.
            let dma_bytes = |report: String| -> u64 {
                let field = report.split(' ').find_map(|f| f.strip_prefix("dma_bytes="));
                field
                    .expect("report names dma_bytes")
                    .parse()
                    .expect("a count")
            };
            let in_flight = dma_bytes(session.report()) - pcie.bytes_moved.get();
            let landed = qp.stats.completions.get();
            let stats = qp.stats.clone();
            drop((qp, stream));
            sleep(50_000).await;
            out2.set(Some((
                in_flight,
                landed,
                stats.completions.get(),
                Rc::strong_count(&dpu_qp),
                Rc::strong_count(&pcie),
            )));
        });
        sim.run();
        drop(sim);
        let (in_flight, landed, completions, qp_refs, pcie_refs) =
            out.get().expect("the run finished");
        assert!(in_flight > 0, "the handles must drop with DMAs posted");
        assert!(
            landed < SENDS,
            "completion writes must be pending at the drop: {landed}"
        );
        assert_eq!(completions, SENDS, "every posted completion write lands");
        assert_eq!(
            qp_refs, 1,
            "the poller and the inbound pump must have exited"
        );
        assert_eq!(pcie_refs, 1, "no posted DMA may outlive the run");
        assert!(
            check.session().finish().is_empty(),
            "{}",
            check.session().report()
        );
    }
}
