//! DPU-optimized RDMA (paper Figure 7).
//!
//! The host stops issuing verbs. Instead it appends request descriptors
//! to a lock-free, DMA-accessible ring (a plain cached store — no QP
//! lock, no fence, no doorbell MMIO), and the Network Engine on the DPU
//! polls the ring with the DPU's DMA engine, issues the actual RDMA
//! operations from the DPU side, and pushes completions back through a
//! completion ring the host polls cheaply.
//!
//! Host cost per op drops from `RDMA_VERB_ISSUE_CYCLES +
//! RDMA_CQ_POLL_CYCLES` (≈570 cycles) to `NE_RING_ENQUEUE_CYCLES` plus a
//! batched completion poll (≈100 cycles) — the Figure 7 saving — at the
//! price of one PCIe hop of added latency and DPU CPU cycles.

use std::rc::Rc;

use bytes::Bytes;
use dpdpu_des::{channel, oneshot, spawn, Counter, OneshotSender, Receiver, Sender};
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
    /// first). Message entries complete (`done`) once their verbs are
    /// issued, not when the remote round trip finishes — send-path
    /// semantics, where wire order is all the submitter needs. A
    /// message of kind `Write` is placed by a one-sided write, then
    /// delivered by a 0-byte notify send — one descriptor, one payload
    /// DMA, two verbs. `None` is a one-sided op that completes after
    /// its round trip.
    payload: Option<Bytes>,
    done: OneshotSender<()>,
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
                for entry in batch {
                    // DPU-side software issue (cheaper than host verbs and
                    // off the host entirely).
                    dpu_cpu.exec(costs::DPU_RDMA_ISSUE_CYCLES).await;
                    // Payload for writes/sends is DMA'd from host memory.
                    if entry.kind != RdmaOpKind::Read && entry.bytes > 0 {
                        pcie.dma(entry.bytes).await;
                    }
                    match entry.payload {
                        // Payload by one-sided write, delivery by a
                        // 0-byte notify send — the payload crossed PCIe
                        // once, above.
                        Some(msg) if entry.kind == RdmaOpKind::Write => {
                            dpu_qp
                                .post_pipelined(RdmaOpKind::Write, entry.bytes, None)
                                .await;
                            dpu_cpu.exec(costs::DPU_RDMA_ISSUE_CYCLES).await;
                            dpu_qp.post_pipelined(RdmaOpKind::Send, 0, Some(msg)).await;
                        }
                        Some(msg) => {
                            dpu_qp
                                .post_pipelined(entry.kind, entry.bytes, Some(msg))
                                .await;
                        }
                        None => dpu_qp.post(entry.kind, entry.bytes, None).await,
                    }
                    if entry.kind == RdmaOpKind::Read && entry.bytes > 0 {
                        // Read payload lands in host memory by DMA.
                        pcie.dma(entry.bytes).await;
                    }
                    // Completion descriptor back to the host ring.
                    pcie.dma(costs::RING_DESC_BYTES).await;
                    stats.completions.inc();
                    let _ = entry.done.send(());
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
            // (dpu_qp's issuing processor is the DPU pool).
            let payload = dpu_qp.recv().await;
            pcie.dma(costs::RING_DESC_BYTES + payload.len() as u64)
                .await;
            if tx.send(payload).is_err() {
                return; // host stream dropped: stop pumping
            }
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
    async fn submit_entry(&self, kind: RdmaOpKind, bytes: u64, payload: Option<Bytes>) {
        self.host_cpu.exec(costs::NE_RING_ENQUEUE_CYCLES).await;
        let (tx, rx) = oneshot();
        let entry = RingEntry {
            kind,
            bytes,
            payload,
            done: tx,
        };
        // A descriptor nobody takes must not read as a completed verb.
        self.ring.send(entry).ok().expect("DPU poller alive");
        rx.await.expect("DPU poller alive");
        // Batched completion-ring poll, far cheaper than a CQ poll.
        self.host_cpu.exec(costs::NE_RING_ENQUEUE_CYCLES / 4).await;
    }

    /// Posts a one-sided operation from the host: a ring enqueue (no
    /// lock, no doorbell), then an await of the completion ring. The
    /// await models the §6 requirement that "applications only spend
    /// minimal resources polling responses".
    pub(crate) async fn post(&self, kind: RdmaOpKind, bytes: u64) {
        self.submit_entry(kind, bytes, None).await;
    }

    /// One-sided write.
    pub async fn write(&self, bytes: u64) {
        self.post(RdmaOpKind::Write, bytes).await;
    }

    /// Two-sided send carrying `payload`, issued by the DPU; returns
    /// once the DPU has issued the verb, not after the remote round
    /// trip. Successive sends keep ring and wire order, so a message
    /// pump overlaps round trips instead of paying one per message.
    pub(crate) async fn send_pipelined(&self, payload: Bytes) {
        let bytes = payload.len() as u64;
        self.submit_entry(RdmaOpKind::Send, bytes, Some(payload))
            .await;
    }

    /// Bulk message: payload placed by a one-sided write, delivery
    /// signalled by a 0-byte notify send (both DPU-issued), with
    /// pipelined completion as in
    /// [`send_pipelined`](Self::send_pipelined).
    pub(crate) async fn send_bulk_pipelined(&self, payload: Bytes) {
        let bytes = payload.len() as u64;
        self.submit_entry(RdmaOpKind::Write, bytes, Some(payload))
            .await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdma::rdma_pair;
    use dpdpu_des::{join_all, now, Sim};
    use dpdpu_hw::LinkConfig;

    struct Testbed {
        host_cpu: Rc<CpuPool>,
        dpu_cpu: Rc<CpuPool>,
        qp: Rc<OffloadedQp>,
    }

    fn build() -> Testbed {
        let host_cpu = CpuPool::new("host", 8, 3_000_000_000);
        let dpu_cpu = CpuPool::new("dpu", 8, 2_500_000_000);
        let remote = CpuPool::new("remote", 8, 3_000_000_000);
        let pcie = PcieLink::new("pcie", 16_000_000_000);
        // The DPU issues the real verbs.
        let (dpu_side_qp, _remote_qp) = rdma_pair(dpu_cpu.clone(), remote, LinkConfig::rack_100g());
        let qp = offload_qp(host_cpu.clone(), dpu_cpu.clone(), pcie, dpu_side_qp);
        Testbed {
            host_cpu,
            dpu_cpu,
            qp,
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
}
