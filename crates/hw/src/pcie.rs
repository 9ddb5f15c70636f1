//! PCIe links and DMA engines (host↔DPU and DPU↔SSD peer-to-peer paths).

use std::rc::Rc;

use dpdpu_check::{Exit, Flow};
use dpdpu_des::{now, sleep, sleep_until, transmit_ns, Counter, Receiver, Server, Time};

use crate::costs;

/// A PCIe link with a DMA engine in front of it.
///
/// Transfers serialize FIFO at the link bandwidth; each transaction also
/// pays a fixed engine-setup cost plus the PCIe round-trip. Reads and
/// writes share the modelled bandwidth (a deliberate simplification — the
/// shapes the paper reports do not depend on full-duplex PCIe).
pub struct PcieLink {
    lane: Rc<Server>,
    bytes_per_sec: u64,
    rtt_ns: Time,
    setup_ns: Time,
    pub(crate) transactions: Counter,
    pub bytes_moved: Counter,
}

impl PcieLink {
    /// Creates a link with the given payload bandwidth.
    pub fn new(name: impl Into<String>, bytes_per_sec: u64) -> Rc<Self> {
        assert!(bytes_per_sec > 0, "PCIe bandwidth must be positive");
        Rc::new(PcieLink {
            lane: Server::new(name, 1),
            bytes_per_sec,
            rtt_ns: costs::PCIE_RTT_NS,
            setup_ns: costs::DMA_SETUP_NS,
            transactions: Counter::new(),
            bytes_moved: Counter::new(),
        })
    }

    /// Payload bandwidth in bytes/sec.
    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }

    /// Round-trip latency in ns.
    pub fn rtt_ns(&self) -> Time {
        self.rtt_ns
    }

    /// Moves `bytes` across the link (either direction): engine setup,
    /// FIFO serialization, then the PCIe round-trip for the completion.
    pub async fn dma(&self, bytes: u64) {
        dpdpu_check::flow_in(Flow::Pcie, self.lane.site(), bytes);
        self.lane
            .process(self.setup_ns + transmit_ns(bytes, self.bytes_per_sec * 8))
            .await;
        sleep(self.rtt_ns).await;
        self.transactions.inc();
        self.bytes_moved.add(bytes);
        dpdpu_check::flow_out(Flow::Pcie, self.lane.site(), Exit::Ok, bytes);
    }

    /// A small read of a remote descriptor/doorbell (polling path):
    /// round-trip only, no meaningful serialization.
    pub async fn poll_round_trip(&self) {
        sleep(self.rtt_ns).await;
    }

    /// The DPU side of a DMA-polled ring in host memory: drains up to
    /// `max_batch` descriptors and fetches them with one DMA. The host
    /// holds the ring's [`Sender`](dpdpu_des::Sender); `None` once it is
    /// dropped and the ring drained.
    ///
    /// A poller that finds its ring empty re-probes it every
    /// `rtt_ns + costs::RING_IDLE_POLL_NS` (1 µs: one descriptor read,
    /// one pause). Empty probes touch nothing but the clock, so they are
    /// not simulated: the poller parks on the ring and, once a push
    /// wakes it, looks at the first probe instant *after* that push (a
    /// probe at the push's own nanosecond has already looked).
    pub async fn poll_ring<T>(&self, ring: &mut Receiver<T>, max_batch: usize) -> Option<Vec<T>> {
        let mut batch = Vec::new();
        if ring.is_empty() {
            let idle_from = now();
            batch.push(ring.recv().await?);
            let probe_ns = self.rtt_ns + costs::RING_IDLE_POLL_NS;
            let probes = (now() - idle_from) / probe_ns + 1;
            sleep_until(idle_from + probes * probe_ns).await;
        }
        while batch.len() < max_batch && !ring.is_empty() {
            batch.extend(ring.recv().await);
        }
        self.dma(costs::RING_DESC_BYTES * batch.len() as u64).await;
        Some(batch)
    }

    /// Link busy time.
    pub fn busy_ns(&self) -> u64 {
        self.lane.busy_ns()
    }

    /// Transfers queued for the DMA engine right now.
    pub fn queue_len(&self) -> usize {
        self.lane.queue_len()
    }

    /// Link name.
    pub(crate) fn name(&self) -> &str {
        self.lane.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{block_on, channel, spawn, Sim};
    use std::cell::RefCell;
    use std::collections::VecDeque;

    /// The loop `poll_ring` replaced, kept as its timing oracle: every
    /// empty probe is simulated (descriptor read, hang-up check, pause).
    async fn poll_ring_oracle<T>(
        pcie: &PcieLink,
        ring: &Rc<RefCell<VecDeque<T>>>,
        max_batch: usize,
    ) -> Option<Vec<T>> {
        loop {
            let batch: Vec<T> = {
                let mut r = ring.borrow_mut();
                let take = r.len().min(max_batch);
                r.drain(..take).collect()
            };
            if !batch.is_empty() {
                pcie.dma(costs::RING_DESC_BYTES * batch.len() as u64).await;
                return Some(batch);
            }
            pcie.poll_round_trip().await;
            if Rc::strong_count(ring) == 1 {
                return None;
            }
            sleep(costs::RING_IDLE_POLL_NS).await;
        }
    }

    /// The poller's first, empty look happens here, off any round number.
    const T0: Time = 12_345;

    /// One poller (parked, or the oracle) against `pushes` of `(ns after
    /// the empty look at T0, value)` in time order; the producer hangs up
    /// 2 us after the last one. Returns every batch with the instant its
    /// descriptor DMA completed. Each push follows a timer armed 1 ns
    /// earlier, as a host enqueue follows its `CpuPool::exec`.
    fn batches(parked: bool, pushes: &[(Time, u32)], max_batch: usize) -> Vec<(Time, Vec<u32>)> {
        let pushes = pushes.to_vec();
        block_on(async move {
            sleep(T0).await;
            let pcie = PcieLink::new("p", 16_000_000_000);
            let (tx, mut rx) = channel();
            let ring = Rc::new(RefCell::new(VecDeque::new()));
            let poller = {
                let ring = ring.clone();
                spawn(async move {
                    let mut out = Vec::new();
                    loop {
                        let batch = if parked {
                            pcie.poll_ring(&mut rx, max_batch).await
                        } else {
                            poll_ring_oracle(&pcie, &ring, max_batch).await
                        };
                        match batch {
                            Some(batch) => out.push((now(), batch)),
                            None => return out,
                        }
                    }
                })
            };
            spawn(async move {
                for (after, value) in pushes {
                    sleep_until((T0 + after).saturating_sub(1)).await;
                    sleep_until(T0 + after).await;
                    tx.send(value).expect("poller alive");
                    ring.borrow_mut().push_back(value);
                }
                // The oracle's hang-up test forgets entries still queued
                // when the last handle drops: let it look once more.
                sleep(2_000).await;
            });
            poller.await
        })
    }

    #[test]
    fn parked_poller_fetches_at_the_oracles_instant() {
        for after in [0, 1, 699, 700, 701, 1_699, 1_700, 1_701, 3_400, 1_000_003] {
            let parked = batches(true, &[(after, 7)], 16);
            assert_eq!(parked.len(), 1, "push at +{after}");
            assert_eq!(parked[0].1, vec![7], "push at +{after}");
            assert_eq!(
                parked,
                batches(false, &[(after, 7)], 16),
                "push at +{after}"
            );
        }
    }

    #[test]
    fn pushes_before_the_probe_instant_share_a_batch_up_to_max_batch() {
        // +100 wakes the poller; it looks at +1700, so everything up to
        // +1699 rides along, four at a time, the rest without a pause.
        let pushes = [
            (100, 1),
            (400, 2),
            (900, 3),
            (1_500, 4),
            (1_699, 5),
            (1_700, 6),
        ];
        let parked = batches(true, &pushes, 4);
        let values: Vec<_> = parked.iter().map(|(_, b)| b.clone()).collect();
        assert_eq!(values, [vec![1, 2, 3, 4], vec![5, 6]]);
        assert_eq!(parked, batches(false, &pushes, 4));
    }

    #[test]
    fn idle_ring_costs_no_polls_and_holds_no_timer() {
        let mut sim = Sim::new();
        let (tx, mut rx) = channel::<u32>();
        sim.spawn(async move {
            let pcie = PcieLink::new("p", 16_000_000_000);
            while pcie.poll_ring(&mut rx, 16).await.is_some() {}
        });
        sim.run_until(1_000);
        let polls = sim.polls();
        sim.run_until(10_000_000);
        assert_eq!(sim.polls(), polls, "an empty ring must cost no events");
        assert_eq!(sim.pending_timers(), 0);
        drop(tx);
    }

    #[test]
    fn producer_drop_ends_the_poller_once_the_ring_is_drained() {
        block_on(async {
            let pcie = PcieLink::new("p", 16_000_000_000);

            // Parked on an empty ring when the producer goes away.
            let (tx, mut rx) = channel::<u32>();
            spawn(async move {
                sleep(5_000).await;
                drop(tx);
            });
            assert_eq!(pcie.poll_ring(&mut rx, 16).await, None);
            assert_eq!(now(), 5_000);

            // Entries still queued: fetched first, then the hang-up.
            let (tx, mut rx) = channel();
            for v in 0..3u32 {
                tx.send(v).expect("receiver alive");
            }
            drop(tx);
            assert_eq!(pcie.poll_ring(&mut rx, 2).await, Some(vec![0, 1]));
            assert_eq!(pcie.poll_ring(&mut rx, 2).await, Some(vec![2]));
            assert_eq!(pcie.poll_ring(&mut rx, 2).await, None);
        });
    }

    #[test]
    fn dma_pays_setup_transfer_and_rtt() {
        let mut sim = Sim::new();
        sim.spawn(async {
            // 1 GB/s: 8 KB transfer = 8192 ns + 150 setup + 700 rtt.
            let pcie = PcieLink::new("p", 1_000_000_000);
            pcie.dma(8_192).await;
            assert_eq!(now(), 150 + 8_192 + 700);
            assert_eq!(pcie.transactions.get(), 1);
            assert_eq!(pcie.bytes_moved.get(), 8_192);
        });
        sim.run();
    }

    #[test]
    fn transfers_serialize_but_rtts_overlap() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let pcie = PcieLink::new("p", 1_000_000_000);
            let mut hs = Vec::new();
            for _ in 0..2 {
                let pcie = pcie.clone();
                hs.push(dpdpu_des::spawn(async move { pcie.dma(8_192).await }));
            }
            for h in hs {
                h.await;
            }
            // Second transfer waits for the first on the wire, but its RTT
            // overlaps nothing else: (150+8192)*2 + 700.
            assert_eq!(now(), (150 + 8_192) * 2 + 700);
        });
        sim.run();
    }
}
