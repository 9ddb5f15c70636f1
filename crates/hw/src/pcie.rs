//! PCIe links and DMA engines (host↔DPU and DPU↔SSD peer-to-peer paths).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use dpdpu_des::{sleep, transmit_ns, Counter, Server, Time};

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
    pub transactions: Counter,
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
        dpdpu_check::pcie_in(self.lane.name(), bytes);
        self.lane
            .process(self.setup_ns + transmit_ns(bytes, self.bytes_per_sec * 8))
            .await;
        sleep(self.rtt_ns).await;
        self.transactions.inc();
        self.bytes_moved.add(bytes);
        dpdpu_check::pcie_done(self.lane.name(), bytes);
    }

    /// A small read of a remote descriptor/doorbell (polling path):
    /// round-trip only, no meaningful serialization.
    pub async fn poll_round_trip(&self) {
        sleep(self.rtt_ns).await;
    }

    /// The DPU side of a DMA-polled ring in host memory: drains up to
    /// `max_batch` descriptors and fetches them with one DMA. An empty
    /// ring costs an idle probe and a [`costs::RING_IDLE_POLL_NS`] pause
    /// before the next look. Returns `None` once the ring is empty and
    /// the caller's is the only handle left — the host side is gone.
    pub async fn poll_ring<T>(
        &self,
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
                self.dma(costs::RING_DESC_BYTES * batch.len() as u64).await;
                return Some(batch);
            }
            self.poll_round_trip().await;
            if Rc::strong_count(ring) == 1 {
                return None;
            }
            sleep(costs::RING_IDLE_POLL_NS).await;
        }
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
    pub fn name(&self) -> &str {
        self.lane.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{now, Sim};

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
