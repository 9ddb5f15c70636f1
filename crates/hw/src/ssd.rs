//! NVMe SSD timing model.

use std::rc::Rc;

use dpdpu_check::{Exit, Flow};
use dpdpu_des::{sleep, transmit_ns, Counter, Semaphore, Server, Site, Time};
use dpdpu_faults::{FaultSite, IoOp, IoVerdict};

use crate::costs;

/// A device-level I/O failure (injected by `dpdpu-faults`, or — on real
/// hardware — an unrecoverable media/controller error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// The read completed with an uncorrectable error.
    Read,
    /// The write was rejected or failed verification.
    Write,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Read => write!(f, "ssd read error"),
            IoError::Write => write!(f, "ssd write error"),
        }
    }
}

impl std::error::Error for IoError {}

impl IoError {
    /// The fault-injection site this error is charged to (for
    /// `dpdpu-check` hygiene accounting by whoever handles it).
    pub fn fault_site(self) -> FaultSite {
        match self {
            IoError::Read => FaultSite::SsdRead,
            IoError::Write => FaultSite::SsdWrite,
        }
    }
}

/// An NVMe SSD: bounded queue depth, per-op base latency, and separate
/// read/write internal bandwidth caps.
///
/// Base latencies overlap freely up to the queue depth (flash channels are
/// parallel); the bandwidth cap is enforced by a FIFO serializer per
/// direction. Data *contents* live in `dpdpu-storage`'s block device — this
/// type is timing only, so the same model serves every experiment.
pub struct Ssd {
    queue: Semaphore,
    rd: Lane,
    wr: Lane,
    pub reads: Counter,
    pub writes: Counter,
    pub(crate) bytes_read: Counter,
    pub(crate) bytes_written: Counter,
    pub io_errors: Counter,
}

/// One direction of the device: what a read and a write do not share.
struct Lane {
    /// Conformance site (`"<name>.read"` / `"<name>.write"`), interned
    /// once so the per-op check-point is an array index.
    site: Site,
    lat_ns: Time,
    bw: Rc<Server>,
    bytes_per_sec: u64,
}

impl Ssd {
    /// Creates an SSD with the calibrated NVMe defaults from [`costs`].
    pub fn new(name: &str) -> Rc<Self> {
        Self::with_params(
            name,
            costs::SSD_QUEUE_DEPTH,
            costs::SSD_READ_LATENCY_NS,
            costs::SSD_WRITE_LATENCY_NS,
            costs::SSD_READ_BYTES_PER_SEC,
            costs::SSD_WRITE_BYTES_PER_SEC,
        )
    }

    /// Fully parameterised constructor (for ablations).
    pub fn with_params(
        name: &str,
        queue_depth: usize,
        read_lat_ns: Time,
        write_lat_ns: Time,
        read_bytes_per_sec: u64,
        write_bytes_per_sec: u64,
    ) -> Rc<Self> {
        assert!(queue_depth > 0, "queue depth must be positive");
        let lane = |dir: &str, track: &str, lat_ns, bytes_per_sec| Lane {
            site: Site::new(&format!("{name}.{dir}")),
            lat_ns,
            bw: Server::new(format!("{name}-{track}"), 1),
            bytes_per_sec,
        };
        Rc::new(Ssd {
            queue: Semaphore::new_labeled(&format!("{name}-q"), queue_depth),
            rd: lane("read", "rd", read_lat_ns, read_bytes_per_sec),
            wr: lane("write", "wr", write_lat_ns, write_bytes_per_sec),
            reads: Counter::new(),
            writes: Counter::new(),
            bytes_read: Counter::new(),
            bytes_written: Counter::new(),
            io_errors: Counter::new(),
        })
    }

    /// Performs a read of `bytes`; resolves when data is in the controller
    /// buffer (host/DPU transfer is the caller's PCIe model).
    ///
    /// Fails only under an installed fault plan; an injected error still
    /// occupies a queue slot for the base latency, like a real aborted
    /// command.
    pub async fn read(&self, bytes: u64) -> Result<(), IoError> {
        self.io(IoOp::Read, bytes).await
    }

    /// Performs a write of `bytes`; resolves at durability (SLC-cache ack).
    ///
    /// Fails only under an installed fault plan (see [`Ssd::read`]).
    pub async fn write(&self, bytes: u64) -> Result<(), IoError> {
        self.io(IoOp::Write, bytes).await
    }

    /// One device op: a queue slot, the direction's base latency, then its
    /// bandwidth serializer.
    async fn io(&self, op: IoOp, bytes: u64) -> Result<(), IoError> {
        let (lane, ops, moved, error) = match op {
            IoOp::Read => (&self.rd, &self.reads, &self.bytes_read, IoError::Read),
            IoOp::Write => (&self.wr, &self.writes, &self.bytes_written, IoError::Write),
        };
        let _slot = self.queue.acquire().await;
        dpdpu_check::flow_in(Flow::Ssd, lane.site, bytes);
        let verdict = dpdpu_faults::ssd_verdict(op);
        sleep(lane.lat_ns).await;
        match verdict {
            IoVerdict::Fail => {
                self.io_errors.inc();
                dpdpu_check::flow_out(Flow::Ssd, lane.site, Exit::Failed, bytes);
                return Err(error);
            }
            IoVerdict::Slow(extra_ns) => sleep(extra_ns).await,
            IoVerdict::Ok => {}
        }
        lane.bw
            .process(transmit_ns(bytes, lane.bytes_per_sec * 8))
            .await;
        ops.inc();
        moved.add(bytes);
        dpdpu_check::flow_out(Flow::Ssd, lane.site, Exit::Ok, bytes);
        Ok(())
    }

    /// Names of the internal read/write serializer tracks (the span
    /// tracks this device emits under telemetry).
    pub(crate) fn track_names(&self) -> (String, String) {
        (self.rd.bw.name().to_string(), self.wr.bw.name().to_string())
    }

    /// Requests queued for an NVMe submission slot right now.
    pub fn queue_len(&self) -> usize {
        self.queue.queue_len()
    }

    /// Total busy nanoseconds across both direction serializers.
    pub fn busy_ns(&self) -> u64 {
        self.rd.bw.busy_ns() + self.wr.bw.busy_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{now, spawn, Sim};

    #[test]
    fn single_read_latency() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let ssd = Ssd::with_params("t", 4, 80_000, 15_000, 1_000_000_000, 1_000_000_000);
            ssd.read(8_192).await.unwrap();
            assert_eq!(now(), 80_000 + 8_192);
        });
        sim.run();
    }

    #[test]
    fn queue_depth_overlaps_base_latency() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let ssd = Ssd::with_params("t", 8, 80_000, 15_000, 8_000_000_000, 8_000_000_000);
            let mut hs = Vec::new();
            for _ in 0..8 {
                let ssd = ssd.clone();
                hs.push(spawn(async move { ssd.read(8_192).await.unwrap() }));
            }
            for h in hs {
                h.await;
            }
            // Latencies overlap; transfers serialize: 80µs + 8×1024ns.
            assert_eq!(now(), 80_000 + 8 * 1_024);
            assert_eq!(ssd.reads.get(), 8);
        });
        sim.run();
    }

    #[test]
    fn bandwidth_caps_throughput() {
        let mut sim = Sim::new();
        sim.spawn(async {
            // 1 GB/s device, 1 MB reads: steady-state 1 read/ms.
            let ssd = Ssd::with_params("t", 128, 1_000, 0, 1_000_000_000, 1_000_000_000);
            let mut hs = Vec::new();
            for _ in 0..10 {
                let ssd = ssd.clone();
                hs.push(spawn(async move { ssd.read(1_000_000).await.unwrap() }));
            }
            for h in hs {
                h.await;
            }
            let elapsed = now();
            let gbps = ssd.bytes_read.get() as f64 / elapsed as f64; // bytes/ns = GB/s
            assert!(gbps <= 1.0 + 1e-9, "gbps={gbps}");
            assert!(gbps > 0.95, "gbps={gbps}");
        });
        sim.run();
    }

    #[test]
    fn injected_read_error_charges_base_latency_only() {
        let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(5));
        guard.session.arm_ssd_read_failures(1);
        let mut sim = Sim::new();
        sim.spawn(async {
            let ssd = Ssd::with_params("t", 4, 80_000, 15_000, 1_000_000_000, 1_000_000_000);
            assert_eq!(ssd.read(8_192).await, Err(IoError::Read));
            // Aborted command: base latency charged, no transfer time.
            assert_eq!(now(), 80_000);
            assert_eq!(ssd.io_errors.get(), 1);
            assert_eq!(ssd.reads.get(), 0);
            // The next read succeeds and pays the full service time.
            ssd.read(8_192).await.unwrap();
            assert_eq!(now(), 2 * 80_000 + 8_192);
        });
        sim.run();
        drop(guard);
    }
}
