//! The POSIX-like host front end (paper §7, "offloading file execution").
//!
//! Host application threads place file requests on a lock-free ring in
//! host memory; the DPU lazily DMAs descriptor batches, executes them in
//! the [`FileService`], moves payloads by DMA, and completes through a
//! response ring. Host cost per op collapses from the kernel path's
//! ~18 000 cycles to the ~600-cycle ring protocol — the Figure 2 delta.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use dpdpu_des::{channel, oneshot, spawn, Counter, Sender};
use dpdpu_hw::{costs, CpuPool, PcieLink};

use crate::fs::{FileId, FsError};
use crate::service::FileService;

/// Max descriptors pulled per DMA batch.
const POLL_BATCH: usize = 32;

/// A ring descriptor: the op itself. The DPU runs it against the file
/// service and the host link; it DMAs its own completion back.
type Descriptor =
    Box<dyn FnOnce(Rc<FileService>, Rc<PcieLink>) -> Pin<Box<dyn Future<Output = ()>>>>;

/// The host-side SE library handle.
pub struct HostFrontEnd {
    host_cpu: Rc<CpuPool>,
    ring: Sender<Descriptor>,
    /// Ops submitted through the rings.
    pub(crate) ops: Counter,
}

impl HostFrontEnd {
    /// Wires a front end to a DPU file service over a PCIe link and
    /// starts the DPU-side poller.
    pub fn new(
        host_cpu: Rc<CpuPool>,
        host_dpu_pcie: Rc<PcieLink>,
        service: Rc<FileService>,
    ) -> Rc<Self> {
        let (ring, mut entries) = channel::<Descriptor>();
        let pcie = host_dpu_pcie;
        spawn(async move {
            // Runs until the front end is dropped and its ring drained.
            while let Some(batch) = pcie.poll_ring(&mut entries, POLL_BATCH).await {
                // Ops dispatch concurrently: the file service and SSD
                // provide the queue depth (SPDK-style), so the poller
                // must not serialize a batch behind one SSD latency.
                for entry in batch {
                    spawn(entry(service.clone(), pcie.clone()));
                }
            }
        });
        Rc::new(HostFrontEnd {
            host_cpu,
            ring,
            ops: Counter::new(),
        })
    }

    /// Places `op` on the ring and waits for its completion.
    async fn submit<T, F, Fut>(&self, op: F) -> Result<T, FsError>
    where
        T: 'static,
        F: FnOnce(Rc<FileService>, Rc<PcieLink>) -> Fut + 'static,
        Fut: Future<Output = Result<T, FsError>> + 'static,
    {
        // Ring enqueue + (later) completion poll: the entire host cost.
        self.host_cpu.exec(costs::SE_HOST_RING_CYCLES_PER_OP).await;
        self.ops.inc();
        let (done, reply) = oneshot();
        let entry: Descriptor = Box::new(move |service, pcie| {
            Box::pin(async move {
                let result = op(service, pcie.clone()).await;
                pcie.dma(costs::RING_DESC_BYTES).await;
                let _ = done.send(result);
            })
        });
        self.ring.send(entry).ok().expect("DPU poller alive");
        reply.await.expect("DPU poller alive")
    }

    /// Creates a file.
    pub async fn create(&self, name: &str) -> Result<FileId, FsError> {
        let name = name.to_string();
        self.submit(|service, _| async move { service.create(&name).await })
            .await
    }

    /// Opens a file.
    pub async fn open(&self, name: &str) -> Result<FileId, FsError> {
        let name = name.to_string();
        self.submit(|service, _| async move { service.open(&name).await })
            .await
    }

    /// Reads a byte range.
    pub async fn read(&self, id: FileId, offset: u64, len: u64) -> Result<Vec<u8>, FsError> {
        self.submit(move |service, pcie| async move {
            let data = service.read(id, offset, len).await?;
            // Payload lands in host memory.
            pcie.dma(data.len() as u64).await;
            Ok(data)
        })
        .await
    }

    /// Writes a byte range.
    pub async fn write(&self, id: FileId, offset: u64, data: Vec<u8>) -> Result<(), FsError> {
        self.submit(move |service, pcie| async move {
            // Payload is pulled from host memory first.
            pcie.dma(data.len() as u64).await;
            service.write(id, offset, &data).await
        })
        .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::BlockDevice;
    use crate::fs::ExtentFs;
    use dpdpu_des::{join_all, Sim};
    use dpdpu_hw::Platform;

    fn build(p: &Rc<Platform>) -> Rc<HostFrontEnd> {
        let fs = ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 20));
        let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
        HostFrontEnd::new(p.host_cpu.clone(), p.host_dpu_pcie.clone(), svc)
    }

    #[test]
    fn posix_like_round_trip() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let fe = build(&p);
            let id = fe.create("t.db").await.unwrap();
            fe.write(id, 0, vec![5u8; 16_384]).await.unwrap();
            let back = fe.read(id, 4_096, 8_192).await.unwrap();
            assert_eq!(back, vec![5u8; 8_192]);
            assert_eq!(fe.open("t.db").await.unwrap(), id);
        });
        sim.run();
    }

    #[test]
    fn host_cpu_cost_matches_ring_calibration() {
        let mut sim = Sim::new();
        let out = Rc::new(std::cell::Cell::new(0u64));
        let out2 = out.clone();
        sim.spawn(async move {
            let p = Platform::default_bf2();
            let fe = build(&p);
            let id = fe.create("f").await.unwrap();
            fe.write(id, 0, vec![1u8; 8_192]).await.unwrap();
            p.host_cpu.reset_stats();
            for _ in 0..50 {
                fe.read(id, 0, 8_192).await.unwrap();
            }
            out2.set(p.host_cpu.busy_ns());
        });
        sim.run();
        // 50 ops × 600 cycles at 3 GHz = 10 µs.
        assert_eq!(out.get(), 50 * costs::SE_HOST_RING_CYCLES_PER_OP / 3);
    }

    #[test]
    fn concurrent_requests_batch_on_the_ring() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let fe = build(&p);
            let id = fe.create("f").await.unwrap();
            fe.write(id, 0, vec![0u8; 128 * 8_192]).await.unwrap();
            let handles: Vec<_> = (0..32)
                .map(|i| {
                    let fe = fe.clone();
                    dpdpu_des::spawn(
                        async move { fe.read(id, i * 8_192, 8_192).await.unwrap().len() },
                    )
                })
                .collect();
            let lens = join_all(handles).await;
            assert!(lens.iter().all(|&l| l == 8_192));
        });
        sim.run();
    }
}
