//! Fast persistence (paper §9, "Faster persistence").
//!
//! The DPU sits between the network and both the SSD and the host. For a
//! persistent update it can therefore write the payload to fast storage
//! over PCIe P2P and acknowledge the client **immediately**, forwarding
//! the operation to the host asynchronously — instead of waiting for the
//! host's deeper storage stack before acking.

use std::rc::Rc;

use dpdpu_des::{now, spawn, Counter, Time};
use dpdpu_hw::{costs, CpuPool, PcieLink};

use crate::fs::{FileId, FsError};
use crate::log::RecordLog;
use crate::service::FileService;

/// Who must finish before the client sees an acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Legacy: forward to the host, host persists through its stack,
    /// then ack.
    HostAck,
    /// DPDPU: DPU persists via PCIe P2P, acks, then forwards to the host
    /// in the background.
    DpuAck,
}

/// A write-ahead persistence channel with selectable ack point.
pub struct FastPersist {
    log: RecordLog,
    host_cpu: Rc<CpuPool>,
    host_dpu_pcie: Rc<PcieLink>,
    mode: AckMode,
    /// Appends acknowledged.
    pub(crate) appends: Counter,
    /// Background host-apply operations completed (DpuAck mode).
    pub(crate) host_applied: Rc<Counter>,
}

impl FastPersist {
    /// Opens a persistence channel appending at the end of `log`: a file
    /// that already holds bytes is extended, not overwritten from 0.
    ///
    /// # Panics
    /// Panics if `log` is not a file of `service`: the file is looked up
    /// here, not at the first `append`.
    pub fn new(
        service: Rc<FileService>,
        host_cpu: Rc<CpuPool>,
        host_dpu_pcie: Rc<PcieLink>,
        mode: AckMode,
        log: FileId,
    ) -> Rc<Self> {
        Rc::new(FastPersist {
            log: RecordLog::open(service, log).expect("`log` is a file of `service`"),
            host_cpu,
            host_dpu_pcie,
            mode,
            appends: Counter::new(),
            host_applied: Rc::new(Counter::new()),
        })
    }

    /// Appends `data` durably and returns the client-visible ack latency.
    pub async fn append(&self, data: &[u8]) -> Result<Time, FsError> {
        let t0 = now();
        // The range is reserved here, in arrival order, in both modes.
        let write = self.log.append(data);
        match self.mode {
            AckMode::DpuAck => {
                // Persist via P2P, ack now, apply on host later.
                write.await?;
                let ack = now() - t0;
                self.appends.inc();
                let host_cpu = self.host_cpu.clone();
                let pcie = self.host_dpu_pcie.clone();
                let applied = self.host_applied.clone();
                let len = data.len() as u64;
                spawn(async move {
                    pcie.dma(len).await;
                    host_cpu.exec(costs::LINUX_IO_CYCLES_PER_OP / 2).await;
                    applied.inc();
                });
                Ok(ack)
            }
            AckMode::HostAck => {
                // Forward to the host, wait for its full stack, ack after.
                self.host_dpu_pcie.dma(data.len() as u64).await;
                self.host_cpu.exec(costs::LINUX_IO_CYCLES_PER_OP).await;
                dpdpu_des::sleep(costs::HOST_WAKEUP_NS).await;
                write.await?;
                // Completion notification back to the DPU.
                self.host_dpu_pcie.poll_round_trip().await;
                let ack = now() - t0;
                self.appends.inc();
                Ok(ack)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::BlockDevice;
    use crate::fs::ExtentFs;
    use dpdpu_des::Sim;
    use dpdpu_hw::Platform;

    fn build(p: &Rc<Platform>, mode: AckMode) -> Rc<FastPersist> {
        let fs = ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 20));
        let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
        let log = svc.fs().create("wal").unwrap();
        FastPersist::new(svc, p.host_cpu.clone(), p.host_dpu_pcie.clone(), mode, log)
    }

    #[test]
    fn dpu_ack_is_faster_than_host_ack() {
        let mut sim = Sim::new();
        let out = Rc::new(std::cell::Cell::new((0u64, 0u64)));
        let out2 = out.clone();
        sim.spawn(async move {
            let p = Platform::default_bf2();
            let fast = build(&p, AckMode::DpuAck);
            let slow = build(&p, AckMode::HostAck);
            let mut fast_total = 0;
            let mut slow_total = 0;
            for i in 0..20 {
                let payload = vec![i as u8; 4_096];
                fast_total += fast.append(&payload).await.unwrap();
                slow_total += slow.append(&payload).await.unwrap();
            }
            out2.set((fast_total / 20, slow_total / 20));
        });
        sim.run();
        let (fast, slow) = out.get();
        assert!(
            fast < slow,
            "DPU-ack must beat host-ack: fast={fast}ns slow={slow}ns"
        );
    }

    #[test]
    fn data_is_durable_and_ordered() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let fast = build(&p, AckMode::DpuAck);
            for i in 0..10u8 {
                fast.append(&vec![i; 1_000]).await.unwrap();
            }
            // Read back the log through the same service.
            let data = fast.log.read(0, 10_000).await.unwrap();
            for i in 0..10u8 {
                assert!(data[(i as usize) * 1_000..(i as usize + 1) * 1_000]
                    .iter()
                    .all(|&b| b == i));
            }
        });
        sim.run();
    }

    #[test]
    fn a_non_empty_log_is_appended_to_not_overwritten() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let fs = ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 20));
            let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
            let log = svc.fs().create("wal").unwrap();
            let open = |mode| {
                let (cpu, pcie) = (p.host_cpu.clone(), p.host_dpu_pcie.clone());
                FastPersist::new(svc.clone(), cpu, pcie, mode, log)
            };
            open(AckMode::DpuAck).append(&[1u8; 100]).await.unwrap();
            let reopened = open(AckMode::HostAck);
            reopened.append(&[2u8; 50]).await.unwrap();
            let data = reopened.log.read(0, 150).await.unwrap();
            assert!(data[..100].iter().all(|&b| b == 1));
            assert!(data[100..].iter().all(|&b| b == 2));
        });
        sim.run();
    }

    #[test]
    fn background_apply_eventually_reaches_host() {
        let mut sim = Sim::new();
        let applied = Rc::new(std::cell::Cell::new(0u64));
        let a2 = applied.clone();
        sim.spawn(async move {
            let p = Platform::default_bf2();
            let fast = build(&p, AckMode::DpuAck);
            for _ in 0..5 {
                fast.append(&[1u8; 512]).await.unwrap();
            }
            // Give background forwarding time to drain.
            dpdpu_des::sleep(10_000_000).await;
            a2.set(fast.host_applied.get());
        });
        sim.run();
        assert_eq!(applied.get(), 5);
    }
}
