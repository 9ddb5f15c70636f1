//! The two execution paths for file I/O: the DPU file service (SPDK-like
//! polled userspace path, §7) and the legacy host kernel path (Figure 2's
//! baseline).

use std::rc::Rc;

use dpdpu_des::{sleep, Counter};
use dpdpu_hw::{costs, CpuPool, PcieLink};

use crate::fs::{ExtentFs, FileId, FsError};

/// Device I/O retries before the service gives up on an op.
pub(crate) const IO_RETRY_LIMIT: u32 = 3;
/// Base virtual-time backoff before the first retry; doubles per attempt.
pub(crate) const IO_RETRY_BASE_NS: u64 = 20_000;

/// The DPU-side file service: owns the file system (and with it the file
/// mapping), executes ops on DPU cores, reaches the SSD over peer-to-peer
/// PCIe.
///
/// Transient device errors (the only kind the fault layer injects) are
/// retried up to `IO_RETRY_LIMIT` (3) times with exponential backoff — the
/// self-managing behaviour a DPU-hosted service needs, since there is no
/// host kernel underneath to do it.
pub struct FileService {
    fs: Rc<ExtentFs>,
    dpu_cpu: Rc<CpuPool>,
    dpu_ssd_pcie: Rc<PcieLink>,
    /// Completed operations.
    pub(crate) ops: Counter,
    /// Device-error retries performed.
    pub retries: Counter,
}

fn io_backoff_ns(attempt: u32) -> u64 {
    IO_RETRY_BASE_NS << attempt.saturating_sub(1).min(16)
}

impl FileService {
    /// Creates the service over a formatted file system.
    pub fn new(fs: Rc<ExtentFs>, dpu_cpu: Rc<CpuPool>, dpu_ssd_pcie: Rc<PcieLink>) -> Rc<Self> {
        Rc::new(FileService {
            fs,
            dpu_cpu,
            dpu_ssd_pcie,
            ops: Counter::new(),
            retries: Counter::new(),
        })
    }

    /// Retries `op` on transient device errors with exponential backoff;
    /// non-I/O errors (NotFound, BadRange, ...) propagate immediately.
    async fn with_io_retry<T, F, Fut>(&self, label: &'static str, op: F) -> Result<T, FsError>
    where
        F: Fn() -> Fut,
        Fut: std::future::Future<Output = Result<T, FsError>>,
    {
        let mut attempt = 0u32;
        loop {
            match op().await {
                Err(FsError::Io(e)) if attempt < IO_RETRY_LIMIT => {
                    attempt += 1;
                    self.retries.inc();
                    dpdpu_telemetry::count("io_retries", &[("op", label)]);
                    dpdpu_check::fault_handled(e.fault_site().label(), "retried");
                    sleep(io_backoff_ns(attempt)).await;
                }
                Err(FsError::Io(e)) => {
                    // Retries exhausted: the error crosses the service
                    // boundary as a typed failure, never swallowed.
                    dpdpu_check::fault_handled(e.fault_site().label(), "surfaced");
                    return Err(FsError::Io(e));
                }
                other => return other,
            }
        }
    }

    /// The file system (for integration layers that need the mapping).
    pub fn fs(&self) -> &Rc<ExtentFs> {
        &self.fs
    }

    /// Creates a file (metadata only; no device I/O).
    pub async fn create(&self, name: &str) -> Result<FileId, FsError> {
        self.dpu_cpu.exec(costs::SPDK_IO_CYCLES_PER_OP / 4).await;
        self.ops.inc();
        self.fs.create(name)
    }

    /// Opens a file by name.
    pub async fn open(&self, name: &str) -> Result<FileId, FsError> {
        self.dpu_cpu.exec(costs::SPDK_IO_CYCLES_PER_OP / 4).await;
        self.ops.inc();
        self.fs.open(name)
    }

    /// Reads a byte range; payload crosses DPU↔SSD PCIe. Transient device
    /// errors are retried with backoff.
    pub async fn read(&self, id: FileId, offset: u64, len: u64) -> Result<Vec<u8>, FsError> {
        let _span = dpdpu_telemetry::span("dpu", "file-service", "read").with("bytes", len);
        self.dpu_cpu.exec(costs::SPDK_IO_CYCLES_PER_OP).await;
        let data = self
            .with_io_retry("read", || self.fs.read(id, offset, len))
            .await?;
        self.dpu_ssd_pcie.dma(len).await;
        self.ops.inc();
        Ok(data)
    }

    /// Writes a byte range; payload crosses DPU↔SSD PCIe. Transient device
    /// errors are retried with backoff.
    pub async fn write(&self, id: FileId, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let _span = dpdpu_telemetry::span("dpu", "file-service", "write").with("bytes", data.len());
        self.dpu_cpu.exec(costs::SPDK_IO_CYCLES_PER_OP).await;
        self.dpu_ssd_pcie.dma(data.len() as u64).await;
        self.with_io_retry("write", || self.fs.write(id, offset, data))
            .await?;
        self.ops.inc();
        Ok(())
    }
}

/// The baseline: the same file system driven through the host kernel —
/// syscalls, VFS, block layer, interrupts — at
/// [`costs::LINUX_IO_CYCLES_PER_OP`] of *host* CPU per I/O, plus a
/// blocking-wakeup latency. This is the line in Figure 2.
pub struct HostKernelPath {
    fs: Rc<ExtentFs>,
    host_cpu: Rc<CpuPool>,
    host_ssd_pcie: Rc<PcieLink>,
    cycles_per_op: u64,
    /// Completed operations.
    pub(crate) ops: Counter,
}

impl HostKernelPath {
    /// Creates the classic syscall-per-I/O kernel-path wrapper.
    pub fn new(fs: Rc<ExtentFs>, host_cpu: Rc<CpuPool>, host_ssd_pcie: Rc<PcieLink>) -> Rc<Self> {
        Self::with_cycles(fs, host_cpu, host_ssd_pcie, costs::LINUX_IO_CYCLES_PER_OP)
    }

    /// Creates an io_uring-path wrapper — batched submission, but the
    /// kernel storage stack still runs on host cores (§2.2: "similar CPU
    /// cost").
    pub fn io_uring(
        fs: Rc<ExtentFs>,
        host_cpu: Rc<CpuPool>,
        host_ssd_pcie: Rc<PcieLink>,
    ) -> Rc<Self> {
        Self::with_cycles(fs, host_cpu, host_ssd_pcie, costs::IOURING_IO_CYCLES_PER_OP)
    }

    /// Fully parameterised constructor.
    pub(crate) fn with_cycles(
        fs: Rc<ExtentFs>,
        host_cpu: Rc<CpuPool>,
        host_ssd_pcie: Rc<PcieLink>,
        cycles_per_op: u64,
    ) -> Rc<Self> {
        Rc::new(HostKernelPath {
            fs,
            host_cpu,
            host_ssd_pcie,
            cycles_per_op,
            ops: Counter::new(),
        })
    }

    /// The file system.
    pub fn fs(&self) -> &Rc<ExtentFs> {
        &self.fs
    }

    /// Kernel-path read.
    pub async fn read(&self, id: FileId, offset: u64, len: u64) -> Result<Vec<u8>, FsError> {
        let _span = dpdpu_telemetry::span("host", "kernel-io", "read").with("bytes", len);
        self.host_cpu.exec(self.cycles_per_op).await;
        let data = self.fs.read(id, offset, len).await?;
        self.host_ssd_pcie.dma(len).await;
        // Interrupt + scheduler wakeup of the blocked thread.
        sleep(costs::HOST_WAKEUP_NS).await;
        self.ops.inc();
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::BlockDevice;
    use dpdpu_des::{join_all, now, spawn, Sim};
    use dpdpu_hw::{Platform, Ssd};

    fn setup() -> (Rc<Platform>, Rc<ExtentFs>) {
        let p = Platform::default_bf2();
        let fs = ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 20));
        (p, fs)
    }

    #[test]
    fn service_round_trips_data() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (p, fs) = setup();
            let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
            let id = svc.create("pages").await.unwrap();
            let page: Vec<u8> = (0..8192u32).map(|i| (i % 199) as u8).collect();
            svc.write(id, 0, &page).await.unwrap();
            let back = svc.read(id, 0, 8192).await.unwrap();
            assert_eq!(back, page);
            assert_eq!(svc.ops.get(), 3);
        });
        sim.run();
    }

    #[test]
    fn kernel_path_costs_more_host_cpu_per_op() {
        // The Figure 2 anchor, per op: 18 000 host cycles vs zero (the
        // service spends DPU cycles instead).
        let mut sim = Sim::new();
        let out = Rc::new(std::cell::Cell::new((0u64, 0u64)));
        let out2 = out.clone();
        sim.spawn(async move {
            let (p, fs) = setup();
            let svc = FileService::new(fs.clone(), p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
            let kpath = HostKernelPath::new(fs, p.host_cpu.clone(), p.host_ssd_pcie.clone());
            let id = svc.create("f").await.unwrap();
            svc.write(id, 0, &vec![1u8; 8192]).await.unwrap();
            p.host_cpu.reset_stats();
            for _ in 0..100 {
                kpath.read(id, 0, 8192).await.unwrap();
            }
            let host_busy_kernel = p.host_cpu.busy_ns();
            p.host_cpu.reset_stats();
            for _ in 0..100 {
                svc.read(id, 0, 8192).await.unwrap();
            }
            out2.set((host_busy_kernel, p.host_cpu.busy_ns()));
        });
        sim.run();
        let (kernel, service) = out.get();
        assert_eq!(service, 0, "DPU path must not touch host CPU");
        assert_eq!(kernel, 100 * costs::LINUX_IO_CYCLES_PER_OP / 3);
    }

    #[test]
    fn io_uring_costs_similar_to_syscall_path() {
        // §2.2: io_uring shows "similar CPU cost" — within ~10%.
        let mut sim = Sim::new();
        let out = Rc::new(std::cell::Cell::new((0u64, 0u64)));
        let out2 = out.clone();
        sim.spawn(async move {
            let (p, fs) = setup();
            let id = fs.create("f").unwrap();
            fs.write(id, 0, &vec![0u8; 8192]).await.unwrap();
            let classic =
                HostKernelPath::new(fs.clone(), p.host_cpu.clone(), p.host_ssd_pcie.clone());
            let uring = HostKernelPath::io_uring(fs, p.host_cpu.clone(), p.host_ssd_pcie.clone());
            p.host_cpu.reset_stats();
            for _ in 0..50 {
                classic.read(id, 0, 8192).await.unwrap();
            }
            let classic_busy = p.host_cpu.busy_ns();
            p.host_cpu.reset_stats();
            for _ in 0..50 {
                uring.read(id, 0, 8192).await.unwrap();
            }
            out2.set((classic_busy, p.host_cpu.busy_ns()));
        });
        sim.run();
        let (classic, uring) = out.get();
        let ratio = classic as f64 / uring as f64;
        assert!(
            (1.0..1.2).contains(&ratio),
            "similar cost expected, ratio={ratio}"
        );
    }

    #[test]
    fn parallel_reads_saturate_queue_depth() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (p, fs) = setup();
            let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
            let id = svc.create("f").await.unwrap();
            svc.write(id, 0, &vec![0u8; 64 * 8192]).await.unwrap();
            let t0 = now();
            let handles: Vec<_> = (0..64)
                .map(|i| {
                    let svc = svc.clone();
                    spawn(async move {
                        svc.read(id, (i % 64) * 8192, 8192).await.unwrap();
                    })
                })
                .collect();
            join_all(handles).await;
            let elapsed = now() - t0;
            // With QD=128 base latencies overlap: way below 64 serial reads.
            assert!(
                elapsed < 64 * 80_000 / 4,
                "expected overlapped I/O, got {elapsed}ns"
            );
        });
        sim.run();
    }

    #[test]
    fn injected_read_error_is_retried_and_succeeds() {
        let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(11));
        guard.session.arm_ssd_read_failures(2);
        let mut sim = Sim::new();
        sim.spawn(async {
            let (p, fs) = setup();
            let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
            let id = svc.create("f").await.unwrap();
            svc.write(id, 0, &vec![3u8; 8192]).await.unwrap();
            // Two injected failures, then success on the third attempt.
            let back = svc.read(id, 0, 8192).await.unwrap();
            assert_eq!(back, vec![3u8; 8192]);
            assert_eq!(svc.retries.get(), 2);
            assert_eq!(p.ssd.io_errors.get(), 2);
        });
        sim.run();
        drop(guard);
    }

    #[test]
    fn retries_exhausted_surface_io_error() {
        let guard = dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(11));
        guard
            .session
            .arm_ssd_read_failures(IO_RETRY_LIMIT as u64 + 1);
        let mut sim = Sim::new();
        sim.spawn(async {
            let (p, fs) = setup();
            let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
            let id = svc.create("f").await.unwrap();
            svc.write(id, 0, &vec![3u8; 8192]).await.unwrap();
            let err = svc.read(id, 0, 8192).await.unwrap_err();
            assert!(matches!(err, FsError::Io(_)), "got {err:?}");
            assert_eq!(svc.retries.get(), IO_RETRY_LIMIT as u64);
        });
        sim.run();
        drop(guard);
    }

    #[test]
    fn error_paths_propagate() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            let fs = ExtentFs::format(BlockDevice::new(Ssd::new("x"), 1 << 10));
            let svc = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
            assert_eq!(svc.open("ghost").await.unwrap_err(), FsError::NotFound);
            let id = svc.create("f").await.unwrap();
            assert!(matches!(
                svc.read(id, 0, 10).await.unwrap_err(),
                FsError::BadRange { .. }
            ));
        });
        sim.run();
    }
}
