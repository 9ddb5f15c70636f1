//! The assembled runtime.

use std::rc::Rc;

use bytes::Bytes;

use dpdpu_compute::{ComputeEngine, KernelInput, KernelOp, KernelOutput, Placement};
use dpdpu_hw::Platform;
use dpdpu_net::tcp::TcpSender;
use dpdpu_storage::{BlockDevice, ExtentFs, FileId, FileService, HostFrontEnd};

use crate::error::DpdpuError;
use crate::report::Report;
use crate::sproc::SprocRegistry;

/// File-system capacity the runtime formats at boot, in 4 KB blocks.
const FS_CAPACITY_BLOCKS: u64 = 1 << 24;

/// The DPDPU runtime: engines wired over one platform.
pub struct Dpdpu {
    /// The hardware.
    pub platform: Rc<Platform>,
    /// Compute Engine.
    pub compute: Rc<ComputeEngine>,
    /// Storage Engine: the DPU file service (owns the file mapping).
    pub storage: Rc<FileService>,
    /// Storage Engine: the host-side POSIX-like front end.
    pub front_end: Rc<HostFrontEnd>,
    /// Registered sprocs.
    pub sprocs: SprocRegistry,
}

impl Dpdpu {
    /// Boots DPDPU on `platform` — e.g. `Platform::new(HostSpec::epyc(),
    /// DpuSpec::bluefield3())`, the BlueField-3 without a RegEx engine
    /// (the heterogeneity case of §5): registers the platform's resources
    /// with an installed telemetry session, formats the file system,
    /// starts the DPU file service, host front end and Compute Engine.
    /// Must be called inside a running simulation, under a
    /// `dpdpu_check::CheckGuard`. A fault plan is not an argument:
    /// install one with a `dpdpu_faults::SessionGuard` around the run.
    ///
    /// # Panics
    ///
    /// If no conformance session is installed.
    pub fn start(platform: Rc<Platform>) -> Rc<Self> {
        // Conformance is always-on: every booted run is checked, and its
        // guard's drop runs the end-of-run sweeps.
        assert!(dpdpu_check::is_active(), "boot under a `CheckGuard`");
        if let Some(t) = dpdpu_telemetry::Telemetry::current() {
            platform.register_telemetry(&t);
        }
        let fs = ExtentFs::format(BlockDevice::new(platform.ssd.clone(), FS_CAPACITY_BLOCKS));
        let storage = FileService::new(fs, platform.dpu_cpu.clone(), platform.dpu_ssd_pcie.clone());
        let front_end = HostFrontEnd::new(
            platform.host_cpu.clone(),
            platform.host_dpu_pcie.clone(),
            storage.clone(),
        );
        Rc::new(Dpdpu {
            compute: ComputeEngine::new(platform.clone()),
            platform,
            storage,
            front_end,
            sprocs: SprocRegistry::new(),
        })
    }

    /// Boots on the default EPYC + BlueField-2 platform.
    pub fn start_default() -> Rc<Self> {
        Self::start(Platform::default_bf2())
    }

    /// The §4 composition example: read pages from SSD (Storage Engine),
    /// compress them (Compute Engine, accelerator preferred), stream each
    /// result to the client (Network Engine) — pipelined per page, no
    /// barrier between stages.
    ///
    /// Returns `(input_bytes, compressed_bytes)`.
    pub async fn read_compress_send(
        self: &Rc<Self>,
        file: FileId,
        pages: &[(u64, u64)], // (offset, len)
        client: &TcpSender,
    ) -> Result<(u64, u64), DpdpuError> {
        let mut handles = Vec::with_capacity(pages.len());
        for &(offset, len) in pages {
            let this = self.clone();
            let client = client.clone();
            handles.push(dpdpu_des::spawn(async move {
                // Storage Engine: async read.
                let data = this.storage.read(file, offset, len).await?;
                // Compute Engine: compression, scheduled placement
                // (ASIC when present — Figure 6's fast path; under an
                // accelerator outage the engine falls back to cores).
                let out = this
                    .compute
                    .run(
                        &KernelOp::Compress,
                        &KernelInput::Bytes(Bytes::from(data)),
                        Placement::Scheduled,
                    )
                    .await?;
                let KernelOutput::Bytes(compressed) = out else {
                    unreachable!("compress returns bytes")
                };
                let n = compressed.len() as u64;
                // Network Engine: async send.
                client.send(compressed);
                Ok::<(u64, u64), DpdpuError>((len, n))
            }));
        }
        let mut input = 0;
        let mut output = 0;
        for h in handles {
            let (i, o) = h.await?;
            input += i;
            output += o;
        }
        Ok((input, output))
    }

    /// Registers a sproc that receives the runtime as an argument.
    ///
    /// Use this instead of capturing an `Rc<Dpdpu>` inside the closure:
    /// a captured strong reference forms a cycle (runtime → registry →
    /// closure → runtime) that leaks the runtime and every engine task
    /// parked behind it. The registry holds only a `Weak` and upgrades
    /// it per invocation.
    pub fn register_sproc<F, Fut>(self: &Rc<Self>, name: &str, f: F) -> Result<(), DpdpuError>
    where
        F: Fn(Rc<Dpdpu>, Bytes) -> Fut + 'static,
        Fut: std::future::Future<Output = Bytes> + 'static,
    {
        let weak = Rc::downgrade(self);
        self.sprocs
            .register(name, move |arg: Bytes| {
                let rt = weak.upgrade().expect("runtime dropped while sproc invoked");
                f(rt, arg)
            })
            .map_err(DpdpuError::from)
    }

    /// Snapshot of resource consumption at `elapsed` virtual time.
    pub fn report(&self, elapsed: dpdpu_des::Time) -> Report {
        Report::collect(&self.platform, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_check::CheckGuard;
    use dpdpu_des::{now, Sim};
    use dpdpu_faults::{FaultPlan, FaultSite, SessionGuard};
    use dpdpu_hw::{CpuPool, DpuSpec, HostSpec, LinkConfig};
    use dpdpu_net::fabric::Endpoint;
    use dpdpu_net::tcp::TcpConnector;

    #[test]
    fn runtime_boots_and_reports() {
        let _check = CheckGuard::new();
        let mut sim = Sim::new();
        sim.spawn(async {
            let dpdpu = Dpdpu::start_default();
            assert_eq!(dpdpu.platform.dpu_spec.name, "BlueField-2");
            let id = dpdpu.storage.create("t").await.unwrap();
            dpdpu.storage.write(id, 0, b"hello").await.unwrap();
            let report = dpdpu.report(now().max(1));
            assert!(report.dpu_cores_consumed >= 0.0);
            assert_eq!(report.ssd_writes, 1);
        });
        sim.run();
    }

    #[test]
    fn start_boots_on_the_given_platform() {
        let _check = CheckGuard::new();
        dpdpu_des::block_on(async {
            let bf3 = Platform::new(HostSpec::epyc(), DpuSpec::bluefield3());
            let rt = Dpdpu::start(bf3.clone());
            assert!(Rc::ptr_eq(&rt.platform, &bf3));
            assert_eq!(rt.platform.dpu_spec.name, "BlueField-3");
        });
    }

    #[test]
    fn runtime_under_a_fault_plan_retries_an_injected_read() {
        let _check = CheckGuard::new();
        let guard = SessionGuard::new(FaultPlan::new(9));
        guard.session.arm_ssd_read_failures(1);
        dpdpu_des::block_on(async {
            let rt = Dpdpu::start_default();
            let id = rt.storage.create("f").await.unwrap();
            rt.storage.write(id, 0, &vec![1u8; 4096]).await.unwrap();
            // One injected failure, absorbed by the service's retry.
            let back = rt.storage.read(id, 0, 4096).await.unwrap();
            assert_eq!(back, vec![1u8; 4096]);
            assert_eq!(rt.storage.retries.get(), 1);
        });
        assert_eq!(guard.session.injected(FaultSite::SsdRead), 1);
    }

    #[test]
    fn front_end_and_service_share_files() {
        let _check = CheckGuard::new();
        let mut sim = Sim::new();
        sim.spawn(async {
            let dpdpu = Dpdpu::start_default();
            let id = dpdpu.front_end.create("shared").await.unwrap();
            dpdpu
                .front_end
                .write(id, 0, vec![7u8; 1_000])
                .await
                .unwrap();
            // Visible from the DPU side (unified file system).
            let data = dpdpu.storage.read(id, 0, 1_000).await.unwrap();
            assert_eq!(data, vec![7u8; 1_000]);
        });
        sim.run();
    }

    #[test]
    fn register_sproc_does_not_leak_the_runtime() {
        let _check = CheckGuard::new();
        // A sproc that uses the runtime must not keep it alive: the
        // registry holds a Weak, so the last handle frees the runtime.
        let rt = dpdpu_des::block_on(async {
            let rt = Dpdpu::start_default();
            rt.register_sproc("noop", |_rt: Rc<Dpdpu>, arg: Bytes| async move { arg })
                .unwrap();
            let out = rt
                .sprocs
                .invoke("noop", Bytes::from_static(b"x"))
                .await
                .unwrap();
            assert_eq!(out, Bytes::from_static(b"x"));
            Rc::downgrade(&rt)
        });
        assert!(rt.upgrade().is_none(), "runtime ↔ sproc registry cycle");
    }

    #[test]
    fn read_compress_send_pipeline() {
        let _check = CheckGuard::new();
        let mut sim = Sim::new();
        sim.spawn(async {
            let dpdpu = Dpdpu::start_default();
            let id = dpdpu.storage.create("pages").await.unwrap();
            let text = dpdpu_kernels::text::natural_text(8 * 8_192, 3);
            dpdpu.storage.write(id, 0, &text).await.unwrap();

            let client_cpu = CpuPool::new("client", 8, 3_000_000_000);
            let (tx, mut rx) = TcpConnector::new(LinkConfig::rack_100g())
                .stream(Endpoint::of(&dpdpu.platform), Endpoint::host(client_cpu));

            let pages: Vec<(u64, u64)> = (0..8).map(|i| (i * 8_192, 8_192)).collect();
            let (input, compressed) = dpdpu.read_compress_send(id, &pages, &tx).await.unwrap();
            assert_eq!(input, 8 * 8_192);
            assert!(compressed < input, "natural text must compress");
            drop(tx);

            // The client receives every compressed page and can decode it.
            let mut total = 0u64;
            let mut pages_seen = 0;
            while let Some(msg) = rx.recv().await {
                total += msg.len() as u64;
                pages_seen += 1;
                let _ = msg; // chunks of DPLZ containers
            }
            assert!(pages_seen >= 8);
            assert_eq!(total, compressed);
            // The ASIC (not CPUs) did the compression.
            let accel = dpdpu
                .platform
                .accel(dpdpu_hw::AccelKind::Compression)
                .expect("BF-2 has a compression engine");
            assert_eq!(accel.completed(), 8);
        });
        sim.run();
    }
}
