//! The assembled runtime.

use std::rc::Rc;

use bytes::Bytes;

use dpdpu_compute::{ComputeEngine, KernelInput, KernelOp, KernelOutput, Placement};
use dpdpu_hw::Platform;
use dpdpu_net::tcp::TcpSender;
use dpdpu_storage::{FileId, FileService, HostFrontEnd};

use crate::error::DpdpuError;
use crate::report::Report;

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
}

impl Dpdpu {
    /// Boots DPDPU on `platform` — e.g. `Platform::new(HostSpec::epyc(),
    /// DpuSpec::bluefield3())`, the BlueField-3 without a RegEx engine
    /// (the heterogeneity case of §5): boots the Storage Engine with
    /// `FileService::boot`, which registers the platform's resources with
    /// an installed telemetry session, formats the file system and starts
    /// the DPU file service; then starts the host front end and Compute
    /// Engine.
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
        let storage = FileService::boot(&platform);
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
        guard.session.arm(FaultSite::SsdRead, 0, 1);
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
    fn read_compress_send_pipeline() {
        let _check = CheckGuard::new();
        let mut sim = Sim::new();
        sim.spawn(async {
            let dpdpu = Dpdpu::start_default();
            let id = dpdpu.storage.create("pages").await.unwrap();
            let text = dpdpu_kernels::text::natural_text(8 * 8_192, 3);
            dpdpu.storage.write(id, 0, &text).await.unwrap();

            let client = Endpoint::host(CpuPool::new("client", 8, 3_000_000_000));
            let (tx, mut rx) = TcpConnector::new(LinkConfig::rack_100g())
                .stream(Endpoint::dpu_native(&dpdpu.platform), client);

            let pages: Vec<(u64, u64)> = (0..8).map(|i| (i * 8_192, 8_192)).collect();
            let host_busy = dpdpu.platform.host_cpu.busy_ns();
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
            // Read, compress and send all run on the DPU, the sender's
            // stack included: the platform's host does no work.
            assert_eq!(dpdpu.platform.host_cpu.busy_ns(), host_busy);
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
