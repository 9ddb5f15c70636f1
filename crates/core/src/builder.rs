//! Fluent construction of the runtime.
//!
//! [`DpdpuBuilder`] is the front door: it takes the platform (default:
//! EPYC + BlueField-2) and an optional fault plan, then boots.
//! `Dpdpu::start`/`start_default` remain as thin shims over it.
//!
//! ```
//! use dpdpu_core::DpdpuBuilder;
//! use dpdpu_faults::FaultPlan;
//!
//! dpdpu_des::block_on(async {
//!     let rt = DpdpuBuilder::new()
//!         .fault_plan(FaultPlan::new(42).ssd_read_errors(0.01))
//!         .boot();
//!     let file = rt.storage.create("t").await.unwrap();
//!     rt.storage.write(file, 0, b"payload").await.unwrap();
//! });
//! # dpdpu_faults::FaultSession::uninstall();
//! ```

use std::rc::Rc;

use dpdpu_compute::ComputeEngine;
use dpdpu_faults::{FaultPlan, FaultSession};
use dpdpu_hw::Platform;
use dpdpu_storage::{BlockDevice, ExtentFs, FileService, HostFrontEnd};

use crate::runtime::Dpdpu;
use crate::sproc::SprocRegistry;

/// File-system capacity the runtime formats at boot, in 4 KB blocks.
const FS_CAPACITY_BLOCKS: u64 = 1 << 24;

/// Fluent builder for [`Dpdpu`].
#[derive(Default)]
pub struct DpdpuBuilder {
    platform: Option<Rc<Platform>>,
    fault_plan: Option<FaultPlan>,
}

impl DpdpuBuilder {
    /// A builder with the defaults: EPYC + BlueField-2, no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Boots on this platform instead of [`Platform::default_bf2`] —
    /// e.g. `Platform::new(HostSpec::epyc(), DpuSpec::bluefield3())`, the
    /// BlueField-3 without a RegEx engine (the heterogeneity case of §5).
    pub fn platform(mut self, platform: Rc<Platform>) -> Self {
        self.platform = Some(platform);
        self
    }

    /// Installs this fault plan for the run. The session is installed at
    /// [`boot`](Self::boot) and stays active until
    /// [`FaultSession::uninstall`] (or until another plan replaces it);
    /// the handle is kept on the runtime as [`Dpdpu::faults`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Boots the runtime: installs the fault plan (if any), registers the
    /// platform's resources with an installed telemetry session, formats
    /// the file system, starts the DPU file service, host front end and
    /// Compute Engine. Must be called inside a running simulation.
    pub fn boot(self) -> Rc<Dpdpu> {
        // Conformance is always-on: every builder-booted run gets the
        // invariant checker. An outer `CheckGuard` (strict, owned by the
        // caller) is respected — this only fills the slot when empty.
        dpdpu_check::CheckSession::ensure_installed();
        let faults = self.fault_plan.map(FaultSession::install);
        let platform = self.platform.unwrap_or_else(Platform::default_bf2);
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
            faults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::Sim;
    use dpdpu_hw::{DpuSpec, HostSpec};

    #[test]
    fn builder_defaults_match_start_default() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let rt = DpdpuBuilder::new().boot();
            assert_eq!(rt.platform.dpu_spec.name, "BlueField-2");
            assert!(rt.faults.is_none());
            let id = rt.storage.create("f").await.unwrap();
            rt.storage.write(id, 0, b"x").await.unwrap();
        });
        sim.run();
    }

    #[test]
    fn builder_boots_on_the_given_platform() {
        dpdpu_des::block_on(async {
            let bf3 = Platform::new(HostSpec::epyc(), DpuSpec::bluefield3());
            let rt = DpdpuBuilder::new().platform(bf3.clone()).boot();
            assert!(Rc::ptr_eq(&rt.platform, &bf3));
            assert_eq!(rt.platform.dpu_spec.name, "BlueField-3");
        });
    }

    #[test]
    fn builder_installs_fault_plan_and_exposes_session() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let rt = DpdpuBuilder::new()
                .fault_plan(FaultPlan::new(9).fail_next_ssd_reads(1))
                .boot();
            let session = rt.faults.clone().expect("session installed");
            let id = rt.storage.create("f").await.unwrap();
            rt.storage.write(id, 0, &vec![1u8; 4096]).await.unwrap();
            // One injected failure, absorbed by the service's retry.
            let back = rt.storage.read(id, 0, 4096).await.unwrap();
            assert_eq!(back, vec![1u8; 4096]);
            assert_eq!(session.injected(dpdpu_faults::FaultSite::SsdRead), 1);
            assert_eq!(rt.storage.retries.get(), 1);
        });
        sim.run();
        FaultSession::uninstall();
    }
}
