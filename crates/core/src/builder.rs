//! Fluent construction of the runtime.
//!
//! `Dpdpu::start(platform)` wired everything positionally and left no
//! room for the knobs robustness needs (scheduling policy, fault plan,
//! tenants). [`DpdpuBuilder`] is the front door now;
//! `Dpdpu::start`/`start_default` remain as thin shims over it.
//!
//! ```
//! use dpdpu_core::DpdpuBuilder;
//! use dpdpu_compute::SchedPolicy;
//! use dpdpu_faults::FaultPlan;
//!
//! dpdpu_des::block_on(async {
//!     let rt = DpdpuBuilder::new()
//!         .bluefield2()
//!         .sched_policy(SchedPolicy::Fcfs)
//!         .fault_plan(FaultPlan::new(42).ssd_read_errors(0.01))
//!         .boot();
//!     let file = rt.storage.create("t").await.unwrap();
//!     rt.storage.write(file, 0, b"payload").await.unwrap();
//! });
//! # dpdpu_faults::FaultSession::uninstall();
//! ```

use std::rc::Rc;

use dpdpu_compute::{ComputeEngine, SchedPolicy, Scheduler};
use dpdpu_faults::{FaultPlan, FaultSession};
use dpdpu_hw::{DpuSpec, HostSpec, Platform};
use dpdpu_storage::{BlockDevice, ExtentFs, FileService, HostFrontEnd};

use crate::runtime::Dpdpu;
use crate::sproc::SprocRegistry;
use crate::tenants::TenantSpec;

/// File-system capacity the runtime formats at boot, in 4 KB blocks.
const FS_CAPACITY_BLOCKS: u64 = 1 << 24;

/// Fluent builder for [`Dpdpu`].
pub struct DpdpuBuilder {
    platform: Option<Rc<Platform>>,
    /// DPU paired with the EPYC host when no explicit platform is given.
    dpu: DpuSpec,
    sched_policy: SchedPolicy,
    tenant_specs: Vec<TenantSpec>,
    fault_plan: Option<FaultPlan>,
}

impl Default for DpdpuBuilder {
    fn default() -> Self {
        DpdpuBuilder {
            platform: None,
            dpu: DpuSpec::bluefield2(),
            sched_policy: SchedPolicy::Fcfs,
            tenant_specs: Vec::new(),
            fault_plan: None,
        }
    }
}

impl DpdpuBuilder {
    /// A builder with the defaults: EPYC + BlueField-2, FCFS scheduling,
    /// single tenant, no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Boots on this platform instead of the default.
    pub fn platform(mut self, platform: Rc<Platform>) -> Self {
        self.platform = Some(platform);
        self
    }

    /// Preset: EPYC host + BlueField-2 DPU (the paper's test rig).
    pub fn bluefield2(mut self) -> Self {
        self.dpu = DpuSpec::bluefield2();
        self
    }

    /// Preset: EPYC host + BlueField-3 DPU (no RegEx engine — the
    /// heterogeneity case of §5).
    pub fn bluefield3(mut self) -> Self {
        self.dpu = DpuSpec::bluefield3();
        self
    }

    /// Sproc scheduling policy for the runtime's [`Scheduler`].
    pub fn sched_policy(mut self, policy: SchedPolicy) -> Self {
        self.sched_policy = policy;
        self
    }

    /// Full per-tenant QoS configuration: names, SLO classes, WFQ
    /// weights, and admission limits. The weights feed the sproc
    /// scheduler's DRR classes (default: one tenant of weight 1); the
    /// full specs are carried on the runtime as [`Dpdpu::tenants`] so a
    /// serving-tier gateway can enforce them on the request path.
    pub fn tenants(mut self, specs: Vec<TenantSpec>) -> Self {
        assert!(!specs.is_empty(), "at least one tenant required");
        self.tenant_specs = specs;
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
    /// the file system, starts the DPU file service, host front end,
    /// Compute Engine, and sproc scheduler. Must be called inside a
    /// running simulation.
    pub fn boot(self) -> Rc<Dpdpu> {
        // Conformance is always-on: every builder-booted run gets the
        // invariant checker. An outer `CheckGuard` (strict, owned by the
        // caller) is respected — this only fills the slot when empty.
        dpdpu_check::CheckSession::ensure_installed();
        let faults = self.fault_plan.map(FaultSession::install);
        let platform = self
            .platform
            .unwrap_or_else(|| Platform::new(HostSpec::epyc(), self.dpu));
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
        let compute = ComputeEngine::new(platform.clone());
        let weights = if self.tenant_specs.is_empty() {
            vec![1]
        } else {
            self.tenant_specs.iter().map(|t| t.weight).collect()
        };
        let scheduler = Scheduler::new(
            platform.dpu_cpu.clone(),
            platform.host_cpu.clone(),
            self.sched_policy,
            weights,
        );
        Rc::new(Dpdpu {
            platform,
            compute,
            storage,
            front_end,
            scheduler,
            sprocs: SprocRegistry::new(),
            faults,
            tenants: self.tenant_specs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::Sim;

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

    #[test]
    fn builder_tenants_feed_scheduler_weights_and_runtime_specs() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let rt = DpdpuBuilder::new()
                .tenants(vec![
                    TenantSpec::latency("kv", 4).rate(50_000, 16),
                    TenantSpec::batch("scan", 2),
                    TenantSpec::latency("storm", 1).in_flight(8),
                ])
                .boot();
            assert_eq!(rt.scheduler.cycles_by_tenant().len(), 3);
            assert_eq!(rt.tenants.len(), 3);
            assert_eq!(rt.tenants[0].name, "kv");
            assert_eq!(rt.tenants[2].max_in_flight, 8);
        });
        sim.run();
    }

    #[test]
    fn builder_wires_scheduler_policy() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let rt = DpdpuBuilder::new()
                .bluefield3()
                .sched_policy(SchedPolicy::DpuOnly)
                .tenants(vec![TenantSpec::batch("a", 2), TenantSpec::batch("b", 1)])
                .boot();
            assert_eq!(rt.platform.dpu_spec.name, "BlueField-3");
            assert_eq!(rt.scheduler.cycles_by_tenant().len(), 2);
        });
        sim.run();
    }
}
