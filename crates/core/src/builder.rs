//! Fluent construction of the runtime.
//!
//! `Dpdpu::start(platform)` wired everything positionally and left no
//! room for the knobs robustness needs (scheduling policy, fault plan,
//! telemetry opt-out). [`DpdpuBuilder`] is the front door now;
//! `Dpdpu::start`/`start_default` remain as thin shims over it.
//!
//! ```
//! use dpdpu_core::DpdpuBuilder;
//! use dpdpu_compute::SchedPolicy;
//! use dpdpu_faults::FaultPlan;
//!
//! let mut sim = dpdpu_des::Sim::new();
//! sim.spawn(async {
//!     let rt = DpdpuBuilder::new()
//!         .bluefield2()
//!         .sched_policy(SchedPolicy::Fcfs)
//!         .fault_plan(FaultPlan::new(42).ssd_read_errors(0.01))
//!         .boot();
//!     let file = rt.storage.create("t").await.unwrap();
//!     rt.storage.write(file, 0, b"payload").await.unwrap();
//! });
//! sim.run();
//! # dpdpu_faults::FaultSession::uninstall();
//! ```

use std::rc::Rc;

use dpdpu_compute::{ComputeEngine, SchedPolicy, Scheduler};
use dpdpu_faults::{FaultPlan, FaultSession};
use dpdpu_hw::{DpuSpec, HostSpec, Platform};
use dpdpu_net::fabric::FabricKind;
use dpdpu_net::NetConfig;
use dpdpu_storage::{BlockDevice, ExtentFs, FileService, HostFrontEnd};

use crate::runtime::Dpdpu;
use crate::sproc::SprocRegistry;
use crate::tenants::TenantSpec;

/// File-system capacity the runtime formats at boot, in 4 KB blocks.
const FS_CAPACITY_BLOCKS: u64 = 1 << 24;

/// Hardware preset applied when no explicit platform is given. Kept
/// symbolic (not an eager `Platform`) so a later [`DpdpuBuilder::tag`]
/// or [`DpdpuBuilder::boot_cluster`] can still name the resources.
#[derive(Debug, Clone, Copy)]
enum Preset {
    Bluefield2,
    Bluefield3,
}

/// Fluent builder for [`Dpdpu`].
pub struct DpdpuBuilder {
    platform: Option<Rc<Platform>>,
    preset: Preset,
    tag: String,
    sched_policy: SchedPolicy,
    tenant_specs: Vec<TenantSpec>,
    fault_plan: Option<FaultPlan>,
    telemetry: bool,
    net: NetConfig,
}

impl Default for DpdpuBuilder {
    fn default() -> Self {
        DpdpuBuilder {
            platform: None,
            preset: Preset::Bluefield2,
            tag: String::new(),
            sched_policy: SchedPolicy::Fcfs,
            tenant_specs: Vec::new(),
            fault_plan: None,
            telemetry: true,
            net: NetConfig::default(),
        }
    }
}

impl DpdpuBuilder {
    /// A builder with the defaults: EPYC + BlueField-2, FCFS scheduling,
    /// single tenant, no faults, telemetry registration on.
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
        self.preset = Preset::Bluefield2;
        self
    }

    /// Preset: EPYC host + BlueField-3 DPU (no RegEx engine — the
    /// heterogeneity case of §5).
    pub fn bluefield3(mut self) -> Self {
        self.preset = Preset::Bluefield3;
        self
    }

    /// Prefixes every preset-built resource name with `tag.` — required
    /// when several platforms share one simulation, so CPU pools, PCIe
    /// links, and SSDs stay distinct in telemetry and conformance
    /// accounting. Ignored when an explicit [`platform`](Self::platform)
    /// is supplied.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    fn preset_platform(&self, tag: &str) -> Rc<Platform> {
        match self.preset {
            Preset::Bluefield2 => {
                Platform::new_tagged(HostSpec::epyc(), DpuSpec::bluefield2(), tag)
            }
            Preset::Bluefield3 => {
                Platform::new_tagged(HostSpec::epyc(), DpuSpec::bluefield3(), tag)
            }
        }
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

    /// Whether to register the platform's resources with an installed
    /// telemetry session at boot (default `true`; a no-op when no
    /// session is installed).
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// The full network configuration — link shaping, TCP tunables
    /// (congestion control included), and fabric selection — carried as
    /// [`Dpdpu::net`] for the serving layers (e.g. a DDS
    /// `ClusterConfig`) to consume. The runtime itself opens no
    /// connections.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Which cluster fabric this runtime's cluster connections should
    /// ride (default [`FabricKind::Tcp`]). Shorthand for setting
    /// [`NetConfig::fabric`] through [`Self::net`].
    pub fn fabric(mut self, kind: FabricKind) -> Self {
        self.net.fabric = kind;
        self
    }

    /// Boots the runtime: installs the fault plan (if any), formats the
    /// file system, starts the DPU file service, host front end, Compute
    /// Engine, and sproc scheduler. Must be called inside a running
    /// simulation.
    pub fn boot(self) -> Rc<Dpdpu> {
        // Conformance is always-on: every builder-booted run gets the
        // invariant checker. An outer `CheckGuard` (strict, owned by the
        // caller) is respected — this only fills the slot when empty.
        dpdpu_check::CheckSession::ensure_installed();
        let faults = self.fault_plan.clone().map(FaultSession::install);
        let platform = match &self.platform {
            Some(p) => p.clone(),
            None => self.preset_platform(&self.tag),
        };
        self.boot_one(platform, faults)
    }

    /// Boots `n` independent runtimes inside one simulation, each on
    /// its own `node{i}`-tagged preset platform (prefixed by
    /// [`tag`](Self::tag) when set). The fault plan, if any, is
    /// installed once and shared — fault sessions are per-thread, not
    /// per-platform.
    pub fn boot_cluster(self, n: usize) -> Vec<Rc<Dpdpu>> {
        assert!(n > 0, "cluster must have at least one node");
        assert!(
            self.platform.is_none(),
            "boot_cluster builds its own platforms; don't pass an explicit one"
        );
        dpdpu_check::CheckSession::ensure_installed();
        let faults = self.fault_plan.clone().map(FaultSession::install);
        (0..n)
            .map(|i| {
                let node_tag = if self.tag.is_empty() {
                    format!("node{i}")
                } else {
                    format!("{}.node{i}", self.tag)
                };
                let platform = self.preset_platform(&node_tag);
                self.boot_one(platform, faults.clone())
            })
            .collect()
    }

    fn boot_one(&self, platform: Rc<Platform>, faults: Option<Rc<FaultSession>>) -> Rc<Dpdpu> {
        if self.telemetry {
            if let Some(t) = dpdpu_telemetry::Telemetry::current() {
                platform.register_telemetry(&t);
            }
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
            net: self.net,
            tenants: self.tenant_specs.clone(),
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
    fn boot_cluster_isolates_node_resources() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let nodes = DpdpuBuilder::new().boot_cluster(3);
            assert_eq!(nodes.len(), 3);
            let names: std::collections::HashSet<String> = nodes
                .iter()
                .map(|n| n.platform.host_cpu.name().to_string())
                .collect();
            assert_eq!(names.len(), 3, "host CPU pools must be distinct");
            assert_eq!(nodes[0].platform.tag, "node0");
            assert_eq!(nodes[2].platform.tag, "node2");
            // Every node's storage stack works independently.
            for (i, node) in nodes.iter().enumerate() {
                let f = node.storage.create("t").await.unwrap();
                node.storage
                    .write(f, 0, format!("node-{i}").as_bytes())
                    .await
                    .unwrap();
                let back = node.storage.read(f, 0, 6).await.unwrap();
                assert_eq!(&back, format!("node-{i}").as_bytes());
            }
        });
        sim.run();
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
