//! A live platform: one host + one DPU + one SSD, instantiated from specs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::accel::Accelerator;
use crate::cpu::CpuPool;
use crate::memory::Memory;
use crate::pcie::PcieLink;
use crate::peer::{PeerDevice, PeerSpec};
use crate::spec::{AccelKind, DpuSpec, HostSpec};
use crate::ssd::Ssd;

/// A server equipped with a DPU and an NVMe SSD — the hardware unit every
/// DPDPU engine runs against (paper Figure 5's resource boxes).
pub struct Platform {
    /// Host spec this platform was built from.
    pub host_spec: HostSpec,
    /// DPU spec this platform was built from.
    pub dpu_spec: DpuSpec,
    /// Host CPU cores.
    pub host_cpu: Rc<CpuPool>,
    /// DPU onboard cores.
    pub dpu_cpu: Rc<CpuPool>,
    /// DPU fixed-function engines present on this DPU. Ordered so that
    /// telemetry registration (and thus trace output) is deterministic
    /// across process runs.
    pub accels: BTreeMap<AccelKind, Rc<Accelerator>>,
    /// Host DRAM.
    pub host_mem: Memory,
    /// DPU onboard DRAM (the scarce resource of §7).
    pub dpu_mem: Memory,
    /// Host↔DPU PCIe link (DMA path for rings and payloads).
    pub host_dpu_pcie: Rc<PcieLink>,
    /// DPU↔SSD peer-to-peer PCIe link (§7's direct storage path).
    pub dpu_ssd_pcie: Rc<PcieLink>,
    /// Host↔SSD PCIe link through the root complex (legacy path).
    pub host_ssd_pcie: Rc<PcieLink>,
    /// The NVMe device.
    pub ssd: Rc<Ssd>,
    /// Optional PCIe peer accelerator (GPU/FPGA; §5 extension), set by
    /// [`Platform::install_peer`].
    peer: RefCell<Option<Rc<PeerDevice>>>,
    /// Node tag prefixed onto every resource name (empty for a
    /// single-platform sim). Gives each server of a cluster its own
    /// resource identities, so the conformance layer's per-resource
    /// utilisation/capacity accounting and telemetry tracks never merge
    /// two nodes into one.
    pub tag: String,
}

impl Platform {
    /// Builds a platform from specs.
    pub fn new(host: HostSpec, dpu: DpuSpec) -> Rc<Self> {
        Self::new_tagged(host, dpu, "")
    }

    /// Builds a platform whose every resource name carries `tag` as a
    /// `"{tag}."` prefix (empty tag = the plain single-platform names).
    /// Cluster simulations instantiate one tagged platform per storage
    /// server so CPU pools, PCIe links, and SSDs stay distinguishable in
    /// telemetry tracks and in the conformance layer's accounting.
    pub fn new_tagged(host: HostSpec, dpu: DpuSpec, tag: &str) -> Rc<Self> {
        let named = |base: &str| -> String {
            if tag.is_empty() {
                base.to_string()
            } else {
                format!("{tag}.{base}")
            }
        };
        let mut accels = BTreeMap::new();
        for spec in &dpu.accels {
            accels.insert(
                spec.kind,
                Accelerator::new(
                    spec.kind,
                    spec.contexts,
                    spec.fixed_latency_ns,
                    spec.bytes_per_sec,
                ),
            );
        }
        Rc::new(Platform {
            host_cpu: CpuPool::new(
                named(&format!("{}-cpu", host.name)),
                host.cores,
                host.clock_hz,
            ),
            dpu_cpu: CpuPool::new(named(&format!("{}-cpu", dpu.name)), dpu.cores, dpu.clock_hz),
            accels,
            host_mem: Memory::new(host.mem_bytes),
            dpu_mem: Memory::new(dpu.mem_bytes),
            host_dpu_pcie: PcieLink::new(named("host-dpu"), dpu.pcie_bytes_per_sec),
            dpu_ssd_pcie: PcieLink::new(named("dpu-ssd"), dpu.pcie_bytes_per_sec),
            host_ssd_pcie: PcieLink::new(named("host-ssd"), dpu.pcie_bytes_per_sec),
            ssd: Ssd::new(&named("nvme0")),
            peer: RefCell::new(None),
            host_spec: host,
            dpu_spec: dpu,
            tag: tag.to_string(),
        })
    }

    /// Default experimental platform: EPYC host + BlueField-2.
    pub fn default_bf2() -> Rc<Self> {
        Platform::new(HostSpec::epyc(), DpuSpec::bluefield2())
    }

    /// Installs a PCIe peer accelerator (GPU/FPGA).
    pub fn install_peer(&self, spec: PeerSpec) -> Rc<PeerDevice> {
        let dev = PeerDevice::new(spec);
        *self.peer.borrow_mut() = Some(dev.clone());
        dev
    }

    /// The installed peer accelerator, if any.
    pub fn peer_device(&self) -> Option<Rc<PeerDevice>> {
        self.peer.borrow().clone()
    }

    /// The accelerator of `kind`, if this DPU has one.
    pub fn accel(&self, kind: AccelKind) -> Option<Rc<Accelerator>> {
        self.accels.get(&kind).cloned()
    }

    /// Registers this platform's resources with a telemetry session:
    /// span tracks are grouped under their owning device ("host", "dpu",
    /// "ssd", "fabric" — prefixed `"{tag}."` on a tagged platform, so a
    /// cluster renders one process group per node), capacity gauges land
    /// in the metrics registry, and utilisation/queue-depth sources feed
    /// the timeline sampler.
    pub fn register_telemetry(self: &Rc<Self>, t: &dpdpu_telemetry::Telemetry) {
        use dpdpu_des::now;

        let group = |base: &str| -> String {
            if self.tag.is_empty() {
                base.to_string()
            } else {
                format!("{}.{base}", self.tag)
            }
        };
        let host_group = group("host");
        let dpu_group = group("dpu");
        let ssd_group = group("ssd");
        let fabric_group = group("fabric");

        // Span tracks → devices (Chrome: one process per device, one
        // thread per resource).
        t.assign_track(self.host_cpu.name(), &host_group);
        t.assign_track(self.dpu_cpu.name(), &dpu_group);
        for kind in self.accels.keys() {
            t.assign_track(format!("accel-{kind:?}"), &dpu_group);
        }
        let (ssd_rd, ssd_wr) = self.ssd.track_names();
        t.assign_track(ssd_rd, &ssd_group);
        t.assign_track(ssd_wr, &ssd_group);
        for link in [&self.host_dpu_pcie, &self.dpu_ssd_pcie, &self.host_ssd_pcie] {
            t.assign_track(link.name(), &fabric_group);
        }

        // Static capacity gauges.
        let reg = t.registry();
        reg.gauge("cores", &[("pool", self.host_cpu.name())])
            .set(self.host_cpu.cores() as f64);
        reg.gauge("cores", &[("pool", self.dpu_cpu.name())])
            .set(self.dpu_cpu.cores() as f64);
        for (kind, accel) in &self.accels {
            reg.gauge("accel_contexts", &[("kind", &format!("{kind:?}"))])
                .set(accel.contexts() as f64);
        }

        // Timeline sources: cumulative utilisation + instantaneous queue
        // depth per resource. Closures run inside the sim, so `now()` is
        // available; `max(1)` avoids 0/0 at t=0.
        let host_cpu = self.host_cpu.clone();
        let host_name = self.host_cpu.name().to_string();
        t.register_source("host", format!("util:{host_name}"), move || {
            host_cpu.utilization(now().max(1))
        });
        let host_cpu = self.host_cpu.clone();
        t.register_source("host", format!("queue:{host_name}"), move || {
            host_cpu.queue_len() as f64
        });
        let dpu_cpu = self.dpu_cpu.clone();
        let dpu_name = self.dpu_cpu.name().to_string();
        t.register_source("dpu", format!("util:{dpu_name}"), move || {
            dpu_cpu.utilization(now().max(1))
        });
        let dpu_cpu = self.dpu_cpu.clone();
        t.register_source("dpu", format!("queue:{dpu_name}"), move || {
            dpu_cpu.queue_len() as f64
        });
        for (kind, accel) in &self.accels {
            let a = accel.clone();
            t.register_source("dpu", format!("util:accel-{kind:?}"), move || {
                a.utilization(now().max(1))
            });
            let a = accel.clone();
            t.register_source("dpu", format!("queue:accel-{kind:?}"), move || {
                a.queue_len() as f64
            });
        }
        let ssd = self.ssd.clone();
        t.register_source("ssd", "queue:nvme", move || ssd.queue_len() as f64);
        let ssd = self.ssd.clone();
        t.register_source("ssd", "util:nvme", move || {
            ssd.busy_ns() as f64 / now().max(1) as f64
        });
        for link in [&self.host_dpu_pcie, &self.dpu_ssd_pcie, &self.host_ssd_pcie] {
            let name = link.name().to_string();
            let l = link.clone();
            t.register_source("fabric", format!("util:{name}"), move || {
                l.busy_ns() as f64 / now().max(1) as f64
            });
            let l = link.clone();
            t.register_source("fabric", format!("queue:{name}"), move || {
                l.queue_len() as f64
            });
        }
    }

    /// Resets every CPU/accelerator counter (between experiment phases).
    pub fn reset_stats(&self) {
        self.host_cpu.reset_stats();
        self.dpu_cpu.reset_stats();
        for accel in self.accels.values() {
            accel.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::Sim;

    #[test]
    fn platform_wires_all_devices() {
        let p = Platform::default_bf2();
        assert_eq!(p.host_cpu.cores(), 64);
        assert_eq!(p.dpu_cpu.cores(), 8);
        assert!(p.accel(AccelKind::Compression).is_some());
        let err = p.dpu_mem.try_reserve(u64::MAX).unwrap_err();
        assert_eq!(err.available, 16 << 30);
    }

    #[test]
    fn accel_missing_on_heterogeneous_dpu() {
        let p = Platform::new(HostSpec::epyc(), DpuSpec::bluefield3());
        assert!(p.accel(AccelKind::RegEx).is_none());
        assert!(p.accel(AccelKind::Compression).is_some());
    }

    #[test]
    fn telemetry_registration_covers_every_resource() {
        use dpdpu_telemetry::Telemetry;
        let t = Telemetry::install();
        let p = Platform::default_bf2();
        p.register_telemetry(&t);

        // Capacity gauges present.
        let gauges = t.registry().gauge_values();
        assert!(gauges
            .iter()
            .any(|(k, v)| k.starts_with("cores{") && *v > 0.0));

        // Sampler sources produce data once the sim runs, and each
        // resource's spans group under its device.
        let mut sim = Sim::new();
        let p2 = p.clone();
        sim.spawn(async move {
            let sampler = dpdpu_telemetry::start_sampler(1_000);
            p2.host_cpu.exec(3_000).await;
            p2.dpu_cpu.exec(30_000).await;
            p2.host_dpu_pcie.dma(4_096).await;
            p2.ssd.read(4_096).await.unwrap();
            sampler.stop();
        });
        sim.run();
        Telemetry::uninstall();
        let spans = t.tracer().spans();
        let device = |track: &str| spans.iter().find(|s| s.track == track).map(|s| &*s.process);
        assert_eq!(device(p.host_cpu.name()), Some("host"));
        assert_eq!(device(p.dpu_cpu.name()), Some("dpu"));
        assert_eq!(device("host-dpu"), Some("fabric"));
        assert_eq!(device(&p.ssd.track_names().0), Some("ssd"));
        let samples = t.samples();
        assert!(!samples.is_empty());
        assert!(samples
            .iter()
            .any(|s| s.name.starts_with("util:") && s.value > 0.0));
        assert!(samples.iter().any(|s| s.name.starts_with("queue:")));
    }

    #[test]
    fn devices_usable_inside_sim() {
        let mut sim = Sim::new();
        let p = Platform::default_bf2();
        let p2 = p.clone();
        sim.spawn(async move {
            p2.host_cpu.exec(3_000).await; // 1 µs at 3 GHz
            p2.ssd.read(8_192).await.unwrap();
            p2.dpu_ssd_pcie.dma(8_192).await;
        });
        let end = sim.run();
        assert!(end > 79_000, "end={end}");
        assert_eq!(p.ssd.reads.get(), 1);
    }
}
