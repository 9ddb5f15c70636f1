//! Resource-consumption snapshots for experiments.

use std::fmt;
use std::rc::Rc;

use dpdpu_des::Time;
use dpdpu_hw::{AccelKind, Platform};

/// A point-in-time resource report (the numbers the paper's figures are
/// built from).
#[derive(Debug, Clone)]
pub struct Report {
    /// Virtual time the window covers, ns.
    pub(crate) elapsed_ns: Time,
    /// Average host cores busy (Figures 2/3 metric).
    pub(crate) host_cores_consumed: f64,
    /// Average DPU cores busy.
    pub(crate) dpu_cores_consumed: f64,
    /// Accelerator utilisation by kind, `[0, 1]`.
    pub(crate) accel_utilization: Vec<(AccelKind, f64)>,
    /// SSD read ops completed.
    pub(crate) ssd_reads: u64,
    /// SSD write ops completed.
    pub(crate) ssd_writes: u64,
    /// Bytes moved over host↔DPU PCIe.
    pub(crate) pcie_bytes: u64,
    /// DPU memory in use, bytes.
    pub(crate) dpu_mem_used: u64,
}

impl Report {
    /// Collects a report from a platform.
    pub(crate) fn collect(platform: &Rc<Platform>, elapsed_ns: Time) -> Report {
        let elapsed = elapsed_ns.max(1);
        let mut accel_utilization: Vec<(AccelKind, f64)> = platform
            .accels
            .iter()
            .map(|(&kind, accel)| (kind, accel.utilization(elapsed)))
            .collect();
        accel_utilization.sort_by_key(|(k, _)| format!("{k:?}"));
        Report {
            elapsed_ns,
            host_cores_consumed: platform.host_cpu.cores_consumed(elapsed),
            dpu_cores_consumed: platform.dpu_cpu.cores_consumed(elapsed),
            accel_utilization,
            ssd_reads: platform.ssd.reads.get(),
            ssd_writes: platform.ssd.writes.get(),
            pcie_bytes: platform.host_dpu_pcie.bytes_moved.get(),
            dpu_mem_used: platform.dpu_mem.used(),
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "window: {:.3} ms", self.elapsed_ns as f64 / 1e6)?;
        writeln!(f, "host cores consumed: {:.3}", self.host_cores_consumed)?;
        writeln!(f, "dpu  cores consumed: {:.3}", self.dpu_cores_consumed)?;
        for (kind, util) in &self.accel_utilization {
            writeln!(f, "accel {kind:?}: {:.1}% busy", util * 100.0)?;
        }
        writeln!(
            f,
            "ssd: {} reads, {} writes",
            self.ssd_reads, self.ssd_writes
        )?;
        writeln!(f, "pcie host<->dpu: {} bytes", self.pcie_bytes)?;
        write!(f, "dpu memory used: {} bytes", self.dpu_mem_used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::Sim;

    #[test]
    fn report_reflects_activity() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let p = Platform::default_bf2();
            p.host_cpu.exec(3_000_000).await; // 1 ms on one host core
            p.ssd.read(8_192).await.unwrap();
            let elapsed = dpdpu_des::now();
            let r = Report::collect(&p, elapsed);
            assert!(r.host_cores_consumed > 0.0);
            assert_eq!(r.ssd_reads, 1);
            let text = r.to_string();
            assert!(text.contains("host cores consumed"));
        });
        sim.run();
    }

    #[test]
    fn zero_window_is_safe() {
        let p = Platform::default_bf2();
        let r = Report::collect(&p, 0);
        assert_eq!(r.host_cores_consumed, 0.0);
    }
}
