//! **Figure 2 — CPU consumption of storage access.**
//!
//! Paper: host CPU cycles grow linearly with 8 KB-page read throughput
//! through Linux-managed SSDs; ≈2.7 cores consumed at 450 K pages/s
//! (io_uring similar). We reproduce the line with the kernel-path model
//! and add the DPDPU Storage Engine column the paper motivates: the same
//! throughput served through the DPU file service with the host paying
//! only ring costs.

use std::cell::Cell;
use std::rc::Rc;

use dpdpu_des::{block_on, now, sleep_until, spawn, SECONDS};
use dpdpu_hw::{Platform, Ssd};
use dpdpu_storage::{BlockDevice, ExtentFs, FileService, HostFrontEnd, HostKernelPath};

use crate::table::Table;

const PAGE: u64 = 8_192;
/// Measurement window (virtual).
const WINDOW_NS: u64 = 20_000_000; // 20 ms
/// Data-set pages in the target file.
const FILE_PAGES: u64 = 4_096;

/// Which path serves the reads.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    LinuxKernel,
    IoUring,
    DpdpuSe,
}

/// Runs the sweep and renders the table.
pub(crate) fn run() -> String {
    let mut table = Table::new(&[
        "target_kpages_s",
        "achieved_kpages_s",
        "linux_host_cores",
        "io_uring_host_cores",
        "dpdpu_se_host_cores",
    ]);
    for target_kiops in [50u64, 150, 250, 350, 450] {
        let (ach_linux, linux_cores) = measure(Path::LinuxKernel, target_kiops * 1_000);
        let (_ach_u, uring_cores) = measure(Path::IoUring, target_kiops * 1_000);
        let (_ach_se, se_cores) = measure(Path::DpdpuSe, target_kiops * 1_000);
        table.row(vec![
            format!("{target_kiops}"),
            format!("{:.0}", ach_linux / 1_000.0),
            format!("{:.2}", linux_cores),
            format!("{:.2}", uring_cores),
            format!("{:.3}", se_cores),
        ]);
    }
    format!(
        "## Figure 2: host CPU cores vs storage IOPS (8 KB random reads)\n\
         (paper shape: linear growth, ~2.7 cores at 450K pages/s on the \
         Linux path; io_uring similar; DPDPU SE added as the remedy)\n\n{}",
        table.render()
    )
}

/// Drives an open-loop random-read workload at `target_iops` for the
/// window; returns (achieved IOPS, host cores consumed).
fn measure(path: Path, target_iops: u64) -> (f64, f64) {
    block_on(async move {
        let platform = Platform::default_bf2();
        // The paper's testbed sustains 450K×8KB ≈ 3.7 GB/s: model an SSD
        // array with headroom instead of a single consumer device.
        let ssd = Ssd::with_params("array", 256, 78_000, 14_000, 8_000_000_000, 6_000_000_000);
        let fs = ExtentFs::format(BlockDevice::new(ssd, FILE_PAGES * 4));
        let service = FileService::new(
            fs.clone(),
            platform.dpu_cpu.clone(),
            platform.dpu_ssd_pcie.clone(),
        );
        let kernel_path = HostKernelPath::new(
            fs.clone(),
            platform.host_cpu.clone(),
            platform.host_ssd_pcie.clone(),
        );
        let uring_path = HostKernelPath::io_uring(
            fs,
            platform.host_cpu.clone(),
            platform.host_ssd_pcie.clone(),
        );
        let front_end = HostFrontEnd::new(
            platform.host_cpu.clone(),
            platform.host_dpu_pcie.clone(),
            service.clone(),
        );
        let file = service.create("dataset").await.unwrap();
        // Materialize the extent map (contents read back as zeros).
        service
            .write(file, FILE_PAGES * PAGE - 1, &[0])
            .await
            .unwrap();

        platform.host_cpu.reset_stats();
        let t0 = now();
        let interval = SECONDS / target_iops;
        let completed = Rc::new(Cell::new(0u64));
        let mut issued = 0u64;
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut handles = Vec::new();
        while issued * interval < WINDOW_NS {
            sleep_until(t0 + issued * interval).await;
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let page = rng % FILE_PAGES;
            let completed = completed.clone();
            let kernel_path = kernel_path.clone();
            let uring_path = uring_path.clone();
            let front_end = front_end.clone();
            handles.push(spawn(async move {
                match path {
                    Path::LinuxKernel => {
                        kernel_path.read(file, page * PAGE, PAGE).await.unwrap();
                    }
                    Path::IoUring => {
                        uring_path.read(file, page * PAGE, PAGE).await.unwrap();
                    }
                    Path::DpdpuSe => {
                        front_end.read(file, page * PAGE, PAGE).await.unwrap();
                    }
                }
                completed.set(completed.get() + 1);
            }));
            issued += 1;
        }
        dpdpu_des::join_all(handles).await;
        let elapsed = (now() - t0).max(1);
        let achieved = completed.get() as f64 * SECONDS as f64 / elapsed as f64;
        (achieved, platform.host_cpu.cores_consumed(elapsed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linux_path_anchor_holds() {
        // ~2.7 cores at 450K pages/s, the paper's quantitative anchor.
        let (achieved, cores) = measure(Path::LinuxKernel, 450_000);
        assert!(
            achieved > 400_000.0,
            "must sustain the load, got {achieved}"
        );
        assert!((2.2..3.2).contains(&cores), "cores={cores}");
    }

    #[test]
    fn growth_is_linear_in_iops() {
        let (_, c1) = measure(Path::LinuxKernel, 100_000);
        let (_, c3) = measure(Path::LinuxKernel, 300_000);
        let ratio = c3 / c1;
        assert!(
            (2.5..3.5).contains(&ratio),
            "expected ~3x cores at 3x IOPS, got {ratio}"
        );
    }

    #[test]
    fn io_uring_matches_the_paper_aside() {
        let (_, classic) = measure(Path::LinuxKernel, 250_000);
        let (_, uring) = measure(Path::IoUring, 250_000);
        let ratio = classic / uring;
        assert!(
            (1.0..1.25).contains(&ratio),
            "similar cost expected, ratio={ratio}"
        );
    }

    #[test]
    fn se_path_slashes_host_cpu() {
        let (ach, linux) = measure(Path::LinuxKernel, 250_000);
        let (ach_se, se) = measure(Path::DpdpuSe, 250_000);
        assert!(ach > 200_000.0 && ach_se > 200_000.0);
        assert!(
            se * 10.0 < linux,
            "SE must be >10x cheaper: linux={linux} se={se}"
        );
    }
}
