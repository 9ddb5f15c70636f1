//! **Figure 1 — Compression performance on different hardware.**
//!
//! Paper: DEFLATE over natural-language datasets of growing size on an
//! AMD EPYC CPU, an Arm CPU, and the BlueField-2 compression ASIC.
//! Reported shape: both CPUs suffer "high and growing latency"; EPYC
//! beats Arm; the ASIC "outperforms CPUs by an order of magnitude".
//!
//! We sweep the dataset size and time each device. Latency here is the
//! device-model service time (the kernel's functional output is validated
//! throughout the test suite; at 256 MB only the timing matters, so the
//! harness charges the calibrated costs without re-running LZ77 at every
//! point).

use dpdpu_des::{block_on, now};
use dpdpu_hw::{AccelKind, CpuPool, DpuSpec, HostSpec, Platform};

use crate::table::Table;

const MB: u64 = 1_000_000;

/// Runs the sweep and renders the table.
pub(crate) fn run() -> String {
    let sizes = [MB, 4 * MB, 16 * MB, 64 * MB, 256 * MB];
    let mut table = Table::new(&[
        "size_mb",
        "epyc_ms",
        "arm_ms",
        "bf2_asic_ms",
        "asic_speedup_vs_epyc",
    ]);

    for &size in &sizes {
        let epyc = time_cpu(HostSpec::epyc(), size);
        let arm = time_cpu(HostSpec::arm_server(), size);
        let asic = time_asic(size);
        table.row(vec![
            format!("{}", size / MB),
            format!("{:.1}", epyc as f64 / 1e6),
            format!("{:.1}", arm as f64 / 1e6),
            format!("{:.1}", asic as f64 / 1e6),
            format!("{:.1}x", epyc as f64 / asic as f64),
        ]);
    }

    format!(
        "## Figure 1: DEFLATE latency vs dataset size per device\n\
         (paper shape: latency grows with size on both CPUs; EPYC < Arm; \
         ASIC ~10x faster than EPYC)\n\n{}",
        table.render()
    )
}

/// Times single-threaded software DEFLATE on one core of `host`.
fn time_cpu(host: HostSpec, bytes: u64) -> u64 {
    let cycles_per_byte = if host.name == "EPYC" {
        dpdpu_hw::costs::DEFLATE_CYCLES_PER_BYTE_X86
    } else {
        dpdpu_hw::costs::DEFLATE_CYCLES_PER_BYTE_ARM
    };
    block_on(async move {
        let cpu = CpuPool::new(host.name, 1, host.clock_hz);
        cpu.exec(bytes * cycles_per_byte).await;
        now()
    })
}

/// Times the BF-2 compression engine (streaming in 1 MB jobs through its
/// hardware contexts, as the DOCA API would).
fn time_asic(bytes: u64) -> u64 {
    block_on(async move {
        let p = Platform::new(HostSpec::epyc(), DpuSpec::bluefield2());
        let accel = p
            .accel(AccelKind::Compression)
            .expect("BF-2 compression engine");
        let mut handles = Vec::new();
        let jobs = bytes.div_ceil(MB);
        for i in 0..jobs {
            let accel = accel.clone();
            let job = if i == jobs - 1 {
                bytes - (jobs - 1) * MB
            } else {
                MB
            };
            handles.push(dpdpu_des::spawn(async move { accel.process(job).await }));
        }
        dpdpu_des::join_all(handles).await;
        now()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_figure1() {
        // EPYC faster than Arm; ASIC ~10x faster than EPYC; latency grows
        // with size on every device.
        let sizes = [MB, 16 * MB];
        let mut prev = (0, 0, 0);
        for &s in &sizes {
            let epyc = time_cpu(HostSpec::epyc(), s);
            let arm = time_cpu(HostSpec::arm_server(), s);
            let asic = time_asic(s);
            assert!(epyc < arm, "EPYC must beat Arm");
            let speedup = epyc as f64 / asic as f64;
            assert!((8.0..14.0).contains(&speedup), "speedup={speedup}");
            assert!(epyc > prev.0 && arm > prev.1 && asic > prev.2);
            prev = (epyc, arm, asic);
        }
    }

    #[test]
    fn renders_all_rows() {
        let out = run();
        let speedup_rows = out.lines().filter(|l| l.trim_end().ends_with('x')).count();
        assert_eq!(speedup_rows, 5, "five speedup rows in:\n{out}");
    }
}
