//! In-storage log scanning with the RegEx DP kernel — and the DPU
//! heterogeneity story (paper challenges #3, §5).
//!
//! A log file lives on the storage server. A monitoring query counts
//! `ERROR`-class lines. With DPDPU the scan runs *where the data is*:
//! BlueField-2 has a RegEx ASIC (RXP); BlueField-3 and Intel IPU do not,
//! so the *same* code degrades to DPU cores — functionally identical,
//! just slower — instead of failing or being rewritten per vendor.
//!
//! ```sh
//! cargo run --example log_scan
//! ```

use std::rc::Rc;

use bytes::Bytes;
use dpdpu::compute::{ExecTarget, KernelError, KernelInput, KernelOp, KernelOutput, Placement};
use dpdpu::des::{block_on, now};
use dpdpu::hw::{DpuSpec, HostSpec, Platform};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const LOG_LINES: usize = 20_000;

fn main() {
    let _check = dpdpu::check::CheckGuard::new();
    let log = synth_log(LOG_LINES, 1234);
    println!(
        "log: {} lines, {} bytes; query: count /(ERROR|FATAL) [a-z_]+=\\w+/\n",
        LOG_LINES,
        log.len()
    );
    for dpu in [
        DpuSpec::bluefield2(),
        DpuSpec::bluefield3(),
        DpuSpec::intel_ipu(),
    ] {
        scan_on(dpu, log.clone());
    }
}

/// Synthesizes a plausible service log.
fn synth_log(lines: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(lines * 40);
    for ts in 0..lines {
        let line = match rng.random_range(0..100) {
            0..=2 => format!("{ts} ERROR code=e{}\n", rng.random_range(0..999)),
            3 => format!("{ts} FATAL dev=nvme{}\n", rng.random_range(0..4)),
            4..=9 => format!("{ts} WARN tmp=t{}\n", rng.random_range(0..99)),
            _ => format!("{ts} INFO ok\n"),
        };
        out.extend_from_slice(line.as_bytes());
    }
    out
}

fn scan_on(dpu: DpuSpec, log: Vec<u8>) {
    let name = dpu.name;
    block_on(async move {
        let rt = dpdpu::core::Dpdpu::start(Platform::new(HostSpec::epyc(), dpu));
        // Store the log on the server's SSD.
        let file = rt.storage.create("svc.log").await.unwrap();
        rt.storage.write(file, 0, &log).await.unwrap();

        // Scan where the data lives: read through the file service, then
        // the RegEx DP kernel — ASIC first, CPU fallback (Figure 6).
        let regex =
            Rc::new(dpdpu::kernels::regex::Regex::new(r"(ERROR|FATAL) [a-z_]+=\w+").unwrap());
        let op = KernelOp::RegexScan { regex };
        let t0 = now();
        let data = rt.storage.read(file, 0, log.len() as u64).await.unwrap();
        let input = KernelInput::Bytes(Bytes::from(data));
        let (result, device) = match rt
            .compute
            .run(&op, &input, Placement::Specified(ExecTarget::DpuAsic))
            .await
        {
            Ok(out) => (out, "RegEx ASIC"),
            Err(KernelError::TargetUnavailable(_)) => (
                rt.compute
                    .run(&op, &input, Placement::Specified(ExecTarget::DpuCpu))
                    .await
                    .unwrap(),
                "DPU cores (no RXP on this DPU)",
            ),
            Err(e) => panic!("scan failed: {e}"),
        };
        let KernelOutput::Count(matches) = result else {
            unreachable!()
        };
        println!(
            "{name:<12} {matches:>4} matches in {:>8.3} ms on {device}",
            (now() - t0) as f64 / 1e6
        );
    });
}
