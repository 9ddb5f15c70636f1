//! **Ablation A2 — specified vs scheduled DP-kernel execution (§5).**
//!
//! Specified execution gives predictable placement but pins every job to
//! the ASIC even when its queue is long; scheduled execution spills to
//! CPU cores under contention. With many concurrent small compressions,
//! the ASIC's fixed per-job latency and two hardware contexts become the
//! bottleneck — scheduled placement wins by using the whole SoC.

use bytes::Bytes;
use dpdpu_compute::{ComputeEngine, ExecTarget, KernelInput, KernelOp, Placement};
use dpdpu_des::{block_on, now};
use dpdpu_hw::Platform;

use crate::table::Table;

const JOBS: usize = 96;
const JOB_BYTES: usize = 4 * 1024;

/// Runs both policies and renders the table.
pub fn run() -> String {
    let mut table = Table::new(&[
        "placement",
        "makespan_ms",
        "asic_jobs",
        "dpu_cpu_jobs",
        "host_jobs",
    ]);
    for (name, placement) in [
        ("specified(ASIC)", Placement::Specified(ExecTarget::DpuAsic)),
        ("scheduled", Placement::Scheduled),
    ] {
        let m = measure(placement);
        table.row(vec![
            name.into(),
            format!("{:.3}", m.makespan as f64 / 1e6),
            format!("{}", m.asic),
            format!("{}", m.dpu),
            format!("{}", m.host),
        ]);
    }
    format!(
        "## Ablation A2: specified vs scheduled execution, {JOBS} concurrent {JOB_BYTES}-byte compressions\n\
         (expected: pinning everything to the ASIC queues behind its two \
         contexts; scheduling spreads small jobs across CPUs too)\n\n{}",
        table.render()
    )
}

struct Measurement {
    makespan: u64,
    asic: u64,
    dpu: u64,
    host: u64,
}

fn measure(placement: Placement) -> Measurement {
    block_on(async move {
        let ce = ComputeEngine::new(Platform::default_bf2());
        let data = Bytes::from(dpdpu_kernels::text::natural_text(JOB_BYTES, 3));
        let mut handles = Vec::new();
        for _ in 0..JOBS {
            let ce = ce.clone();
            let input = KernelInput::Bytes(data.clone());
            handles.push(dpdpu_des::spawn(async move {
                ce.run(&KernelOp::Compress, &input, placement)
                    .await
                    .unwrap();
            }));
        }
        dpdpu_des::join_all(handles).await;
        Measurement {
            makespan: now(),
            asic: ce.asic_jobs.get(),
            dpu: ce.dpu_jobs.get(),
            host: ce.host_jobs.get(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_beats_pinned_under_contention() {
        let pinned = measure(Placement::Specified(ExecTarget::DpuAsic));
        let scheduled = measure(Placement::Scheduled);
        assert_eq!(pinned.asic, JOBS as u64);
        assert!(
            scheduled.dpu + scheduled.host > 0,
            "scheduler should spill some jobs off the ASIC"
        );
        assert!(
            scheduled.makespan < pinned.makespan,
            "scheduled {} must beat pinned {}",
            scheduled.makespan,
            pinned.makespan
        );
    }
}
