//! **Ablation A1 — sproc scheduling disciplines (§5 open challenge).**
//!
//! iPipe's observation, reproduced: with mixed low-variance (small) and
//! high-variance (heavy-tailed) sprocs sharing DPU cores, FCFS lets
//! elephants trample mice; DRR bounds the damage; never migrating to the
//! host caps throughput.

use std::rc::Rc;

use dpdpu_compute::{SchedPolicy, Scheduler, SprocSpec};
use dpdpu_des::{block_on, now, Histogram};
use dpdpu_hw::CpuPool;

use crate::table::Table;

const SMALL_CYCLES: u64 = 10_000; // 4 µs on a DPU core
const BIG_CYCLES: u64 = 2_500_000; // 1 ms on a DPU core
const SMALL_JOBS: usize = 400;
const BIG_JOBS: usize = 40;

/// Runs all three policies and renders the table.
pub fn run() -> String {
    let mut table = Table::new(&[
        "policy",
        "small_p50_us",
        "small_p99_us",
        "makespan_ms",
        "migrated_to_host",
    ]);
    for (name, policy) in [
        ("FCFS", SchedPolicy::Fcfs),
        (
            "DRR",
            SchedPolicy::Drr {
                quantum_cycles: 50_000,
            },
        ),
        ("DPU-only", SchedPolicy::DpuOnly),
    ] {
        let m = measure(policy);
        table.row(vec![
            name.into(),
            format!("{:.1}", m.small_p50 as f64 / 1e3),
            format!("{:.1}", m.small_p99 as f64 / 1e3),
            format!("{:.2}", m.makespan as f64 / 1e6),
            format!("{}", m.migrated),
        ]);
    }
    format!(
        "## Ablation A1: scheduling mixed sprocs across DPU and host cores\n\
         (expected: DRR protects small-sproc latency; FCFS lets heavy \
         sprocs inflate it; DPU-only inflates the makespan)\n\n{}",
        table.render()
    )
}

struct Measurement {
    small_p50: u64,
    small_p99: u64,
    makespan: u64,
    migrated: u64,
}

fn measure(policy: SchedPolicy) -> Measurement {
    block_on(async move {
        let dpu = CpuPool::new("dpu", 8, 2_500_000_000);
        let host = CpuPool::new("host", 32, 3_000_000_000);
        // Tenant 0 = small sprocs, tenant 1 = heavy sprocs.
        let sched = Scheduler::new(dpu, host, policy, vec![1, 1]);
        let lat = Rc::new(Histogram::new());
        let mut handles = Vec::new();
        // Interleave arrivals: a burst of bigs up front, smalls trickling.
        for _ in 0..BIG_JOBS {
            let rx = sched.submit(SprocSpec {
                tenant: 1,
                cycles: BIG_CYCLES,
            });
            handles.push(dpdpu_des::spawn(async move {
                let _ = rx.await;
            }));
        }
        for _ in 0..SMALL_JOBS {
            let submitted = now();
            let rx = sched.submit(SprocSpec {
                tenant: 0,
                cycles: SMALL_CYCLES,
            });
            let lat = lat.clone();
            handles.push(dpdpu_des::spawn(async move {
                let done = rx.await.expect("scheduler alive");
                lat.record(done.finished_at - submitted);
            }));
        }
        dpdpu_des::join_all(handles).await;
        Measurement {
            small_p50: lat.p50().unwrap(),
            small_p99: lat.p99().unwrap(),
            makespan: now(),
            migrated: sched.on_host.get(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drr_protects_small_sprocs() {
        let fcfs = measure(SchedPolicy::Fcfs);
        let drr = measure(SchedPolicy::Drr {
            quantum_cycles: 50_000,
        });
        assert!(
            drr.small_p99 < fcfs.small_p99,
            "DRR p99 {} must beat FCFS p99 {}",
            drr.small_p99,
            fcfs.small_p99
        );
    }

    #[test]
    fn dpu_only_inflates_makespan() {
        let fcfs = measure(SchedPolicy::Fcfs);
        let pinned = measure(SchedPolicy::DpuOnly);
        assert_eq!(pinned.migrated, 0);
        assert!(fcfs.migrated > 0, "overload must trigger migration");
        assert!(
            pinned.makespan > fcfs.makespan,
            "no-migration makespan {} must exceed FCFS {}",
            pinned.makespan,
            fcfs.makespan
        );
    }
}
