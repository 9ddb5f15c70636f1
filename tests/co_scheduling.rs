//! §5's hardest open challenge, exercised end to end: co-scheduling
//! sprocs (on DPU/host cores via the iPipe-style [`Scheduler`]) together
//! with DP kernels (on the compression ASIC via [`AccelShares`]) for two
//! tenants with different SLOs, all on one BlueField-2.
//!
//! [`Scheduler`]: dpdpu::compute::Scheduler
//! [`AccelShares`]: dpdpu::compute::AccelShares

use std::rc::Rc;

use dpdpu::compute::{AccelShares, SchedPolicy, Scheduler, SprocSpec};
use dpdpu::des::{block_on, now, spawn, Histogram};
use dpdpu::hw::{AccelKind, Platform};

/// Tenant 0: latency-sensitive point lookups — small sprocs plus small
/// compression jobs. Tenant 1: a batch pipeline — heavy sprocs plus
/// megabyte compressions. Both schedulers give tenant 0 equal shares;
/// its latency must stay bounded while tenant 1 saturates everything.
#[test]
fn two_tenants_share_cores_and_asic() {
    block_on(async move {
        let p = Platform::default_bf2();
        let sched = Scheduler::new(
            p.dpu_cpu.clone(),
            p.host_cpu.clone(),
            SchedPolicy::Drr {
                quantum_cycles: 50_000,
            },
            vec![1, 1],
        );
        let accel = p.accel(AccelKind::Compression).expect("BF-2 engine");
        let shares = AccelShares::new(accel, vec![1, 1], 64 * 1024);

        let mut handles = Vec::new();
        // Tenant 1 floods both resources.
        for _ in 0..32 {
            let rx = sched.submit(SprocSpec {
                tenant: 1,
                cycles: 1_000_000,
            });
            handles.push(spawn(async move {
                let _ = rx.await;
            }));
            let rx = shares.submit(1, 1 << 20);
            handles.push(spawn(async move {
                let _ = rx.await;
            }));
        }
        // Tenant 0 issues interactive requests: a small sproc whose
        // result feeds a small compression (a composed pipeline).
        let lat = Rc::new(Histogram::new());
        for _ in 0..24 {
            dpdpu::des::sleep(100_000).await;
            let t0 = now();
            let sproc = sched.submit(SprocSpec {
                tenant: 0,
                cycles: 20_000,
            });
            let sched2 = shares.clone();
            let lat = lat.clone();
            handles.push(spawn(async move {
                sproc.await.expect("scheduler alive");
                sched2.submit(0, 32 * 1024).await.expect("shares alive");
                lat.record(now() - t0);
            }));
        }
        dpdpu::des::join_all(handles).await;

        let p99 = lat.p99().expect("interactive requests measured");
        // Without isolation, tenant 0 would wait behind ~32 MB of ASIC work
        // (~60 ms) and 32 ms of sproc work. With equal shares its p99 must
        // stay in the low single-digit milliseconds.
        assert!(
            p99 < 5_000_000,
            "interactive p99 must be bounded under batch flood: {p99}ns"
        );
        // The batch tenant still made full progress.
        assert_eq!(shares.bytes_by_tenant()[1], 32 << 20);
    });
}

/// Static partitioning (the strawman the paper rejects in challenge #2)
/// vs shared scheduling: pinning each tenant to half the DPU cores wastes
/// capacity when load is asymmetric.
#[test]
fn shared_scheduling_beats_static_partition_under_asymmetry() {
    // Asymmetric load: only tenant 1 has work.
    let run = |static_partition: bool| -> u64 {
        block_on(async move {
            let p = Platform::default_bf2();
            // Static partition: tenant 1 may use only half the DPU cores.
            let dpu = if static_partition {
                dpdpu::hw::CpuPool::new("dpu-half", 4, 2_500_000_000)
            } else {
                p.dpu_cpu.clone()
            };
            let sched = Scheduler::new(
                dpu,
                // No host migration: isolate the core-count effect.
                p.host_cpu.clone(),
                SchedPolicy::DpuOnly,
                vec![1, 1],
            );
            let mut handles = Vec::new();
            for _ in 0..64 {
                let rx = sched.submit(SprocSpec {
                    tenant: 1,
                    cycles: 2_500_000,
                });
                handles.push(spawn(async move {
                    let _ = rx.await;
                }));
            }
            dpdpu::des::join_all(handles).await;
            now()
        })
    };
    let partitioned = run(true);
    let shared = run(false);
    assert!(
        shared * 3 < partitioned * 2,
        "8 shared cores must beat 4 pinned ones: shared={shared} partitioned={partitioned}"
    );
}
