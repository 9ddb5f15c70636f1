//! Fault-injection integration tests: the robustness machinery — seeded
//! fault plans, file-service retries, CPU-kernel fallback under an
//! accelerator outage, and bit-for-bit determinism — exercised end to
//! end through the public `dpdpu` facade, each plan installed by the one
//! way there is: a `SessionGuard` around the run.

use dpdpu::check::CheckGuard;
use dpdpu::core::Dpdpu;
use dpdpu::des::{block_on, now};
use dpdpu::faults::{FaultPlan, FaultSession, FaultSite, SessionGuard};
use dpdpu::hw::{CpuPool, LinkConfig};
use dpdpu::net::fabric::Endpoint;
use dpdpu::net::tcp::TcpConnector;

#[test]
fn injected_ssd_read_error_is_retried_and_succeeds() {
    let guard = SessionGuard::new(FaultPlan::new(5));
    let faults = guard.session.clone();
    let _check = CheckGuard::new();
    block_on(async move {
        let rt = Dpdpu::start_default();
        let file = rt.storage.create("t").await.unwrap();
        rt.storage.write(file, 0, b"payload").await.unwrap();
        // Two transient device errors: both absorbed by the file
        // service's exponential-backoff retries, invisible to the API.
        faults.arm(FaultSite::SsdRead, 0, 2);
        let back = rt.storage.read(file, 0, 7).await.unwrap();
        assert_eq!(back, b"payload");
        assert!(
            rt.storage.retries.get() >= 2,
            "file service must have retried, saw {}",
            rt.storage.retries.get()
        );
        assert_eq!(faults.injected(FaultSite::SsdRead), 2);
    });
}

#[test]
fn accel_offline_run_completes_via_cpu_fallback() {
    // The compression ASIC is offline for the whole run: scheduled
    // kernels must silently fall back to cores (Figure 6 semantics).
    let _guard = SessionGuard::new(FaultPlan::new(6).accel_offline(0, u64::MAX));
    let _check = CheckGuard::new();
    block_on(async move {
        let rt = Dpdpu::start_default();
        let file = rt.storage.create("pages").await.unwrap();
        let text = dpdpu::kernels::text::natural_text(4 * 8_192, 3);
        rt.storage.write(file, 0, &text).await.unwrap();

        let client = Endpoint::host(CpuPool::new("client", 8, 3_000_000_000));
        let (tx, mut rx) = TcpConnector::new(LinkConfig::rack_100g())
            .stream(Endpoint::dpu_native(&rt.platform), client);
        let pages: Vec<(u64, u64)> = (0..4).map(|i| (i * 8_192, 8_192)).collect();
        let (input, compressed) = rt.read_compress_send(file, &pages, &tx).await.unwrap();
        assert_eq!(input, 4 * 8_192);
        assert!(compressed < input, "natural text must compress");
        drop(tx);
        let mut total = 0u64;
        while let Some(msg) = rx.recv().await {
            total += msg.len() as u64;
        }
        assert_eq!(total, compressed, "client must receive every page");
        // The ASIC did nothing; cores carried the kernels.
        let accel = rt
            .platform
            .accel(dpdpu::hw::AccelKind::Compression)
            .expect("BF-2 has a compression engine");
        assert_eq!(accel.completed(), 0, "offline ASIC must not complete jobs");
        assert_eq!(rt.compute.asic_jobs.get(), 0);
        assert_eq!(rt.compute.dpu_jobs.get() + rt.compute.host_jobs.get(), 4);
    });
}

#[test]
fn same_seed_and_plan_reproduce_identical_runs() {
    let run = || {
        let guard = SessionGuard::new(
            FaultPlan::new(9)
                .ssd_read_errors(0.3)
                .ssd_slow_io(0.2, 50_000),
        );
        let _check = CheckGuard::new();
        let (end, errors) = block_on(async move {
            let mut errors = 0u64;
            let rt = Dpdpu::start_default();
            let file = rt.storage.create("d").await.unwrap();
            rt.storage
                .write(file, 0, &vec![7u8; 64 * 1_024])
                .await
                .unwrap();
            for i in 0..64u64 {
                // A 30% per-I/O error rate occasionally defeats even the
                // retry budget; both outcomes must replay identically.
                if rt.storage.read(file, i * 1_024, 1_024).await.is_err() {
                    errors += 1;
                }
            }
            (now(), errors)
        });
        let report = guard.session.report();
        (end, format!("{report}"), report.total(), errors)
    };
    let (end_a, report_a, total_a, errors_a) = run();
    let (end_b, report_b, total_b, errors_b) = run();
    assert!(total_a > 0, "the plan must have injected faults");
    assert_eq!(end_a, end_b, "virtual end time must be bit-identical");
    assert_eq!(report_a, report_b, "fault reports must render identically");
    assert_eq!(total_a, total_b);
    assert_eq!(errors_a, errors_b);
}

#[test]
fn runtime_without_plan_injects_nothing() {
    let _check = CheckGuard::new();
    block_on(async {
        let rt = Dpdpu::start_default();
        assert!(!FaultSession::is_active());
        let file = rt.storage.create("clean").await.unwrap();
        rt.storage.write(file, 0, b"abc").await.unwrap();
        assert_eq!(rt.storage.read(file, 0, 3).await.unwrap(), b"abc");
        assert_eq!(rt.storage.retries.get(), 0, "no faults, no retries");
    });
}
