//! A cluster scan starts its independent reads at once: the routed scan
//! asks every shard together, and each shard's KV store reads every
//! present key of the range together, so a 16-key scan costs about one
//! device read, not sixteen in turn. A storage failure on the DPU path
//! still books every read it started and falls back to the host.

use bytes::Bytes;
use dpdpu::check::CheckGuard;
use dpdpu::core::DpdpuError;
use dpdpu::dds::cluster::ClusterConfig;
use dpdpu::des::{block_on, now, sleep, Time};
use dpdpu::faults::{FaultPlan, FaultSite, SessionGuard};
use dpdpu_bench::cell::{Cell, Preload};

/// Keys preloaded and scanned.
const KEYS: u64 = 16;

/// `shards` TCP shards holding keys `0..KEYS`, preloaded and otherwise
/// idle.
fn idle_cell(shards: usize) -> Cell {
    Cell {
        cluster: ClusterConfig {
            shards,
            ..ClusterConfig::default()
        },
        pool_label: "clients".into(),
        preload: Preload {
            keys: KEYS,
            value_bytes: 256,
        },
        ..Cell::default()
    }
}

#[test]
fn a_16_key_scan_costs_about_one_get() {
    // The scan's 16 device reads overlap across the 4 shards and within
    // each; read one after another they cost about 16 gets.
    let _check = CheckGuard::new();
    let (get_ns, scan_ns, rows): (Time, Time, usize) = block_on(async {
        let (_cluster, client) = idle_cell(4).boot().await;
        // Past anything the preload left in flight.
        sleep(1_000_000).await;
        let start = now();
        assert!(client.kv_get(5).await.expect("get").is_some());
        let get_ns = now() - start;
        sleep(1_000_000).await;
        let start = now();
        let rows = client.kv_scan(0, KEYS as u32).await.expect("scan").len();
        (get_ns, now() - start, rows)
    });
    assert_eq!(rows, KEYS as usize, "the scan returns every key");
    assert!(
        scan_ns < 2 * get_ns,
        "a {KEYS}-key scan took {scan_ns} ns, one get {get_ns} ns: its reads \
         did not overlap"
    );
}

/// A scan's reply: its rows, or the error it ended with.
type Rows = Result<Vec<(u64, Bytes)>, DpdpuError>;

/// Scans keys `0..KEYS` on an idle one-shard cell, with `read_failures`
/// SSD read failures armed just before it; returns the reply, the
/// server's `[DPU-served, host-served, host fallbacks]` during the scan
/// and the read failures injected. The strict session's end-of-run
/// sweep checks that every device read was booked out of the ledger.
fn scan_with_read_failures(read_failures: u64) -> (Rows, [u64; 3], u64) {
    let check = CheckGuard::new();
    let faults = SessionGuard::new(FaultPlan::new(42));
    let session = faults.session.clone();
    let (reply, served) = block_on(async move {
        let (cluster, client) = idle_cell(1).boot().await;
        sleep(1_000_000).await;
        let server = cluster.group(0).members[0].clone();
        let tally = || {
            [
                server.served_dpu.get(),
                server.served_host.get(),
                server.host_fallbacks.get(),
            ]
        };
        let before = tally();
        session.arm_ssd_read_failures(read_failures);
        let reply = client.kv_scan(0, KEYS as u32).await;
        let after = tally();
        (reply, [0, 1, 2].map(|i| after[i] - before[i]))
    });
    drop(check);
    let injected = faults.session.report().count(FaultSite::SsdRead);
    (reply, served, injected)
}

#[test]
fn a_scan_whose_dpu_reads_fail_is_served_by_the_host() {
    // Every DPU-path read runs out its four storage attempts (16 x 4
    // failures). The scan waits for all of them, the director falls back
    // and the host re-runs the scan on a healthy device.
    let (clean, served, _) = scan_with_read_failures(0);
    let clean = clean.expect("clean scan");
    assert_eq!(clean.len(), KEYS as usize);
    assert_eq!(served, [1, 0, 0], "the clean scan is served on the DPU");
    let (faulted, served, injected) = scan_with_read_failures(4 * KEYS);
    assert_eq!(injected, 4 * KEYS, "every armed failure fired");
    assert_eq!(
        served,
        [0, 1, 1],
        "[DPU-served, host-served, host fallbacks] during the faulted scan"
    );
    assert_eq!(
        faulted.expect("faulted scan"),
        clean,
        "the host's reply equals the clean scan's"
    );
}
