//! A cluster scan starts its independent reads at once: the routed scan
//! asks every shard together, and each shard's KV store reads the
//! present keys of the range with one read per group of records that
//! share a device block, all groups together. So a 16-key scan takes
//! about as long as one get, and 16 small records in one block cost one
//! device read. A storage failure on the DPU path still books every
//! read it started and falls back to the host.

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
    // The scan's reads overlap across the 4 shards and within each; 16
    // reads one after another cost about 16 gets.
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

#[test]
fn a_scan_reads_each_block_once() {
    // 16 records of 12 + 200 bytes fill one 4 KiB block of the shard's
    // log: the scan reads it once, not once per record.
    let _check = CheckGuard::new();
    let (reads, rows) = block_on(async {
        let cell = Cell {
            preload: Preload::default(),
            ..idle_cell(1)
        };
        let (cluster, client) = cell.boot().await;
        for key in 0..KEYS {
            let value = Bytes::from(vec![key as u8; 200]);
            client.kv_put(key, value).await.expect("put");
        }
        sleep(1_000_000).await;
        let ssd = cluster.group(0).members[0].platform().ssd.clone();
        let before = ssd.reads.get();
        let rows = client.kv_scan(0, KEYS as u32).await.expect("scan");
        (ssd.reads.get() - before, rows)
    });
    assert_eq!(rows.len(), KEYS as usize, "the scan returns every key");
    assert!(rows.iter().all(|(k, v)| v[..] == [*k as u8; 200]));
    assert_eq!(reads, 1, "device reads for a one-block scan");
}

/// A scan's reply: its rows, or the error it ended with.
type Rows = Result<Vec<(u64, Bytes)>, DpdpuError>;

/// Scans keys `0..KEYS` on an idle one-shard cell, with `read_failures`
/// SSD read failures armed just before it; returns the reply, the
/// server's `[DPU-served, host-served, host fallbacks]` during the scan,
/// the device reads that succeeded during it and the read failures
/// injected. The strict session's end-of-run sweep checks that every
/// device read was booked out of the ledger.
fn scan_with_read_failures(read_failures: u64) -> (Rows, [u64; 3], u64, u64) {
    let check = CheckGuard::new();
    let faults = SessionGuard::new(FaultPlan::new(42));
    let session = faults.session.clone();
    let (reply, served, reads) = block_on(async move {
        let (cluster, client) = idle_cell(1).boot().await;
        sleep(1_000_000).await;
        let server = cluster.group(0).members[0].clone();
        let tally = || {
            [
                server.served_dpu.get(),
                server.served_host.get(),
                server.host_fallbacks.get(),
                server.platform().ssd.reads.get(),
            ]
        };
        let before = tally();
        session.arm(FaultSite::SsdRead, 0, read_failures);
        let reply = client.kv_scan(0, KEYS as u32).await;
        let after = tally();
        let [dpu, host, fallbacks, reads] = [0, 1, 2, 3].map(|i| after[i] - before[i]);
        (reply, [dpu, host, fallbacks], reads)
    });
    drop(check);
    let injected = faults.session.report().count(FaultSite::SsdRead);
    (reply, served, reads, injected)
}

#[test]
fn a_scan_whose_dpu_reads_fail_is_served_by_the_host() {
    // Every DPU-path device read runs out its four storage attempts (4
    // failures per read the clean scan issues). The scan waits for all
    // of them, the director falls back and the host re-runs the scan on
    // a healthy device.
    let (clean, served, reads, _) = scan_with_read_failures(0);
    let clean = clean.expect("clean scan");
    assert_eq!(clean.len(), KEYS as usize);
    assert_eq!(served, [1, 0, 0], "the clean scan is served on the DPU");
    let (faulted, served, _, injected) = scan_with_read_failures(4 * reads);
    assert_eq!(injected, 4 * reads, "every armed failure fired");
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
