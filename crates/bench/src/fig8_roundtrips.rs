//! **Figure 8 — Round trips from NIC to host saved by the SE.**
//!
//! Paper: in today's disaggregated storage a remote request enters at the
//! NIC, crosses PCIe to the host, traverses OS + storage stacks, and
//! descends again to the SSD — the DPDPU SE instead serves it right on
//! the DPU over PCIe peer-to-peer. We measure the end-to-end latency of a
//! remote 8 KB read through the full DDS server (network included) with
//! the director forced each way, and break down where the time goes.

use bytes::Bytes;
use dpdpu_dds::server::{Dds, DdsConfig};
use dpdpu_des::{block_on, now, Histogram};
use dpdpu_hw::{CpuPool, Platform};
use dpdpu_net::fabric::Endpoint;
use dpdpu_net::NetConfig;

use crate::table::Table;

const REQUESTS: usize = 200;

/// Runs both paths and renders the table.
pub(crate) fn run() -> String {
    let (host_p50, host_p99) = measure_with(false, 0);
    let (dpu_p50, dpu_p99) = measure_with(true, 0);
    let (cached_p50, cached_p99) = measure_with(true, 128);
    let mut table = Table::new(&["path", "p50_us", "p99_us"]);
    table.row(vec![
        "via host (legacy)".into(),
        format!("{:.1}", host_p50 as f64 / 1e3),
        format!("{:.1}", host_p99 as f64 / 1e3),
    ]);
    table.row(vec![
        "on DPU (DDS)".into(),
        format!("{:.1}", dpu_p50 as f64 / 1e3),
        format!("{:.1}", dpu_p99 as f64 / 1e3),
    ]);
    table.row(vec![
        "on DPU + page cache".into(),
        format!("{:.1}", cached_p50 as f64 / 1e3),
        format!("{:.1}", cached_p99 as f64 / 1e3),
    ]);
    format!(
        "## Figure 8: remote 8 KB read latency, host path vs DPU path\n\
         (paper shape: the DPU path removes the NIC->host PCIe crossing, \
         the host network/storage stacks, and the descent back to the SSD)\n\n{}\
         \nsaving at p50: {:.1} us\n",
        table.render(),
        (host_p50 as f64 - dpu_p50 as f64) / 1e3,
    )
}

/// Serves `REQUESTS` remote GetPage reads; returns (p50, p99) ns.
#[cfg(test)]
fn measure(offload: bool) -> (u64, u64) {
    measure_with(offload, 0)
}

/// As [`measure`], with a DPU page cache of `cache_pages`.
fn measure_with(offload: bool, cache_pages: usize) -> (u64, u64) {
    block_on(async move {
        let platform = Platform::default_bf2();
        let dds = Dds::build(
            platform.clone(),
            DdsConfig {
                offload_enabled: offload,
                num_pages: 256,
                dpu_cache_pages: cache_pages,
                ..DdsConfig::default()
            },
        )
        .await;
        let client_cpu = CpuPool::new("client", 8, 3_000_000_000);
        let client = dds.connect(&NetConfig::default(), &Endpoint::host(client_cpu), "client");

        // Touch one page so its image exists; requests then read clean
        // pages (DPU-servable when the director allows).
        client
            .append_log(0, 0, Bytes::from_static(b"x"))
            .await
            .expect("log append must succeed");
        // Forces replay; page 0 now clean.
        client.get_page(0).await.expect("replay must succeed");

        let lat = Histogram::new();
        for i in 0..REQUESTS {
            let page = (i % 64) as u64;
            let t = now();
            let img = client.get_page(page).await.expect("get_page must succeed");
            lat.record(now() - t);
            assert_eq!(img.len(), 8_192);
        }
        (lat.p50().unwrap(), lat.p99().unwrap())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_cuts_the_dpu_path_further() {
        let (dpu_p50, _) = measure_with(true, 0);
        let (cached_p50, _) = measure_with(true, 128);
        assert!(
            cached_p50 < dpu_p50,
            "hot working set must be served from DPU memory: {cached_p50} vs {dpu_p50}"
        );
    }

    #[test]
    fn dpu_path_is_faster_at_p50_and_p99() {
        let (host_p50, host_p99) = measure(false);
        let (dpu_p50, dpu_p99) = measure(true);
        assert!(dpu_p50 < host_p50, "p50: dpu={dpu_p50} host={host_p50}");
        assert!(dpu_p99 < host_p99, "p99: dpu={dpu_p99} host={host_p99}");
        // The saving must at least cover the host kernel network stack
        // traversal the DPU path skips.
        assert!(
            host_p50 - dpu_p50 > dpdpu_hw::costs::HOST_KERNEL_NET_NS,
            "saving too small: {}",
            host_p50 - dpu_p50
        );
    }
}
