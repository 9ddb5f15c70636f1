//! **Ablation A3 — sizing caches on the DPU vs the host (§9 next steps).**
//!
//! "Caching in host memory is most efficient for host applications, while
//! caching in DPU memory works better for remote requests that can be
//! offloaded." Fixed total cache budget, swept split, mixed workload:
//! remote requests served on the DPU and local host-application reads.
//! The best split tracks the workload mix.

use dpdpu_des::{block_on, now, Histogram};
use dpdpu_hw::Platform;
use dpdpu_storage::{BlockDevice, CachedFileService, ExtentFs, FileService, PageCache};

use crate::table::Table;

const PAGE: u64 = 8_192;
const TOTAL_CACHE_PAGES: usize = 64;
const HOT_PAGES: u64 = 96; // working set > any single cache slice
const REQUESTS: usize = 1_200;

/// Runs the split sweep at a balanced workload mix and renders it.
pub fn run() -> String {
    let mut table = Table::new(&[
        "dpu_cache_pages",
        "host_cache_pages",
        "remote_p50_us",
        "local_p50_us",
        "mean_us",
    ]);
    for dpu_share in [0usize, 16, 32, 48, 64] {
        let m = measure(dpu_share, 0.5);
        table.row(vec![
            format!("{dpu_share}"),
            format!("{}", TOTAL_CACHE_PAGES - dpu_share),
            format!("{:.1}", m.remote_p50 as f64 / 1e3),
            format!("{:.1}", m.local_p50 as f64 / 1e3),
            format!("{:.1}", m.mean as f64 / 1e3),
        ]);
    }
    format!(
        "## Ablation A3: splitting one cache budget between DPU and host memory\n\
         (expected: all-host starves remote requests, all-DPU starves local \
         apps; a workload-matched split minimises mean latency)\n\n{}",
        table.render()
    )
}

struct Measurement {
    remote_p50: u64,
    local_p50: u64,
    mean: u64,
}

/// `remote_fraction` of requests are remote (DPU-side); the rest are
/// local host-application reads.
fn measure(dpu_cache_pages: usize, remote_fraction: f64) -> Measurement {
    block_on(async move {
        let p = Platform::default_bf2();
        let fs = ExtentFs::format(BlockDevice::new(p.ssd.clone(), 1 << 20));
        let service = FileService::new(fs, p.dpu_cpu.clone(), p.dpu_ssd_pcie.clone());
        let file = service.create("data").await.unwrap();
        service
            .write(file, HOT_PAGES * PAGE - 1, &[0])
            .await
            .unwrap();

        let dpu_cache = PageCache::new(&p.dpu_mem, dpu_cache_pages, PAGE).unwrap();
        let host_cache =
            PageCache::new(&p.host_mem, TOTAL_CACHE_PAGES - dpu_cache_pages, PAGE).unwrap();
        // Remote requests hit the DPU-side cached service; local app reads
        // hit a host-side cached view (which still pays PCIe to the DPU
        // service on a miss).
        let remote_view = CachedFileService::new(service.clone(), dpu_cache, p.dpu_cpu.clone());
        let local_view = CachedFileService::new(service.clone(), host_cache, p.host_cpu.clone());

        let remote_lat = Histogram::new();
        let local_lat = Histogram::new();
        let all = Histogram::new();
        let mut x = 0xABCDEFu64;
        for _ in 0..REQUESTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = x % HOT_PAGES;
            let remote = (x >> 32) as f64 / u32::MAX as f64 % 1.0 < remote_fraction;
            let t = now();
            if remote {
                remote_view.read_page(file, page * PAGE).await.unwrap();
            } else {
                // Local app read crosses host->DPU PCIe on a miss; the
                // host-side cache sits in front of that hop.
                if let Some(_hit) = local_view
                    .cache()
                    .get(dpdpu_storage::FileId(file.0), page * PAGE)
                {
                    p.host_cpu.exec(400).await;
                } else {
                    p.host_dpu_pcie.dma(PAGE).await;
                    let data = service.read(file, page * PAGE, PAGE).await.unwrap();
                    local_view
                        .cache()
                        .put(dpdpu_storage::FileId(file.0), page * PAGE, data);
                }
            }
            let d = now() - t;
            all.record(d);
            if remote {
                remote_lat.record(d);
            } else {
                local_lat.record(d);
            }
        }
        Measurement {
            remote_p50: remote_lat.p50().unwrap_or(0),
            local_p50: local_lat.p50().unwrap_or(0),
            mean: all.mean() as u64,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_side_benefits_from_its_own_cache() {
        let all_host = measure(0, 0.5);
        let all_dpu = measure(TOTAL_CACHE_PAGES, 0.5);
        assert!(
            all_dpu.remote_p50 < all_host.remote_p50,
            "DPU cache must help remote reads: {} vs {}",
            all_dpu.remote_p50,
            all_host.remote_p50
        );
        assert!(
            all_host.local_p50 < all_dpu.local_p50,
            "host cache must help local reads: {} vs {}",
            all_host.local_p50,
            all_dpu.local_p50
        );
    }

    #[test]
    fn balanced_split_beats_extremes_on_mean() {
        let all_host = measure(0, 0.5);
        let split = measure(TOTAL_CACHE_PAGES / 2, 0.5);
        let all_dpu = measure(TOTAL_CACHE_PAGES, 0.5);
        assert!(
            split.mean <= all_host.mean.max(all_dpu.mean),
            "split {} should not lose to the worse extreme ({} / {})",
            split.mean,
            all_host.mean,
            all_dpu.mean
        );
    }
}
