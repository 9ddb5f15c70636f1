//! **Figure 9 / §9 — DDS saves host CPU cores.**
//!
//! Paper: DDS integrated with FASTER and Azure SQL Hyperscale "can save
//! up to 10s of CPU cores per storage server". We run the mini-FASTER
//! workload through the full server at a fixed offered rate, sweep the
//! fraction of requests the offload engine can take (by shrinking the
//! DPU-resident index), and report host cores with and without DDS —
//! then scale the per-request saving to a production request rate to
//! recover the paper's headline.

use dpdpu_dds::kv::INDEX_ENTRY_BYTES;
use dpdpu_dds::server::{Dds, DdsConfig};
use dpdpu_des::{block_on, now};
use dpdpu_hw::{CpuPool, Platform};
use dpdpu_net::fabric::Endpoint;
use dpdpu_net::NetConfig;

use crate::fleet::{preload_keys, xorshift_keys};
use crate::table::Table;

const KEYS: u64 = 128;
const GETS: u64 = 1_024;
const VALUE: usize = 512;

/// Runs the sweep and renders the table.
pub fn run() -> String {
    let mut table = Table::new(&[
        "dpu_index_coverage",
        "offload_fraction",
        "host_cores",
        "host_cyc_per_req",
    ]);
    let mut baseline_cyc = 0.0;
    let mut best_cyc = f64::MAX;
    for coverage_pct in [0u64, 25, 50, 75, 100] {
        let budget = KEYS * coverage_pct / 100 * INDEX_ENTRY_BYTES;
        let m = measure(coverage_pct > 0, budget);
        if coverage_pct == 0 {
            baseline_cyc = m.cyc_per_req;
        }
        best_cyc = best_cyc.min(m.cyc_per_req);
        table.row(vec![
            format!("{coverage_pct}%"),
            format!("{:.2}", m.offload_fraction),
            format!("{:.3}", m.host_cores),
            format!("{:.0}", m.cyc_per_req),
        ]);
    }
    // Scale to a production storage server: FASTER-class KV servers
    // sustain several million ops/sec per box.
    let rate: f64 = 5_000_000.0;
    let saved_cores = (baseline_cyc - best_cyc) * rate / 3.0e9;
    format!(
        "## Figure 9 / §9: DDS host-CPU savings (mini-FASTER read workload)\n\
         (paper shape: host cost falls as the offload fraction rises; at \
         production rates the saving is 10s of cores)\n\n{}\
         \nper-request saving x {:.0}M req/s / 3 GHz => {:.0} host cores saved\n",
        table.render(),
        rate / 1e6,
        saved_cores,
    )
}

/// Runs a short traced demo of the full DDS pipeline — client over
/// offloaded TCP, DDS server routing, DPU file service + SSD, and a
/// Compute-Engine compression of every fetched value — with a telemetry
/// session installed, writes the Chrome trace to `path`, and returns the
/// plain-text summary table.
pub fn run_traced(path: &std::path::Path) -> std::io::Result<String> {
    use dpdpu_compute::{ComputeEngine, KernelInput, KernelOp, Placement};
    use dpdpu_telemetry::Telemetry;

    let t = Telemetry::install();
    let session = t.clone();
    block_on(async move {
        let platform = Platform::default_bf2();
        platform.register_telemetry(&session);
        let sampler = dpdpu_telemetry::start_sampler(50_000); // 50 µs ticks
        let dds = Dds::build(platform.clone(), DdsConfig::default()).await;
        let ce = ComputeEngine::new(platform.clone());
        let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
        let client = dds.connect(&NetConfig::default(), &Endpoint::host(client_cpu), "client");

        preload_keys(0..32, VALUE, |k, v| client.kv_put(k, v)).await;
        for i in 0..96u64 {
            let value = client
                .kv_get(i % 32)
                .await
                .expect("get must succeed")
                .expect("loaded key");
            ce.run(
                &KernelOp::Compress,
                &KernelInput::Bytes(value),
                Placement::Scheduled,
            )
            .await
            .expect("compress kernel cannot fail");
        }
        sampler.stop();
    });
    t.write_chrome_trace(path)?;
    Ok(t.summary())
}

struct Measurement {
    offload_fraction: f64,
    host_cores: f64,
    cyc_per_req: f64,
}

fn measure(offload: bool, kv_index_budget: u64) -> Measurement {
    block_on(async move {
        let platform = Platform::default_bf2();
        let dds = Dds::build(
            platform.clone(),
            DdsConfig {
                offload_enabled: offload,
                kv_index_budget: kv_index_budget.max(1),
                ..DdsConfig::default()
            },
        )
        .await;
        let client_cpu = CpuPool::new("client", 16, 3_000_000_000);
        let client = dds.connect(&NetConfig::default(), &Endpoint::host(client_cpu), "client");

        preload_keys(0..KEYS, VALUE, |k, v| client.kv_put(k, v)).await;
        platform.host_cpu.reset_stats();
        dds.served_dpu.reset();
        dds.served_host.reset();
        let t0 = now();
        for key in xorshift_keys(KEYS).take(GETS as usize) {
            client
                .kv_get(key)
                .await
                .expect("get must succeed")
                .expect("loaded key");
        }
        let elapsed = (now() - t0).max(1);
        let frac =
            dds.served_dpu.get() as f64 / (dds.served_dpu.get() + dds.served_host.get()) as f64;
        Measurement {
            offload_fraction: frac,
            host_cores: platform.host_cpu.cores_consumed(elapsed),
            cyc_per_req: platform.host_cpu.busy_ns() as f64 * 3.0 / GETS as f64,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cost_falls_with_offload_fraction() {
        let none = measure(false, 1);
        let half = measure(true, KEYS / 2 * INDEX_ENTRY_BYTES);
        let full = measure(true, KEYS * INDEX_ENTRY_BYTES);
        assert!(none.offload_fraction == 0.0);
        assert!(
            (0.3..0.7).contains(&half.offload_fraction),
            "{}",
            half.offload_fraction
        );
        assert!(full.offload_fraction > 0.95, "{}", full.offload_fraction);
        assert!(half.cyc_per_req < none.cyc_per_req);
        assert!(full.cyc_per_req < half.cyc_per_req);
    }

    #[test]
    fn traced_run_exports_valid_chrome_trace() {
        use dpdpu_telemetry::json::Json;

        let path =
            std::env::temp_dir().join(format!("dpdpu-fig9-trace-test-{}.json", std::process::id()));
        let summary = run_traced(&path).expect("trace export must succeed");
        let text = std::fs::read_to_string(&path).expect("trace file must exist");
        let _ = std::fs::remove_file(&path);

        assert!(
            summary.contains("-- spans --"),
            "summary must render span table"
        );

        let doc = Json::parse(&text).expect("chrome trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array is required");
        assert!(!events.is_empty());
        for e in events {
            let ph = e
                .get("ph")
                .and_then(Json::as_str)
                .expect("every event has ph");
            assert!(e.get("name").and_then(Json::as_str).is_some());
            assert!(e.get("pid").and_then(Json::as_f64).is_some());
            if ph == "X" {
                assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
            }
        }

        // Spans from at least three engines: the Compute Engine
        // ("kernel:*"), DDS + Storage Engine ("req:*", file-service
        // reads), and the Network Engine's app boundary.
        let span_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .filter_map(|e| e.get("name").unwrap().as_str())
            .collect();
        assert!(
            span_names.iter().any(|n| n.starts_with("kernel:")),
            "Compute Engine spans missing"
        );
        assert!(
            span_names.iter().any(|n| n.starts_with("req:")),
            "DDS server spans missing"
        );
        assert!(
            span_names
                .iter()
                .any(|n| *n == "send_msg" || *n == "deliver_msg"),
            "Network Engine spans missing"
        );
        assert!(
            span_names.iter().any(|n| *n == "serve" || *n == "wait"),
            "DES server probe spans missing"
        );

        // Utilization counter tracks from the sampler, with real signal.
        let mut saw_busy_util = false;
        let mut saw_queue = false;
        for e in events {
            if e.get("ph").unwrap().as_str() != Some("C") {
                continue;
            }
            let name = e.get("name").unwrap().as_str().unwrap();
            let value = e
                .get("args")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64)
                .unwrap();
            if name.starts_with("util:") && value > 0.0 {
                saw_busy_util = true;
            }
            if name.starts_with("queue:") {
                saw_queue = true;
            }
        }
        assert!(
            saw_busy_util,
            "utilization counter tracks missing or all-zero"
        );
        assert!(saw_queue, "queue-depth counter tracks missing");
    }

    #[test]
    fn full_offload_saves_an_order_of_magnitude() {
        let none = measure(false, 1);
        let full = measure(true, KEYS * INDEX_ENTRY_BYTES);
        assert!(
            full.cyc_per_req * 5.0 < none.cyc_per_req,
            "baseline={} offloaded={}",
            none.cyc_per_req,
            full.cyc_per_req
        );
    }
}
