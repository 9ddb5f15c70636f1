//! Figure 6, executable: the `read_compress_send_pages` sproc.
//!
//! A remote client asks for a set of pages; the sproc reads them via the
//! Storage Engine, compresses each with the `compress` DP kernel —
//! *specified execution* on the DPU ASIC with a CPU fallback, exactly the
//! paper's listing — and streams the results back through the Network
//! Engine.
//!
//! ```sh
//! cargo run --example read_compress_send
//! cargo run --example read_compress_send -- --trace-out /tmp/rcs.json
//! ```
//!
//! With `--trace-out <path>` the BlueField-2 run executes under a
//! telemetry session: the Chrome `trace_event` JSON (loadable in
//! `chrome://tracing` / Perfetto) lands at the given path and the
//! plain-text telemetry summary is printed after the run.

use bytes::Bytes;
use dpdpu::compute::{ExecTarget, KernelError, KernelInput, KernelKind, KernelOp, Placement};
use dpdpu::des::{block_on, now, spawn};
use dpdpu::hw::{CpuPool, DpuSpec, HostSpec, LinkConfig, Platform};
use dpdpu::net::fabric::Endpoint;
use dpdpu::net::tcp::TcpConnector;
use dpdpu::telemetry::Telemetry;

const PAGE: u64 = 8_192;
const PAGES: u64 = 32;

fn main() {
    let _check = dpdpu::check::CheckGuard::new();
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out requires a path argument");
                    std::process::exit(2);
                });
                trace_out = Some(path.into());
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: read_compress_send [--trace-out <path>]");
                std::process::exit(2);
            }
        }
    }

    // Run the same sproc on two DPUs: BlueField-2 (has the compression
    // ASIC) and a hypothetical DPU without one — the fallback path of
    // Figure 6 lines 21-25. The trace, when requested, covers the first.
    for (i, (label, dpu)) in [
        ("BlueField-2 (ASIC available)", DpuSpec::bluefield2()),
        ("Intel IPU (ASIC available)", DpuSpec::intel_ipu()),
    ]
    .into_iter()
    .enumerate()
    {
        let trace = if i == 0 { trace_out.as_deref() } else { None };
        run_on(label, dpu, trace);
    }
}

fn run_on(label: &str, dpu: DpuSpec, trace_out: Option<&std::path::Path>) {
    let label = label.to_string();
    let session = trace_out.map(|_| Telemetry::install());
    let traced = session.is_some();
    block_on(async move {
        // Booting registers the platform's resources with the
        // installed telemetry session (tracks, gauges, timeline sources).
        let rt = dpdpu::core::Dpdpu::start(Platform::new(HostSpec::epyc(), dpu));
        let sampler = traced.then(|| dpdpu::telemetry::start_sampler(20_000));

        // Seed the "SSD" with compressible pages.
        let file = rt.storage.create("pages.db").await.unwrap();
        let corpus = dpdpu::kernels::text::natural_text((PAGES * PAGE) as usize, 11);
        rt.storage.write(file, 0, &corpus).await.unwrap();

        // The remote client connection (Network Engine, offloaded TCP).
        let client = Endpoint::host(CpuPool::new("client", 8, 3_000_000_000));
        let (tx, mut rx) = TcpConnector::new(LinkConfig::rack_100g())
            .stream(Endpoint::dpu_native(&rt.platform), client);

        // --- the sproc body (Figure 6) ---
        let dpk_compress = rt.compute.get_dpk(KernelKind::Compress);
        let t0 = now();
        let mut send_handles = Vec::new();
        for i in 0..PAGES {
            let rt = rt.clone();
            let dpk = dpk_compress.clone();
            let tx = tx.clone();
            send_handles.push(spawn(async move {
                // async read (Storage Engine)
                let data = rt.storage.read(file, i * PAGE, PAGE).await.unwrap();
                let input = KernelInput::Bytes(Bytes::from(data));
                // async compression: try the ASIC ("dpu_asic"), fall back
                // to a DPU core ("dpu_cpu") when unavailable.
                let out = match dpk
                    .call(
                        &KernelOp::Compress,
                        &input,
                        Placement::Specified(ExecTarget::DpuAsic),
                    )
                    .await
                {
                    Ok(out) => out,
                    Err(KernelError::TargetUnavailable(_)) => dpk
                        .call(
                            &KernelOp::Compress,
                            &input,
                            Placement::Specified(ExecTarget::DpuCpu),
                        )
                        .await
                        .unwrap(),
                    Err(e) => panic!("compression failed: {e}"),
                };
                // async send (Network Engine)
                tx.send(out.into_bytes());
            }));
        }
        for h in send_handles {
            h.await;
        }
        drop(tx);
        let served_in = now() - t0;
        // --- end sproc ---

        let mut received = 0u64;
        let mut compressed_bytes = 0u64;
        while let Some(msg) = rx.recv().await {
            received += 1;
            compressed_bytes += msg.len() as u64;
        }
        println!("=== {label} ===");
        println!(
            "  {PAGES} pages x {PAGE} B read, compressed, sent in {:.2} ms (virtual)",
            served_in as f64 / 1e6
        );
        println!(
            "  compression: {} -> {} bytes; asic_jobs={} dpu_cpu_jobs={}",
            PAGES * PAGE,
            compressed_bytes,
            rt.compute.asic_jobs.get(),
            rt.compute.dpu_jobs.get(),
        );
        println!(
            "  client received {received} messages; host cores consumed: {:.4}\n",
            rt.platform.host_cpu.cores_consumed(now().max(1))
        );
        if let Some(sampler) = sampler {
            sampler.stop();
        }
    });
    if let Some(t) = session {
        let path = trace_out.expect("session implies a path");
        t.write_chrome_trace(path)
            .expect("failed to write chrome trace");
        println!("{}", t.summary());
        println!("chrome trace written to {}\n", path.display());
    }
}
