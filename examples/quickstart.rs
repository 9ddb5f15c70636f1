//! Quickstart: boot DPDPU on a simulated EPYC + BlueField-2 server, do a
//! little of everything, print a resource report.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use dpdpu::compute::{KernelInput, KernelOp, Placement};
use dpdpu::core::Dpdpu;
use dpdpu::des::{block_on, now};
use dpdpu::storage::FileId;

fn main() {
    let _check = dpdpu::check::CheckGuard::new();
    block_on(async {
        // Boot the runtime on the default EPYC + BlueField-2 platform:
        // file system formatted, DPU file service and host front end
        // running, Compute Engine ready. (`Dpdpu::start` takes another
        // platform; a fault plan is installed around the run — see README
        // "Fault injection".)
        let rt = Dpdpu::start_default();
        println!(
            "booted DPDPU on {} + {}",
            rt.platform.host_spec.name, rt.platform.dpu_spec.name
        );

        // Storage Engine: write and read a file through the POSIX-like
        // host front end (host pays only ring costs).
        let file = rt.front_end.create("demo.db").await.unwrap();
        let payload = dpdpu::kernels::text::natural_text(64 * 1024, 7);
        rt.front_end.write(file, 0, payload.clone()).await.unwrap();
        let back = rt
            .front_end
            .read(file, 0, payload.len() as u64)
            .await
            .unwrap();
        assert_eq!(back, payload);
        println!(
            "storage: wrote + read {} bytes through the front end",
            payload.len()
        );

        // Compute Engine: compress those bytes on the DPU's compression
        // ASIC (scheduled placement picks it automatically).
        let out = rt
            .compute
            .run(
                &KernelOp::Compress,
                &KernelInput::Bytes(Bytes::from(payload.clone())),
                Placement::Scheduled,
            )
            .await
            .unwrap();
        let compressed = out.into_bytes();
        println!(
            "compute: compressed {} -> {} bytes ({:.2}x) on {}",
            payload.len(),
            compressed.len(),
            payload.len() as f64 / compressed.len() as f64,
            if rt.compute.asic_jobs.get() > 0 {
                "the ASIC"
            } else {
                "a CPU"
            },
        );

        // Sprocs: a checksum procedure over the file (Figure 6's
        // programming model) is a plain async fn over the runtime.
        let crc = crc_file(&rt, file, payload.len() as u64).await;
        assert_eq!(crc, dpdpu::kernels::crc32::crc32(&payload));
        println!("sproc: crc-file returned {crc:#010x}");

        println!("\n--- resource report ---\n{}", rt.report(now().max(1)));
    });
}

/// The `crc-file` sproc: reads the first `len` bytes of `file` through
/// the DPU file service and checksums them.
async fn crc_file(rt: &Dpdpu, file: FileId, len: u64) -> u32 {
    let data = rt.storage.read(file, 0, len).await.unwrap();
    dpdpu::kernels::crc32::crc32(&data)
}
