//! Wall-clock micro-benchmarks for the real data-path kernels — the
//! from-scratch implementations whose *functional* work the simulation
//! executes (their simulated device timing is calibrated separately in
//! `dpdpu_hw::costs`).
//!
//! Plain `Instant`-based timing (`harness = false`); the offline build
//! carries no criterion. Run with `cargo bench -p dpdpu-bench`.

use std::hint::black_box;
use std::time::Instant;

use dpdpu_kernels::aes::ctr_xor;
use dpdpu_kernels::crc32::crc32;
use dpdpu_kernels::dedup::dedup_stats;
use dpdpu_kernels::deflate::{compress, decompress};
use dpdpu_kernels::regex::Regex;
use dpdpu_kernels::sha256::sha256;
use dpdpu_kernels::text::natural_text;

const SIZE: usize = 256 * 1024;

/// Times `iters` runs of `f`, reporting best-of-n latency and throughput.
fn bench(name: &str, bytes: usize, iters: u32, mut f: impl FnMut()) {
    f(); // warm-up
    let mut best = std::time::Duration::MAX;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    let mibps = bytes as f64 / best.as_secs_f64() / (1024.0 * 1024.0);
    println!(
        "{name:<28} {:>10.3} ms   {mibps:>9.1} MiB/s",
        best.as_secs_f64() * 1e3
    );
}

fn main() {
    println!(
        "kernel micro-benchmarks ({} KiB inputs, best of N)\n",
        SIZE / 1024
    );

    let text = natural_text(SIZE, 42);
    let packed = compress(&text);
    bench("deflate/compress", SIZE, 10, || {
        black_box(compress(black_box(&text)));
    });
    bench("deflate/decompress", SIZE, 10, || {
        black_box(decompress(black_box(&packed)).unwrap());
    });

    let mut data = natural_text(SIZE, 7);
    bench("crypto/aes128_ctr", SIZE, 20, || {
        ctr_xor(&[1u8; 16], &[2u8; 12], black_box(&mut data));
    });
    bench("crypto/sha256", SIZE, 20, || {
        black_box(sha256(black_box(&data)));
    });
    bench("crypto/crc32", SIZE, 20, || {
        black_box(crc32(black_box(&data)));
    });

    let hay = String::from_utf8(natural_text(SIZE, 9)).unwrap();
    let re = Regex::new(r"(data|network) \w+").unwrap();
    bench("regex/count_matches", SIZE, 10, || {
        black_box(re.count_matches(black_box(&hay)));
    });

    let mut dup = natural_text(SIZE / 2, 11);
    let copy = dup.clone();
    dup.extend_from_slice(&copy); // guaranteed duplicates
    bench("dedup/cdc_dedup", SIZE, 10, || {
        black_box(dedup_stats(black_box(&dup)));
    });
}
