//! Prints the fig10_cluster_scale table; see the module docs in
//! `dpdpu_bench::fig10_cluster_scale`.
//!
//! ```sh
//! cargo run -p dpdpu-bench --bin fig10_cluster_scale               # defaults
//! cargo run -p dpdpu-bench --bin fig10_cluster_scale -- --cong cubic
//! cargo run -p dpdpu-bench --bin fig10_cluster_scale -- --fabric rdma
//! cargo run -p dpdpu-bench --bin fig10_cluster_scale -- --replicas 2
//! # Beyond the testbed: the same table at other fleet sizes, every
//! # other flag still applying (≈7 s in release, byte-identical per run).
//! cargo run --release -p dpdpu-bench --bin fig10_cluster_scale -- --servers 16 32 64
//! ```

use dpdpu_bench::fig10_cluster_scale::{parse_servers, run_with, SERVERS};
use dpdpu_net::NetConfig;

fn main() {
    let mut net = NetConfig::default();
    let mut replicas = 1usize;
    let mut servers = SERVERS.to_vec();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--servers" => servers = parse_servers(&mut args).unwrap_or_else(|msg| usage(&msg)),
            "--replicas" => {
                replicas = match args.next().map(|v| v.parse()) {
                    Some(Ok(n @ 1..=2)) => n,
                    _ => usage("--replicas must be 1 or 2 (one-hop chain)"),
                }
            }
            "--fabric" | "--cong" | "--loss" | "--ecn-threshold-us" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage(&format!("{arg} needs a value")));
                if let Err(msg) = net.apply_cli_flag(&arg, &value) {
                    usage(&msg)
                }
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    // Conformance guard: every figure/ablation run is invariant-checked.
    let _check = dpdpu_check::CheckGuard::new();
    println!("{}", run_with(&servers, net, replicas));
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: fig10_cluster_scale [--replicas 1|2] [--servers N N ...] {}",
        NetConfig::cli_help()
    );
    std::process::exit(2)
}
