//! Prints the fig10_fabric table; see the module docs in
//! `dpdpu_bench::fig10_fabric`.
//!
//! ```sh
//! cargo run -p dpdpu-bench --bin fig10_fabric                      # full sweep
//! cargo run -p dpdpu-bench --bin fig10_fabric -- --fabric rdma-offload
//! cargo run -p dpdpu-bench --bin fig10_fabric -- --cong dctcp
//! ```

use dpdpu_net::NetConfig;

fn main() {
    let mut only = None;
    let mut net = NetConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = match arg.as_str() {
            "--fabric" | "--cong" | "--loss" | "--ecn-threshold-us" => args
                .next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value"))),
            other => usage(&format!("unknown argument: {other}")),
        };
        match net.apply_cli_flag(&arg, &value) {
            Ok(true) => {
                // `--fabric` here restricts the sweep to that column.
                if arg == "--fabric" {
                    only = Some(net.fabric);
                }
            }
            Ok(false) => usage(&format!("unknown argument: {arg}")),
            Err(msg) => usage(&msg),
        }
    }
    // Conformance guard: every figure/ablation run is invariant-checked.
    let _check = dpdpu_check::CheckGuard::new();
    println!("{}", dpdpu_bench::fig10_fabric::run_with(only, net));
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: fig10_fabric {}", NetConfig::cli_help());
    std::process::exit(2)
}
