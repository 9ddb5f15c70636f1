//! The multi-seed determinism auditor (see `dpdpu_bench::audit`).
//!
//! ```sh
//! cargo run -p dpdpu-bench --bin audit_determinism                  # default seeds
//! cargo run -p dpdpu-bench --bin audit_determinism -- --seeds 1,2  # custom seeds
//! cargo run -p dpdpu-bench --bin audit_determinism -- --jobs 2     # worker cap (1 = serial)
//! cargo run -p dpdpu-bench --bin audit_determinism -- --list       # scenario names
//! cargo run -p dpdpu-bench --bin audit_determinism -- --self-test  # prove detection works
//! ```
//!
//! Every shipped scenario is replayed twice per seed; any stdout or
//! Chrome-trace byte difference between the two replays is a failure
//! (exit 1). The scenario × seed matrix runs across worker threads by
//! default (one per core; simulations are thread-confined, and results
//! are collected in fixed matrix order so the report never depends on
//! scheduling). `--self-test` instead audits a deliberately
//! nondeterministic scenario and fails unless the divergence is caught.

use dpdpu_bench::audit;

/// Seeds CI sweeps by default.
const DEFAULT_SEEDS: [u64; 3] = [42, 7, 1234];

fn main() {
    let mut seeds: Vec<u64> = DEFAULT_SEEDS.to_vec();
    let mut self_test = false;
    let mut jobs = audit::default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let n = args.next().unwrap_or_else(|| usage("--jobs needs a value"));
                jobs = n
                    .trim()
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad job count: {n:?}")));
                if jobs == 0 {
                    usage("--jobs needs at least one worker");
                }
            }
            "--seeds" => {
                let list = args
                    .next()
                    .unwrap_or_else(|| usage("--seeds needs a value"));
                seeds = list
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| usage(&format!("bad seed: {s:?}")))
                    })
                    .collect();
                if seeds.is_empty() {
                    usage("--seeds needs at least one seed");
                }
            }
            "--list" => {
                for (name, _) in dpdpu_bench::scenarios::all() {
                    println!("{name}");
                }
                return;
            }
            "--self-test" => self_test = true,
            other => usage(&format!("unknown argument: {other}")),
        }
    }

    if self_test {
        // The planted scenario leaks a process-global counter; if the
        // auditor cannot see that, it cannot be trusted on real runs.
        let planted: [(&'static str, dpdpu_bench::scenarios::ScenarioFn); 1] =
            [("planted_nondeterminism", audit::planted_nondeterminism)];
        for jobs in [1, jobs] {
            let divergences = audit::audit_scenarios(&planted, &seeds, jobs, |_, _, _| {});
            if divergences.len() < seeds.len() {
                eprintln!("SELF-TEST FAILED: planted nondeterminism went undetected");
                std::process::exit(1);
            }
            println!(
                "self-test ok: planted nondeterminism detected ({} divergence(s), {jobs} worker(s))",
                divergences.len()
            );
        }
        return;
    }

    println!(
        "auditing {} scenario(s) x {} seed(s), two replays each, {} worker(s)",
        dpdpu_bench::scenarios::all().len(),
        seeds.len(),
        jobs,
    );
    let divergences = audit::audit_all(&seeds, jobs, |name, seed, ok| {
        println!(
            "  {} seed={seed}: {}",
            name,
            if ok { "reproducible" } else { "DIVERGED" }
        );
    });
    if divergences.is_empty() {
        println!("determinism audit passed: every replay was byte-identical");
        return;
    }
    eprintln!(
        "determinism audit FAILED ({} divergence(s)):",
        divergences.len()
    );
    for d in &divergences {
        eprintln!("{d}");
    }
    std::process::exit(1);
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: audit_determinism [--seeds a,b,c] [--jobs N] [--list] [--self-test]");
    std::process::exit(2)
}
