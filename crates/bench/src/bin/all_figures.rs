//! `all_figures [id…] [--knob value…] [--trace-out path] [--jobs N]`:
//! regenerates the named entries of `dpdpu_bench::all()` (`all_figures
//! fig2 A3 dds_kv`), or with no id every figure and ablation table — the
//! artifact EXPERIMENTS.md records. A scenario prints only when named,
//! its golden fixture's bytes under its `=== id ===` header. A knob
//! changes what the named ids run (`all_figures fig10 --servers 16 32`)
//! and is refused unless every named id declares it. `--trace-out`
//! records one id's telemetry, writes its Chrome trace to `path` and
//! prints the summary after the table. Every run is invariant-checked.
//!
//! `all_figures --audit [--seeds a,b,c] [--jobs N]` is the determinism
//! audit instead: every entry is replayed twice, once per seed (42, 7 and
//! 1234 by default) if it declares `--seed` and once otherwise, and any
//! stdout or Chrome-trace byte difference between the two replays fails
//! the run (exit 1).
//!
//! `--jobs` caps the worker threads either mode runs on (one per core by
//! default); results are collected in a fixed order, so no output byte
//! after the audit's header line depends on it.

use std::iter::Peekable;
use std::path::PathBuf;

use dpdpu_bench::fleet::MAX_CLIENTS;
use dpdpu_bench::{all, audit, default_jobs, render, Knobs, MAX_SERVERS};
use dpdpu_net::fabric::FabricKind;
use dpdpu_net::tcp::CongAlgKind;

/// The seeds `--audit` replays when `--seeds` names none.
const DEFAULT_SEEDS: [u64; 3] = [42, 7, 1234];

/// One command line: the ids to run (none: every figure), their knobs,
/// and where the one id's trace goes; or, with `audit`, the seeds to
/// audit the seeded entries at. Either way on `jobs` workers.
#[derive(Debug)]
struct Invocation {
    ids: Vec<&'static str>,
    knobs: Knobs,
    trace_out: Option<PathBuf>,
    audit: Option<Vec<u64>>,
    jobs: usize,
}

fn main() {
    let inv = parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}\n{}", usage());
        std::process::exit(2)
    });
    if let Some(seeds) = &inv.audit {
        run_audit(seeds, inv.jobs);
        return;
    }
    let out = render(&inv.ids, &inv.knobs, inv.trace_out.as_deref(), inv.jobs);
    let out = out.unwrap_or_else(|e| {
        eprintln!("failed to write the trace: {e}");
        std::process::exit(1)
    });
    print!("{out}");
    if let Some(path) = inv.trace_out {
        // The path differs between CI's two runs; keep stdout
        // byte-comparable and report it on stderr.
        eprintln!("chrome trace written to {}", path.display());
    }
}

/// Audits every experiment on `jobs` workers, each seeded one at every
/// seed of `seeds`, one report line per run in matrix order; exits 1 on
/// any divergence.
fn run_audit(seeds: &[u64], jobs: usize) {
    let registry = all();
    println!(
        "auditing {} experiment(s), those that take --seed at each of {} seed(s), \
         two replays each, {jobs} worker(s)",
        registry.len(),
        seeds.len(),
    );
    let divergences = audit::replay(&registry, seeds, jobs, |run, ok| {
        let verdict = if ok { "reproducible" } else { "DIVERGED" };
        println!("  {run}: {verdict}");
    });
    if divergences.is_empty() {
        println!("determinism audit passed: every replay was byte-identical");
        return;
    }
    let n = divergences.len();
    eprintln!("determinism audit FAILED ({n} divergence(s)):");
    for d in &divergences {
        eprintln!("{d}");
    }
    std::process::exit(1);
}

fn usage() -> String {
    let mut text = String::from(
        "usage: all_figures [id…] [--knob value…] [--trace-out path] [--jobs N]\n       \
         all_figures --audit [--seeds a,b,c] [--jobs N]\nids and the knobs each takes:",
    );
    for e in all() {
        text += &format!("\n  {} {}", e.id, e.knobs.join(" "));
    }
    text
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let registry = all();
    let (mut ids, mut knobs, mut trace_out) = (Vec::new(), Knobs::default(), None);
    let (mut audit, mut seeds, mut jobs) = (false, None, default_jobs());
    let mut given = Vec::new();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            let e = registry.iter().find(|e| e.id == arg);
            ids.push(e.ok_or(format!("unknown experiment id '{arg}'"))?.id);
            continue;
        }
        if arg == "--audit" {
            audit = true;
            continue;
        }
        if arg == "--servers" {
            knobs.servers = Some(servers(&mut args)?);
            given.push(arg);
            continue;
        }
        let v = args.next().ok_or(format!("{arg} needs a value"))?;
        let bad = |want: &str| format!("{arg} {v:?}: want {want}");
        match arg.as_str() {
            "--trace-out" => trace_out = Some(PathBuf::from(&v)),
            "--jobs" => {
                let n = v.parse().ok().filter(|n| *n >= 1);
                jobs = n.ok_or(bad("at least 1"))?;
            }
            "--seeds" => {
                let list = v.split(',').map(|s| s.parse().ok());
                seeds = Some(list.collect::<Option<_>>().ok_or(bad("integers a,b,c"))?);
            }
            "--fabric" => {
                knobs.fabric = Some(FabricKind::parse(&v).ok_or(bad("tcp|rdma|rdma-offload"))?)
            }
            "--cong" => {
                knobs.net.tcp.cong = CongAlgKind::parse(&v).ok_or(bad("reno|cubic|dctcp"))?
            }
            "--loss" => {
                let rate = v.parse().ok().filter(|r| (0.0..=1.0).contains(r));
                knobs.net.link.loss_rate = rate.ok_or(bad("a rate in [0,1]"))?;
            }
            "--ecn-threshold-us" => {
                let ns = v.parse::<u64>().ok().and_then(|us| us.checked_mul(1_000));
                knobs.net.link.ecn_threshold_ns = ns.ok_or(bad("µs that fit in u64 ns"))?;
            }
            "--tenants" => {
                let n = v.parse().ok().filter(|n| *n >= 3);
                knobs.tenants = Some(n.ok_or(bad("at least 3 (storm, steady, batch)"))?);
            }
            "--weights" => {
                let weights = v.split(',').map(|w| w.parse().ok().filter(|w| *w >= 1));
                knobs.weights = weights
                    .collect::<Option<_>>()
                    .ok_or(bad("positive integers"))?;
            }
            "--seed" => knobs.seed = Some(v.parse().map_err(|_| bad("an integer"))?),
            _ => return Err(format!("unknown argument: {arg}")),
        }
        given.push(arg);
    }
    // `--jobs` is every mode's and `--seeds` the audit's; the rest are
    // the figures' own.
    given.retain(|flag| flag != "--jobs" && flag != "--seeds");
    if audit {
        if let Some(arg) = ids.first().copied().or(given.first().map(String::as_str)) {
            return Err(format!("--audit takes no {arg}"));
        }
    } else if seeds.is_some() {
        return Err("--seeds needs --audit".into());
    }
    if trace_out.is_some() && ids.len() != 1 {
        return Err("--trace-out takes exactly one id".into());
    }
    for flag in given.iter().filter(|flag| *flag != "--trace-out") {
        let named = registry.iter().filter(|e| ids.contains(&e.id));
        if let Some(e) = named.clone().find(|e| !e.knobs.contains(&flag.as_str())) {
            return Err(format!("{} takes no {flag}", e.id));
        }
        if ids.is_empty() {
            return Err(format!("{flag} needs an id that takes it"));
        }
    }
    if knobs.weights.len() > knobs.tenants.unwrap_or(3) {
        return Err("more --weights than tenants".into());
    }
    Ok(Invocation {
        ids,
        knobs,
        trace_out,
        audit: audit.then(|| seeds.unwrap_or_else(|| DEFAULT_SEEDS.to_vec())),
        jobs,
    })
}

/// `--servers`' fleet sizes: every token up to the next flag, each a
/// fleet whose clients one run can seed apart.
fn servers(args: &mut Peekable<impl Iterator<Item = String>>) -> Result<Vec<usize>, String> {
    // A non-number reads as 0, which no fleet has.
    let servers: Vec<usize> = std::iter::from_fn(|| args.next_if(|a| !a.starts_with("--")))
        .map(|token| token.parse().unwrap_or(0))
        .collect();
    if servers.is_empty() || servers.iter().any(|n| !(1..=MAX_SERVERS).contains(n)) {
        return Err(format!(
            "--servers takes fleet sizes in 1..={MAX_SERVERS} (at most {MAX_CLIENTS} clients)"
        ));
    }
    Ok(servers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Invocation, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn cli_flags_parse_into_the_struct() {
        let line = "fig10 --cong dctcp --fabric rdma --loss 0.02 --ecn-threshold-us 50";
        let k = parsed(line).expect(line).knobs;
        assert_eq!(k.net.tcp.cong, CongAlgKind::Dctcp);
        assert_eq!(k.fabric, Some(FabricKind::Rdma));
        assert_eq!(k.net.link.loss_rate, 0.02);
        assert_eq!(k.net.link.ecn_threshold_ns, 50_000);
        // Unknown flags are refused.
        assert_eq!(
            parsed("fig10 --shards 8").unwrap_err(),
            "unknown argument: --shards"
        );
        // Bad values surface as errors.
        assert!(parsed("fig10 --cong bbr").is_err());
        assert!(parsed("fig10 --loss 1.5").is_err());
        // u64::MAX / 1000 µs is the last value that fits in nanoseconds;
        // one more used to panic in debug and wrap in release.
        assert!(parsed("fig10 --ecn-threshold-us 18446744073709552").is_err());
        let last = parsed("fig10 --ecn-threshold-us 18446744073709551").expect("fits");
        assert_eq!(
            last.knobs.net.link.ecn_threshold_ns,
            18_446_744_073_709_551_000
        );
    }

    #[test]
    fn servers_are_validated_at_the_cli_edge() {
        let servers = |list: &str| parsed(&format!("fig10 --servers {list}")).map(|i| i.knobs);
        // Consumes up to the next flag and leaves it for the caller.
        let k = servers("16 32 64 --fabric rdma").expect("valid sizes");
        assert_eq!(k.servers, Some(vec![16, 32, 64]));
        assert_eq!(k.fabric, Some(FabricKind::Rdma));
        // The bounds are the fleet sizes `run_clients` can seed.
        assert_eq!(
            servers("1 250").expect("bounds").servers,
            Some(vec![1, 250])
        );
        for bad in [
            "",
            "--replicas 2",
            "0",
            "8 0",
            "251",
            "sixteen",
            "16 x",
            "-1",
            "1.5",
        ] {
            let err = servers(bad).expect_err(bad);
            assert!(
                err.contains("1..=250") && err.contains("1000 clients"),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn tenant_knobs_are_validated() {
        let line = "fig11 --tenants 5 --weights 1,8,2,4,4 --seed 7";
        let k = parsed(line).expect(line).knobs;
        assert_eq!(k.tenants, Some(5));
        assert_eq!((k.weights, k.seed), (vec![1, 8, 2, 4, 4], Some(7)));
        for bad in [
            "--tenants 2",
            "--weights 1,0",
            "--weights 1,8,2,4",
            "--seed x",
        ] {
            assert!(parsed(&format!("fig11 {bad}")).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_knob_is_refused_by_an_id_that_does_not_declare_it() {
        assert!(parsed("fig10 fig10r --servers 16 32").is_ok());
        assert!(parsed("fig10 fig10f --fabric rdma").is_ok());
        assert_eq!(
            parsed("fig10f --servers 8").unwrap_err(),
            "fig10f takes no --servers"
        );
        assert_eq!(
            parsed("fig10 fig11 --seed 7").unwrap_err(),
            "fig10 takes no --seed"
        );
        // A scenario takes `--seed` like fig11; a figure beside it does not.
        assert!(parsed("fig11 dds_kv par_cluster --seed 7").is_ok());
        assert_eq!(
            parsed("fig2 dds_kv --seed 7").unwrap_err(),
            "fig2 takes no --seed"
        );
    }

    #[test]
    fn a_knob_is_refused_without_an_id() {
        assert_eq!(
            parsed("--servers 8").unwrap_err(),
            "--servers needs an id that takes it"
        );
        assert!(parsed("--cong cubic").is_err());
    }

    #[test]
    fn a_trace_names_exactly_one_id() {
        assert!(parsed("A9 --trace-out a.json").is_ok());
        assert_eq!(
            parsed("fig9 A9 --trace-out a.json").unwrap_err(),
            "--trace-out takes exactly one id"
        );
        assert!(parsed("--trace-out a.json").is_err());
    }

    #[test]
    fn the_audit_takes_seeds_and_jobs_only() {
        let inv = parsed("--audit").expect("--audit");
        assert_eq!(inv.audit, Some(vec![42, 7, 1234]));
        let inv = parsed("--jobs 3 --audit --seeds 5,6").expect("seeds and jobs");
        assert_eq!((inv.audit, inv.jobs), (Some(vec![5, 6]), 3));
        for (line, err) in [
            ("--audit fig2", "--audit takes no fig2"),
            ("fig10 --audit", "--audit takes no fig10"),
            ("--audit --servers 8", "--audit takes no --servers"),
            ("--audit --seed 7", "--audit takes no --seed"),
            ("--audit --trace-out a.json", "--audit takes no --trace-out"),
        ] {
            assert_eq!(parsed(line).unwrap_err(), err, "{line}");
        }
    }

    #[test]
    fn seeds_need_the_audit_and_a_whole_list() {
        assert_eq!(parsed("--seeds 1,2").unwrap_err(), "--seeds needs --audit");
        assert_eq!(
            parsed("fig2 --seeds 1").unwrap_err(),
            "--seeds needs --audit"
        );
        for bad in ["1,,2", "1,x", "1;2", "-1", "1,"] {
            let err = parsed(&format!("--audit --seeds {bad}")).expect_err(bad);
            assert!(err.contains("want integers a,b,c"), "{bad}: {err}");
        }
        assert!(parsed("--audit --seeds").is_err());
    }

    #[test]
    fn jobs_caps_every_mode_at_one_worker_or_more() {
        assert_eq!(parsed("fig2 --jobs 2").expect("fig2").jobs, 2);
        assert_eq!(parsed("--jobs 1").expect("every id").jobs, 1);
        for line in ["--jobs 0", "fig2 --jobs 0", "--audit --jobs 0", "--jobs x"] {
            let err = parsed(line).expect_err(line);
            assert!(err.contains("want at least 1"), "{line}: {err}");
        }
    }
}
