//! # dpdpu-bench — regenerating the paper's figures
//!
//! One module per quantitative figure in the paper plus the ablations
//! DESIGN.md calls out. Each module exposes `run() -> String`: it builds
//! the relevant workload on the simulated platform, sweeps the figure's
//! x-axis, and returns the table the paper plots — alongside a note of
//! the *shape* the paper reports, which is the reproduction target
//! (absolute numbers come from the authors' testbed; ours come from the
//! calibrated models in `dpdpu_hw::costs`).
//!
//! EXPERIMENTS.md is the figure golden: each `=== id ===` block of
//! [`render_all`] sits alone in one of its ```` ```text ```` fences,
//! which `tests/golden_trace.rs` compares and `UPDATE_GOLDEN=1` rewrites.
//!
//! The one binary: `all_figures [id…] [--knob value…] [--trace-out
//! path] [--jobs N]` prints every table, or the named ones (the ids of
//! [`all`]: `all_figures fig2 A3`), with the knobs each named id declares
//! (`all_figures fig10 --servers 16 32`); `--trace-out` records one id's
//! telemetry. `all_figures --audit [--seeds a,b,c] [--jobs N]` replays
//! the scenarios instead ([`audit`]). Both run on [`run_jobs`].

mod abl_cache_split;
mod abl_fast_persist;
mod abl_faults;
mod abl_fusion;
mod abl_partial_offload;
mod abl_pipeline;
mod abl_placement;
mod abl_scheduler;
mod abl_tenant_iso;
pub mod audit;
pub mod cell;
mod fig10_cluster_scale;
mod fig10_fabric;
pub mod fig11_tenants;
mod fig1_compression;
mod fig2_storage_cpu;
mod fig3_network_cpu;
mod fig7_rdma;
mod fig8_roundtrips;
mod fig9_dds_savings;
pub mod fleet;
pub mod netmatrix;
pub mod par_cluster;
pub mod scenarios;
pub mod table;

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use dpdpu_net::fabric::FabricKind;
use dpdpu_net::NetConfig;

/// What an `all_figures` command line can change. A knob left unset
/// (`Knobs::default()` sets none) keeps the figure's pinned value, and an
/// experiment reads only the knobs its entry of [`all`] declares.
#[derive(Clone, Debug, Default)]
pub struct Knobs {
    /// `--servers`: the fleet sizes of fig10 and fig10r (1, 2, 4, 8).
    pub servers: Option<Vec<usize>>,
    /// `--fabric`: fig10 and fig10r run every cell on it; fig10f keeps
    /// only its column.
    pub fabric: Option<FabricKind>,
    /// `--cong`, `--loss`, `--ecn-threshold-us`: the network of fig10,
    /// fig10r and fig10f.
    pub net: NetConfig,
    /// `--tenants`: fig11's tenant count (3), steady-KV victims past the
    /// default three.
    pub tenants: Option<usize>,
    /// `--weights`: fig11's DRR weights in tenant order; the rest keep
    /// their default.
    pub weights: Vec<u64>,
    /// `--seed`: fig11's seed (42).
    pub seed: Option<u64>,
}

/// The largest fleet `--servers` takes: fig10 runs 4 clients per server
/// and one run seeds at most [`fleet::MAX_CLIENTS`] clients apart.
pub const MAX_SERVERS: usize = fleet::MAX_CLIENTS / fig10_cluster_scale::CLIENTS_PER_SERVER;

/// A figure/ablation runner: its table under the given knobs.
type Runner = fn(&Knobs) -> String;

/// One experiment of [`all`].
pub struct Experiment {
    /// Its `=== id ===` header and `all_figures` argument.
    pub id: &'static str,
    /// The knob flags it reads; `all_figures` refuses any other.
    pub knobs: &'static [&'static str],
    run: Runner,
}

fn exp(id: &'static str, knobs: &'static [&'static str], run: Runner) -> Experiment {
    Experiment { id, knobs, run }
}

/// Every figure/ablation in experiment-id order.
pub fn all() -> Vec<Experiment> {
    const FLEET: &[&str] = &[
        "--servers",
        "--fabric",
        "--cong",
        "--loss",
        "--ecn-threshold-us",
    ];
    const TENANTS: &[&str] = &["--tenants", "--weights", "--seed"];
    vec![
        exp("fig1", &[], |_| fig1_compression::run()),
        exp("fig2", &[], |_| fig2_storage_cpu::run()),
        exp("fig3", &[], |_| fig3_network_cpu::run()),
        exp("fig7", &[], |_| fig7_rdma::run()),
        exp("fig8", &[], |_| fig8_roundtrips::run()),
        exp("fig9", &[], |_| fig9_dds_savings::run()),
        exp("fig10", FLEET, |k| fig10_cluster_scale::run(k, 1)),
        // fig10 with every shard replicated twice: the replication tax.
        exp("fig10r", FLEET, |k| fig10_cluster_scale::run(k, 2)),
        exp("fig10f", &FLEET[1..], fig10_fabric::run),
        exp("fig11", TENANTS, fig11_tenants::run),
        exp("A1", &[], |_| abl_scheduler::run()),
        exp("A2", &[], |_| abl_placement::run()),
        exp("A3", &[], |_| abl_cache_split::run()),
        exp("A4", &[], |_| abl_fast_persist::run()),
        exp("A5", &[], |_| abl_partial_offload::run()),
        exp("A6", &[], |_| abl_tenant_iso::run()),
        exp("A7", &[], |_| abl_pipeline::run()),
        exp("A8", &[], |_| abl_fusion::run()),
        exp("A9", &[], |_| abl_faults::run()),
    ]
}

/// The tables of those experiments of [`all`] whose id is in `ids`, run
/// with `knobs` on [`run_jobs`]' `jobs` workers, each under its
/// `=== id ===` header, in experiment-id order (an id `all` does not list
/// selects nothing). Each runner gets its own strict invariant session.
/// With `trace_out`, a runner also records a telemetry session, writes
/// its Chrome trace there and follows its table with the summary: name
/// one id.
pub fn render(
    ids: &[&str],
    knobs: &Knobs,
    trace_out: Option<&Path>,
    jobs: usize,
) -> std::io::Result<String> {
    let chosen: Vec<_> = all().into_iter().filter(|e| ids.contains(&e.id)).collect();
    let blocks = run_jobs(chosen.len(), jobs, |i| -> std::io::Result<String> {
        let _check = dpdpu_check::CheckGuard::new();
        let Some(path) = trace_out else {
            return Ok((chosen[i].run)(knobs));
        };
        let t = dpdpu_telemetry::Telemetry::install();
        let table = (chosen[i].run)(knobs);
        t.write_chrome_trace(path)?;
        Ok(format!("{table}\n{}", t.summary()))
    });
    let mut out = String::new();
    for (e, block) in chosen.iter().zip(blocks) {
        out += &format!("=== {} ===\n{}\n", e.id, block?);
    }
    Ok(out)
}

/// Every figure and ablation table: what `all_figures` prints, pinned
/// block by block in EXPERIMENTS.md's ```` ```text ```` fences.
pub fn render_all() -> String {
    let ids: Vec<_> = all().iter().map(|e| e.id).collect();
    render(&ids, &Knobs::default(), None, default_jobs()).expect("an untraced run writes nothing")
}

/// The worker count when the caller picks none: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `job(0)`, …, `job(n - 1)` on at most `jobs` worker threads and
/// returns their results in job order: the one job runner of the
/// figures, the audit and the golden captures. Simulations and their
/// sessions are thread-confined, so jobs on different workers cannot
/// interact, and a worker's sessions are gone before it takes its next
/// job. Each worker takes the next unclaimed index; the results are put
/// back in index order after every worker has joined, so what the
/// caller sees never depends on how the OS scheduled them. A job's panic
/// is re-raised here.
pub fn run_jobs<T: Send>(n: usize, jobs: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.clamp(1, n.max(1)))
            .map(|_| scope.spawn(worker))
            .collect();
        let joined = workers.into_iter().map(|w| w.join());
        joined
            .flat_map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three experiments on one worker and on four print the same bytes,
    /// in experiment-id order whatever order the workers finish in.
    #[test]
    fn the_runner_renders_identically_at_one_worker_and_at_four() {
        let ids = ["fig2", "fig7", "A5"];
        let render_at = |jobs| render(&ids, &Knobs::default(), None, jobs).expect("untraced");
        let serial = render_at(1);
        assert_eq!(serial, render_at(4));
        let headers: Vec<_> = serial.lines().filter(|l| l.starts_with("=== ")).collect();
        assert_eq!(headers, ["=== fig2 ===", "=== fig7 ===", "=== A5 ==="]);
    }
}
