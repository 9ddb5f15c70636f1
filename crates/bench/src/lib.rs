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
//! [`all`] is the one registry: every figure, ablation and golden
//! scenario is an [`Experiment`], and [`Experiment::run`] is the one run
//! path of `all_figures`, the determinism audit and the golden captures.
//! Its [`Golden`] says where the entry is pinned: a figure's table in an
//! EXPERIMENTS.md ```` ```text ```` fence (each `=== id ===` block of
//! [`render_all`] alone in one), a scenario's summary and trace digest in
//! `tests/golden/<id>.{stdout,trace}.txt`. `tests/golden_trace.rs`
//! compares both and `UPDATE_GOLDEN=1` rewrites them.
//!
//! The one binary: `all_figures [id…] [--knob value…] [--trace-out
//! path] [--jobs N]` prints every figure table, or the named entries
//! (`all_figures fig2 A3 dds_kv`), with the knobs each named id declares
//! (`all_figures fig10 --servers 16 32`); `--trace-out` records one id's
//! telemetry. `all_figures --audit [--seeds a,b,c] [--jobs N]` replays
//! every entry instead ([`audit`]). Both run on [`run_jobs`].

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

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use dpdpu_check::CheckGuard;
use dpdpu_net::fabric::FabricKind;
use dpdpu_net::NetConfig;
use dpdpu_telemetry::Telemetry;

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
    /// `--seed`: the seed of fig11 and of every scenario (42, the seed
    /// their goldens pin); the audit replays them at each of its seeds.
    pub seed: Option<u64>,
}

/// The largest fleet `--servers` takes: fig10 runs 4 clients per server
/// and one run seeds at most [`fleet::MAX_CLIENTS`] clients apart.
pub const MAX_SERVERS: usize = fleet::MAX_CLIENTS / fig10_cluster_scale::CLIENTS_PER_SERVER;

/// An experiment's runner: its output under the given knobs.
type Runner = fn(&Knobs) -> Output;

/// One experiment of [`all`].
pub struct Experiment {
    /// Its `=== id ===` header and `all_figures` argument.
    pub id: &'static str,
    /// The knob flags it reads; `all_figures` refuses any other.
    pub knobs: &'static [&'static str],
    /// Where its golden lives.
    pub golden: Golden,
    run: Runner,
}

/// Where an [`Experiment`]'s golden lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Golden {
    /// Its table alone in an EXPERIMENTS.md ```` ```text ```` fence: a
    /// figure or an ablation, which `all_figures` with no id prints.
    Fence,
    /// `tests/golden/<id>.stdout.txt` and its trace digest
    /// `<id>.trace.txt`, at seed 42: a scenario, which records telemetry
    /// on every run and whose table runs from its `## scenario <id> (seed
    /// <seed>)` line to its conformance report.
    Fixture,
}

/// What one run of an experiment leaves.
pub struct Output {
    /// The block under its `=== id ===` header.
    pub table: String,
    /// The Chrome trace of a run that recorded telemetry.
    pub trace: Option<String>,
}

impl From<String> for Output {
    fn from(table: String) -> Self {
        Output { table, trace: None }
    }
}

impl Experiment {
    /// Runs the experiment under `knobs`: the one run path of the
    /// figures, the audit and the golden captures. The run holds its own
    /// strict invariant session, so the thread must hold none (session
    /// parts do not nest). It records telemetry when the entry pins a
    /// trace or `trace_out` asks for one, and with `trace_out` the table
    /// ends with the telemetry summary. A scenario's table starts with
    /// its `## scenario` line and ends with its conformance report; a
    /// runner that returns its own trace (`par_cluster`, whose domains
    /// run on their own thread under their own sessions) keeps it,
    /// reports its own conformance and gets no summary.
    pub fn run(&self, knobs: &Knobs, trace_out: bool) -> Output {
        let fixture = self.golden == Golden::Fixture;
        let telemetry = (fixture || trace_out).then(Telemetry::install);
        let check = CheckGuard::new();
        let mut out = (self.run)(knobs);
        if fixture {
            let head = format!("## scenario {} (seed {})\n", self.id, seed(knobs));
            out.table.insert_str(0, &head);
            if out.trace.is_none() {
                let _ = writeln!(out.table, "{}", check.session().report());
            }
        }
        drop(check); // balance sweeps run here; panics on any violation
        if let Some(t) = telemetry {
            if trace_out && out.trace.is_none() {
                out.table = format!("{}\n{}", out.table, t.summary());
            }
            out.trace.get_or_insert_with(|| t.chrome_trace());
        }
        out
    }
}

fn exp(id: &'static str, knobs: &'static [&'static str], run: Runner) -> Experiment {
    let golden = Golden::Fence;
    Experiment {
        id,
        knobs,
        golden,
        run,
    }
}

/// A golden scenario, run at `--seed`.
fn scenario(id: &'static str, run: Runner) -> Experiment {
    let golden = Golden::Fixture;
    Experiment {
        golden,
        ..exp(id, &["--seed"], run)
    }
}

/// `--seed`, or the seed every golden pins.
fn seed(k: &Knobs) -> u64 {
    k.seed.unwrap_or(42)
}

/// Every experiment: the figures and ablations in experiment-id order,
/// then the golden scenarios.
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
        exp("fig1", &[], |_| fig1_compression::run().into()),
        exp("fig2", &[], |_| fig2_storage_cpu::run().into()),
        exp("fig3", &[], |_| fig3_network_cpu::run().into()),
        exp("fig7", &[], |_| fig7_rdma::run().into()),
        exp("fig8", &[], |_| fig8_roundtrips::run().into()),
        exp("fig9", &[], |_| fig9_dds_savings::run().into()),
        exp("fig10", FLEET, |k| fig10_cluster_scale::run(k, 1).into()),
        // fig10 with every shard replicated twice: the replication tax.
        exp("fig10r", FLEET, |k| fig10_cluster_scale::run(k, 2).into()),
        exp("fig10f", &FLEET[1..], |k| fig10_fabric::run(k).into()),
        exp("fig11", TENANTS, |k| fig11_tenants::run(k).into()),
        exp("A1", &[], |_| abl_scheduler::run().into()),
        exp("A2", &[], |_| abl_placement::run().into()),
        exp("A3", &[], |_| abl_cache_split::run().into()),
        exp("A4", &[], |_| abl_fast_persist::run().into()),
        exp("A5", &[], |_| abl_partial_offload::run().into()),
        exp("A6", &[], |_| abl_tenant_iso::run().into()),
        exp("A7", &[], |_| abl_pipeline::run().into()),
        exp("A8", &[], |_| abl_fusion::run().into()),
        exp("A9", &[], |_| abl_faults::run().into()),
        scenario("storage_faults", |k| scenarios::storage_faults(seed(k))),
        scenario("dds_kv", |k| scenarios::dds_kv(seed(k))),
        scenario("compute_pipeline", |k| scenarios::compute_pipeline(seed(k))),
        scenario("cluster_fleet", |k| scenarios::cluster_fleet(seed(k))),
        scenario("cluster_fabric", |k| scenarios::cluster_fabric(seed(k))),
        scenario("net_scenarios", |k| scenarios::net_scenarios(seed(k))),
        scenario("cluster_failover", |k| scenarios::cluster_failover(seed(k))),
        scenario("gateway_tenants", |k| scenarios::gateway_tenants(seed(k))),
        scenario("par_cluster", |k| par_cluster::par_cluster(seed(k))),
    ]
}

/// The blocks of those experiments of [`all`] whose id is in `ids` (no
/// id: every [`Golden::Fence`] one), run with `knobs` on [`run_jobs`]'
/// `jobs` workers, each under its `=== id ===` header, in registry order
/// (an id `all` does not list selects nothing). With `trace_out`, a run
/// also writes its Chrome trace there: name one id.
pub fn render(
    ids: &[&str],
    knobs: &Knobs,
    trace_out: Option<&Path>,
    jobs: usize,
) -> std::io::Result<String> {
    let named =
        |e: &Experiment| ids.contains(&e.id) || (ids.is_empty() && e.golden == Golden::Fence);
    let chosen: Vec<_> = all().into_iter().filter(named).collect();
    let traced = trace_out.is_some();
    let outs = run_jobs(chosen.len(), jobs, |i| chosen[i].run(knobs, traced));
    let mut out = String::new();
    for (e, o) in chosen.iter().zip(outs) {
        if let (Some(path), Some(trace)) = (trace_out, &o.trace) {
            std::fs::write(path, trace)?;
        }
        out += &format!("=== {} ===\n{}\n", e.id, o.table);
    }
    Ok(out)
}

/// Every figure and ablation table: what `all_figures` prints, pinned
/// block by block in EXPERIMENTS.md's ```` ```text ```` fences.
pub fn render_all() -> String {
    render(&[], &Knobs::default(), None, default_jobs()).expect("an untraced run writes nothing")
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
