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
//! Binaries: `all_figures [id…]` prints every table, or the named ones
//! (the ids of [`all`]: `all_figures fig2 A3`); the six harnesses that
//! take flags keep a binary of their own — `fig9_dds_savings`,
//! `fig10_cluster_scale`, `fig10_fabric`, `fig11_tenants`, `abl_faults`
//! and `audit_determinism`.

pub mod abl_cache_split;
pub mod abl_fast_persist;
pub mod abl_faults;
pub mod abl_fusion;
pub mod abl_partial_offload;
pub mod abl_pipeline;
pub mod abl_placement;
pub mod abl_scheduler;
pub mod abl_tenant_iso;
pub mod audit;
pub mod cell;
pub mod fig10_cluster_scale;
pub mod fig10_fabric;
pub mod fig11_tenants;
pub mod fig1_compression;
pub mod fig2_storage_cpu;
pub mod fig3_network_cpu;
pub mod fig7_rdma;
pub mod fig8_roundtrips;
pub mod fig9_dds_savings;
pub mod fleet;
pub mod netmatrix;
pub mod par_cluster;
pub mod scenarios;
pub mod table;

/// A figure/ablation runner.
pub type Runner = fn() -> String;

/// Every figure/ablation in experiment-id order: `(id, runner)`.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("fig1", fig1_compression::run as Runner),
        ("fig2", fig2_storage_cpu::run),
        ("fig3", fig3_network_cpu::run),
        ("fig7", fig7_rdma::run),
        ("fig8", fig8_roundtrips::run),
        ("fig9", fig9_dds_savings::run),
        ("fig10", fig10_cluster_scale::run),
        ("fig10r", fig10_cluster_scale::run_replicated),
        ("fig10f", fig10_fabric::run),
        ("fig11", fig11_tenants::run),
        ("A1", abl_scheduler::run),
        ("A2", abl_placement::run),
        ("A3", abl_cache_split::run),
        ("A4", abl_fast_persist::run),
        ("A5", abl_partial_offload::run),
        ("A6", abl_tenant_iso::run),
        ("A7", abl_pipeline::run),
        ("A8", abl_fusion::run),
        ("A9", abl_faults::run),
    ]
}

/// The tables of those experiments of [`all`] whose id is in `ids`, each
/// under its `=== id ===` header, in experiment-id order (an id `all`
/// does not list selects nothing). Each runner gets its own worker thread
/// (simulations are thread-confined, so they cannot interact) and its
/// own strict invariant session.
pub fn render(ids: &[&str]) -> String {
    let workers: Vec<_> = all()
        .into_iter()
        .filter(|(id, _)| ids.contains(id))
        .map(|(id, runner)| {
            let checked = move || {
                let _check = dpdpu_check::CheckGuard::new();
                runner()
            };
            (id, std::thread::spawn(checked))
        })
        .collect();
    let mut out = String::new();
    for (id, worker) in workers {
        let table = worker.join().expect("figure panicked");
        out += &format!("=== {id} ===\n{table}\n");
    }
    out
}

/// Every figure and ablation table: what `all_figures` prints, pinned
/// block by block in EXPERIMENTS.md's ```` ```text ```` fences.
pub fn render_all() -> String {
    let ids: Vec<_> = all().iter().map(|(id, _)| *id).collect();
    render(&ids)
}
