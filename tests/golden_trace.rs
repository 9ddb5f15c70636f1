//! Golden-trace conformance: every shipped scenario's seed-42 summary
//! and Chrome trace, and every figure table, are pinned as blessed
//! fixtures under `tests/golden/`.
//!
//! A behaviour change that shifts virtual timings, event counts, or
//! summary numbers shows up here as a line-level diff. To re-bless
//! after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;

use dpdpu::check::golden;
use dpdpu_bench::scenarios::ScenarioRun;

/// Seed the fixtures are blessed at (the repo-wide default seed).
const GOLDEN_SEED: u64 = 42;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// All scenario runs, captured exactly once for the whole test binary:
/// one worker thread per scenario (simulations are thread-confined, so
/// they cannot interact), joined in declaration order so the captured
/// list — and any panic propagation — is deterministic.
fn captures() -> &'static [(&'static str, ScenarioRun)] {
    static CAPTURES: OnceLock<Vec<(&'static str, ScenarioRun)>> = OnceLock::new();
    CAPTURES.get_or_init(|| {
        let workers: Vec<_> = dpdpu_bench::scenarios::all()
            .into_iter()
            .map(|(name, f)| (name, std::thread::spawn(move || f(GOLDEN_SEED))))
            .collect();
        workers
            .into_iter()
            .map(|(name, h)| (name, h.join().expect("scenario capture panicked")))
            .collect()
    })
}

fn check_scenario(name: &str) {
    let run = captures()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, run)| run)
        .expect("scenario exists");
    golden::assert_matches(golden_path(&format!("{name}.stdout.txt")), &run.stdout);
    golden::assert_matches(golden_path(&format!("{name}.trace.json")), &run.trace);
}

#[test]
fn storage_faults_matches_golden() {
    check_scenario("storage_faults");
}

#[test]
fn dds_kv_matches_golden() {
    check_scenario("dds_kv");
}

#[test]
fn compute_pipeline_matches_golden() {
    check_scenario("compute_pipeline");
}

#[test]
fn cluster_fleet_matches_golden() {
    check_scenario("cluster_fleet");
}

#[test]
fn cluster_fabric_matches_golden() {
    check_scenario("cluster_fabric");
}

#[test]
fn net_scenarios_matches_golden() {
    check_scenario("net_scenarios");
}

#[test]
fn cluster_failover_matches_golden() {
    check_scenario("cluster_failover");
}

#[test]
fn gateway_tenants_matches_golden() {
    check_scenario("gateway_tenants");
}

#[test]
fn par_cluster_matches_golden() {
    check_scenario("par_cluster");
}

/// Every number EXPERIMENTS.md quotes, pinned: virtual time makes the
/// full figure run byte-identical in any profile on any host.
#[test]
fn every_figure_matches_its_golden() {
    golden::assert_matches(
        golden_path("all_figures.stdout.txt"),
        &dpdpu_bench::render_all(),
    );
}

#[test]
fn every_scenario_has_golden_coverage() {
    // Adding a scenario without blessing fixtures for it must fail
    // loudly here, not silently skip conformance.
    let covered = [
        "storage_faults",
        "dds_kv",
        "compute_pipeline",
        "cluster_fleet",
        "cluster_fabric",
        "net_scenarios",
        "cluster_failover",
        "gateway_tenants",
        "par_cluster",
    ];
    for (name, _) in dpdpu_bench::scenarios::all() {
        assert!(
            covered.contains(&name),
            "scenario '{name}' has no golden-trace test; add one and bless fixtures"
        );
    }
}
