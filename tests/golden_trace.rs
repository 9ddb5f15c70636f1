//! Golden-trace conformance: every shipped scenario's seed-42 summary
//! and Chrome trace are pinned as blessed fixtures under `tests/golden/`,
//! and every figure table is pinned in EXPERIMENTS.md itself: each
//! `=== id ===` block of `dpdpu_bench::render_all()` sits alone in a
//! ```` ```text ```` fence there, and that fence is its only copy.
//!
//! A behaviour change that shifts virtual timings, event counts, or
//! summary numbers shows up here as a line-level diff. To re-bless
//! after an intentional change (figure blocks are rewritten in place;
//! every byte of EXPERIMENTS.md outside them is kept):
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use std::path::{Path, PathBuf};
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

/// `render_all()`, run once for the whole test binary, as `(id, block)`
/// pairs in experiment-id order, each block normalised like every golden.
fn figures() -> &'static [(String, String)] {
    static FIGURES: OnceLock<Vec<(String, String)>> = OnceLock::new();
    FIGURES.get_or_init(|| {
        let all = format!("\n{}", dpdpu_bench::render_all());
        let blocks = all.split("\n=== ").skip(1);
        let blocks = blocks.map(|b| golden::normalize(&format!("=== {b}")));
        blocks
            .map(|block| (header_id(&block).expect("a header").to_string(), block))
            .collect()
    })
}

/// The id named by the `=== id ===` header on `text`'s first line.
fn header_id(text: &str) -> Option<&str> {
    let first = text.lines().next()?;
    first.strip_prefix("=== ")?.strip_suffix(" ===")
}

/// Compares every ```` ```text ```` fence of the doc at `path` with the
/// [`figures`] block its header names; with `bless`, rewrites the blocks
/// that moved instead, keeping every other byte. Errs, blessing or not,
/// when a fence never closes, a text fence holds anything but one block,
/// or a figure id is unknown, repeated or missing.
fn check_figures(path: &Path, bless: bool) -> Result<(), String> {
    let doc = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let (mut out, mut seen, mut drifted) = (String::new(), Vec::new(), Vec::new());
    let mut lines = doc.split_inclusive('\n').enumerate();
    while let Some((n, open)) = lines.next() {
        out.push_str(open);
        let Some(info) = open.trim_end().strip_prefix("```") else {
            continue;
        };
        let mut body = String::new();
        let close = loop {
            match lines.next() {
                Some((_, line)) if line.trim_end() == "```" => break line,
                Some((_, line)) => body.push_str(line),
                None => return Err(format!("line {}: fence never closes", n + 1)),
            }
        };
        if info == "text" {
            let id = match (header_id(&body), body.lines().skip(1).find_map(header_id)) {
                (Some(id), None) => id.to_string(),
                _ => return Err(format!("line {}: a text fence is not one block", n + 1)),
            };
            let Some((_, block)) = figures().iter().find(|(f, _)| *f == id) else {
                return Err(format!("line {}: render_all() prints no `{id}`", n + 1));
            };
            if seen.contains(&id) {
                return Err(format!("line {}: figure `{id}` appears twice", n + 1));
            }
            if let Some(d) = golden::diff(&body, block) {
                drifted.push(format!("figure `{id}` (line {}):\n{d}", n + 2));
            }
            body.clone_from(block);
            seen.push(id);
        }
        out.push_str(&body);
        out.push_str(close);
    }
    if let Some((id, _)) = figures().iter().find(|(id, _)| !seen.contains(id)) {
        return Err(format!("no text fence holds figure `{id}`"));
    }
    match (drifted.is_empty(), bless) {
        (true, _) => Ok(()),
        (false, true) => std::fs::write(path, out).map_err(|e| e.to_string()),
        (false, false) => Err(format!(
            "diverges from dpdpu_bench::render_all() (UPDATE_GOLDEN=1 rewrites the blocks):\n{}",
            drifted.join("\n")
        )),
    }
}

fn experiments_md() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md")
}

/// Every figure table, pinned where the paper is answered: virtual time
/// makes the full figure run byte-identical in any profile on any host.
#[test]
fn every_figure_matches_its_golden() {
    check_figures(&experiments_md(), golden::blessing())
        .unwrap_or_else(|e| panic!("EXPERIMENTS.md: {e}"));
}

/// The figure golden is known-sensitive. On a copy of EXPERIMENTS.md, a
/// changed digit, a missing or repeated block, a text fence holding prose
/// and an unclosed fence each fail; blessing the changed digit gives the
/// original back byte for byte.
#[test]
fn the_figure_golden_catches_drift_and_malformed_fences() {
    let doc = std::fs::read_to_string(experiments_md()).expect("EXPERIMENTS.md");
    let tmp = std::env::temp_dir().join(format!("dpdpu-experiments-{}.md", std::process::id()));
    let check = |text: &str, bless: bool| {
        std::fs::write(&tmp, text).expect("write the copy");
        check_figures(&tmp, bless)
    };
    let a4 = &figures().iter().find(|(id, _)| id == "A4").expect("A4").1;
    let fence = format!("```text\n{a4}```\n");

    let bumped = doc.replacen("## Ablation A4", "## Ablation A5", 1);
    let err = check(&bumped, false).expect_err("a changed digit");
    assert!(err.contains("figure `A4`"), "{err}");
    check(&bumped, true).expect("blessing a changed digit");
    let blessed = std::fs::read_to_string(&tmp).expect("read back");
    assert!(blessed == doc, "blessing must give the original back");

    let (twice, prose) = (fence.repeat(2), "```text\nprose\n```\n");
    for (text, expect) in [
        (doc.replacen(&fence, "", 1), "holds figure `A4`"),
        (doc.replacen(&fence, &twice, 1), "`A4` appears twice"),
        (doc.replacen(&fence, prose, 1), "not one block"),
        (format!("{doc}```text\n"), "fence never closes"),
    ] {
        for bless in [false, true] {
            let err = check(&text, bless).expect_err(expect);
            assert!(err.contains(expect), "{expect}: {err}");
        }
    }
    let _ = std::fs::remove_file(&tmp);
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
