//! Harness census: a cluster experiment is a `dpdpu_bench::cell::Cell`.
//!
//! Reads the sources and fails if a harness under `crates/bench/src` or
//! `tests/` builds a cluster, fronts a gateway or drives a fleet by
//! hand instead of through `cell.rs`, or if a second history-recording
//! client appears. The exceptions are `fleet.rs`'s own definitions
//! (`fn` items are not calls) and the migration property in
//! `tests/properties.rs`, whose racing reader is not a load a cell
//! describes.
//!
//! Two more things there must stay one of: nothing under
//! `crates/bench/src` but `par_cluster.rs` itself (and its line in the
//! scenario registry) reaches the partitioned cluster — the product's
//! sweeps run on `DdsCluster` — and one file under `crates/` moves a log
//! tail (`storage/src/log.rs`).
//!
//! And one tenant vocabulary: a tenant is the index of its `TenantSpec`
//! in the gateway's config, so no handle type wraps it, and the specs
//! have no consumer in the runtime beside the gateway.
//!
//! And faults have one way in: a `SessionGuard` installs a plan, the
//! session arms every scripted fault, and a fault site is named by its
//! `FaultSite`, never by a string a handler retypes.
//!
//! And one interner: every label, probe event and check-point is a des
//! `Site`, so the telemetry crate's old string table and its hasher are
//! named nowhere.

use std::path::{Path, PathBuf};

const CELL: &str = "crates/bench/src/cell.rs";
/// Calls only [`CELL`] may make.
const CELL_ONLY: [&str; 4] = [
    "DdsCluster::build(",
    "Gateway::front(",
    "run_fleet(",
    "run_tenant_fleet(",
];

/// Every `.rs` file under the repo-relative `dirs`: its repo-relative
/// name and its source, sorted by name.
fn sources(dirs: &[&str]) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in dirs {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let named = |path: &PathBuf| {
        let name = path.strip_prefix(root).expect("under the repo root");
        let source = std::fs::read_to_string(path).expect("readable source");
        (name.to_string_lossy().replace('\\', "/"), source)
    };
    files.iter().map(named).collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Does a code line of `source` (comment lines skipped) hold `needle`
/// other than as the `fn` item defining it?
fn calls(source: &str, needle: &str) -> bool {
    let definition = format!("fn {needle}");
    source.lines().any(|line| {
        !line.trim_start().starts_with("//")
            && line.matches(needle).count() > line.matches(&definition).count()
    })
}

#[test]
fn cluster_experiments_go_through_the_cell() {
    let (mut strays, mut recorders) = (Vec::new(), Vec::new());
    for (name, source) in sources(&["crates", "tests"]) {
        if name == CELL || name == "tests/harness_census.rs" {
            continue;
        }
        if name.starts_with("crates/bench/src/") || name.starts_with("tests/") {
            for needle in CELL_ONLY {
                // The bespoke migration property builds its own cluster.
                let bespoke = name == "tests/properties.rs" && needle == CELL_ONLY[0];
                if calls(&source, needle) && !bespoke {
                    strays.push(format!("{name}: `{needle}`"));
                }
            }
        }
        if !name.starts_with("crates/check/") && calls(&source, "write_ambiguous") {
            recorders.push(name);
        }
    }
    assert!(
        strays.is_empty(),
        "hand-built cluster harnesses (describe them as a `Cell`): {strays:#?}"
    );
    assert!(
        recorders.is_empty(),
        "a history-recording client outside `{CELL}`: {recorders:?}"
    );
}

#[test]
fn one_cluster_model_has_callers_and_one_file_moves_a_log_tail() {
    const PAR: &str = "crates/bench/src/par_cluster.rs";
    let (mut par_callers, mut tails) = (Vec::new(), Vec::new());
    for (name, source) in sources(&["crates"]) {
        let lines = |needle: &str| source.lines().filter(|l| l.contains(needle)).count();
        // The scenario registry's one line is the partitioned core's gate.
        let registry = usize::from(name == "crates/bench/src/scenarios.rs");
        if name.starts_with("crates/bench/src/")
            && name != PAR
            && (lines("run_par") + lines("ParClusterConfig") > 0
                || lines("par_cluster::") > registry)
        {
            par_callers.push(name.clone());
        }
        if source.contains("tail.set(") {
            tails.push(name);
        }
    }
    assert!(
        par_callers.is_empty(),
        "the partitioned cluster has no product caller; sweeps run on `DdsCluster`: {par_callers:?}"
    );
    assert_eq!(
        tails,
        ["crates/storage/src/log.rs"],
        "a log tail is reserved in `RecordLog::append` and nowhere else"
    );
}

#[test]
fn a_tenant_is_an_index_into_its_gateways_specs() {
    let (mut handles, mut spec_users) = (Vec::new(), Vec::new());
    for (name, source) in sources(&["crates", "tests"]) {
        if name == "tests/harness_census.rs" {
            continue;
        }
        let code = |needle| {
            source
                .lines()
                .any(|l| !l.trim_start().starts_with("//") && l.contains(needle))
        };
        if code("TenantId") {
            handles.push(name.clone());
        }
        let spec_home = name.starts_with("crates/bench/src/")
            || [
                "crates/core/src/tenants.rs",
                "crates/core/src/lib.rs",
                "crates/dds/src/gateway.rs",
            ]
            .contains(&name.as_str());
        if name.starts_with("crates/") && !spec_home && source.contains("TenantSpec") {
            spec_users.push(name);
        }
    }
    assert!(
        handles.is_empty(),
        "a tenant is a `usize` index, not a handle type: {handles:?}"
    );
    assert!(
        spec_users.is_empty(),
        "`TenantSpec`'s one consumer is `GatewayConfig`: {spec_users:?}"
    );
}

/// Every `.rs` file under `crates/ tests/ examples/ src/`, then README.md.
fn code_and_readme() -> Vec<(String, String)> {
    let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
    let mut files = sources(&["crates", "tests", "examples", "src"]);
    files.push((
        "README.md".to_string(),
        std::fs::read_to_string(readme).expect("readable README"),
    ));
    files
}

#[test]
fn faults_have_one_way_in() {
    let mut strays = Vec::new();
    for (name, source) in code_and_readme() {
        if name == "tests/harness_census.rs" {
            continue;
        }
        let code = |needle| {
            source
                .lines()
                .any(|l| !l.trim_start().starts_with("//") && l.contains(needle))
        };
        let mut stray = |needle, rule| strays.push(format!("{name}: `{needle}` ({rule})"));
        for needle in ["FaultSession::install", "FaultSession::uninstall"] {
            if !name.starts_with("crates/faults/") && code(needle) {
                stray(needle, "a `SessionGuard` installs and removes a plan");
            }
        }
        for needle in ["DpdpuBuilder", "fail_next_", "drop_next_frames"] {
            if source.contains(needle) {
                stray(
                    needle,
                    "boot with `Dpdpu::start`; arm scripted faults on the session",
                );
            }
        }
        for needle in ["fault_handled(\"", "fault_injected(\""] {
            if !name.starts_with("crates/check/") && source.contains(needle) {
                stray(needle, "name the site as `FaultSite::X.label()`");
            }
        }
    }
    assert!(strays.is_empty(), "faults have one way in: {strays:#?}");
}

/// Does `source` name `ident` as a whole word?
fn names(source: &str, ident: &str) -> bool {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    source.match_indices(ident).any(|(at, _)| {
        !source[..at].chars().next_back().is_some_and(word)
            && !source[at + ident.len()..].chars().next().is_some_and(word)
    })
}

#[test]
fn one_interner() {
    // Spelled in pieces, so that this file does not name them itself.
    let gone = [
        concat!("Inter", "ner"),
        concat!("Sy", "m"),
        concat!("Fnv", "Build"),
        concat!("dpdpu_telemetry::", "intern"),
    ];
    let mut strays = Vec::new();
    for (name, source) in code_and_readme() {
        for ident in gone {
            if names(&source, ident) {
                strays.push(format!("{name}: `{ident}`"));
            }
        }
    }
    assert!(
        strays.is_empty(),
        "a label is a `dpdpu_des::Site`; there is no second string table: {strays:#?}"
    );
}
