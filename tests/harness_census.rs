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
//! experiment registry) reaches the partitioned cluster — the product's
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
//!
//! And one congestion window: `tcp::cong::Cong` holds it, so no trait
//! object, install config or second ACK type is named under
//! `crates/net/src/tcp`.
//!
//! And the time domains run on one thread: the shipping part of
//! `crates/des/src/domain.rs` names no condition variable, atomic or
//! notify call, and has exactly one thread spawn site.
//!
//! And one session slot: the tracer, the checker and the fault plan are
//! parts of one thread-local in `crates/des/src/probe.rs`, so the crates
//! that install them declare no thread-local of their own.
//!
//! And no `allow(dead_code)` in shipping code: an item rustc calls dead
//! is deleted, or moved under `#[cfg(test)]` if only tests use it.
//!
//! And one command line for the experiments: under `crates/bench/src`
//! only `bin/all_figures.rs` (every figure's knobs, declared in
//! `dpdpu_bench::all()`, and the audit's) reads the process arguments.
//!
//! And one job runner: the shipping code under `crates/bench/src` has
//! exactly one thread spawn or scope site, `dpdpu_bench::run_jobs` in
//! `lib.rs`, which the figures, the audit and the golden captures share.
//!
//! And one experiment registry: every figure, ablation and golden
//! scenario is an entry of `dpdpu_bench::all()` in `lib.rs`, so no
//! `ScenarioFn`, no `by_name` lookup and no second `fn all(` appears
//! under `crates/bench/src`.
//!
//! And one storage boot: `FileService::boot` in
//! `crates/storage/src/service.rs` is the one place that formats a
//! platform's file system and registers a platform with telemetry, so
//! neither call appears in the shipping part of another `crates/*/src`
//! file or in a `tests/*.rs` binary — except a format in the files of
//! `OWN_FS`, each listed with its reason.
//!
//! And every `pub` has a caller outside its crate: each `pub` item under
//! `crates/*/src` is named by another crate, a test, an example, the
//! benchmark, README.md's doctests or (for `dpdpu-bench`) its own bins —
//! or it is `pub(crate)`, or it is listed with a reason in
//! `UNNAMED_PUB`. A declaration names nothing (a same-named fn, field or
//! variant elsewhere is no caller), nor does `X::name` where only other
//! crates declare a type `X`.

use std::collections::{HashMap, HashSet};
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
        // The experiment registry's one line is the partitioned core's gate.
        let registry = usize::from(name == REGISTRY);
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

#[test]
fn one_congestion_window() {
    // Spelled in pieces, so that this file does not name them itself.
    let gone = [
        concat!("Cong", "Alg"),
        concat!("Cong", "Config"),
        concat!("Ack", "Event"),
        concat!("d", "yn"),
    ];
    let mut strays = Vec::new();
    for (name, source) in sources(&["crates/net/src/tcp"]) {
        for ident in gone {
            if names(&source, ident) {
                strays.push(format!("{name}: `{ident}`"));
            }
        }
    }
    assert!(
        strays.is_empty(),
        "`tcp::cong::Cong` is the one window, moved by `Cong::on`, and the sender \
         matches on `Segment`: {strays:#?}"
    );
}

const DOMAIN: &str = "crates/des/src/domain.rs";

/// What the shipping part of `source` (its lines before the first
/// `#[cfg(test)]`) says about threads: the cross-thread primitives it
/// names, and how many thread spawn or scope sites it has.
fn threading(source: &str) -> (Vec<&'static str>, usize) {
    // Spelled in pieces, so that this file does not name them itself.
    let primitives = [
        concat!("Cond", "var"),
        concat!("Atom", "ic"),
        concat!("notify", "_"),
    ];
    let sites = [
        concat!("thread::", "spawn"),
        concat!("thread::", "scope"),
        concat!("thread::", "Builder"),
    ];
    let shipping: Vec<&str> = source
        .lines()
        .take_while(|l| !l.contains("#[cfg(test)]"))
        .collect();
    let named = primitives
        .into_iter()
        .filter(|p| shipping.iter().any(|l| l.contains(p)))
        .collect();
    let spawns = shipping
        .iter()
        .map(|l| sites.iter().map(|s| l.matches(s).count()).sum::<usize>())
        .sum();
    (named, spawns)
}

fn domain_source() -> String {
    let tree = sources(&["crates/des/src"]);
    let file = tree.into_iter().find(|(name, _)| name == DOMAIN);
    file.expect("domain.rs in the tree").1
}

#[test]
fn domains_run_on_one_thread() {
    let (named, spawns) = threading(&domain_source());
    assert!(
        named.is_empty(),
        "{DOMAIN}: one driver loop on one thread needs no cross-thread handshake: {named:?}"
    );
    assert_eq!(spawns, 1, "{DOMAIN}: the domains share one worker thread");
}

/// The gate is sensitive: a planted condition variable before the
/// tests is named, one after them is not.
#[test]
fn the_one_thread_gate_names_a_planted_condvar() {
    let plant = concat!("use std::sync::Cond", "var;\n");
    let source = domain_source();
    assert!(threading(&format!("{source}\n{plant}")).0.is_empty());
    assert_eq!(
        threading(&format!("{plant}{source}")),
        (vec![concat!("Cond", "var")], 1)
    );
}

const PROBE: &str = "crates/des/src/probe.rs";
/// The crates whose sessions are parts of [`PROBE`]'s slot.
const SESSION_PARTS: [&str; 3] = [
    "crates/check/src",
    "crates/telemetry/src",
    "crates/faults/src",
];

/// The thread-local session slots in `tree`: every `thread_local!` line
/// under [`SESSION_PARTS`] (there must be none), and every static of
/// [`PROBE`] but its site table and enabled flag (there must be one).
fn session_slots(tree: &[(String, String)]) -> (Vec<String>, Vec<String>) {
    let mut outside = Vec::new();
    let mut in_probe = Vec::new();
    for (name, source) in tree {
        if SESSION_PARTS.iter().any(|dir| name.starts_with(dir)) {
            let lines = source.lines().enumerate();
            let slots = lines.filter(|(_, l)| l.contains("thread_local!"));
            outside.extend(slots.map(|(at, _)| format!("{name}:{}", at + 1)));
        } else if name == PROBE {
            let statics = source
                .lines()
                .filter_map(|l| l.trim().strip_prefix("static "));
            let slots = statics
                .map(ident)
                .filter(|s| !["ENABLED", "SITES"].contains(s));
            in_probe.extend(slots.map(String::from));
        }
    }
    (outside, in_probe)
}

#[test]
fn one_session_slot() {
    let (outside, in_probe) = session_slots(&sources(&["crates"]));
    assert!(
        outside.is_empty(),
        "install a part into des's session slot instead: {outside:#?}"
    );
    assert_eq!(in_probe, ["SESSION"], "{PROBE}: one session slot");
}

/// The gate is sensitive: a second slot planted in the probe, or a
/// thread-local planted in the checker, is named.
#[test]
fn the_session_gate_catches_a_planted_second_slot() {
    let tree = sources(&["crates"]);
    let slot = "static CHECKER: RefCell<Option<Rc<dyn Probe>>> = const { RefCell::new(None) };";
    let mut planted = tree.clone();
    let file = planted.iter_mut().find(|(n, _)| n == PROBE);
    let source = &mut file.expect("probe.rs in the tree").1;
    *source = source.replacen(
        "thread_local! {\n",
        &format!("thread_local! {{\n    {slot}\n"),
        1,
    );
    assert_eq!(session_slots(&planted).1, ["CHECKER", "SESSION"]);
    let local = format!("\nthread_local! {{\n    {slot}\n}}\n");
    let planted = appended(&tree, "crates/check/src/lib.rs", &local);
    assert_eq!(session_slots(&planted).0.len(), 1);
}

/// Every `allow(dead_code)` in shipping code: a line of a `crates/*/src`
/// file before that file's first `#[cfg(test)]`.
fn dead_code_escapes(tree: &[(String, String)]) -> Vec<String> {
    let shipping = |name: &str| name.starts_with("crates/") && name.contains("/src/");
    let mut found = Vec::new();
    for (name, source) in tree.iter().filter(|(name, _)| shipping(name)) {
        let lines = source.lines().enumerate();
        for (at, line) in lines.take_while(|(_, l)| !l.contains("#[cfg(test)]")) {
            if line.contains("allow(dead_code)") {
                found.push(format!("{name}:{}", at + 1));
            }
        }
    }
    found
}

#[test]
fn no_dead_code_escape_in_shipping_code() {
    let found = dead_code_escapes(&sources(&["crates"]));
    assert!(
        found.is_empty(),
        "delete what rustc calls dead, or move a test-only item under `#[cfg(test)]`: {found:#?}"
    );
}

/// The gate is sensitive: an escape planted before a file's tests is
/// named, one inside them is not.
#[test]
fn the_dead_code_gate_catches_a_planted_escape() {
    let escape = "#[allow(dead_code)]\nfn planted() {}\n";
    let name = "crates/des/src/time.rs";
    let tree = sources(&["crates"]);
    let after_tests = appended(&tree, name, escape);
    assert!(
        dead_code_escapes(&after_tests).is_empty(),
        "after the tests is fine"
    );
    let mut planted = tree;
    let file = planted.iter_mut().find(|(n, _)| n == name);
    file.expect("file in the tree").1.insert_str(0, escape);
    assert_eq!(dead_code_escapes(&planted), [format!("{name}:1")]);
}

/// The one binary that may read the process arguments.
const PARSER: &str = "crates/bench/src/bin/all_figures.rs";

/// Every file under `crates/bench/src` but [`PARSER`] whose code reads
/// `env::args` (or `env::args_os`).
fn argument_readers(tree: &[(String, String)]) -> Vec<&str> {
    let bench = |name: &str| name.starts_with("crates/bench/src/") && name != PARSER;
    let readers = tree
        .iter()
        .filter(|(name, source)| bench(name) && calls(source, "env::args"));
    readers.map(|(name, _)| name.as_str()).collect()
}

#[test]
fn one_command_line_for_the_experiments() {
    let tree = sources(&["crates/bench/src"]);
    let readers = argument_readers(&tree);
    assert!(
        readers.is_empty(),
        "declare an experiment's knobs in its `dpdpu_bench::all()` entry and let \
         `all_figures` parse them: {readers:?}"
    );
}

/// The gate is sensitive: a second parser planted in a figure module or
/// in a new binary is named; one in a comment is not.
#[test]
fn the_command_line_gate_catches_a_planted_parser() {
    let tree = sources(&["crates/bench/src"]);
    let name = "crates/bench/src/fig9_dds_savings.rs";
    let comment = "\n// std::env::args()\n";
    assert!(argument_readers(&appended(&tree, name, comment)).is_empty());
    let parser = "\nfn main() {\n    let _ = std::env::args();\n}\n";
    assert_eq!(argument_readers(&appended(&tree, name, parser)), [name]);
    let mut planted = tree;
    let bin = "crates/bench/src/bin/audit_determinism.rs";
    planted.push((bin.to_string(), parser.to_string()));
    assert_eq!(argument_readers(&planted), [bin]);
}

/// The file of the one job runner, `dpdpu_bench::run_jobs`.
const RUNNER: &str = "crates/bench/src/lib.rs";

/// The name of each file under `crates/bench/src`, once per thread spawn
/// or scope site in its shipping part.
fn spawn_sites(tree: &[(String, String)]) -> Vec<&str> {
    let bench = tree
        .iter()
        .filter(|(name, _)| name.starts_with("crates/bench/src/"));
    let sites = bench.map(|(name, source)| std::iter::repeat_n(name.as_str(), threading(source).1));
    sites.flatten().collect()
}

#[test]
fn one_job_runner_for_the_experiments() {
    let tree = sources(&["crates/bench/src"]);
    assert_eq!(
        spawn_sites(&tree),
        [RUNNER],
        "run jobs on `dpdpu_bench::run_jobs`, the one pool of the figures, the audit and \
         the golden captures"
    );
}

/// The gate is sensitive: a second site planted before a figure
/// module's tests is named; one after them is not.
#[test]
fn the_runner_gate_catches_a_planted_spawn() {
    let tree = sources(&["crates/bench/src"]);
    let name = "crates/bench/src/fig9_dds_savings.rs";
    let spawn = "fn planted() {\n    std::thread::spawn(|| ());\n}\n";
    assert_eq!(spawn_sites(&appended(&tree, name, spawn)), [RUNNER]);
    let mut planted = tree;
    let file = planted.iter_mut().find(|(n, _)| n == name);
    file.expect("file in the tree").1.insert_str(0, spawn);
    assert_eq!(spawn_sites(&planted), [name, RUNNER]);
}

/// The file of the one experiment registry, `dpdpu_bench::all`.
const REGISTRY: &str = "crates/bench/src/lib.rs";

/// Each second registry under `crates/bench/src`, as `file: needle`: a
/// code line naming `ScenarioFn` or `by_name`, or an `fn all(` past the
/// one in [`REGISTRY`].
fn second_registries(tree: &[(String, String)]) -> Vec<String> {
    let mut found = Vec::new();
    let bench = tree
        .iter()
        .filter(|(n, _)| n.starts_with("crates/bench/src/"));
    for (name, source) in bench {
        let code = source.lines().filter(|l| !l.trim_start().starts_with("//"));
        let count = |needle| code.clone().filter(|l| l.contains(needle)).count();
        let allowed = usize::from(name == REGISTRY);
        for (needle, allowed) in [("ScenarioFn", 0), ("by_name", 0), ("fn all(", allowed)] {
            if count(needle) > allowed {
                found.push(format!("{name}: `{needle}`"));
            }
        }
    }
    found
}

#[test]
fn one_experiment_registry() {
    let found = second_registries(&sources(&["crates/bench/src"]));
    assert!(
        found.is_empty(),
        "an experiment is an entry of `dpdpu_bench::all()`, run by `Experiment::run`: {found:?}"
    );
}

/// The gate is sensitive: a scenario fn type, a lookup by name and a
/// second `fn all(` planted in the scenarios module are each named, as
/// is a second `fn all(` in the registry's own file; the same names in
/// comments are not.
#[test]
fn the_registry_gate_catches_a_planted_second_registry() {
    let tree = sources(&["crates/bench/src"]);
    let name = "crates/bench/src/scenarios.rs";
    let comment = "\n// pub fn all() and by_name(name) over ScenarioFn\n";
    assert!(second_registries(&appended(&tree, name, comment)).is_empty());
    let registry = "\npub type ScenarioFn = fn(u64) -> String;\n\
                    pub fn all() -> Vec<(&'static str, ScenarioFn)> {\n    Vec::new()\n}\n\
                    pub fn by_name(_: &str) -> Option<ScenarioFn> {\n    None\n}\n";
    assert_eq!(
        second_registries(&appended(&tree, name, registry)),
        [
            format!("{name}: `ScenarioFn`"),
            format!("{name}: `by_name`"),
            format!("{name}: `fn all(`"),
        ]
    );
    let twice = "\nfn all() -> Vec<()> {\n    Vec::new()\n}\n";
    assert_eq!(
        second_registries(&appended(&tree, REGISTRY, twice)),
        [format!("{REGISTRY}: `fn all(`")]
    );
}

/// The file of the one Storage Engine boot, `FileService::boot`.
const BOOT: &str = "crates/storage/src/service.rs";
/// What only [`BOOT`] may do, once each: format a file system and
/// register a platform with telemetry. Spelled in pieces, so that this
/// file does not do them itself.
const BOOT_ONLY: [&str; 2] = [
    concat!("ExtentFs::", "format("),
    concat!("register_", "telemetry("),
];
/// The files that format a file system of their own, each with its
/// reason.
const OWN_FS: [(&str, &str); 3] = [
    (
        "crates/bench/src/fig2_storage_cpu.rs",
        "Figure 2 formats one file system per SSD of its array",
    ),
    (
        "tests/crash_recovery.rs",
        "keeps its file system across a power loss and a restart",
    ),
    (
        "tests/fs_model.rs",
        "drives the file system alone, against a model",
    ),
];

/// Each second boot, as `file: needle`: a code line of a `tests/*.rs`
/// file, or of a `crates/*/src` file before its first `#[cfg(test)]`,
/// that names a [`BOOT_ONLY`] call past [`BOOT`]'s one of each and the
/// formats of [`OWN_FS`]. The `fn` declaring a needle is no call.
fn second_boots(tree: &[(String, String)]) -> Vec<String> {
    let mut found = Vec::new();
    for (name, source) in tree {
        let shipping = name.starts_with("crates/") && name.contains("/src/");
        if !shipping && !name.starts_with("tests/") {
            continue;
        }
        let code = source
            .lines()
            .take_while(|l| !(shipping && l.contains("#[cfg(test)]")))
            .filter(|l| !l.trim_start().starts_with("//"));
        for needle in BOOT_ONLY {
            let definition = format!("fn {needle}");
            let calls: usize = code
                .clone()
                .map(|l| l.matches(needle).count() - l.matches(&definition).count())
                .sum();
            let own_fs = needle == BOOT_ONLY[0] && OWN_FS.iter().any(|(f, _)| f == name);
            let allowed = if own_fs {
                usize::MAX
            } else {
                usize::from(name == BOOT)
            };
            if calls > allowed {
                found.push(format!("{name}: `{needle}`"));
            }
        }
    }
    found
}

#[test]
fn one_storage_boot() {
    let found = second_boots(&sources(&["crates", "tests"]));
    assert!(
        found.is_empty(),
        "boot the Storage Engine with `FileService::boot`, which registers the platform with \
         telemetry and formats its file system: {found:?}"
    );
}

/// The gate is sensitive: a boot pair planted before a DDS module's
/// tests, in a test binary or a second time in [`BOOT`] is named; one
/// inside a module's tests or in a comment is not, nor is a format in
/// an [`OWN_FS`] file.
#[test]
fn the_boot_gate_catches_a_planted_pair() {
    let tree = sources(&["crates", "tests"]);
    let [format, register] = BOOT_ONLY;
    let pair = format!(
        "fn planted(p: &Rc<Platform>, t: &Telemetry) {{\n    \
         let _ = {format}BlockDevice::new(p.ssd.clone(), 1));\n    \
         p.{register}t);\n}}\n"
    );
    let comment = format!("\n// {format}..) then p.{register}t)\n");
    let name = "crates/dds/src/server.rs";
    assert!(second_boots(&appended(&tree, name, &comment)).is_empty());
    assert!(
        second_boots(&appended(&tree, name, &pair)).is_empty(),
        "inside the tests is fine"
    );
    let prepended = |name: &str| {
        let mut planted = tree.clone();
        let file = planted.iter_mut().find(|(n, _)| n == name);
        file.expect("file in the tree").1.insert_str(0, &pair);
        planted
    };
    let named = |file: &str| {
        [
            format!("{file}: `{format}`"),
            format!("{file}: `{register}`"),
        ]
    };
    assert_eq!(second_boots(&prepended(name)), named(name));
    let test = "tests/scan.rs";
    assert_eq!(second_boots(&appended(&tree, test, &pair)), named(test));
    assert_eq!(second_boots(&prepended(BOOT)), named(BOOT));
    let (fig2, _) = OWN_FS[0];
    assert_eq!(
        second_boots(&prepended(fig2)),
        [format!("{fig2}: `{register}`")]
    );
}

/// `pub` items that nothing outside their crate names, kept `pub` on
/// purpose, one per line: `crate item: reason`. Most are types that a
/// called `pub` item takes or returns, so they stay `pub` although no
/// caller spells their name.
const UNNAMED_PUB: &str = "\
bench CellReport: returned by `netmatrix::run_cell`
bench Divergence: returned by `audit::replay`
bench Experiment: the registry `dpdpu_bench::all` returns
bench FleetReport: returned by `fleet::run_fleet`; a `cell::Run` field
bench TenantFleetReport: returned by `fleet::run_tenant_fleet`; a `cell::Run` field
check Violation: returned by `CheckSession::finish`
compute DpKernel: returned by `ComputeEngine::get_dpk` (Figure 6's kernel handle)
compute SprocDone: what the receiver `Scheduler::submit` returns resolves to
core Report: returned by `Dpdpu::report`
dds ErrorCode: the payload of `proto::Reply::Error`
dds ReplGroupCtl: returned by `DdsCluster::ctl`
dds ReplRole: returned by `Dds::replication`
dds ReplicaGroup: returned by `DdsCluster::group`
dds TrafficDirector: the type of `Dds::director`
dds resume_migration: finishes an `add_shard` that returned `Err`, whose keys stay dual-read until then
des Acquire: the future `Semaphore::acquire` returns
des Cancelled: what a `OneshotReceiver` yields when its sender drops
des Closed: the future `Sender::closed` returns
des Elapsed: returned by `timeout`
des Race: the future `race` returns
des Recv: the futures `Receiver::recv` and `XReceiver::recv` return
des SendError: returned by `Sender::send`
des Sleep: the future `sleep` and `sleep_until` return
des Timeout: the future `timeout` returns
des YieldNow: the future `yield_now` returns
hw AccelSpec: returned by `DpuSpec::accel`
hw PeerDevice: returned by `Platform::install_peer` and `peer_device`
kernels Chunk: returned by `dedup::chunk`
kernels DecodeError: returned by `deflate::decompress`
kernels PageError: returned by `Batch::decode_page`
kernels ParseError: returned by `Regex::new`
net Connection: returned by `NetConfig::connect`
net FlowStats: the type of `dfi::Flow::stats`
net OffloadStats: the type of `OffloadedQp::stats`
net OffloadedQp: returned by `rdma_offload::offload_qp`
net RdmaQp: returned by `rdma::rdma_pair`
net RdmaStats: the type of `RdmaQp::stats`
net TcpReceiver: returned by `TcpConnector::stream`
net TcpStats: the type of `TcpSender::stats` and `TcpReceiver::stats`
telemetry CounterSample: returned by `Telemetry::samples`
telemetry Registry: returned by `Telemetry::registry`
telemetry SamplerHandle: returned by `start_sampler`
telemetry SpanGuard: returned by `span`
telemetry Tracer: returned by `Telemetry::tracer`";

/// [`UNNAMED_PUB`] as `(crate, item, reason)` entries.
fn unnamed_pub() -> Vec<(&'static str, &'static str, &'static str)> {
    let entry = |line: &'static str| {
        let (item, reason) = line.split_once(": ").expect("`crate item: reason`");
        let (krate, name) = item.split_once(' ').expect("`crate item`");
        (krate, name, reason)
    };
    UNNAMED_PUB.lines().map(entry).collect()
}

/// One `pub` item: where it is declared, its kind and its name.
struct PubItem {
    line: usize,
    kind: &'static str,
    name: String,
}

/// The leading identifier of `s`.
fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// The `pub` items declared in `source`: fns, types, traits, consts,
/// statics, modules, named fields, and the names a `pub use` exports.
/// `pub(crate)` and narrower are not `pub`; a `#[cfg(test)]` block is
/// skipped.
fn pub_items(source: &str) -> Vec<PubItem> {
    const KINDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let mut items = Vec::new();
    let (mut test_attr, mut test_depth) = (false, 0usize);
    let mut reexport: Option<(usize, String)> = None;
    for (at, raw) in source.lines().enumerate() {
        let line = raw.trim();
        if test_depth > 0 {
            test_depth = (test_depth + line.matches('{').count()) - line.matches('}').count();
            continue;
        }
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        if line.starts_with("#[") {
            test_attr |= line == "#[cfg(test)]";
            continue;
        }
        if std::mem::take(&mut test_attr) && line.ends_with('{') {
            test_depth = 1;
            continue;
        }
        let mut item = |line, kind, name: &str| {
            let name = name.to_string();
            items.push(PubItem { line, kind, name });
        };
        // A `pub use` tree may span lines: gather it up to its `;`.
        let tree = match (reexport.take(), line.strip_prefix("pub use ")) {
            (Some((start, tree)), _) => Some((start, tree + line)),
            (None, Some(tree)) => Some((at + 1, tree.to_string())),
            (None, None) => None,
        };
        if let Some((start, tree)) = tree {
            if tree.contains(';') {
                exported(&tree).for_each(|n| item(start, "use", n));
            } else {
                reexport = Some((start, tree));
            }
            continue;
        }
        let Some(rest) = line.strip_prefix("pub ") else {
            continue;
        };
        let rest = rest
            .trim_start_matches("async ")
            .trim_start_matches("unsafe ");
        let rest = rest
            .strip_prefix("const ")
            .filter(|r| r.starts_with("fn "))
            .unwrap_or(rest);
        let declared = KINDS
            .iter()
            .find_map(|&kind| Some((kind, ident(rest.strip_prefix(kind)?.strip_prefix(' ')?))));
        match declared {
            Some((kind, name)) => item(at + 1, kind, name),
            None if rest[ident(rest).len()..].trim_start().starts_with(':') => {
                item(at + 1, "field", ident(rest))
            }
            None => {}
        }
    }
    items.retain(|i| !i.name.is_empty());
    items
}

/// The names a `use` tree (the text after `pub use`) brings into scope:
/// each leaf's last segment or its `as` rename; a glob exports no name.
fn exported(tree: &str) -> impl Iterator<Item = &str> {
    tree.split(['{', '}', ',', ';'])
        .map(|leaf| match leaf.rsplit_once(" as ") {
            Some((_, alias)) => alias.trim(),
            None => leaf.rsplit("::").next().unwrap_or("").trim(),
        })
        .filter(|name| !name.is_empty() && *name != "*" && *name != "self")
}

/// Keywords that introduce an item: the identifier after one is declared.
const ITEM_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// The identifiers of `line` with their byte offsets.
fn words(line: &str) -> impl Iterator<Item = (usize, &str)> {
    line.match_indices(|c: char| c.is_alphanumeric() || c == '_')
        .filter(move |&(at, _)| {
            !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
        .map(move |(at, _)| (at, ident(&line[at..])))
}

/// The names a file's code mentions, each with the path segments before
/// its mentions.
type Mentions<'a> = HashMap<&'a str, Vec<Option<&'a str>>>;

/// The names `source`'s code mentions (`//` comment lines skipped), each
/// with the path segment before it (`Part` in `Part::Tracer`), if any. A
/// name a declaration introduces is no mention: the identifier after an
/// item keyword, a field of a struct or enum body, a variant of an enum
/// body.
fn mentions(source: &str) -> Mentions<'_> {
    let mut out = Mentions::new();
    // The brace depth inside the struct or enum body being read, and
    // whether it is an enum's.
    let mut body: Option<(usize, bool)> = None;
    for line in source.lines().map(str::trim) {
        if line.starts_with("//") {
            continue;
        }
        // The member a body line declares: the line's first identifier
        // after its visibility, when a `:` follows it (a field) or it
        // sits directly in an enum's body (a variant).
        let member = body
            .filter(|_| !line.starts_with('#'))
            .and_then(|(depth, is_enum)| {
                let rest = line.strip_prefix("pub").map_or(line, |r| {
                    r.strip_prefix('(')
                        .and_then(|r| Some(&r[r.find(')')? + 1..]))
                        .unwrap_or(r)
                        .trim_start()
                });
                let name = ident(rest);
                let after = rest[name.len()..].trim_start();
                let field = after.starts_with(':') && !after.starts_with("::");
                (!name.is_empty() && (field || (is_enum && depth == 1))).then_some(name)
            });
        let mut prev: Option<&str> = None;
        let mut end = 0;
        for (at, word) in words(line) {
            let gap = line[end..at].trim();
            let after_keyword = gap.is_empty() && prev.is_some_and(|p| ITEM_KEYWORDS.contains(&p));
            let is_member = member == Some(word) && prev.is_none_or(|p| p == "pub" || p == "crate");
            if !(after_keyword || is_member) {
                let qualifier = prev.filter(|_| gap == "::");
                out.entry(word).or_default().push(qualifier);
            }
            (prev, end) = (Some(word), at + word.len());
        }
        let opens = line.matches('{').count();
        let closes = line.matches('}').count();
        body = match body {
            Some((depth, is_enum)) => (depth + opens).checked_sub(closes).map(|d| (d, is_enum)),
            None => ["struct", "enum"]
                .iter()
                .find(|k| words(line).any(|(_, w)| w == **k))
                .filter(|_| opens > closes)
                .map(|k| (opens - closes, *k == "enum")),
        }
        .filter(|&(depth, _)| depth > 0);
    }
    out
}

/// The types declared under `crates/*/src`, each with the crates that
/// declare one of that name.
fn declared_types(files: &[(String, String)]) -> HashMap<&str, HashSet<&str>> {
    let mut types: HashMap<&str, HashSet<&str>> = HashMap::new();
    for (name, source) in files {
        let Some((krate, _)) = name
            .strip_prefix("crates/")
            .and_then(|n| n.split_once("/src/"))
        else {
            continue;
        };
        for line in source.lines().map(str::trim) {
            let mut prev = "";
            for (_, word) in words(line) {
                if ["struct", "enum", "trait", "type"].contains(&prev) {
                    types.entry(word).or_default().insert(krate);
                }
                prev = word;
            }
        }
    }
    types
}

/// The census over `files` (repo-relative name, source): for each crate
/// under `crates/`, the `pub` items in its `src/` (its `src/bin/` aside)
/// that no other file names and `exempt` does not list; then each
/// `exempt` entry that matches no such item.
fn uncalled_pub(
    files: &[(String, String)],
    exempt: &[(&str, &str, &str)],
) -> (Vec<String>, Vec<String>) {
    let mentioned: Vec<_> = files
        .iter()
        .map(|(n, s)| (n.as_str(), mentions(s)))
        .collect();
    let types = declared_types(files);
    let mut crates: Vec<&str> = files
        .iter()
        .filter_map(|(n, _)| Some(n.strip_prefix("crates/")?.split_once("/src/")?.0))
        .collect();
    crates.sort();
    crates.dedup();
    let (mut uncalled, mut exempted) = (Vec::new(), Vec::new());
    for krate in crates {
        let home = format!("crates/{krate}/src/");
        let bins = format!("{home}bin/");
        let inside = |n: &str| n.starts_with(&home) && !n.starts_with(&bins);
        // `X::name` with `X` a type only other crates declare names a
        // member of `X`, not an item of this crate.
        let foreign = |q: &str| types.get(q).is_some_and(|ks| !ks.contains(krate));
        for (file, source) in files.iter().filter(|(n, _)| inside(n)) {
            for item in pub_items(source) {
                let named = |(n, names): &(&str, Mentions)| {
                    !inside(n)
                        && names
                            .get(item.name.as_str())
                            .is_some_and(|qs| qs.iter().any(|q| !q.is_some_and(foreign)))
                };
                if mentioned.iter().any(named) {
                    continue;
                }
                if exempt.iter().any(|&(k, n, _)| k == krate && n == item.name) {
                    exempted.push(format!("{krate}: {}", item.name));
                } else {
                    let PubItem { line, kind, name } = item;
                    uncalled.push(format!("{krate}: pub {kind} {name} ({file}:{line})"));
                }
            }
        }
    }
    let stale = exempt
        .iter()
        .map(|(k, n, _)| format!("{k}: {n}"))
        .filter(|entry| !exempted.contains(entry))
        .collect();
    (uncalled, stale)
}

/// Every `.rs` file that can call into `crates/` (this census aside),
/// then README.md's Rust fences — the root crate's doctests — as one
/// file.
fn census_tree() -> Vec<(String, String)> {
    let dirs = [
        "crates",
        "tests",
        "examples",
        "src",
        "benchmark/src",
        "benchmark/tests",
    ];
    let mut files = sources(&dirs);
    files.retain(|(n, _)| n != "tests/harness_census.rs");
    let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
    let readme = std::fs::read_to_string(readme).expect("readable README");
    let (mut rust, mut fence) = (String::new(), None);
    for line in readme.lines() {
        match (line.strip_prefix("```"), fence) {
            (Some(tag), None) => fence = Some(tag.is_empty() || tag.starts_with("rust")),
            (Some(_), Some(_)) => fence = None,
            (None, Some(true)) => rust.extend([line, "\n"]),
            _ => {}
        }
    }
    files.push(("README.md".to_string(), rust));
    files
}

#[test]
fn every_pub_has_a_caller_outside_its_crate() {
    let (uncalled, stale) = uncalled_pub(&census_tree(), &unnamed_pub());
    assert!(
        uncalled.is_empty(),
        "`pub` items that nothing outside their crate names: make each `pub(crate)` \
         (then delete what rustc calls dead), or list it in UNNAMED_PUB with a reason: \
         {uncalled:#?}"
    );
    assert!(
        stale.is_empty(),
        "UNNAMED_PUB entries that match no uncalled `pub` item: {stale:?}"
    );
    let bare: Vec<_> = unnamed_pub()
        .into_iter()
        .filter(|(_, _, why)| why.trim().is_empty())
        .collect();
    assert!(
        bare.is_empty(),
        "UNNAMED_PUB entries without a reason: {bare:?}"
    );
}

/// `tree` with `text` appended to its file `name`.
fn appended(tree: &[(String, String)], name: &str, text: &str) -> Vec<(String, String)> {
    let mut tree = tree.to_vec();
    let file = tree.iter_mut().find(|(n, _)| n == name);
    file.expect("file in the tree").1.push_str(text);
    tree
}

/// The census is sensitive: a planted uncalled `pub fn` is named, a
/// caller in its own crate does not clear it and one in another does,
/// and an exemption naming no item fails as stale.
#[test]
fn the_census_catches_a_planted_pub_and_a_stale_exemption() {
    let exempt = unnamed_pub();
    let tree = census_tree();
    let probe = "\npub fn planted_census_probe() {}\n";
    let planted = appended(&tree, "crates/des/src/time.rs", probe);
    let (uncalled, stale) = uncalled_pub(&planted, &exempt);
    assert!(stale.is_empty(), "{stale:?}");
    assert_eq!(uncalled.len(), 1, "{uncalled:#?}");
    let named = "des: pub fn planted_census_probe (crates/des/src/time.rs:";
    assert!(uncalled[0].starts_with(named), "{uncalled:?}");

    let call = "\nfn caller() { dpdpu_des::planted_census_probe(); }\n";
    let left = |file| {
        uncalled_pub(&appended(&planted, file, call), &exempt)
            .0
            .len()
    };
    assert_eq!(
        left("crates/des/src/stats.rs"),
        1,
        "a caller in des is no caller"
    );
    assert_eq!(
        left("examples/quickstart.rs"),
        0,
        "a caller outside des clears it"
    );

    let mut with_stale = exempt.clone();
    with_stale.push(("des", "no_such_item", "planted"));
    let (uncalled, stale) = uncalled_pub(&tree, &with_stale);
    assert!(uncalled.is_empty(), "{uncalled:#?}");
    assert_eq!(stale, ["des: no_such_item"]);
}

/// A declaration is no caller: a planted `pub struct` in des stays
/// uncalled while another crate declares a same-named enum variant, a
/// field and a fn and names the variant through its enum; naming the
/// struct clears it.
#[test]
fn the_census_sees_past_a_same_named_declaration() {
    let exempt = unnamed_pub();
    let tree = census_tree();
    let probe = "\npub struct PlantedCensusProbe;\n";
    let planted = appended(&tree, "crates/des/src/time.rs", probe);
    let namesakes = "\nenum PlantedPart {\n    PlantedCensusProbe,\n}\n\
                     struct PlantedHolder {\n    PlantedCensusProbe: u8,\n}\n\
                     fn PlantedCensusProbe() -> PlantedPart {\n    \
                     PlantedPart::PlantedCensusProbe\n}\n";
    let shadowed = appended(&planted, "crates/telemetry/src/lib.rs", namesakes);
    let (uncalled, stale) = uncalled_pub(&shadowed, &exempt);
    assert!(stale.is_empty(), "{stale:?}");
    assert_eq!(uncalled.len(), 1, "{uncalled:#?}");
    let named = "des: pub struct PlantedCensusProbe (crates/des/src/time.rs:";
    assert!(uncalled[0].starts_with(named), "{uncalled:?}");

    let call = "\nfn caller() -> dpdpu_des::PlantedCensusProbe {\n    \
                dpdpu_des::PlantedCensusProbe\n}\n";
    let called = appended(&shadowed, "crates/telemetry/src/lib.rs", call);
    assert!(
        uncalled_pub(&called, &exempt).0.is_empty(),
        "a caller clears it"
    );
}
