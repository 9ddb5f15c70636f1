//! Golden-trace conformance: every entry of `dpdpu_bench::all()` is
//! pinned where its `Golden` says. A scenario's (a `Golden::Fixture`
//! entry's) seed-42 summary and Chrome trace are blessed fixtures under
//! `tests/golden/`, and every fixture there names such an entry. Every
//! figure table is pinned in EXPERIMENTS.md itself: each `=== id ===`
//! block of `dpdpu_bench::render_all()` sits alone in a ```` ```text ````
//! fence there, and that fence is its only copy.
//!
//! A summary is pinned as its text. A trace is pinned as a digest,
//! `<scenario>.trace.txt`: line 1 is the [`golden::fingerprint`] of the
//! export's exact bytes, then one sorted row per (device, track, span
//! name) gives the span count, Σ duration, first start and last end, in
//! integer ns. Any changed byte fails line 1, and the rows say where the
//! change is; a change only to `args` or to event order fails line 1
//! alone. Every run writes the full export to
//! `target/tmp/<scenario>.trace.json`, for a trace viewer or for diffing
//! a parent against a change. The rows read the trace as JSON, not
//! through the exporter's one-event-per-line layout.
//!
//! A behaviour change that shifts virtual timings, event counts, or
//! summary numbers shows up here as a line-level diff. To re-bless
//! after an intentional change (figure blocks are rewritten in place;
//! every byte of EXPERIMENTS.md outside them is kept):
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use dpdpu::check::golden;
use dpdpu::telemetry::json::Json;
use dpdpu_bench::{Golden, Knobs, Output};

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Every `Golden::Fixture` entry's run at the default knobs (seed 42),
/// captured exactly once for the whole test binary on
/// `dpdpu_bench::run_jobs`' workers (simulations are thread-confined,
/// so they cannot interact), in registry order.
fn captures() -> &'static [(&'static str, Output)] {
    static CAPTURES: OnceLock<Vec<(&'static str, Output)>> = OnceLock::new();
    CAPTURES.get_or_init(|| {
        let traced: Vec<_> = dpdpu_bench::all()
            .into_iter()
            .filter(|e| e.golden == Golden::Fixture)
            .collect();
        let jobs = dpdpu_bench::default_jobs();
        let runs = dpdpu_bench::run_jobs(traced.len(), jobs, |i| {
            traced[i].run(&Knobs::default(), false)
        });
        traced.iter().map(|e| e.id).zip(runs).collect()
    })
}

fn capture(name: &str) -> &'static Output {
    captures()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, run)| run)
        .expect("scenario exists")
}

/// The trace of a scenario's run.
fn trace(run: &Output) -> &str {
    run.trace.as_deref().expect("a scenario records its trace")
}

/// A digest row's key: (device, track, span name).
type Key = (String, String, String);

fn field<'a>(event: &'a Json, key: &str) -> &'a Json {
    event
        .get(key)
        .unwrap_or_else(|| panic!("a trace event without `{key}`"))
}

fn text<'a>(event: &'a Json, key: &str) -> &'a str {
    field(event, key).as_str().expect("a string field")
}

fn num(event: &Json, key: &str) -> f64 {
    field(event, key).as_f64().expect("a number field")
}

fn int(event: &Json, key: &str) -> u64 {
    num(event, key) as u64
}

/// A microsecond field as integer ns (the exporter prints at most three
/// decimals).
fn ns(event: &Json, key: &str) -> u64 {
    (num(event, key) * 1e3).round() as u64
}

/// Every span (`X` event) of a Chrome trace, in export order, as its
/// key, start and duration in ns. Metadata (`M`) events name each pid (a
/// device) and each (pid, tid) (a track); counter samples (`C`) are
/// pinned by the fingerprint alone.
fn spans(trace: &str) -> Vec<(Key, u64, u64)> {
    let doc = Json::parse(trace).expect("the export is JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr);
    let events = events.expect("a traceEvents array");
    let mut names = HashMap::new();
    for e in events.iter().filter(|e| text(e, "ph") == "M") {
        let tid = (text(e, "name") == "thread_name").then(|| int(e, "tid"));
        names.insert((int(e, "pid"), tid), text(field(e, "args"), "name"));
    }
    let name = |pid, tid| {
        names
            .get(&(pid, tid))
            .expect("a named pid and track")
            .to_string()
    };
    let timed = events.iter().filter(|e| text(e, "ph") == "X");
    timed
        .map(|e| {
            let (pid, tid) = (int(e, "pid"), int(e, "tid"));
            let key = (
                name(pid, None),
                name(pid, Some(tid)),
                text(e, "name").to_string(),
            );
            (key, ns(e, "ts"), ns(e, "dur"))
        })
        .collect()
}

/// What a trace fixture pins: the trace's fingerprint, then one sorted
/// row per key with its span count, Σ duration, first start and last end.
fn digest(trace: &str) -> String {
    let mut rows: BTreeMap<Key, [u64; 4]> = BTreeMap::new();
    for (key, start, dur) in spans(trace) {
        let row = rows.entry(key).or_insert([0, 0, u64::MAX, 0]);
        *row = [
            row[0] + 1,
            row[1] + dur,
            row[2].min(start),
            row[3].max(start + dur),
        ];
    }
    let mut out = golden::fingerprint(trace) + "\n";
    for ((device, track, span), [n, dur, first, end]) in rows {
        let _ = writeln!(
            out,
            "{device} {track} {span} n={n} dur_ns={dur} first_ns={first} end_ns={end}"
        );
    }
    out
}

/// Errs with a diff, and what it means, when `actual` is not the
/// blessed digest `expected`; `full` is where the whole trace was put.
fn compare_digests(expected: &str, actual: &str, full: &Path) -> Result<(), String> {
    let Some(diff) = golden::diff(expected, actual) else {
        return Ok(());
    };
    let what = if expected.lines().skip(1).eq(actual.lines().skip(1)) {
        "every row is equal, so only an attribute (`args`) or the event order moved"
    } else {
        "the -/+ rows name each (device, track, span) that moved"
    };
    Err(format!(
        "the trace diverges from its digest (UPDATE_GOLDEN=1 re-blesses): {what}; \
         the full trace is at {}:\n{diff}",
        full.display()
    ))
}

/// One error per fixture of scenario `name` that its capture `run`
/// diverges from or that is missing: its stdout fixture and its trace
/// digest, each checked; with `UPDATE_GOLDEN=1`, blesses both instead.
fn check_scenario(name: &str, run: &Output) -> Vec<String> {
    let stdout = golden_path(&format!("{name}.stdout.txt"));
    let full = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.trace.json"));
    std::fs::write(&full, trace(run)).expect("write the full trace");
    let (fixture, actual) = (
        golden_path(&format!("{name}.trace.txt")),
        digest(trace(run)),
    );
    if golden::blessing() {
        golden::assert_matches(&stdout, &run.table);
        golden::assert_matches(fixture, &actual);
        return Vec::new();
    }
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| {
            format!(
                "golden fixture {} unreadable ({e}); UPDATE_GOLDEN=1 blesses it",
                path.display()
            )
        })
    };
    let summary = read(&stdout).and_then(|expected| {
        let diff = golden::diff(
            &golden::normalize(&expected),
            &golden::normalize(&run.table),
        );
        diff.map_or(Ok(()), |d| {
            Err(format!(
                "output diverges from golden fixture {} (UPDATE_GOLDEN=1 re-blesses):\n{d}",
                stdout.display()
            ))
        })
    });
    let digest = read(&fixture).and_then(|expected| {
        compare_digests(&expected, &actual, &full)
            .map_err(|e| format!("{}: {e}", fixture.display()))
    });
    [summary, digest]
        .into_iter()
        .filter_map(Result::err)
        .collect()
}

/// Scenario `name` matches both its fixtures. Each fixture is checked,
/// and the test then fails with every one that diverged or is missing.
fn assert_scenario(name: &str) {
    let failed = check_scenario(name, capture(name));
    assert!(
        failed.is_empty(),
        "{} {name} fixture(s) failed:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

/// The scenarios with a test of their own below, in registry order.
const SCENARIOS: [&str; 9] = [
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

/// Every `Golden::Fixture` entry has its own test here, so an entry
/// added without one fails loudly rather than going unpinned.
#[test]
fn every_scenario_has_golden_coverage() {
    let traced: Vec<&str> = captures().iter().map(|(name, _)| *name).collect();
    assert_eq!(traced, SCENARIOS, "add a test for each new scenario");
}

#[test]
fn storage_faults_matches_golden() {
    assert_scenario("storage_faults");
}

#[test]
fn dds_kv_matches_golden() {
    assert_scenario("dds_kv");
}

#[test]
fn compute_pipeline_matches_golden() {
    assert_scenario("compute_pipeline");
}

#[test]
fn cluster_fleet_matches_golden() {
    assert_scenario("cluster_fleet");
}

#[test]
fn cluster_fabric_matches_golden() {
    assert_scenario("cluster_fabric");
}

#[test]
fn net_scenarios_matches_golden() {
    assert_scenario("net_scenarios");
}

#[test]
fn cluster_failover_matches_golden() {
    assert_scenario("cluster_failover");
}

#[test]
fn gateway_tenants_matches_golden() {
    assert_scenario("gateway_tenants");
}

#[test]
fn par_cluster_matches_golden() {
    assert_scenario("par_cluster");
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

/// The figure golden is known-sensitive. On a blessed copy of
/// EXPERIMENTS.md, a changed digit, a missing or repeated block, a text
/// fence holding prose and an unclosed fence each fail; blessing the
/// changed digit gives the blessed copy back byte for byte. The copy is
/// blessed first so that a stale fence in the document itself, which
/// `UPDATE_GOLDEN=1` is run to rewrite, fails only
/// `every_figure_matches_its_golden`.
#[test]
fn the_figure_golden_catches_drift_and_malformed_fences() {
    let tmp = std::env::temp_dir().join(format!("dpdpu-experiments-{}.md", std::process::id()));
    let check = |text: &str, bless: bool| {
        std::fs::write(&tmp, text).expect("write the copy");
        check_figures(&tmp, bless)
    };
    let current = std::fs::read_to_string(experiments_md()).expect("EXPERIMENTS.md");
    check(&current, true).expect("blessing the document");
    let doc = std::fs::read_to_string(&tmp).expect("read back");
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

/// The trace golden is as strict as the bytes and says where they moved.
/// On a copy of the captured `dds_kv` trace, swapping two interior timed
/// lines keeps every row and fails on line 1 alone, and adding 1 ns to
/// one event's `dur` fails on the row of that event's (device, track,
/// span).
#[test]
fn the_trace_golden_catches_a_reorder_and_a_one_ns_move() {
    let trace = trace(capture("dds_kv"));
    let (blessed, full) = (digest(trace), Path::new("dds_kv.trace.json"));
    let lines: Vec<&str> = trace.split_inclusive('\n').collect();
    let timed: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].contains(r#""ph":"X""#))
        .collect();
    // Both lines end in a comma, so the swap keeps the document valid.
    let k = timed.len() / 2;
    let (a, b) = (timed[k], timed[k + 1]);
    assert_ne!(lines[a], lines[b], "the swap must move bytes");
    let moved = |text: Vec<&str>| {
        let err = compare_digests(&blessed, &digest(&text.concat()), full).expect_err("a change");
        let changed: Vec<String> = err
            .lines()
            .filter(|l| l.starts_with("- ") || l.starts_with("+ "))
            .map(str::to_string)
            .collect();
        assert!(
            err.contains("the full trace is at dds_kv.trace.json"),
            "{err}"
        );
        (err, changed)
    };

    let mut swapped = lines.clone();
    swapped.swap(a, b);
    let (err, changed) = moved(swapped);
    assert!(err.contains("every row is equal"), "{err}");
    assert!(changed.len() == 2, "only line 1 moves: {err}");
    assert!(
        changed.iter().all(|l| l.contains("    1 | bytes=")),
        "{err}"
    );

    let ((device, track, span), _, dur) = &spans(trace)[k];
    let (head, rest) = lines[a].split_once(r#""dur":"#).expect("a span has a dur");
    let tail = &rest[rest.find(',').expect("a field after dur")..];
    let line = format!(
        "{head}\"dur\":{}.{:03}{tail}",
        (dur + 1) / 1000,
        (dur + 1) % 1000
    );
    let mut longer = lines.clone();
    longer[a] = &line;
    let (err, changed) = moved(longer);
    assert!(err.contains("the -/+ rows name"), "{err}");
    let row = format!(" | {device} {track} {span} n=");
    let rows: Vec<_> = changed
        .iter()
        .filter(|l| !l.contains("    1 | bytes="))
        .collect();
    assert!(
        rows.len() == 2 && rows.iter().all(|l| l.contains(&row)),
        "{row}: {err}"
    );
}

/// The fixtures under `tests/golden/` that name no scenario: every
/// `<id>.stdout.txt` and `<id>.trace.txt` whose id is not in `traced`,
/// except the examples' golden.
fn stray_fixtures<'a>(files: &[&'a str], traced: &[&str]) -> Vec<&'a str> {
    let pinned = |f: &str| {
        let id = f
            .strip_suffix(".stdout.txt")
            .or(f.strip_suffix(".trace.txt"));
        id.is_none_or(|id| traced.contains(&id))
    };
    let strays = files
        .iter()
        .filter(|f| **f != "examples.stdout.txt" && !pinned(f));
    strays.copied().collect()
}

/// Every fixture names a scenario, so one left behind by a deleted
/// entry fails here; a planted one is named. A trace is pinned by its
/// digest, never its JSON, so every fixture stays small enough to
/// review.
#[test]
fn every_fixture_names_a_scenario() {
    let registry = dpdpu_bench::all();
    let traced = registry.iter().filter(|e| e.golden == Golden::Fixture);
    let traced: Vec<&str> = traced.map(|e| e.id).collect();
    let mut files = Vec::new();
    for entry in std::fs::read_dir(golden_path("")).expect("tests/golden") {
        let path = entry.expect("a directory entry").path();
        let len = std::fs::metadata(&path).expect("a fixture").len();
        assert!(
            path.extension().is_none_or(|e| e != "json"),
            "{} is JSON",
            path.display()
        );
        assert!(
            len < 64 * 1024,
            "{} is {len} bytes (>= 64 KiB)",
            path.display()
        );
        files.push(
            path.file_name()
                .expect("a name")
                .to_string_lossy()
                .into_owned(),
        );
    }
    let files: Vec<&str> = files.iter().map(String::as_str).collect();
    assert_eq!(stray_fixtures(&files, &traced), [] as [&str; 0]);
    let planted = [&files[..], &["gone.trace.txt", "gone.stdout.txt"]].concat();
    assert_eq!(
        stray_fixtures(&planted, &traced),
        ["gone.trace.txt", "gone.stdout.txt"]
    );
}
