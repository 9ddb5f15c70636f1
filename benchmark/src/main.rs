//! `dpdpu-benchmark` — see `benchmark/README.md` and `benchmark/run.sh`.
//!
//! Three ways in:
//!
//! * `--workload W --trace 0|1 [--seconds N | --reps N]` runs one
//!   workload in this process and ends with the one-line JSON result;
//! * no `--trace` runs every workload (or the one given) in child
//!   processes of the first kind, then the isolated drivers, prints the
//!   report and writes `benchmark/out/latest.json`;
//! * `--compare A.json B.json` judges two results files.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use dpdpu_benchmark::host::Timed;
use dpdpu_benchmark::isolated;
use dpdpu_benchmark::layers;
use dpdpu_benchmark::report::{
    compare, detail_json, parse_child, result_line, results_json, ChildRun, Measured, Values,
    WorkloadResult, DETAIL_PREFIX,
};
use dpdpu_benchmark::spec::{MetricSpec, Spec};
use dpdpu_benchmark::workloads::{run_rep, time_set_up, Rep, RunOpts, Virtual, Workload, HOST_GHZ};

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--reps N | --seconds N] \
[--smoke] [--trace 0|1] [--out-dir DIR]\n       benchmark/run.sh --compare PARENT.json CHANGE.json\n\
workloads: kv_read_tcp kv_write_repl gateway_storm par_fleet";

/// Repetitions of a full run when neither `--reps` nor `--seconds` is given.
const DEFAULT_REPS: usize = 5;
/// Fewest repetitions a `--seconds` budget may end on (a median needs three).
const MIN_REPS: usize = 3;
/// `setup_s` is the median of this many set-ups: one per repetition,
/// the rest without load, as far as [`EXTRA_SETUP_SECS`] allows.
const SETUP_SAMPLES: usize = 15;
/// Time the extra set-ups of one run may take.
const EXTRA_SETUP_SECS: f64 = 2.0;
/// Seconds per isolated sample in a full run.
const ISOLATED_SAMPLE_SECS: f64 = 1.0;
/// A `--seconds N` layer run is sized to N/50 of full length, so its
/// three repetitions and the isolated drivers end in about N seconds.
const LAYER_SECONDS_AT_FULL_SIZE: f64 = 50.0;
/// Where a full run leaves its results unless `--out-dir` says otherwise.
const OUT_DIR: &str = "benchmark/out";
/// Repetitions of a `--smoke` run: enough for a median, short enough
/// for a test.
const SMOKE_REPS: usize = 3;

#[derive(Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    reps: Option<usize>,
    seconds: Option<f64>,
    smoke: bool,
    trace: Option<bool>,
    /// Directory for `latest.json` and the span files of a full run.
    out_dir: Option<PathBuf>,
    /// Write the traced repetition's Chrome trace here (set by the parent).
    spans: Option<PathBuf>,
    /// Seconds per isolated sample; 0 skips the drivers (set by the parent).
    isolated_secs: Option<f64>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = parse(&value("a number")?)?,
            "--reps" => args.reps = Some(parse::<usize>(&value("a count")?)?.max(1)),
            "--seconds" => args.seconds = Some(parse(&value("a number")?)?),
            "--smoke" => args.smoke = true,
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--out-dir" => args.out_dir = Some(value("a path")?.into()),
            "--spans" => args.spans = Some(value("a path")?.into()),
            "--isolated-secs" => args.isolated_secs = Some(parse(&value("a number")?)?),
            "--compare" => args.compare = Some((value("two paths")?, value("two paths")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("`{s}` is not a valid number"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = Spec::load().and_then(|spec| match (&args.compare, args.trace) {
        (Some((parent, change)), _) => run_compare(&spec, parent, change),
        (None, Some(traced)) => {
            run_child(&spec, &args, traced);
            Ok(ExitCode::SUCCESS)
        }
        (None, None) => run_all(&spec, &args).map(|()| ExitCode::SUCCESS),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

// ---- one workload, in this process -------------------------------------

fn run_child(spec: &Spec, args: &Args, traced: bool) {
    let w = args.workload.expect("checked by parse_args");
    let (declared, values, virt) = if traced {
        let (values, virt) = per_layer(w, args);
        (&spec.per_layer, values, virt)
    } else {
        let (values, virt) = end_to_end(w, args);
        (&spec.end_to_end, values, virt)
    };
    print_values(w.name(), declared, &values, true);
    if let Some(slowdown) = values.get("raw_host_slowdown") {
        let raw = |name: &str| values.get(name).map_or(0.0, |m| m.value);
        println!(
            "{:<44} wall_ops_per_s {:.1}, cpu_us_per_op {:.3}, setup_s {:.4} (host {:.2}x the reference step)",
            "as measured, before scaling",
            raw("raw_wall_ops_per_s"),
            raw("raw_cpu_us_per_op"),
            raw("raw_setup_s"),
            slowdown.value
        );
    }
    println!(
        "{:<44} {} attempted, {} failed unexpectedly, {} shed, {} errors (failed_frac {:.4})",
        "outcomes",
        virt.issued,
        virt.unexpected,
        virt.shed,
        virt.errors,
        (virt.shed + virt.errors) as f64 / virt.issued as f64
    );
    for t in &virt.tenants {
        println!(
            "  tenant {:<12} issued {} ok {} shed {} errors {} p50 {:.1} us p99 {:.1} us",
            t.name,
            t.issued,
            t.ok,
            t.shed,
            t.errors,
            t.p50_ns as f64 / 1e3,
            t.p99_ns as f64 / 1e3
        );
    }
    println!("{DETAIL_PREFIX}{}", detail_json(&values, &virt));
    println!(
        "{}",
        result_line(declared, &values, virt.issued, virt.unexpected)
    );
}

/// Prints the declared metrics `values` has, and — in a run that must
/// report every one — a `-` for those it has not.
fn print_values(title: &str, declared: &[MetricSpec], values: &Values, show_missing: bool) {
    println!("## {title}");
    for m in declared {
        match values.get(&m.name) {
            None if !show_missing => {}
            Some(v) if v.reps.len() > 1 => println!(
                "{:<44} {:>16.4} {:<8} median of {}",
                m.name,
                v.value,
                m.unit,
                v.reps.len()
            ),
            Some(v) => println!("{:<44} {:>16.4} {}", m.name, v.value, m.unit),
            None => println!(
                "{:<44} {:>16} {:<8} no source on this workload",
                m.name, "-", m.unit
            ),
        }
    }
}

/// Stops the run when two repetitions of one seed disagree about what
/// the model did: the simulation is supposed to be deterministic, and
/// neither tracing nor the check guard may perturb it.
fn assert_same_model(w: Workload, what: &str, a: &Virtual, b: &Virtual) {
    if a != b {
        eprintln!(
            "error: {}: virtual readings differ {what}\n  first: {a:?}\n  other: {b:?}",
            w.name()
        );
        std::process::exit(1);
    }
}

fn end_to_end(w: Workload, args: &Args) -> (Values, Virtual) {
    let opts = RunOpts::new(args.seed, args.smoke);
    let mut reps: Vec<Rep> = Vec::new();
    // Read after the first repetition, so the figure does not depend on
    // how many repetitions the time budget allowed.
    let mut peak_rss_mib = 0.0;
    let enough = |reps: &[Rep]| match (args.reps, args.seconds) {
        (Some(n), _) => reps.len() >= n,
        (None, Some(secs)) => {
            reps.len() >= MIN_REPS && reps.iter().map(|r| r.phase.wall_s).sum::<f64>() >= secs
        }
        (None, None) if args.smoke => reps.len() >= SMOKE_REPS,
        (None, None) => reps.len() >= DEFAULT_REPS,
    };
    while !enough(&reps) {
        let rep = run_rep(w, opts);
        if let Some(first) = reps.first() {
            assert_same_model(w, "between repetitions", &first.virt, &rep.virt);
        }
        if reps.is_empty() {
            peak_rss_mib = dpdpu_benchmark::host::peak_rss_mib();
        }
        reps.push(rep);
    }
    let virt = reps[0].virt.clone();
    let ops = virt.issued as f64;
    // Every repetition sets up afresh; extra set-ups without load bring
    // the sample up to a size whose median holds still.
    let mut setups: Vec<Timed> = reps.iter().map(|r| r.setup).collect();
    let extra_started = Instant::now();
    while !args.smoke
        && setups.len() < SETUP_SAMPLES
        && extra_started.elapsed().as_secs_f64() < EXTRA_SETUP_SECS
    {
        setups.push(time_set_up(w, opts));
    }
    let phases: Vec<Timed> = reps.iter().map(|r| r.phase).collect();
    // Host times are restated on the reference host (`host::step_ns`);
    // the readings as measured are kept beside them as `raw_*`.
    let mut values = Values::new();
    let mut over = |name: &str, timed: &[Timed], f: &dyn Fn(&Timed, f64) -> f64| {
        for (name, reference) in [(name.to_string(), true), (format!("raw_{name}"), false)] {
            let each = timed
                .iter()
                .map(|t| f(t, if reference { t.to_reference } else { 1.0 }))
                .collect();
            values.insert(name, Measured::over(each));
        }
    };
    over("setup_s", &setups, &|t, k| t.wall_s * k);
    over("wall_ops_per_s", &phases, &|t, k| ops / (t.wall_s * k));
    over("cpu_us_per_op", &phases, &|t, k| t.cpu_s * k * 1e6 / ops);
    values.insert(
        "raw_host_slowdown".to_string(),
        Measured::over(phases.iter().map(|t| 1.0 / t.to_reference).collect()),
    );
    let mut single = |name: &str, value: f64| {
        values.insert(name.to_string(), Measured::single(value));
    };
    single("peak_rss_mb", peak_rss_mib);
    single(
        "virt_goodput_kops",
        virt.ok as f64 / virt.elapsed_ns as f64 * 1e6,
    );
    single("virt_p50_us", virt.p50_ns as f64 / 1e3);
    single("virt_p99_us", virt.p99_ns as f64 / 1e3);
    single(
        "host_cyc_per_op",
        virt.host_busy_ns as f64 * HOST_GHZ / virt.ok as f64,
    );
    single("ok_frac", virt.ok as f64 / ops);
    (values, virt)
}

/// What `--smoke` multiplies sizes and sample times by.
fn smoke_scale(args: &Args) -> f64 {
    RunOpts::new(args.seed, args.smoke).size
}

fn per_layer(w: Workload, args: &Args) -> (Values, Virtual) {
    let mut opts = RunOpts::new(args.seed, args.smoke);
    if let Some(secs) = args.seconds {
        opts.size *= (secs / LAYER_SECONDS_AT_FULL_SIZE).min(1.0);
    }
    // `run_par` installs telemetry and check sessions itself; there is
    // no untraced or unguarded par_fleet to compare against.
    let par = w == Workload::ParFleet;
    let plain = run_rep(w, RunOpts { trace: par, ..opts });
    let mut values = Values::new();
    let mut single = |name: &str, value: f64| {
        values.insert(name.to_string(), Measured::single(value));
    };
    for (name, v) in layers::from_virtual(&plain.virt) {
        single(&name, v);
    }
    let cpu_s = |rep: &Rep| rep.phase.cpu_s * rep.phase.to_reference;
    let wall_s = |rep: &Rep| rep.phase.wall_s * rep.phase.to_reference;
    single(
        "des.wall_ns_per_poll",
        cpu_s(&plain) * 1e9 / plain.virt.polls.max(1) as f64,
    );
    let traced_rep;
    let traced = if par {
        let parallel = run_rep(w, RunOpts { jobs: 2, ..opts });
        assert_same_model(
            w,
            "between jobs = 1 and jobs = 2",
            &plain.virt,
            &parallel.virt,
        );
        single(
            "des.domain.speedup_j2_over_j1",
            wall_s(&plain) / wall_s(&parallel),
        );
        &plain
    } else {
        traced_rep = run_rep(
            w,
            RunOpts {
                trace: true,
                ..opts
            },
        );
        assert_same_model(
            w,
            "between the untraced and the traced repetition",
            &plain.virt,
            &traced_rep.virt,
        );
        single(
            "telemetry.cpu_overhead",
            cpu_s(&traced_rep) / cpu_s(&plain) - 1.0,
        );
        let bare = run_rep(
            w,
            RunOpts {
                guard: false,
                ..opts
            },
        );
        assert_same_model(
            w,
            "between the guarded and the unguarded repetition",
            &plain.virt,
            &bare.virt,
        );
        single("check.cpu_overhead", cpu_s(&plain) / cpu_s(&bare) - 1.0);
        &traced_rep
    };
    let trace = traced.traced.as_ref().expect("repetition was traced");
    for (name, v) in layers::reduce(&traced.virt, trace) {
        single(&name, v);
    }
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, (trace.chrome)()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    // The parent of a full run times the drivers itself and passes 0.
    let sample_secs = args.isolated_secs.unwrap_or_else(|| {
        // Half the budget, split over every driver's samples.
        args.seconds.map_or(ISOLATED_SAMPLE_SECS, |s| {
            s / 2.0 / (isolated::SAMPLES * isolated::DRIVERS) as f64
        })
    });
    if sample_secs > 0.0 {
        for (name, v) in isolated::run_all(sample_secs * smoke_scale(args)) {
            single(&name, v);
        }
    }
    (values, plain.virt)
}

// ---- every workload, in child processes ----------------------------------

fn run_all(spec: &Spec, args: &Args) -> Result<(), String> {
    let out_dir = args.out_dir.clone().unwrap_or_else(|| OUT_DIR.into());
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let started = Instant::now();
    let child = |w: Workload, extra: &[String]| -> Result<ChildRun, String> {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .args(extra)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a child process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("{} failed ({}):\n{stdout}", w.name(), out.status));
        }
        parse_child(&stdout).map_err(|e| format!("{}: {e}", w.name()))
    };
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut results = Vec::new();
    for &w in &workloads {
        let mut e2e_args = vec!["--trace".to_string(), "0".to_string()];
        match (args.reps, args.seconds) {
            (Some(n), _) => e2e_args.extend(["--reps".into(), n.to_string()]),
            (None, Some(s)) => e2e_args.extend(["--seconds".into(), s.to_string()]),
            (None, None) => {}
        }
        let end_to_end = child(w, &e2e_args)?;
        print_values(w.name(), &spec.end_to_end, &end_to_end.values, true);
        let per_layer = child(
            w,
            &[
                "--trace".into(),
                "1".into(),
                "--isolated-secs".into(),
                "0".into(),
                "--spans".into(),
                out_dir
                    .join(format!("trace-{}.json", w.name()))
                    .display()
                    .to_string(),
            ],
        )?;
        print_values(
            &format!("{} (traced repetition)", w.name()),
            &spec.per_layer,
            &per_layer.values,
            false,
        );
        results.push(WorkloadResult {
            name: w.name().to_string(),
            end_to_end,
            per_layer,
        });
    }
    let isolated: Values = isolated::run_all(ISOLATED_SAMPLE_SECS * smoke_scale(args))
        .into_iter()
        .map(|(name, value)| (name, Measured::single(value)))
        .collect();
    print_values("isolated drivers", &spec.per_layer, &isolated, false);
    for r in &results {
        print_attribution(r, &isolated);
    }
    let path = out_dir.join("latest.json");
    std::fs::write(
        &path,
        results_json(args.seed, args.smoke, &results, &isolated),
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "\nwrote {} ({} workloads, {:.0} s)",
        path.display(),
        results.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Units of work per op in each layer, priced at the isolated cost of a
/// unit, against the measured CPU per op. Rows nest — a dds request
/// includes its fabric messages, file-service calls, `Server` visits and
/// polls — so they are read top-down, not summed; what the top row does
/// not cover is printed as unexplained.
fn print_attribution(r: &WorkloadResult, isolated: &Values) {
    let layer = |name: &str| r.per_layer.values.get(name).map_or(0.0, |m| m.value);
    let iso = |name: &str| isolated.get(name).map_or(0.0, |m| m.value);
    let measured_us = r
        .end_to_end
        .values
        .get("cpu_us_per_op")
        .map_or(0.0, |m| m.value);
    let serves: f64 = layers::HwClass::ALL
        .iter()
        .map(|c| layer(&format!("hw.{}.serves_per_op", c.key())))
        .sum();
    let tcp_msgs = layer("net.tcp.msgs_per_op");
    let net_ns = if tcp_msgs > 0.0 {
        tcp_msgs * iso("net.tcp.wall_ns_per_msg")
    } else {
        layer("net.fabric.msgs_per_op") / 2.0 * iso("net.fabric_offload.wall_ns_per_rtt")
    };
    let gateway_ns = if layer("dds.gateway.steady_p99_us") > 0.0 {
        iso("dds.gateway.wall_ns_per_sched")
    } else {
        0.0
    };
    let dds_ns = (layer("dds.server.gets_per_op") + layer("dds.server.scans_per_op"))
        * iso("dds.server.wall_ns_per_get")
        + layer("dds.server.puts_per_op") * iso("dds.server.wall_ns_per_put")
        + iso("dds.cluster.wall_ns_per_route")
        + gateway_ns;
    // The end-to-end pass runs `par_fleet` at `jobs = 1`.
    let domain_ns = 2.0 * layer("des.domain.remote_frac") * iso("des.domain.wall_ns_per_xmsg_j1");
    let rows = [
        (
            "des",
            layer("des.polls_per_op") * iso("des.executor.wall_ns_per_yield"),
        ),
        ("hw", serves * iso("des.server.wall_ns_per_serve")),
        ("net", net_ns),
        (
            "storage",
            layer("storage.file_service.reads_per_op")
                * iso("storage.file_service.wall_ns_per_read")
                + layer("storage.file_service.writes_per_op")
                    * iso("storage.file_service.wall_ns_per_write"),
        ),
        ("dds", dds_ns),
        ("des.domain", domain_ns),
    ];
    println!(
        "\n## {} — where the host CPU per op goes (isolated unit costs × units per op)",
        r.name
    );
    println!("{:<12} {:>14} {:>10}", "layer", "est us/op", "of measured");
    for (name, ns) in rows {
        println!(
            "{name:<12} {:>14.3} {:>9.1}%",
            ns / 1e3,
            ns / 1e3 / measured_us * 100.0
        );
    }
    let explained_us = (dds_ns + domain_ns) / 1e3;
    println!(
        "{:<12} {:>14.3} {:>9.1}%   (measured cpu_us_per_op {:.3}; check guard share {:.1}%)",
        "unexplained",
        measured_us - explained_us,
        (measured_us - explained_us) / measured_us * 100.0,
        measured_us,
        layer("check.cpu_overhead") / (1.0 + layer("check.cpu_overhead")) * 100.0
    );
}

// ---- --compare -----------------------------------------------------------

fn run_compare(spec: &Spec, parent: &str, change: &str) -> Result<ExitCode, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let (table, any_worse) = compare(spec, &read(parent)?, &read(change)?)?;
    print!("{table}");
    println!("(`=` marks a bit-identical value; bounds from BENCHMARK.json)");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
