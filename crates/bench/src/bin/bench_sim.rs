//! Wall-clock microbenchmarks of the simulator substrate itself.
//!
//! Every figure, ablation, and conformance run in this repo is bounded by
//! how many simulated events per real second the DES executor sustains, so
//! this bin pins that number down and tracks it across PRs:
//!
//! * `executor_wake_poll` — the pure wake → drain → poll cycle (no timers):
//!   the executor microbench the perf trajectory is gated on;
//! * `timer_throughput` — sleep-heavy tasks exercising the timer heap;
//! * `timeout_churn` — a `timeout`-wrapped retry loop whose inner progress
//!   spuriously re-polls the pending timer on every step (the fault-retry
//!   pattern that used to push duplicate heap entries);
//! * `channel_pingpong` / `semaphore_ops` — ops/sec of the two blocking
//!   primitives every protocol model is built on;
//! * `spans_tracing_on` / `spans_tracing_off` — telemetry span cost with a
//!   session installed vs the disabled single-branch path;
//! * `fleet_routing` — the cluster workload generator's pure-CPU half
//!   (zipfian draw + consistent-hash ring lookup per request);
//! * `gateway_wfq` — the multi-tenant gateway's scheduler hot path: one
//!   DRR enqueue plus one pick across eight weighted tenant queues per
//!   event, the pure-CPU cost every gateway-fronted request pays;
//! * `cluster_fleet_sim` — wall-clock cost of one simulated cluster op
//!   end-to-end (ring, admission, TCP, DDS server, SSD model);
//! * `par_cluster_sim_{serial,2d,4d,8d}` — the domain-partitioned cluster
//!   on 1 worker thread vs one thread per domain: the parallel core's
//!   serial overhead and scaling, counted in completed cluster ops;
//! * `rdma_fabric` — wall-clock cost of one echo round trip over the
//!   host-verbs RDMA cluster fabric (credit pumps, framing, QP + NIC +
//!   link models);
//! * `cong_alg` — wall-clock cost of a congestion-controlled TCP burst,
//!   all three window algorithms (Reno, CUBIC, DCTCP) back to back over
//!   an ECN-marking link, counted in delivered messages.
//!
//! ```sh
//! cargo run --release -p dpdpu-bench --bin bench_sim                 # full run
//! cargo run --release -p dpdpu-bench --bin bench_sim -- --smoke     # CI-sized
//! cargo run --release -p dpdpu-bench --bin bench_sim -- \
//!     --baseline BENCH_sim.json --out BENCH_sim.json                # trajectory
//! ```
//!
//! The run is summarised to stdout and, with `--out`, written as
//! `BENCH_sim.json`: current `results` plus the `baseline` events/sec map
//! carried over from `--baseline` (so the file always records both the
//! pre-change and post-change numbers). Regressions beyond 2× against the
//! baseline are *soft* failures: a `WARN` line, exit 0 — unless `--strict`,
//! or unless the row is on the hard-gate list (`cluster_fleet_sim`,
//! `par_cluster_sim_8d`), which always exits nonzero.
//!
//! Wall-clock timing only; nothing here feeds back into virtual time, so
//! determinism of the simulated workloads is untouched.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dpdpu_des::{channel, join_all, sleep, spawn, timeout, yield_now, Semaphore, Sim};
use dpdpu_telemetry::json::Json;
use dpdpu_telemetry::Telemetry;

/// One measured microbenchmark.
struct BenchResult {
    name: &'static str,
    /// Simulated events (polls, timer firings, ops, spans) per run.
    events: u64,
    /// Best wall-clock seconds over the measured iterations.
    secs: f64,
}

impl BenchResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.secs
    }
}

/// Times `iters` runs of `f` (after one warm-up), keeping the best.
fn bench(name: &'static str, events: u64, iters: u32, mut f: impl FnMut()) -> BenchResult {
    f(); // warm-up
    let mut best = f64::MAX;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    let r = BenchResult {
        name,
        events,
        secs: best,
    };
    println!(
        "{name:<24} {:>10.3} ms  {:>12.0} events/s",
        best * 1e3,
        r.events_per_sec()
    );
    r
}

fn run_all(scale: u64) -> Vec<BenchResult> {
    let mut results = Vec::new();

    // The executor microbench: T tasks ping the wake list with yield_now,
    // so every event is exactly one wake + one drain pass + one poll, with
    // no timer-heap or channel work mixed in.
    {
        let tasks = 256u64;
        let yields = 128 * scale;
        results.push(bench("executor_wake_poll", tasks * yields, 5, move || {
            let mut sim = Sim::new();
            for _ in 0..tasks {
                sim.spawn(async move {
                    for _ in 0..yields {
                        yield_now().await;
                    }
                });
            }
            black_box(sim.run());
        }));
    }

    // Timer heap throughput: every event is a register + pop + advance.
    {
        let tasks = 64u64;
        let sleeps = 512 * scale;
        results.push(bench("timer_throughput", tasks * sleeps, 5, move || {
            let mut sim = Sim::new();
            for t in 0..tasks {
                sim.spawn(async move {
                    for _ in 0..sleeps {
                        sleep(1 + (t % 3)).await;
                    }
                });
            }
            black_box(sim.run());
        }));
    }

    // The fault-retry shape: a long timeout guarding a loop that makes
    // steady progress. Each inner sleep wakes the task, and the pending
    // timeout timer is spuriously re-polled on every step.
    {
        let outer = 128 * scale;
        let inner = 64u64;
        results.push(bench("timeout_churn", outer * inner, 3, move || {
            let mut sim = Sim::new();
            sim.spawn(async move {
                for _ in 0..outer {
                    let r = timeout(1_000_000_000, async {
                        for _ in 0..inner {
                            sleep(1).await;
                        }
                    })
                    .await;
                    assert!(r.is_ok());
                }
            });
            black_box(sim.run());
        }));
    }

    // Channel round trips: two tasks, one message in flight.
    {
        let trips = 1_024 * scale;
        results.push(bench("channel_pingpong", 2 * trips, 5, move || {
            let mut sim = Sim::new();
            sim.spawn(async move {
                let (tx_a, mut rx_a) = channel::<u64>();
                let (tx_b, mut rx_b) = channel::<u64>();
                spawn(async move {
                    while let Some(v) = rx_a.recv().await {
                        if tx_b.send(v + 1).is_err() {
                            break;
                        }
                    }
                });
                tx_a.send(0).unwrap();
                for _ in 1..trips {
                    let v = rx_b.recv().await.unwrap();
                    if tx_a.send(v).is_err() {
                        break;
                    }
                }
            });
            black_box(sim.run());
        }));
    }

    // Semaphore ops under contention: 16 tasks on 4 permits.
    {
        let tasks = 16u64;
        let acquires = 128 * scale;
        results.push(bench("semaphore_ops", tasks * acquires, 5, move || {
            let mut sim = Sim::new();
            sim.spawn(async move {
                let sem = Semaphore::new(4);
                let mut handles = Vec::new();
                for _ in 0..tasks {
                    let sem = sem.clone();
                    handles.push(spawn(async move {
                        for _ in 0..acquires {
                            let _p = sem.acquire().await;
                            yield_now().await;
                        }
                    }));
                }
                join_all(handles).await;
            });
            black_box(sim.run());
        }));
    }

    // Span recording with a telemetry session installed: guard open +
    // attribute + close per event.
    {
        let spans = 512 * scale;
        results.push(bench("spans_tracing_on", spans, 3, move || {
            let t = Telemetry::install();
            let mut sim = Sim::new();
            sim.spawn(async move {
                for i in 0..spans {
                    let _s = dpdpu_telemetry::span("dpu", "bench-engine", "op").with("i", i & 7);
                    sleep(1).await;
                }
            });
            sim.run();
            Telemetry::uninstall();
            black_box(t.tracer().len());
        }));
    }

    // The disabled path: same call shape, no session installed. This is
    // the cost every un-traced run pays at each instrumentation point.
    {
        let calls = 8_192 * scale;
        results.push(bench("spans_tracing_off", calls, 5, move || {
            Telemetry::uninstall();
            for i in 0..calls {
                let mut s = dpdpu_telemetry::span("dpu", "bench-engine", "op");
                s.attr("i", i & 7);
                black_box(&s);
                dpdpu_des::probe::emit_span("bench-engine", "op", 0, 1);
            }
        }));
    }

    // The fleet hot path's pure-CPU half: one zipfian key draw plus one
    // consistent-hash ring lookup per simulated request. This bounds
    // how fast any cluster workload can *generate* load, independent of
    // the protocol models.
    {
        use dpdpu_bench::fleet::{KeyDist, KeySampler};
        use dpdpu_dds::cluster::HashRing;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let draws = 16_384 * scale;
        results.push(bench("fleet_routing", draws, 5, move || {
            let ring = HashRing::new(8, 512);
            let sampler = KeySampler::new(&KeyDist::Zipfian {
                keys: 1_024,
                theta: 0.99,
            });
            let mut rng = StdRng::seed_from_u64(42);
            let mut acc = 0usize;
            for _ in 0..draws {
                acc ^= ring.shard_for(sampler.sample(&mut rng));
            }
            black_box(acc);
        }));
    }

    // The gateway scheduler's pure-CPU hot path: one DRR enqueue plus
    // one pick per counted event, eight tenant queues with mixed
    // weights and request costs spanning gets to fanned-out scans.
    // This bounds how fast the WFQ tier itself can cycle requests,
    // independent of admission, dispatch slots, and the cluster below.
    {
        use dpdpu_des::Drr;

        let ops = 16_384 * scale;
        results.push(bench("gateway_wfq", ops, 5, move || {
            let weights = [1u64, 4, 2, 8, 1, 4, 2, 8];
            let mut drr = Drr::new(&weights, 4_096);
            let mut acc = 0u64;
            for i in 0..ops {
                drr.enqueue((i % 8) as usize, 64 + (i & 0xFFF), i);
                if let Some((tenant, _, item)) = drr.pick() {
                    acc ^= item ^ tenant as u64;
                }
            }
            while let Some((_, _, item)) = drr.pick() {
                acc ^= item;
            }
            black_box(acc);
        }));
    }

    // The fleet hot path end-to-end: a small sharded cluster driven by
    // a pipelined fleet, counted in completed requests. This is the
    // wall-clock cost of one simulated cluster op through the full
    // stack (ring, admission, TCP, DDS server, SSD model).
    {
        let ops = 24 * scale;
        results.push(bench("cluster_fleet_sim", ops, 3, move || {
            use dpdpu_bench::fleet::{preload, run_fleet, FleetConfig, KeyDist};
            use dpdpu_dds::cluster::{ClusterConfig, DdsCluster};
            use dpdpu_hw::CpuPool;

            let mut sim = Sim::new();
            sim.spawn(async move {
                let cluster = DdsCluster::build(ClusterConfig {
                    shards: 2,
                    ..ClusterConfig::default()
                })
                .await;
                let client = cluster.connect(CpuPool::new("fleet", 32, 3_000_000_000));
                let cfg = FleetConfig {
                    clients: 4,
                    ops_per_client: ops / 4,
                    dist: KeyDist::Zipfian {
                        keys: 64,
                        theta: 0.99,
                    },
                    ..FleetConfig::default()
                };
                preload(&client, &cfg).await;
                let report = run_fleet(&client, cfg).await;
                black_box(report.ok);
            });
            black_box(sim.run());
        }));
    }

    // The partitioned cluster, serial vs parallel: the same
    // domain-sharded DDS workload driven on one worker thread and on one
    // thread per domain. One event is one completed cluster op, so the
    // serial row is directly comparable to `cluster_fleet_sim` and the
    // parallel rows price the conservative synchronizer's scaling (on a
    // multi-core host the 8-domain row should pull well ahead of the
    // serial one; on one core it measures pure synchronizer overhead).
    {
        use dpdpu_bench::par_cluster::{run_par, ParClusterConfig};

        let ops_per_client = 2 * scale;
        let cfg = move |domains: usize| ParClusterConfig {
            domains,
            clients_per_domain: 2,
            ops_per_client,
            keys_per_domain: 16,
            ..ParClusterConfig::default()
        };
        let ops = |domains: u64| domains * 2 * ops_per_client;
        results.push(bench("par_cluster_sim_serial", ops(8), 3, move || {
            black_box(run_par(cfg(8), 1).ok);
        }));
        for (name, domains) in [
            ("par_cluster_sim_2d", 2usize),
            ("par_cluster_sim_4d", 4),
            ("par_cluster_sim_8d", 8),
        ] {
            results.push(bench(name, ops(domains as u64), 3, move || {
                black_box(run_par(cfg(domains), domains).ok);
            }));
        }
    }

    // One fabric echo round trip per counted event: client request and
    // echoed response each cross the credit-flow pumps, the wire
    // framing, and the verbs/NIC/link models — the per-message floor
    // any fabric-riding workload pays.
    {
        let msgs = 96 * scale;
        results.push(bench("rdma_fabric", msgs, 3, move || {
            use dpdpu_hw::{CpuPool, LinkConfig};
            use dpdpu_net::fabric::{transport_for, Endpoint, FabricKind, FabricParams};
            use dpdpu_net::tcp::TcpParams;

            let mut sim = Sim::new();
            sim.spawn(async move {
                let a = Endpoint::host(CpuPool::new("bench-a", 8, 3_000_000_000));
                let b = Endpoint::host(CpuPool::new("bench-b", 8, 3_000_000_000));
                let t = transport_for(
                    FabricKind::Rdma,
                    LinkConfig::rack_100g(),
                    TcpParams::default(),
                    FabricParams::default(),
                );
                let (ca, cb) = t.connect(&a, &b, "bench");
                let (a_tx, mut a_rx) = ca.split();
                let (b_tx, mut b_rx) = cb.split();
                spawn(async move {
                    while let Some(req) = b_rx.recv().await {
                        b_tx.send(req);
                    }
                });
                for i in 0..msgs {
                    a_tx.send(bytes::Bytes::from(vec![i as u8; 64]));
                    black_box(a_rx.recv().await);
                }
            });
            black_box(sim.run());
        }));
    }

    // The pluggable-window hot path: every data segment crosses the
    // CongAlg hooks (ack/ECN/loss) plus the link's ECN stamping, so this
    // row prices the congestion-control machinery itself. All three
    // algorithms run back to back over the same marking link; one event
    // is one delivered message.
    {
        let per_stream = 8 * scale;
        let msgs = 3 * 2 * per_stream;
        results.push(bench("cong_alg", msgs, 3, move || {
            use dpdpu_hw::{CpuPool, LinkConfig};
            use dpdpu_net::tcp::{CongAlgKind, TcpConnector, TcpSide};

            for alg in CongAlgKind::ALL {
                let mut sim = Sim::new();
                sim.spawn(async move {
                    let src = TcpSide::host(CpuPool::new("cong-src", 8, 3_000_000_000));
                    let dst = TcpSide::host(CpuPool::new("cong-dst", 8, 3_000_000_000));
                    let conns = TcpConnector::new(LinkConfig::rack_100g().with_ecn(2_000))
                        .cong(alg)
                        .streams(src, dst, 2);
                    let mut handles = Vec::new();
                    for (tx, mut rx) in conns {
                        for _ in 0..per_stream {
                            tx.send(bytes::Bytes::from(vec![0u8; 8_192]));
                        }
                        drop(tx);
                        handles.push(spawn(async move {
                            while let Some(msg) = rx.recv().await {
                                black_box(msg.len());
                            }
                        }));
                    }
                    for h in handles {
                        h.await;
                    }
                });
                black_box(sim.run());
            }
        }));
    }

    results
}

fn render_json(results: &[BenchResult], baseline: &BTreeMap<String, f64>, mode: &str) -> String {
    let mut out = String::from("{\n  \"bench\": \"sim\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"secs\": {:.6}, \"events_per_sec\": {:.1}}}{}\n",
            r.name,
            r.events,
            r.secs,
            r.events_per_sec(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"baseline\": {\n");
    let n = baseline.len();
    for (i, (name, rate)) in baseline.iter().enumerate() {
        out.push_str(&format!(
            "    \"{name}\": {rate:.1}{}\n",
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Reads the `baseline` map out of a previous `BENCH_sim.json`; falls back
/// to that file's own `results` when it carries no baseline section (so the
/// first file in the trajectory seeds the comparison).
fn load_baseline(path: &str) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("note: no baseline at {path}; comparisons skipped");
        return map;
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("WARN: unparseable baseline {path}: {e}");
            return map;
        }
    };
    if let Some(Json::Obj(base)) = doc.get("baseline") {
        for (k, v) in base {
            if let Some(rate) = v.as_f64() {
                map.insert(k.clone(), rate);
            }
        }
    }
    if map.is_empty() {
        if let Some(results) = doc.get("results").and_then(Json::as_arr) {
            for r in results {
                if let (Some(name), Some(rate)) = (
                    r.get("name").and_then(Json::as_str),
                    r.get("events_per_sec").and_then(Json::as_f64),
                ) {
                    map.insert(name.to_string(), rate);
                }
            }
        }
    }
    map
}

fn main() {
    let mut smoke = false;
    let mut strict = false;
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--strict" => strict = true,
            "--out" => out_path = Some(args.next().unwrap_or_else(|| usage("--out needs a path"))),
            "--baseline" => {
                baseline_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--baseline needs a path")),
                )
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }

    let mode = if smoke { "smoke" } else { "full" };
    println!("simulator wall-clock microbenchmarks ({mode}, best of N)\n");
    let scale = if smoke { 4 } else { 64 };
    let results = run_all(scale);

    let baseline = baseline_path
        .as_deref()
        .map(load_baseline)
        .unwrap_or_default();

    // Rows on this list gate the trajectory outright: a >2x regression
    // exits nonzero even without `--strict`. `cluster_fleet_sim` used to
    // hide behind the soft gate, and the parallel core's headline row
    // must never silently decay either.
    const HARD_FAIL: &[&str] = &["cluster_fleet_sim", "par_cluster_sim_8d"];

    let mut regressed = false;
    let mut hard_regressed = false;
    if !baseline.is_empty() {
        println!("\nvs baseline:");
        for r in &results {
            let Some(&base) = baseline.get(r.name) else {
                continue;
            };
            let ratio = r.events_per_sec() / base;
            let flag = if ratio < 0.5 {
                regressed = true;
                if HARD_FAIL.contains(&r.name) {
                    hard_regressed = true;
                    "  FAIL: >2x regression (hard gate)"
                } else {
                    "  WARN: >2x regression"
                }
            } else {
                ""
            };
            println!("{:<24} {ratio:>6.2}x{flag}", r.name);
        }
        if regressed {
            eprintln!("WARN: at least one microbench regressed >2x vs baseline");
        }
    }

    if let Some(path) = out_path {
        std::fs::write(&path, render_json(&results, &baseline, mode)).expect("write bench json");
        println!("\nwrote {path}");
    }

    if hard_regressed || (strict && regressed) {
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: bench_sim [--smoke] [--strict] [--out PATH] [--baseline PATH]");
    std::process::exit(2)
}
