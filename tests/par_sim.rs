//! Parallel-simulation conformance: the partitioned cluster must replay
//! byte-identically at every worker-thread count, the serial scenarios
//! must not care which OS thread hosts them, and a planted lookahead
//! violation must be caught — not silently reordered.
//!
//! This is the integration-level counterpart of the unit tests in
//! `dpdpu_des::domain`: same invariants, but driven through the full
//! DDS/TCP/telemetry stack instead of toy domains.

use dpdpu_bench::par_cluster::{run_par, ParClusterConfig};
use dpdpu_bench::scenarios;
use dpdpu_des::{DomainSet, NoHooks, Sim};

const SEEDS: [u64; 3] = [42, 7, 1234];

fn small_cfg(seed: u64) -> ParClusterConfig {
    ParClusterConfig {
        domains: 3,
        clients_per_domain: 2,
        ops_per_client: 8,
        keys_per_domain: 12,
        pipeline: 2,
        seed,
        ..ParClusterConfig::default()
    }
}

#[test]
fn par_cluster_replays_byte_identically_across_job_counts() {
    for seed in SEEDS {
        let serial = run_par(small_cfg(seed), 1);
        for jobs in [2, 3] {
            let par = run_par(small_cfg(seed), jobs);
            assert_eq!(
                serial.stdout, par.stdout,
                "seed {seed}: stdout diverged between --jobs 1 and --jobs {jobs}"
            );
            assert_eq!(
                serial.trace, par.trace,
                "seed {seed}: Chrome trace diverged between --jobs 1 and --jobs {jobs}"
            );
            assert_eq!(
                serial.finals, par.finals,
                "seed {seed}: final clocks diverged"
            );
        }
    }
}

#[test]
fn serial_scenarios_are_invariant_to_the_hosting_thread() {
    // The single-`Sim` scenarios the parallel core coexists with: a run
    // on the test thread and a run on a fresh worker thread (the way
    // `DomainSet` hosts domains) must produce the same bytes.
    for name in ["cluster_failover", "cluster_fabric"] {
        let f = scenarios::by_name(name).expect("scenario exists");
        for seed in SEEDS {
            let here = f(seed);
            let there = std::thread::spawn(move || f(seed))
                .join()
                .expect("scenario run panicked");
            assert_eq!(
                here.stdout, there.stdout,
                "{name} seed {seed}: stdout depends on the hosting thread"
            );
            assert_eq!(
                here.trace, there.trace,
                "{name} seed {seed}: trace depends on the hosting thread"
            );
        }
    }
}

#[test]
fn planted_lookahead_violation_is_caught_not_reordered() {
    // Meta-test: forge a timestamp below the receiver's clock through
    // the public API and prove the synchronizer panics with the checked
    // invariant instead of delivering the event out of order.
    let result = std::panic::catch_unwind(|| {
        let mut set = DomainSet::new();
        let a = set.add_domain("meta-a");
        let b = set.add_domain("meta-b");
        let (tx, mut rx) = set.link::<u64>(a, b, 500);
        // Reverse link so 'b' cannot terminate before the forged
        // message lands, whatever the thread interleaving.
        let (back_tx, mut back_rx) = set.link::<u64>(b, a, 500);
        set.set_root(a, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                // 'a' cannot reach this timer until `b` has promised past
                // it — which requires `b` to have fired its 5_000 timer
                // first. So by the time this send executes, `b`'s clock
                // is provably at 5_000 and a stamp of 100 is in its past.
                dpdpu_des::sleep(10_000).await;
                tx.send_with_timestamp(100, 7);
                let _ = back_rx.recv().await;
            });
            (sim, Box::new(NoHooks))
        });
        set.set_root(b, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                dpdpu_des::sleep(5_000).await;
                let v = rx.recv().await;
                back_tx.send(v);
            });
            (sim, Box::new(NoHooks))
        });
        set.run(2);
    });
    let payload = result.expect_err("a forged timestamp must not pass silently");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("lookahead violation"),
        "expected the checked lookahead invariant, got: {msg}"
    );
}

#[test]
fn a_large_merged_trace_keeps_its_bytes_and_its_order() {
    // A seed no golden uses, big enough (≈150 K events) that every
    // domain's pid namespace, tie-break and metadata block is exercised.
    // Length and hash were measured at PR 22, whose merge re-parsed the
    // per-domain JSON; the part-index merge must reproduce them.
    let trace = run_par(
        ParClusterConfig {
            domains: 4,
            clients_per_domain: 4,
            ops_per_client: 300,
            keys_per_domain: 128,
            seed: 977,
            ..Default::default()
        },
        1,
    )
    .trace;
    assert_eq!(trace.len(), 12_830_782);
    // FNV-1a-64 of the whole trace.
    let hash = trace.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(format!("{hash:016x}"), "82a3ddbe711e6769");
    let mut last = f64::MIN;
    let mut timed = 0usize;
    for line in trace.lines() {
        let Some(i) = line.find("\"ts\":") else {
            continue;
        };
        let rest = &line[i + 5..];
        let len = rest
            .bytes()
            .take_while(|b| b.is_ascii_digit() || *b == b'.')
            .count();
        let ts: f64 = rest[..len].parse().expect("ts is a decimal number");
        assert!(ts >= last, "ts went backwards: {last} then {ts}");
        last = ts;
        timed += 1;
    }
    assert!(timed > 100_000, "only {timed} timed lines");
}
