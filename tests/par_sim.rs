//! Time-domain conformance: a large partitioned-cluster trace keeps its
//! bytes and its order, the serial scenarios must not care which OS
//! thread hosts them, and a planted lookahead violation must be caught —
//! not silently reordered.
//!
//! This is the integration-level counterpart of the unit tests in
//! `dpdpu_des::domain`: same invariants, but driven through the full
//! DDS/TCP/telemetry stack instead of toy domains.

use dpdpu_bench::par_cluster::{run_par, ParClusterConfig};
use dpdpu_bench::Knobs;
use dpdpu_check::golden;
use dpdpu_des::{DomainSet, NoHooks, Sim};

const SEEDS: [u64; 3] = [42, 7, 1234];

#[test]
fn serial_scenarios_are_invariant_to_the_hosting_thread() {
    // The single-`Sim` scenarios the domain core coexists with: a run
    // on the test thread and a run on a fresh worker thread (the way
    // `DomainSet` hosts domains) must produce the same bytes.
    for name in ["cluster_failover", "cluster_fabric"] {
        let run = move |seed| {
            let registry = dpdpu_bench::all();
            let e = registry.iter().find(|e| e.id == name);
            let knobs = Knobs {
                seed: Some(seed),
                ..Knobs::default()
            };
            e.expect("a registered scenario").run(&knobs, false)
        };
        for seed in SEEDS {
            let here = run(seed);
            let there = std::thread::spawn(move || run(seed))
                .join()
                .expect("scenario run panicked");
            assert_eq!(
                here.table, there.table,
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
    // the public API and prove the domain driver panics with the
    // checked invariant instead of delivering the event out of order.
    let result = std::panic::catch_unwind(|| {
        let mut set = DomainSet::new();
        let a = set.add_domain("meta-a");
        let b = set.add_domain("meta-b");
        let (tx, mut rx) = set.link::<u64>(a, b, 500);
        // Reverse link so 'b' cannot terminate before the forged
        // message lands.
        let (back_tx, mut back_rx) = set.link::<u64>(b, a, 500);
        set.set_root(a, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                // 'a' cannot reach this timer until `b`'s bound is past
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
    // Its fingerprint (length and FNV-1a hash) was first measured with a merge that re-parsed
    // the per-domain JSON, and the part-index merge reproduced them.
    // It was re-measured, with that merge unchanged, when appends
    // stopped reading blocks they do not keep, and again when a log
    // append became one device write shared by the appends queued behind
    // it, and when a DDS server's transport came to end on its DPU; each
    // moved the model's timings.
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
    assert_eq!(
        golden::fingerprint(&trace),
        "bytes=10600264 fnv1a64=27762bbd2ccad5f0"
    );
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
