//! One planted violation per invariant in the catalogue, the
//! conservation ledger's contract per flow, and end-to-end checks that
//! a clean simulation stays clean.

use super::*;
use dpdpu_des::{sleep, Server, Sim};

/// The site named `name`, as a resource's constructor would intern it.
fn at(name: &str) -> Site {
    Site::new(name)
}

fn has(violations: &[Violation], inv: Invariant) -> bool {
    violations.iter().any(|v| v.invariant == inv)
}

fn collecting<R>(f: impl FnOnce(&CheckSession) -> R) -> (R, Vec<Violation>) {
    let check = CheckGuard::collecting();
    let r = f(check.session());
    (r, check.session().finish())
}

/// Every invariant, in declaration order.
const EVERY_INVARIANT: [Invariant; 16] = [
    Invariant::TimeMonotonic,
    Invariant::SpanCausality,
    Invariant::CapacityBound,
    Invariant::AcquireReleaseBalance,
    Invariant::LinkConservation,
    Invariant::SsdConservation,
    Invariant::PcieConservation,
    Invariant::KernelGroundTruth,
    Invariant::UtilizationBound,
    Invariant::FaultHygiene,
    Invariant::ClusterConservation,
    Invariant::FabricConservation,
    Invariant::EpochFencing,
    Invariant::ReplicaDivergence,
    Invariant::TenantConservation,
    Invariant::QosIsolation,
];

/// A unit that entered `flow` at one site and never left.
fn leak(flow: Flow) {
    flow_in(flow, at("site"), 64);
}

/// Plants one violation of `inv` into the session `s`. The `match` is
/// exhaustive, so an invariant without a planted violation does not
/// compile.
fn plant(s: &CheckSession, inv: Invariant) {
    match inv {
        Invariant::TimeMonotonic => {
            s.advance(0, 100);
            s.advance(100, 40); // the executor claims the clock moved backwards
        }
        Invariant::SpanCausality => s.span(at("disk"), "serve", 50, 10),
        Invariant::CapacityBound => s.acquire(at("nic"), 2, 3), // 3 in flight on 2 slots
        Invariant::AcquireReleaseBalance => {
            s.acquire(at("nic"), 2, 1);
            s.acquire(at("nic"), 2, 2);
            s.release(at("nic"), 1); // one of the two permits never comes back
        }
        Invariant::KernelGroundTruth => {
            kernel_result("compress", 1024, 300, None);
            let err = "decompressed output differs from input";
            kernel_result("compress", 1024, 300, Some(err.into()));
        }
        Invariant::UtilizationBound => {
            s.acquire(at("cpu"), 1, 1);
            s.release(at("cpu"), 0);
            // 200 ns busy inside a 100 ns window on one slot.
            s.span(at("cpu"), "serve", 0, 100);
            s.span(at("cpu"), "serve", 0, 100);
        }
        Invariant::FaultHygiene => {
            fault_injected("ssd_read", true);
            fault_injected("ssd_read", true);
            fault_handled("ssd_read", "retried"); // the second one is swallowed
        }
        Invariant::EpochFencing => {
            repl_epoch_advanced(0, 2);
            repl_epoch_advanced(0, 2); // a replayed transition: not above the max
        }
        Invariant::ReplicaDivergence => {
            replica_digest(0, 0, 10, 640, 0xAB);
            replica_digest(0, 1, 10, 640, 0xCD); // same sizes, different content
        }
        Invariant::LinkConservation => leak(Flow::Link),
        Invariant::SsdConservation => leak(Flow::Ssd),
        Invariant::PcieConservation => leak(Flow::Pcie),
        Invariant::ClusterConservation => leak(Flow::Cluster),
        Invariant::FabricConservation => leak(Flow::Fabric),
        Invariant::TenantConservation => leak(Flow::Tenant),
        Invariant::QosIsolation => leak(Flow::Qos), // a grant never dispatched
    }
}

#[test]
fn every_invariant_catches_its_planted_violation() {
    for (i, inv) in EVERY_INVARIANT.into_iter().enumerate() {
        assert_eq!(
            inv as usize, i,
            "EVERY_INVARIANT skips a variant before {inv}"
        );
        let (_, v) = collecting(|s| plant(s, inv));
        assert!(has(&v, inv), "{inv}: {v:?}");
    }
}

/// Runs `f` in a collecting session and splits its violations into
/// those recorded at the event and those the finish sweep added.
fn at_event_and_finish(f: impl FnOnce()) -> (Vec<Violation>, Vec<Violation>) {
    let check = CheckGuard::collecting();
    f();
    let at_event = check.session().violations();
    let at_finish = check.session().finish().split_off(at_event.len());
    (at_event, at_finish)
}

/// `violations` is exactly one violation of `flow`, naming the flow
/// and the site.
fn only(flow: Flow, violations: &[Violation]) -> bool {
    let prefix = format!("{} 'site': ", flow.noun());
    matches!(violations, [v] if v.invariant == flow.invariant() && v.message.starts_with(&prefix))
}

#[test]
fn every_flow_balances_and_catches_leaks_and_overdrafts() {
    let site = at("site");
    for (i, flow) in Flow::ALL.into_iter().enumerate() {
        assert_eq!(
            flow as usize, i,
            "Flow::ALL skips a variant before {flow:?}"
        );

        let (event, finish) = at_event_and_finish(|| {
            for exit in [Exit::Ok, Exit::Shed, Exit::Failed] {
                flow_in(flow, site, 64);
                flow_out(flow, site, exit, 64);
            }
        });
        assert!(
            event.is_empty() && finish.is_empty(),
            "{flow:?} balanced: {event:?} {finish:?}"
        );

        let (event, finish) = at_event_and_finish(|| {
            flow_in(flow, site, 64);
            flow_in(flow, site, 64);
            flow_out(flow, site, Exit::Ok, 64); // the second unit vanished
        });
        assert!(
            event.is_empty() && only(flow, &finish),
            "{flow:?} lost unit: {finish:?}"
        );

        let (event, finish) = at_event_and_finish(|| {
            flow_in(flow, site, 4096);
            flow_out(flow, site, Exit::Ok, 512); // one op each way, bytes vanished
        });
        assert!(
            event.is_empty() && only(flow, &finish),
            "{flow:?} lost bytes: {finish:?}"
        );

        let (event, _) = at_event_and_finish(|| {
            flow_in(flow, site, 64);
            flow_out(flow, site, Exit::Ok, 64);
            flow_out(flow, site, Exit::Failed, 64); // left twice
        });
        assert!(only(flow, &event), "{flow:?} op overdraft: {event:?}");

        let (event, _) = at_event_and_finish(|| {
            flow_in(flow, site, 64);
            flow_out(flow, site, Exit::Ok, 128); // more bytes out than in
        });
        assert!(only(flow, &event), "{flow:?} byte overdraft: {event:?}");
    }
}

#[test]
fn ssd_conservation_sweeps_bytes() {
    let (_, v) = collecting(|_| {
        flow_in(Flow::Ssd, at("nvme0.read"), 4096);
        flow_out(Flow::Ssd, at("nvme0.read"), Exit::Ok, 512); // one op each way, 3 584 B vanished
    });
    assert!(has(&v, Invariant::SsdConservation), "{v:?}");
}

#[test]
fn time_monotonic_allows_epoch_reset() {
    let (_, v) = collecting(|s| {
        s.advance(0, 500);
        // A fresh Sim restarts at zero: boundary, not time travel.
        s.advance(0, 80);
        s.advance(80, 120);
    });
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn span_causality_catches_future_dated_span() {
    let check = CheckGuard::collecting();
    let mut sim = Sim::new();
    sim.spawn(async {
        sleep(100).await;
        // now == 100; a span claiming to end at 900 is future-dated.
        dpdpu_des::probe::emit_span(at("disk"), "serve", 0, 900);
    });
    sim.run();
    let v = check.session().finish();
    assert!(has(&v, Invariant::SpanCausality), "{v:?}");
}

#[test]
fn fault_hygiene_accepts_all_three_outcomes() {
    let (_, v) = collecting(|_| {
        fault_injected("ssd_read", true);
        fault_handled("ssd_read", "retried");
        fault_injected("accel_offline", true);
        fault_handled("accel_offline", "degraded");
        fault_injected("ssd_write", true);
        fault_handled("ssd_write", "surfaced");
        // completion-preserving categories carry no obligation
        fault_injected("ssd_slow", false);
        fault_injected("link_delay", false);
    });
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn clean_simulation_passes_strict_guard() {
    let _check = CheckGuard::new();
    let mut sim = Sim::new();
    sim.spawn(async {
        let server = Server::new("disk", 2);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = server.clone();
            handles.push(dpdpu_des::spawn(async move { s.process(100).await }));
        }
        for h in handles {
            h.await;
        }
        flow_in(Flow::Link, at("eth0"), 4096);
        flow_out(Flow::Link, at("eth0"), Exit::Ok, 4096);
    });
    sim.run();
    drop(sim);
    // guard drop runs finish(): must not panic
}

#[test]
fn strict_session_panics_at_the_offending_event() {
    let err = std::panic::catch_unwind(|| {
        let _check = CheckGuard::new();
        flow_in(Flow::Link, at("eth0"), 10);
        flow_out(Flow::Link, at("eth0"), Exit::Ok, 20); // over-delivery panics right here
    });
    let msg = *err.expect_err("must panic").downcast::<String>().unwrap();
    assert!(msg.contains("link-conservation"), "{msg}");
    assert!(!is_active(), "the unwind removed the session");
}

#[test]
fn a_strict_guard_panics_at_its_drop_and_leaves_no_session() {
    let err = std::panic::catch_unwind(|| {
        let _check = CheckGuard::new();
        leak(Flow::Link); // only the end-of-run sweep sees it
    });
    let msg = *err.expect_err("must panic").downcast::<String>().unwrap();
    assert!(msg.contains("link 'site'"), "{msg}");
    assert!(
        !is_active(),
        "the guard removed its session before panicking"
    );
}

#[test]
fn a_second_session_panics_and_the_first_stays_installed() {
    let outer = CheckGuard::collecting();
    let nested = std::panic::catch_unwind(CheckGuard::new);
    assert!(nested.is_err(), "sessions do not nest");
    leak(Flow::Link);
    assert_eq!(
        outer.session().finish().len(),
        1,
        "the outer session saw it"
    );
}

#[test]
fn report_bytes_are_pinned() {
    let (_, v) = collecting(|s| {
        s.acquire(at("nic"), 2, 1);
        s.release(at("nic"), 0);
        let exits = |flow, site, steps: &[(Exit, u64)]| {
            for &(exit, bytes) in steps {
                flow_in(flow, at(site), bytes);
                flow_out(flow, at(site), exit, bytes);
            }
        };
        exits(Flow::Link, "eth0", &[(Exit::Ok, 1500), (Exit::Failed, 64)]);
        exits(Flow::Ssd, "nvme0.read", &[(Exit::Ok, 4096)]);
        exits(Flow::Ssd, "nvme0.write", &[(Exit::Failed, 512)]);
        exits(Flow::Pcie, "pcie-host-dpu", &[(Exit::Ok, 8192)]);
        let node0 = [(Exit::Ok, 8), (Exit::Shed, 8), (Exit::Failed, 8)];
        exits(Flow::Cluster, "node0", &node0);
        exits(Flow::Cluster, "node1", &[(Exit::Ok, 20)]);
        fabric_conn_open(at("c0.a2b"), 4);
        fabric_conn_open(at("c0.b2a"), 4);
        for len in [128, 64] {
            fabric_credit_consumed(at("c0.a2b"), 1);
            exits(Flow::Fabric, "c0.a2b", &[(Exit::Ok, len)]);
        }
        fabric_credit_returned(at("c0.a2b"), 1);
        // A direction that moved messages but never opened a window.
        exits(Flow::Fabric, "c1.a2b", &[(Exit::Ok, 32)]);
        let kv = [(Exit::Ok, 64), (Exit::Failed, 128)];
        exits(Flow::Tenant, "kv", &kv);
        exits(Flow::Tenant, "scan", &[(Exit::Shed, 2048)]);
        exits(Flow::Qos, "kv", &[(Exit::Ok, 0), (Exit::Ok, 0)]);
        // A tenant the scheduler served but that never issued.
        exits(Flow::Qos, "idle", &[(Exit::Ok, 0)]);
        repl_write_acked(0, 1);
        repl_epoch_advanced(0, 2);
        repl_write_acked(1, 1);
        kernel_result("compress", 1024, 300, None);
        fault_injected("ssd_read", true);
        fault_handled("ssd_read", "retried");
        assert_eq!(
            s.report(),
            "conformance: resources=1 acquires=1 link_bytes=1564 link_dropped_bytes=64 \
             ssd_ops=2 ssd_errors=1 dma_bytes=8192 kernels_checked=1 faults_injected=1 \
             violations=0 cluster_shards=2 cluster_ops=4 cluster_shed=2 fabric_sites=3 \
             fabric_msgs=3 fabric_bytes=224 fabric_credit_debt=1 tenants=3 tenant_ops=3 \
             tenant_ok=1 tenant_shed=1 qos_grants=3 repl_groups=2 repl_acked=2 \
             repl_epoch_transitions=1"
        );
    });
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn fabric_conservation_accepts_balanced_direction() {
    let (_, v) = collecting(|_| {
        fabric_conn_open(at("c0.a2b"), 4);
        for _ in 0..6 {
            fabric_credit_consumed(at("c0.a2b"), 1);
            flow_in(Flow::Fabric, at("c0.a2b"), 128);
            flow_out(Flow::Fabric, at("c0.a2b"), Exit::Ok, 128);
            fabric_credit_returned(at("c0.a2b"), 1);
        }
    });
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn fabric_conservation_catches_window_overrun_immediately() {
    let (_, v) = collecting(|_| {
        fabric_conn_open(at("c0.a2b"), 2);
        fabric_credit_consumed(at("c0.a2b"), 1);
        fabric_credit_consumed(at("c0.a2b"), 1);
        fabric_credit_consumed(at("c0.a2b"), 1); // debt 3 > window 2
    });
    assert!(has(&v, Invariant::FabricConservation), "{v:?}");
}

#[test]
fn fabric_conservation_catches_credit_over_return() {
    let (_, v) = collecting(|_| {
        fabric_conn_open(at("c0.a2b"), 8);
        fabric_credit_consumed(at("c0.a2b"), 1);
        fabric_credit_returned(at("c0.a2b"), 2); // returned more than consumed
    });
    assert!(has(&v, Invariant::FabricConservation), "{v:?}");
}

#[test]
fn fabric_window_accumulates_across_reopens() {
    // A site label reused by a second connection instance brings its
    // own credit budget: debt up to the summed windows is legal.
    let (_, v) = collecting(|_| {
        fabric_conn_open(at("c0.a2b"), 2);
        fabric_conn_open(at("c0.a2b"), 2);
        for _ in 0..4 {
            fabric_credit_consumed(at("c0.a2b"), 1);
            flow_in(Flow::Fabric, at("c0.a2b"), 64);
            flow_out(Flow::Fabric, at("c0.a2b"), Exit::Ok, 64);
        }
        for _ in 0..4 {
            fabric_credit_returned(at("c0.a2b"), 1);
        }
    });
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn report_gains_fabric_segment_only_with_fabric_traffic() {
    let (_, _) = collecting(|s| {
        assert!(!s.report().contains("fabric_"), "{}", s.report());
        fabric_conn_open(at("c0.a2b"), 8);
        assert!(!s.report().contains("fabric_"), "{}", s.report());
        fabric_credit_consumed(at("c0.a2b"), 1);
        flow_in(Flow::Fabric, at("c0.a2b"), 64);
        flow_out(Flow::Fabric, at("c0.a2b"), Exit::Ok, 64);
        fabric_credit_returned(at("c0.a2b"), 1);
        let r = s.report();
        assert!(r.contains("fabric_sites=1"), "{r}");
        assert!(r.contains("fabric_msgs=1"), "{r}");
        assert!(r.contains("fabric_bytes=64"), "{r}");
        assert!(r.contains("fabric_credit_debt=0"), "{r}");
    });
}

#[test]
fn epoch_fencing_catches_resurrected_stale_primary() {
    let (_, v) = collecting(|_| {
        repl_epoch_advanced(0, 2); // failover promoted the backup
        repl_write_acked(0, 2); // the new primary acks at the new epoch
        repl_write_acked(0, 1); // a zombie old primary acks at epoch 1
    });
    assert!(has(&v, Invariant::EpochFencing), "{v:?}");
}

#[test]
fn epoch_fencing_allows_monotonic_history() {
    let (_, v) = collecting(|_| {
        repl_write_acked(0, 1);
        repl_epoch_advanced(0, 2);
        repl_write_acked(0, 2);
        // Groups fence independently: group 1 reusing epoch 2 is fine.
        repl_epoch_advanced(1, 2);
        repl_write_acked(1, 2);
    });
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn replica_divergence_catches_missing_entries() {
    let (_, v) = collecting(|_| {
        replica_digest(2, 0, 10, 640, 0xAB);
        replica_digest(2, 1, 9, 580, 0x99); // backup lost a write
    });
    assert!(has(&v, Invariant::ReplicaDivergence), "{v:?}");
}

#[test]
fn replica_divergence_allows_converged_groups() {
    let (_, v) = collecting(|_| {
        replica_digest(0, 0, 10, 640, 0xAB);
        replica_digest(0, 1, 10, 640, 0xAB);
        replica_digest(1, 0, 3, 99, 0x1); // solo survivor: nothing to compare
    });
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn report_gains_tenant_segment_only_with_tenant_traffic() {
    let (_, _) = collecting(|s| {
        assert!(!s.report().contains("tenant"), "{}", s.report());
        flow_in(Flow::Tenant, at("kv"), 64);
        flow_in(Flow::Qos, at("kv"), 0);
        flow_out(Flow::Qos, at("kv"), Exit::Ok, 0);
        flow_out(Flow::Tenant, at("kv"), Exit::Ok, 64);
        flow_in(Flow::Tenant, at("scan"), 100);
        flow_out(Flow::Tenant, at("scan"), Exit::Shed, 100);
        let r = s.report();
        assert!(r.contains("tenants=2"), "{r}");
        assert!(r.contains("tenant_ops=2"), "{r}");
        assert!(r.contains("tenant_ok=1"), "{r}");
        assert!(r.contains("tenant_shed=1"), "{r}");
        assert!(r.contains("qos_grants=1"), "{r}");
    });
}

#[test]
fn report_gains_repl_segment_only_with_replication_traffic() {
    let (_, _) = collecting(|s| {
        assert!(!s.report().contains("repl_"), "{}", s.report());
        repl_write_acked(0, 1);
        repl_epoch_advanced(0, 2);
        repl_write_acked(1, 1);
        let r = s.report();
        assert!(r.contains("repl_groups=2"), "{r}");
        assert!(r.contains("repl_acked=2"), "{r}");
        assert!(r.contains("repl_epoch_transitions=1"), "{r}");
    });
}

/// Replays one fixed event stream — by name, with violations planted at
/// several sites of several families — in a collecting session on a fresh
/// thread, i.e. a fresh site table, after interning `first` in that
/// order. Returns the report and the violation list as text.
fn replay_after_interning(first: Vec<String>) -> (String, Vec<String>) {
    std::thread::spawn(move || {
        for name in &first {
            Site::new(name);
        }
        let check = CheckGuard::collecting();
        let session = check.session();
        for nic in ["nic-b", "nic-c", "nic-a"] {
            session.acquire(at(nic), 2, 1); // never released
            session.span(at(nic), "serve", 0, 10);
        }
        session.acquire(at("nic-b"), 2, 3); // oversubscribed, flagged at the event
        for link in ["eth-c", "eth-a", "eth-b"] {
            flow_in(Flow::Link, at(link), 1500); // never delivered
        }
        flow_in(Flow::Pcie, at("pcie-b"), 64);
        flow_in(Flow::Pcie, at("pcie-a"), 64);
        for tenant in ["scan", "kv"] {
            flow_in(Flow::Tenant, at(tenant), 64);
            flow_in(Flow::Qos, at(tenant), 0); // never dispatched
        }
        flow_in(Flow::Cluster, at("node1"), 8);
        flow_out(Flow::Cluster, at("node1"), Exit::Ok, 8);
        let violations = session.finish();
        (
            session.report(),
            violations.iter().map(|v| v.to_string()).collect(),
        )
    })
    .join()
    .expect("replay thread")
}

#[test]
fn site_ids_are_not_observable() {
    let names = [
        "eth-a", "eth-b", "eth-c", "kv", "nic-a", "nic-b", "nic-c", "node1", "pcie-a", "pcie-b",
        "scan",
    ];
    let forward: Vec<String> = names.iter().map(|n| n.to_string()).collect();
    let backward: Vec<String> = forward.iter().rev().cloned().collect();
    // 500 unrelated sites first: the stream's ids are large and the
    // session's tables sparse.
    let sparse: Vec<String> = (0..500)
        .map(|i| format!("unrelated{i}"))
        .chain(backward.iter().cloned())
        .collect();

    let (report, violations) = replay_after_interning(forward);
    assert_eq!(
        replay_after_interning(backward),
        (report.clone(), violations.clone())
    );
    assert_eq!(
        replay_after_interning(sparse),
        (report.clone(), violations.clone())
    );
    assert!(report.contains("resources=3 acquires=4"), "{report}");
    assert!(report.contains("cluster_shards=1"), "{report}");
    assert!(report.contains("tenants=2"), "{report}");

    // The event-time violation first, then each sweep in site-name
    // order, every message carrying the site's name.
    let sites: Vec<&str> = violations
        .iter()
        .map(|v| v.split('\'').nth(1).expect("a quoted site name"))
        .collect();
    assert_eq!(
        sites,
        [
            "nic-b", "nic-a", "nic-b", "nic-c", "eth-a", "eth-b", "eth-c", "pcie-a", "pcie-b",
            "kv", "scan", "kv", "scan",
        ],
        "{violations:#?}"
    );
}
