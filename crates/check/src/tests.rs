//! One unit test per invariant in the catalogue, plus end-to-end
//! checks that a clean simulation stays clean.

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
    let session = CheckSession::install_collecting();
    let r = f(&session);
    let violations = session.finish();
    CheckSession::uninstall();
    (r, violations)
}

#[test]
fn time_monotonic_catches_backwards_clock() {
    let (_, v) = collecting(|s| {
        s.advance(0, 100);
        s.advance(100, 40); // executor claims the clock moved backwards
    });
    assert!(has(&v, Invariant::TimeMonotonic), "{v:?}");
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
fn span_causality_catches_inverted_span() {
    let (_, v) = collecting(|s| {
        s.span(at("disk"), "serve", 50, 10);
    });
    assert!(has(&v, Invariant::SpanCausality), "{v:?}");
}

#[test]
fn span_causality_catches_future_dated_span() {
    let session = CheckSession::install_collecting();
    let mut sim = Sim::new();
    sim.spawn(async {
        sleep(100).await;
        // now == 100; a span claiming to end at 900 is future-dated.
        dpdpu_des::probe::emit_span(at("disk"), "serve", 0, 900);
    });
    sim.run();
    let v = session.finish();
    CheckSession::uninstall();
    assert!(has(&v, Invariant::SpanCausality), "{v:?}");
}

#[test]
fn capacity_bound_catches_oversubscription() {
    let (_, v) = collecting(|s| {
        s.acquire(at("nic"), 2, 3); // 3 permits in flight on 2 slots
    });
    assert!(has(&v, Invariant::CapacityBound), "{v:?}");
}

#[test]
fn acquire_release_balance_catches_leaked_permit() {
    let (_, v) = collecting(|s| {
        s.acquire(at("nic"), 2, 1);
        s.acquire(at("nic"), 2, 2);
        s.release(at("nic"), 1); // one of the two permits never comes back
    });
    assert!(has(&v, Invariant::AcquireReleaseBalance), "{v:?}");
}

#[test]
fn link_conservation_catches_lost_frame() {
    let (_, v) = collecting(|_| {
        link_in(at("eth0"), 1500);
        link_in(at("eth0"), 1500);
        link_delivered(at("eth0"), 1500);
        // second frame neither delivered nor accounted as dropped
    });
    assert!(has(&v, Invariant::LinkConservation), "{v:?}");
}

#[test]
fn link_conservation_catches_double_delivery_immediately() {
    let (_, v) = collecting(|_| {
        link_in(at("eth0"), 100);
        link_delivered(at("eth0"), 100);
        link_delivered(at("eth0"), 100); // delivered more than was sent
    });
    assert!(has(&v, Invariant::LinkConservation), "{v:?}");
}

#[test]
fn link_conservation_accepts_balanced_drop() {
    let (_, v) = collecting(|_| {
        link_in(at("eth0"), 1500);
        link_in(at("eth0"), 64);
        link_delivered(at("eth0"), 1500);
        link_dropped(at("eth0"), 64);
    });
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn ssd_conservation_catches_vanished_op() {
    let (_, v) = collecting(|_| {
        ssd_in(at("nvme0.read"), 4096);
        ssd_in(at("nvme0.read"), 4096);
        ssd_done(at("nvme0.read"), 4096);
        // second admitted op never completes or errors
    });
    assert!(has(&v, Invariant::SsdConservation), "{v:?}");
}

#[test]
fn ssd_conservation_accepts_error_accounting() {
    let (_, v) = collecting(|_| {
        ssd_in(at("nvme0.write"), 512);
        ssd_failed(at("nvme0.write"), 512);
        ssd_in(at("nvme0.read"), 4096);
        ssd_done(at("nvme0.read"), 4096);
    });
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn pcie_conservation_catches_missing_completion() {
    let (_, v) = collecting(|_| {
        pcie_in(at("pcie-host-dpu"), 8192);
        pcie_done(at("pcie-host-dpu"), 4096); // half the bytes vanished
    });
    assert!(has(&v, Invariant::PcieConservation), "{v:?}");
}

#[test]
fn kernel_ground_truth_catches_mismatch() {
    let (_, v) = collecting(|_| {
        kernel_result("compress", 1024, 300, None);
        kernel_result(
            "compress",
            1024,
            300,
            Some("decompressed output differs from input".into()),
        );
    });
    assert!(has(&v, Invariant::KernelGroundTruth), "{v:?}");
}

#[test]
fn utilization_bound_catches_overcommitted_busy_time() {
    let (_, v) = collecting(|s| {
        s.acquire(at("cpu"), 1, 1);
        s.release(at("cpu"), 0);
        // Two full-window serve spans on a 1-slot resource: 200 ns busy
        // inside a 100 ns window.
        s.span(at("cpu"), "serve", 0, 100);
        s.span(at("cpu"), "serve", 0, 100);
    });
    assert!(has(&v, Invariant::UtilizationBound), "{v:?}");
}

#[test]
fn fault_hygiene_catches_swallowed_fault() {
    let (_, v) = collecting(|_| {
        fault_injected("ssd_read");
        fault_injected("ssd_read");
        fault_handled("ssd_read", "retried"); // the second one is swallowed
    });
    assert!(has(&v, Invariant::FaultHygiene), "{v:?}");
}

#[test]
fn fault_hygiene_accepts_all_three_outcomes() {
    let (_, v) = collecting(|_| {
        fault_injected("ssd_read");
        fault_handled("ssd_read", "retried");
        fault_injected("accel_offline");
        fault_handled("accel_offline", "degraded");
        fault_injected("ssd_write");
        fault_handled("ssd_write", "surfaced");
        // completion-preserving categories carry no obligation
        fault_injected("ssd_slow");
        fault_injected("link_delay");
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
        link_in(at("eth0"), 4096);
        link_delivered(at("eth0"), 4096);
    });
    sim.run();
    drop(sim);
    // guard drop runs finish(): must not panic
}

#[test]
fn strict_session_panics_at_the_offending_event() {
    let err = std::panic::catch_unwind(|| {
        let _s = CheckSession::install();
        link_in(at("eth0"), 10);
        link_delivered(at("eth0"), 20); // over-delivery panics right here
    });
    CheckSession::uninstall();
    let msg = *err.expect_err("must panic").downcast::<String>().unwrap();
    assert!(msg.contains("link-conservation"), "{msg}");
}

#[test]
fn ensure_installed_does_not_clobber_existing_session() {
    let outer = CheckSession::install_collecting();
    let seen = CheckSession::ensure_installed();
    assert!(Rc::ptr_eq(&outer, &seen));
    CheckSession::uninstall();
}

#[test]
fn report_has_stable_shape() {
    let (_, _) = collecting(|s| {
        link_in(at("eth0"), 100);
        link_delivered(at("eth0"), 100);
        let r = s.report();
        assert!(r.starts_with("conformance:"), "{r}");
        assert!(r.contains("link_bytes=100"), "{r}");
        assert!(r.contains("violations=0"), "{r}");
    });
}

#[test]
fn fabric_conservation_accepts_balanced_direction() {
    let (_, v) = collecting(|_| {
        fabric_conn_open(at("c0.a2b"), 4);
        for _ in 0..6 {
            fabric_credit_consumed(at("c0.a2b"), 1);
            fabric_msg_sent(at("c0.a2b"), 128);
            fabric_msg_delivered(at("c0.a2b"), 128);
            fabric_credit_returned(at("c0.a2b"), 1);
        }
    });
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn fabric_conservation_catches_lost_message_at_finish() {
    let (_, v) = collecting(|_| {
        fabric_conn_open(at("c0.a2b"), 8);
        fabric_credit_consumed(at("c0.a2b"), 1);
        fabric_msg_sent(at("c0.a2b"), 128);
        // never delivered
    });
    assert!(has(&v, Invariant::FabricConservation), "{v:?}");
}

#[test]
fn fabric_conservation_catches_delivery_overdraft_immediately() {
    let (_, v) = collecting(|_| {
        fabric_conn_open(at("c0.a2b"), 8);
        fabric_msg_delivered(at("c0.a2b"), 128); // delivered what was never sent
    });
    assert!(has(&v, Invariant::FabricConservation), "{v:?}");
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
            fabric_msg_sent(at("c0.a2b"), 64);
            fabric_msg_delivered(at("c0.a2b"), 64);
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
        fabric_msg_sent(at("c0.a2b"), 64);
        fabric_msg_delivered(at("c0.a2b"), 64);
        fabric_credit_returned(at("c0.a2b"), 1);
        let r = s.report();
        assert!(r.contains("fabric_sites=1"), "{r}");
        assert!(r.contains("fabric_msgs=1"), "{r}");
        assert!(r.contains("fabric_bytes=64"), "{r}");
        assert!(r.contains("fabric_credit_debt=0"), "{r}");
    });
}

#[test]
fn epoch_fencing_catches_non_monotonic_transition() {
    let (_, v) = collecting(|_| {
        repl_epoch_advanced(0, 2);
        repl_epoch_advanced(0, 2); // replayed transition: not above the max
    });
    assert!(has(&v, Invariant::EpochFencing), "{v:?}");
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
fn replica_divergence_catches_planted_desync() {
    let (_, v) = collecting(|_| {
        replica_digest(0, 0, 10, 640, 0xAB);
        replica_digest(0, 1, 10, 640, 0xCD); // same sizes, different content
    });
    assert!(has(&v, Invariant::ReplicaDivergence), "{v:?}");
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
fn tenant_conservation_catches_vanished_request() {
    let (_, v) = collecting(|_| {
        tenant_op_issued(at("kv"), 64);
        tenant_op_issued(at("kv"), 64);
        tenant_op_ok(at("kv"), 64);
        // second request neither completed, shed, nor failed
    });
    assert!(has(&v, Invariant::TenantConservation), "{v:?}");
}

#[test]
fn tenant_conservation_catches_overdraft_immediately() {
    let (_, v) = collecting(|_| {
        tenant_op_issued(at("kv"), 64);
        tenant_op_ok(at("kv"), 64);
        tenant_op_ok(at("kv"), 64); // resolved more than ever entered
    });
    assert!(has(&v, Invariant::TenantConservation), "{v:?}");
}

#[test]
fn tenant_conservation_catches_planted_label_loss() {
    let (_, v) = collecting(|_| {
        tenant_unlabeled("gateway.dispatch"); // a request slipped through unlabeled
    });
    assert!(has(&v, Invariant::TenantConservation), "{v:?}");
}

#[test]
fn tenant_conservation_accepts_balanced_accounting() {
    let (_, v) = collecting(|_| {
        tenant_op_issued(at("kv"), 64);
        tenant_op_ok(at("kv"), 64);
        tenant_op_issued(at("scan"), 2048);
        tenant_op_shed(at("scan"), 2048);
        tenant_op_issued(at("kv"), 128);
        tenant_op_failed(at("kv"), 128);
    });
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn qos_isolation_catches_planted_scheduler_bypass() {
    let (_, v) = collecting(|_| {
        qos_granted(at("kv"));
        tenant_dispatched(at("kv"));
        tenant_dispatched(at("kv")); // reached the fabric without a grant
    });
    assert!(has(&v, Invariant::QosIsolation), "{v:?}");
}

#[test]
fn qos_isolation_catches_unused_grant_at_finish() {
    let (_, v) = collecting(|_| {
        qos_granted(at("kv"));
        // the granted slot never turned into a dispatch
    });
    assert!(has(&v, Invariant::QosIsolation), "{v:?}");
}

#[test]
fn qos_isolation_accepts_granted_dispatches() {
    let (_, v) = collecting(|_| {
        for _ in 0..5 {
            qos_granted(at("kv"));
            tenant_dispatched(at("kv"));
        }
    });
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn report_gains_tenant_segment_only_with_tenant_traffic() {
    let (_, _) = collecting(|s| {
        assert!(!s.report().contains("tenant"), "{}", s.report());
        tenant_op_issued(at("kv"), 64);
        qos_granted(at("kv"));
        tenant_dispatched(at("kv"));
        tenant_op_ok(at("kv"), 64);
        tenant_op_issued(at("scan"), 100);
        tenant_op_shed(at("scan"), 100);
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
        let session = CheckSession::install_collecting();
        for nic in ["nic-b", "nic-c", "nic-a"] {
            session.acquire(at(nic), 2, 1); // never released
            session.span(at(nic), "serve", 0, 10);
        }
        session.acquire(at("nic-b"), 2, 3); // oversubscribed, flagged at the event
        for link in ["eth-c", "eth-a", "eth-b"] {
            link_in(at(link), 1500); // never delivered
        }
        pcie_in(at("pcie-b"), 64);
        pcie_in(at("pcie-a"), 64);
        for tenant in ["scan", "kv"] {
            tenant_op_issued(at(tenant), 64);
            qos_granted(at(tenant)); // never dispatched
        }
        cluster_op_issued(at("node1"), 8);
        cluster_op_ok(at("node1"), 8);
        let violations = session.finish();
        CheckSession::uninstall();
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
            "kv", "kv", "scan", "scan",
        ],
        "{violations:#?}"
    );
}
