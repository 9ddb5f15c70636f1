//! Cross-algorithm congestion-control conformance.
//!
//! Two families of guarantees:
//!
//! * **Reliability is algorithm-independent** — whatever the window
//!   policy, TCP must deliver every message, in order and intact,
//!   through seeded link drops, under a strict conformance session
//!   (every injected drop audited as handled).
//! * **The algorithms separate where they should** — on the incast
//!   matrix cell, DCTCP's ECN-proportional backoff must beat Reno's
//!   half-on-mark on p99 latency at equal-or-better goodput (the
//!   paper-era DCTCP claim, reproduced in simulation).

use bytes::Bytes;
use dpdpu::des::block_on;
use dpdpu::faults::{FaultPlan, SessionGuard};
use dpdpu::hw::{CpuPool, LinkConfig};
use dpdpu::net::fabric::Endpoint;
use dpdpu::net::tcp::{CongAlgKind, TcpConnector, TcpParams};
use dpdpu_bench::netmatrix::{run_cell, NetScenario};

/// Every algorithm delivers a seeded multi-stream workload in order
/// under injected frame drops, with the strict checker auditing every
/// drop → retransmit pair.
#[test]
fn every_algorithm_survives_loss_in_order() {
    const STREAMS: usize = 3;
    const MSGS: u64 = 40;

    for alg in CongAlgKind::ALL {
        let _faults = SessionGuard::new(FaultPlan::new(0xC0 ^ alg as u64).link_drops(0.05));
        let _check = dpdpu::check::CheckGuard::new();

        block_on(async move {
            let src = Endpoint::host(CpuPool::new("src", 8, 3_000_000_000));
            let dst = Endpoint::host(CpuPool::new("dst", 8, 3_000_000_000));
            let conns = TcpConnector::new(LinkConfig::rack_100g())
                .params(TcpParams {
                    cong: alg,
                    ..TcpParams::default()
                })
                .streams(src, dst, STREAMS);

            let mut handles = Vec::new();
            for (stream_id, (tx, mut rx)) in conns.into_iter().enumerate() {
                for seq in 0..MSGS {
                    // Content encodes (stream, seq) so reordering or
                    // corruption shows up as a payload mismatch.
                    let body = format!("{alg:?}-{stream_id}-{seq}");
                    tx.send(Bytes::from(
                        [body.as_bytes().to_vec(), vec![b'.'; 4096]].concat(),
                    ));
                }
                drop(tx);
                handles.push(dpdpu::des::spawn(async move {
                    let mut expect = 0u64;
                    while let Some(msg) = rx.recv().await {
                        let want = format!("{alg:?}-{stream_id}-{expect}");
                        assert_eq!(
                            &msg[..want.len()],
                            want.as_bytes(),
                            "{alg:?} stream {stream_id}: out-of-order or corrupt delivery"
                        );
                        expect += 1;
                    }
                    assert_eq!(expect, MSGS, "{alg:?} stream {stream_id}: lost messages");
                }));
            }
            for h in handles {
                h.await;
            }
        });
    }
}

/// The acceptance shape for the incast cell: DCTCP's proportional
/// ECN response keeps the shared bottleneck busy where Reno's deep
/// cuts idle it, so DCTCP must win the tail *and* the goodput.
#[test]
fn dctcp_beats_reno_on_incast() {
    let _telemetry = dpdpu::telemetry::Telemetry::install();
    let reno = {
        let _check = dpdpu::check::CheckGuard::new();
        run_cell(NetScenario::Incast, CongAlgKind::Reno, 42)
    };
    let dctcp = {
        let _check = dpdpu::check::CheckGuard::new();
        run_cell(NetScenario::Incast, CongAlgKind::Dctcp, 42)
    };

    assert_eq!(reno.delivered, dctcp.delivered, "both must drain the burst");
    assert!(
        dctcp.ecn_echoes > 0 && reno.ecn_echoes > 0,
        "the cell is only meaningful if the link actually marks"
    );
    assert!(
        dctcp.p99_us < reno.p99_us,
        "DCTCP p99 {:.1}µs must beat Reno p99 {:.1}µs on incast",
        dctcp.p99_us,
        reno.p99_us
    );
    assert!(
        dctcp.goodput_gbps >= reno.goodput_gbps,
        "DCTCP goodput {:.3} Gbps must be equal-or-better than Reno {:.3} Gbps",
        dctcp.goodput_gbps,
        reno.goodput_gbps
    );
}

/// CUBIC's RTT-independent recovery refills the long fat pipe faster
/// than Reno's one-MSS-per-RTT crawl after the same loss.
#[test]
fn cubic_recovers_faster_than_reno_on_wan() {
    let reno = {
        let _check = dpdpu::check::CheckGuard::new();
        run_cell(NetScenario::Wan, CongAlgKind::Reno, 42)
    };
    let cubic = {
        let _check = dpdpu::check::CheckGuard::new();
        run_cell(NetScenario::Wan, CongAlgKind::Cubic, 42)
    };
    assert_eq!(reno.delivered, cubic.delivered);
    assert!(
        cubic.p99_us <= reno.p99_us && cubic.goodput_gbps >= reno.goodput_gbps,
        "CUBIC (p99 {:.1}µs, {:.3} Gbps) must not lose to Reno \
         (p99 {:.1}µs, {:.3} Gbps) on the WAN cell",
        cubic.p99_us,
        cubic.goodput_gbps,
        reno.p99_us,
        reno.goodput_gbps
    );
}
