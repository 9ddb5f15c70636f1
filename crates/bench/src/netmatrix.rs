//! The network scenario matrix: congestion-control algorithms under
//! the three traffic shapes that separate them.
//!
//! Each cell runs one [`NetScenario`] under one [`CongAlgKind`] inside
//! its own `Sim` and reports latency quantiles, goodput, and the
//! transport's own counters. The shapes:
//!
//! * **Incast** — eight flows burst into one receiver over a shared
//!   10 Gbps ECN-marking link. Contention is the story: a frame that
//!   waits behind several other flows' frames picks up a CE mark, and
//!   how hard an algorithm backs off decides whether the pipe stays
//!   full. Reno's half-on-mark overshoots and idles the link; DCTCP's
//!   proportional cut holds it near capacity, so DCTCP's tail latency
//!   must beat Reno's at equal-or-better goodput (asserted in
//!   `tests/net_cong.rs`).
//! * **WAN** — two flows over 1 Gbps with a 20 ms RTT and light random
//!   loss. The bandwidth-delay product is the story: CUBIC's
//!   RTT-independent cubic recovery refills the pipe faster than
//!   Reno's one-MSS-per-RTT crawl.
//! * **Lossy** — four flows over an intra-rack link while a seeded
//!   [`FaultPlan`] drops 3% of data frames. Reliability is the story:
//!   every algorithm must deliver everything, in order, through fast
//!   retransmits and RTOs — and identically fast here, because at rack
//!   RTT recovery is loss-detection-bound, not window-bound.
//!
//! Everything is a pure function of `(scenario, algorithm, seed)` — the
//! `net_scenarios` golden pins the seed-42 matrix byte-for-byte.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use dpdpu_des::{block_on, now, Histogram, Time};
use dpdpu_faults::{FaultPlan, SessionGuard};
use dpdpu_hw::{CpuPool, LinkConfig};
use dpdpu_net::fabric::Endpoint;
use dpdpu_net::tcp::{CongAlgKind, TcpConnector, TcpParams};

/// A traffic shape in the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetScenario {
    /// Many-to-one burst over a shared ECN-marking bottleneck.
    Incast,
    /// Long fat pipe: high RTT, light random loss.
    Wan,
    /// Intra-rack link under injected frame drops.
    Lossy,
}

impl NetScenario {
    /// Every shape, matrix row order.
    pub(crate) const ALL: [NetScenario; 3] =
        [NetScenario::Incast, NetScenario::Wan, NetScenario::Lossy];

    /// Stable lowercase name (scenario output, flow labels).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            NetScenario::Incast => "incast",
            NetScenario::Wan => "wan",
            NetScenario::Lossy => "lossy",
        }
    }
}

/// What one cell measured.
#[derive(Debug, Clone, Copy)]
pub struct CellReport {
    /// Median message latency (submit → in-order delivery), µs.
    pub(crate) p50_us: f64,
    /// p99 message latency, µs.
    pub p99_us: f64,
    /// Delivered payload bits over the drain time, Gbit/s.
    pub goodput_gbps: f64,
    /// Data segments retransmitted (fast retransmit + RTO), all flows.
    pub(crate) retransmits: u64,
    /// ACKs that echoed an ECN mark back to a sender, all flows.
    pub ecn_echoes: u64,
    /// Messages delivered (must equal messages submitted).
    pub delivered: u64,
}

struct Shape {
    link: LinkConfig,
    params: TcpParams,
    streams: usize,
    msgs_per_stream: usize,
    msg_bytes: usize,
    /// Installed for the sim's lifetime when the shape injects faults.
    fault_plan: Option<FaultPlan>,
}

fn shape(scenario: NetScenario, seed: u64) -> Shape {
    match scenario {
        // Senders block on wire serialization, so the shared FIFO holds
        // at most one frame per flow and sojourn tops out near
        // (streams-1) frame times ≈ 46 µs. The 20 µs threshold marks
        // frames that waited behind three or more competitors, and the
        // 200 µs propagation delay makes over-reacting to those marks
        // expensive: at the 2-MSS window floor a flow cannot cover even
        // its fair BDP share, so deep cuts idle the link.
        NetScenario::Incast => Shape {
            link: LinkConfig {
                bits_per_sec: 10_000_000_000,
                propagation_ns: 200_000,
                ..LinkConfig::rack_100g()
            }
            .with_ecn(20_000),
            params: TcpParams::default(),
            streams: 8,
            msgs_per_stream: 96,
            msg_bytes: 8_192,
            fault_plan: None,
        },
        // 1 Gbps × 20 ms RTT ≈ 2.5 MB of pipe: the window caps are
        // raised to let an algorithm actually fill it, and the RTO must
        // clear the RTT or every segment times out spuriously.
        NetScenario::Wan => Shape {
            link: LinkConfig {
                bits_per_sec: 1_000_000_000,
                propagation_ns: 10_000_000,
                ..LinkConfig::rack_100g()
            }
            .with_loss(0.004, seed ^ 0x3A),
            params: TcpParams {
                max_wnd_segs: 512,
                recv_ring_slots: 512,
                rto_ns: 50_000_000,
                ..TcpParams::default()
            },
            streams: 2,
            msgs_per_stream: 256,
            msg_bytes: 8_192,
            fault_plan: None,
        },
        // The conformance layer audits every injected drop: each one
        // must be answered by a retransmit (`fault_handled`).
        NetScenario::Lossy => Shape {
            link: LinkConfig::rack_100g(),
            params: TcpParams::default(),
            streams: 4,
            msgs_per_stream: 32,
            msg_bytes: 8_192,
            fault_plan: Some(FaultPlan::new(seed ^ 0x10).link_drops(0.03)),
        },
    }
}

/// Runs one matrix cell to completion and reports what it measured.
///
/// Deterministic in `(scenario, alg, seed)`. Transport counters
/// (retransmits, ECN echoes) are read back through the ambient
/// `dpdpu-telemetry` metrics registry and report zero when no telemetry
/// session is installed; latency and goodput are measured directly.
pub fn run_cell(scenario: NetScenario, alg: CongAlgKind, seed: u64) -> CellReport {
    let sh = shape(scenario, seed);
    let guard = sh.fault_plan.clone().map(SessionGuard::new);
    let label = format!("net-{}-{}", scenario.name(), alg.name());

    let streams = sh.streams;
    let msgs = sh.msgs_per_stream;
    let bytes = sh.msg_bytes;
    let link = sh.link;
    let params = sh.params;
    let cell = label.clone();

    let (p50_ns, p99_ns, delivered, last_ns) = block_on(async move {
        let latency = Rc::new(Histogram::new());
        let out = Rc::new(RefCell::new((0u64, 0u64))); // (delivered msgs, last delivery ns)
        let src = Endpoint::host(CpuPool::new(
            format!("{cell}-src"),
            (streams * 2).max(8),
            3_000_000_000,
        ));
        let dst = Endpoint::host(CpuPool::new(
            format!("{cell}-dst"),
            (streams * 2).max(8),
            3_000_000_000,
        ));
        let conns = TcpConnector::new(link)
            .params(params)
            .cong(alg)
            .label(cell)
            .streams(src, dst, streams);

        let mut handles = Vec::new();
        for (tx, mut rx) in conns {
            // Open loop: the whole burst is submitted at t=0, so message
            // latency includes time spent queued behind the window — the
            // algorithm's pacing is what the quantiles measure.
            let submitted: Rc<RefCell<VecDeque<Time>>> = Rc::new(RefCell::new(VecDeque::new()));
            let stamps = submitted.clone();
            for _ in 0..msgs {
                stamps.borrow_mut().push_back(now());
                tx.send(Bytes::from(vec![0u8; bytes]));
            }
            drop(tx); // half-close: FIN after the burst drains
            let latency = latency.clone();
            let out = out.clone();
            handles.push(dpdpu_des::spawn(async move {
                while let Some(msg) = rx.recv().await {
                    let t0 = submitted
                        .borrow_mut()
                        .pop_front()
                        .expect("delivery without a submission");
                    latency.record(now() - t0);
                    let mut o = out.borrow_mut();
                    o.0 += 1;
                    o.1 = now();
                    debug_assert_eq!(msg.len(), bytes);
                }
            }));
        }
        for h in handles {
            h.await;
        }
        let (delivered, last_ns) = *out.borrow();
        (
            latency.p50().unwrap_or(0),
            latency.p99().unwrap_or(0),
            delivered,
            last_ns,
        )
    });
    drop(guard);

    let payload_bits = (delivered * bytes as u64 * 8) as f64;
    let (mut retransmits, mut ecn_echoes) = (0u64, 0u64);
    for conn in 0..streams {
        let conn = conn.to_string();
        let labels = [("flow", label.as_str()), ("conn", conn.as_str())];
        if let Some(c) = dpdpu_telemetry::counter("tcp_retransmits", &labels) {
            retransmits += c.get();
        }
        if let Some(c) = dpdpu_telemetry::counter("tcp_ecn_echoes", &labels) {
            ecn_echoes += c.get();
        }
    }
    CellReport {
        p50_us: p50_ns as f64 / 1_000.0,
        p99_us: p99_ns as f64 / 1_000.0,
        goodput_gbps: if last_ns > 0 {
            payload_bits / last_ns as f64
        } else {
            0.0
        },
        retransmits,
        ecn_echoes,
        delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_delivers_the_full_burst() {
        for scenario in NetScenario::ALL {
            for alg in CongAlgKind::ALL {
                let _check = dpdpu_check::CheckGuard::new();
                let sh = shape(scenario, 7);
                let r = run_cell(scenario, alg, 7);
                assert_eq!(
                    r.delivered,
                    (sh.streams * sh.msgs_per_stream) as u64,
                    "{}/{} lost messages",
                    scenario.name(),
                    alg.name()
                );
                assert!(r.goodput_gbps > 0.0);
            }
        }
    }

    #[test]
    fn lossy_cell_retransmits_when_telemetry_is_installed() {
        let telemetry = dpdpu_telemetry::Telemetry::install();
        let _check = dpdpu_check::CheckGuard::new();
        let r = run_cell(NetScenario::Lossy, CongAlgKind::Reno, 11);
        dpdpu_telemetry::Telemetry::uninstall();
        let _ = telemetry;
        assert!(
            r.retransmits > 0,
            "3% injected drops must force retransmissions"
        );
    }

    #[test]
    fn incast_marks_ecn_for_dctcp() {
        let telemetry = dpdpu_telemetry::Telemetry::install();
        let _check = dpdpu_check::CheckGuard::new();
        let r = run_cell(NetScenario::Incast, CongAlgKind::Dctcp, 13);
        dpdpu_telemetry::Telemetry::uninstall();
        let _ = telemetry;
        assert!(r.ecn_echoes > 0, "the incast queue must trip ECN marking");
    }
}
