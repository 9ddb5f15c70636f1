//! A message-segmented TCP with pluggable congestion control, runnable
//! on the host kernel path or offloaded to the DPU behind a socket
//! front end.
//!
//! ## Model
//!
//! * The byte stream is segmented at the MSS; cumulative ACKs, a sliding
//!   window, fast retransmit on three duplicate ACKs, and an RTO govern
//!   the sender. The receiver reorders out-of-order segments and
//!   delivers in order, one chunk per segment (messages at or below the
//!   MSS keep their boundaries; larger messages arrive as MSS-sized
//!   chunks — nothing in the reproduced experiments depends on
//!   byte-granular framing).
//! * **Host stack** (an [`Endpoint`] with no DPU): every data segment
//!   and ACK charges host-CPU cycles — the Figure 3 cost.
//! * **Offloaded stack** (an [`Endpoint`] with a DPU): protocol cycles
//!   are charged to DPU cores; payloads cross host↔DPU PCIe by DMA; the
//!   host pays only the lock-free-ring enqueue/poll cost per message —
//!   the §6 "POSIX-like socket API through a user library".
//! * **DPU-native stack** ([`Endpoint::dpu_native`], a DDS server's
//!   half): protocol cycles on DPU cores as above, and the application
//!   lives on the DPU too, so no message crosses to the host — the
//!   server forwards only the requests it routes there.
//!
//! ## Structure
//!
//! The control path is split into separable units:
//!
//! * `conn` — connection management: wire segments, the shared-link
//!   port, mux/demux, task wiring.
//! * `sender` — reliability and flow control: handshake, window fill,
//!   fast retransmit, RTO, FIN.
//! * `receiver` — reassembly, receive-ring flow control, ACK generation
//!   with ECN echo.
//! * [`cong`] — congestion control in the portus shape: one window
//!   whose policy (Reno, CUBIC or DCTCP, picked by [`CongAlgKind`])
//!   owns `cwnd`, moved by the sender's per-event measurements.
//!
//! Connections are built with [`TcpConnector`], the only constructor.

pub mod cong;
mod conn;
mod receiver;
mod sender;

use std::rc::Rc;

use bytes::Bytes;
use dpdpu_des::{Counter, Permit, Receiver, Sender, Time};
use dpdpu_hw::{costs, LinkConfig};

pub use cong::CongAlgKind;

use crate::fabric::{Endpoint, Stack};
use conn::build_mux;

/// Maximum segment size (payload bytes per segment).
pub(crate) const MSS: usize = 8_192;

/// Tunables for one connection.
#[derive(Debug, Clone, Copy)]
pub struct TcpParams {
    /// Maximum congestion window, in segments.
    pub max_wnd_segs: u64,
    /// Retransmission timeout.
    pub rto_ns: Time,
    /// Receive-ring capacity in messages: the host-side buffer between
    /// the stack and the application. Its free space is advertised in
    /// every ACK and caps the sender — the §6 host↔DPU flow-control
    /// co-design (application consumption opens the window).
    pub recv_ring_slots: usize,
    /// Congestion-control algorithm.
    pub cong: CongAlgKind,
}

impl Default for TcpParams {
    fn default() -> Self {
        TcpParams {
            max_wnd_segs: 256,
            rto_ns: 1_000_000,
            recv_ring_slots: 256,
            cong: CongAlgKind::Reno,
        }
    }
}

/// The TCP stack's costs on one endpoint: the kernel path on host cores
/// when the endpoint has no DPU, the NE path (stack on DPU cores, host
/// touches rings + DMA only) when it has one, and no host cost at all
/// when the application lives on the DPU too.
impl Endpoint {
    /// Charges protocol cycles for one data segment of `bytes`. Stack
    /// *latency* (softirq, wakeups) is not charged here — per-segment
    /// processing pipelines in a real stack; latency effects are modelled
    /// where they matter (the Figure 8 round-trip experiment).
    pub(crate) async fn charge_data_segment(&self, bytes: u64) {
        match self.stack.dpu() {
            None => {
                self.host_cpu
                    .exec(costs::TCP_CYCLES_PER_MSG + bytes / 2)
                    .await;
            }
            Some((dpu_cpu, _)) => {
                dpu_cpu
                    .exec(costs::DPU_TCP_CYCLES_PER_MSG + bytes / 8)
                    .await;
            }
        }
    }

    /// Charges ACK processing.
    pub(crate) async fn charge_ack(&self) {
        match self.stack.dpu() {
            None => self.host_cpu.exec(costs::TCP_CYCLES_PER_MSG / 4).await,
            Some((dpu_cpu, _)) => dpu_cpu.exec(costs::DPU_TCP_CYCLES_PER_MSG / 4).await,
        }
    }

    /// Device this endpoint's stack spends cycles on (telemetry process).
    pub(crate) fn device(&self) -> &'static str {
        match self.stack {
            Stack::Host => "host",
            Stack::Offloaded(..) | Stack::DpuNative(..) => "dpu",
        }
    }

    /// Host-side cost of handing one message across the app boundary:
    /// syscall-free ring ops plus payload DMA when the stack is offloaded
    /// and the application is on the host. The kernel path folds it into
    /// the segment cost, and a DPU-native application has no boundary.
    pub(crate) async fn app_boundary(&self, bytes: u64) {
        if let Stack::Offloaded(_, pcie) = &self.stack {
            self.host_cpu.exec(costs::NE_HOST_RING_CYCLES_PER_MSG).await;
            pcie.dma(bytes).await;
        }
    }
}

/// Per-connection statistics. Counters are `Rc`-shared: for flows built
/// through a labeled [`TcpConnector`] they alias instruments in the
/// `dpdpu-telemetry` metrics registry, so the same numbers appear in the
/// run's metrics export.
#[derive(Default)]
pub struct TcpStats {
    /// Data segments transmitted (including retransmits).
    pub(crate) segments_sent: Rc<Counter>,
    /// Retransmitted segments.
    pub(crate) retransmits: Rc<Counter>,
    /// Retransmission-timeout fires.
    pub(crate) rto_fires: Rc<Counter>,
    /// ACK frames sent.
    pub(crate) acks_sent: Rc<Counter>,
    /// New-data ACKs that echoed an ECN Congestion Experienced mark.
    pub(crate) ecn_echoes: Rc<Counter>,
    /// Payload bytes delivered in order to the application.
    pub(crate) bytes_delivered: Rc<Counter>,
}

impl TcpStats {
    /// Stats for one connection: registry-backed when the flow carries a
    /// label (and telemetry is installed), private counters otherwise.
    pub(crate) fn for_flow(label: Option<&str>, conn: u32) -> Self {
        let Some(label) = label else {
            return TcpStats::default();
        };
        let conn = conn.to_string();
        let labels = [("flow", label), ("conn", conn.as_str())];
        let reg = |name: &str| dpdpu_telemetry::counter(name, &labels).unwrap_or_default();
        TcpStats {
            segments_sent: reg("tcp_segments_sent"),
            retransmits: reg("tcp_retransmits"),
            rto_fires: reg("tcp_rto_fires"),
            acks_sent: reg("tcp_acks_sent"),
            ecn_echoes: reg("tcp_ecn_echoes"),
            bytes_delivered: reg("tcp_bytes_delivered"),
        }
    }
}

/// Sending half of a simplex TCP stream. Clonable: the stream's FIN is
/// sent once every clone has been dropped/closed.
#[derive(Clone)]
pub struct TcpSender {
    pub(crate) app_tx: Sender<Bytes>,
    /// Shared statistics.
    pub stats: Rc<TcpStats>,
}

impl TcpSender {
    /// Queues one application message for transmission.
    pub fn send(&self, data: Bytes) {
        self.app_tx.send(data).expect("tcp sender task gone");
    }
}

/// Receiving half of a simplex TCP stream.
pub struct TcpReceiver {
    pub(crate) app_rx: Receiver<(Bytes, Permit)>,
    pub(crate) wnd_tx: Sender<()>,
    /// Shared statistics.
    pub stats: Rc<TcpStats>,
}

impl TcpReceiver {
    /// Next in-order application message; `None` after FIN. Taking a
    /// message frees its receive-ring slot, which widens the window the
    /// stack advertises to the sender — the application's consumption
    /// rate feeds back into flow control (§6).
    pub async fn recv(&mut self) -> Option<Bytes> {
        let (bytes, permit) = self.app_rx.recv().await?;
        drop(permit); // slot freed
        let _ = self.wnd_tx.send(()); // nudge the stack to re-advertise
        Some(bytes)
    }
}

/// One endpoint's handles on a duplex TCP connection: a sender toward
/// the peer and a receiver for the peer's messages.
pub(crate) type TcpEndpoint = (TcpSender, TcpReceiver);

/// Builder for TCP connections — the one entry point for simplex
/// streams, shared-wire stream fans and duplex connections.
///
/// ```ignore
/// let (tx, rx) = TcpConnector::new(LinkConfig::rack_100g())
///     .params(TcpParams { cong: CongAlgKind::Dctcp, ..TcpParams::default() })
///     .stream(src, dst);
/// let pairs = TcpConnector::new(link).streams(src, dst, 8); // shared wire
/// ```
#[derive(Clone)]
pub struct TcpConnector {
    link: LinkConfig,
    params: TcpParams,
    label: Option<Rc<str>>,
}

impl TcpConnector {
    /// A connector over `link` with default [`TcpParams`].
    pub fn new(link: LinkConfig) -> Self {
        TcpConnector {
            link,
            params: TcpParams::default(),
            label: None,
        }
    }

    /// Replaces the full parameter set.
    ///
    /// # Panics
    /// On a parameter set no connection can make progress with: zero
    /// `recv_ring_slots` (a zero window nothing can reopen) or zero
    /// `max_wnd_segs` (a zero congestion window under a re-arming RTO).
    pub fn params(mut self, params: TcpParams) -> Self {
        assert!(
            params.recv_ring_slots > 0,
            "TcpParams::recv_ring_slots must be at least 1"
        );
        assert!(
            params.max_wnd_segs > 0,
            "TcpParams::max_wnd_segs must be at least 1"
        );
        self.params = params;
        self
    }

    /// Labels the flow: its [`TcpStats`] counters are created in (and
    /// aggregated by) the `dpdpu-telemetry` metrics registry under
    /// `tcp_*{flow=<label>,conn=<n>}`, and the sender reports its final
    /// congestion window as the `tcp_final_cwnd` gauge.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(Rc::from(label.into()));
        self
    }

    /// One simplex stream from `src` to `dst` over a dedicated link
    /// (the reverse direction carries ACKs). Spawns the protocol tasks;
    /// must be called inside a running simulation.
    pub fn stream(&self, src: Endpoint, dst: Endpoint) -> (TcpSender, TcpReceiver) {
        self.streams(src, dst, 1).pop().expect("one stream")
    }

    /// `n` simplex streams from `src` to `dst` that **share one physical
    /// link** in each direction (data forward, ACKs reverse) —
    /// connections contend for wire time exactly as parallel flows
    /// through one NIC port do.
    pub fn streams(&self, src: Endpoint, dst: Endpoint, n: usize) -> Vec<(TcpSender, TcpReceiver)> {
        build_mux(src, dst, self.link, self.params, n, self.label.clone())
    }

    /// One duplex connection between `a` and `b`: two simplex streams
    /// (a→b and b→a), each with its own physical link pair. Returns
    /// `(a_endpoint, b_endpoint)`.
    pub(crate) fn duplex(&self, a: Endpoint, b: Endpoint) -> (TcpEndpoint, TcpEndpoint) {
        let (a2b_tx, a2b_rx) = self.stream(a.clone(), b.clone());
        let (b2a_tx, b2a_rx) = self.stream(b, a);
        ((a2b_tx, b2a_rx), (b2a_tx, a2b_rx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{now, Sim};
    use dpdpu_hw::{CpuPool, PcieLink};

    fn host_sides() -> (Endpoint, Endpoint) {
        (
            Endpoint::host(CpuPool::new("src-cpu", 16, 3_000_000_000)),
            Endpoint::host(CpuPool::new("dst-cpu", 16, 3_000_000_000)),
        )
    }

    fn fast_link() -> LinkConfig {
        LinkConfig::rack_100g()
    }

    #[test]
    fn transfers_messages_in_order() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (src, dst) = host_sides();
            let (tx, mut rx) = TcpConnector::new(fast_link()).stream(src, dst);
            for i in 0..20u32 {
                tx.send(Bytes::from(vec![i as u8; 8_192]));
            }
            drop(tx);
            let mut n = 0u32;
            while let Some(msg) = rx.recv().await {
                assert_eq!(msg[0], n as u8);
                assert_eq!(msg.len(), 8_192);
                n += 1;
            }
            assert_eq!(n, 20);
        });
        sim.run();
    }

    #[test]
    fn large_transfer_reaches_near_line_rate() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (src, dst) = host_sides();
            let (tx, mut rx) = TcpConnector::new(fast_link()).stream(src, dst);
            let total: u64 = 256 * 1024 * 1024; // 256 MB
            let msgs = total / 65_536;
            for _ in 0..msgs {
                tx.send(Bytes::from(vec![0u8; 65_536]));
            }
            drop(tx);
            let t0 = now();
            let mut got = 0u64;
            while let Some(m) = rx.recv().await {
                got += m.len() as u64;
            }
            assert_eq!(got, total);
            let elapsed = now() - t0;
            let gbps = got as f64 * 8.0 / elapsed as f64;
            // A single flow is CPU-bound by per-segment stack cycles
            // (≈3.4 µs per 8 KB segment on one 3 GHz core ≈ 19 Gbps) —
            // the very inefficiency Figure 3 motivates. Aggregate line
            // rate needs parallel flows; see the fig3 harness.
            assert!(
                gbps > 12.0,
                "expected a CPU-bound ~19 Gbps flow, got {gbps:.1}"
            );
            assert!(
                gbps < 25.0,
                "single flow cannot beat its CPU bound, got {gbps:.1}"
            );
        });
        sim.run();
    }

    #[test]
    fn survives_packet_loss() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (src, dst) = host_sides();
            let lossy = fast_link().with_loss(0.02, 11);
            let (tx, mut rx) = TcpConnector::new(lossy).stream(src, dst);
            let payload: Vec<Bytes> = (0..200u32)
                .map(|i| Bytes::from(vec![(i % 251) as u8; 8_192]))
                .collect();
            for m in &payload {
                tx.send(m.clone());
            }
            let stats = tx.stats.clone();
            drop(tx);
            let mut got = Vec::new();
            while let Some(m) = rx.recv().await {
                got.push(m);
            }
            assert_eq!(got.len(), payload.len(), "all messages must arrive");
            for (a, b) in got.iter().zip(payload.iter()) {
                assert_eq!(a, b, "in-order, uncorrupted delivery");
            }
            assert!(stats.retransmits.get() > 0, "loss must trigger retransmits");
        });
        sim.run();
    }

    #[test]
    fn survives_injected_fault_drops() {
        // Same guarantee as `survives_packet_loss`, but the drops come
        // from a deterministic fault plan on an otherwise clean link:
        // retransmission must recover every injected drop.
        let guard =
            dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(17).link_drops(0.05));
        let mut sim = Sim::new();
        sim.spawn(async {
            let (src, dst) = host_sides();
            let (tx, mut rx) = TcpConnector::new(fast_link()).stream(src, dst);
            let payload: Vec<Bytes> = (0..100u32)
                .map(|i| Bytes::from(vec![(i % 251) as u8; 8_192]))
                .collect();
            for m in &payload {
                tx.send(m.clone());
            }
            let stats = tx.stats.clone();
            drop(tx);
            let mut got = Vec::new();
            while let Some(m) = rx.recv().await {
                got.push(m);
            }
            assert_eq!(got.len(), payload.len(), "all messages must arrive");
            for (a, b) in got.iter().zip(payload.iter()) {
                assert_eq!(a, b, "in-order, uncorrupted delivery");
            }
            assert!(
                stats.retransmits.get() > 0,
                "injected drops must trigger retransmits"
            );
        });
        sim.run();
        let report = guard.session.report();
        assert!(
            report.count(dpdpu_faults::FaultSite::LinkDrop) > 0,
            "the plan must actually have injected drops"
        );
    }

    #[test]
    fn loss_throttles_throughput() {
        let run = |loss: f64| {
            let mut sim = Sim::new();
            let out = Rc::new(std::cell::Cell::new(0u64));
            let out2 = out.clone();
            sim.spawn(async move {
                let (src, dst) = host_sides();
                let (tx, mut rx) =
                    TcpConnector::new(fast_link().with_loss(loss, 5)).stream(src, dst);
                for _ in 0..500 {
                    tx.send(Bytes::from(vec![7u8; 8_192]));
                }
                drop(tx);
                let t0 = now();
                while rx.recv().await.is_some() {}
                out2.set(now() - t0);
            });
            sim.run();
            out.get()
        };
        let clean = run(0.0);
        let lossy = run(0.05);
        assert!(
            lossy > clean * 2,
            "5% loss should slow the flow: clean={clean} lossy={lossy}"
        );
    }

    #[test]
    fn offloaded_stack_saves_host_cpu() {
        // The §6 claim behind Figure 3's remedy.
        let run = |offload: bool| {
            let mut sim = Sim::new();
            let out = Rc::new(std::cell::Cell::new((0.0f64, 0u64)));
            let out2 = out.clone();
            sim.spawn(async move {
                let src_host = CpuPool::new("src-host", 16, 3_000_000_000);
                let dst_host = CpuPool::new("dst-host", 16, 3_000_000_000);
                let src = if offload {
                    Endpoint::offloaded(
                        src_host.clone(),
                        CpuPool::new("src-dpu", 8, 2_500_000_000),
                        PcieLink::new("src-pcie", 16_000_000_000),
                    )
                } else {
                    Endpoint::host(src_host.clone())
                };
                let dst = Endpoint::host(dst_host);
                let (tx, mut rx) = TcpConnector::new(fast_link()).stream(src, dst);
                for _ in 0..2_000 {
                    tx.send(Bytes::from(vec![1u8; 8_192]));
                }
                drop(tx);
                while rx.recv().await.is_some() {}
                let elapsed = now();
                out2.set((src_host.cores_consumed(elapsed), elapsed));
            });
            sim.run();
            out.get()
        };
        let (host_cores, _) = run(false);
        let (offl_cores, _) = run(true);
        assert!(
            offl_cores < host_cores / 3.0,
            "offload should slash sender host CPU: host={host_cores:.3} offloaded={offl_cores:.3}"
        );
    }

    #[test]
    fn a_dpu_native_receiver_costs_its_host_nothing() {
        // The offloaded receiver hands each message across the NE ring to
        // its host; a DPU-native one (a DDS server's half) keeps it.
        let run = |native: bool| {
            let mut sim = Sim::new();
            let out = Rc::new(std::cell::Cell::new(u64::MAX));
            let out2 = out.clone();
            sim.spawn(async move {
                let p = dpdpu_hw::Platform::default_bf2();
                let dst = if native {
                    Endpoint::dpu_native(&p)
                } else {
                    Endpoint::of(&p)
                };
                let src = Endpoint::host(CpuPool::new("src-host", 16, 3_000_000_000));
                let (tx, mut rx) = TcpConnector::new(fast_link()).stream(src, dst);
                for _ in 0..10 {
                    tx.send(Bytes::from(vec![1u8; 256]));
                }
                drop(tx);
                while rx.recv().await.is_some() {}
                out2.set(p.host_cpu.busy_ns());
            });
            sim.run();
            out.get()
        };
        assert_eq!(
            run(true),
            0,
            "a DPU-native receiver must leave its host idle"
        );
        assert!(
            run(false) > 0,
            "an offloaded receiver pays the ring crossing"
        );
    }

    #[test]
    fn handshake_precedes_first_data() {
        let mut sim = Sim::new();
        let done = Rc::new(std::cell::Cell::new(false));
        let d2 = done.clone();
        sim.spawn(async move {
            let (src, dst) = host_sides();
            let (tx, mut rx) = TcpConnector::new(fast_link()).stream(src, dst);
            tx.send(Bytes::from_static(b"first"));
            drop(tx);
            let m = rx.recv().await.unwrap();
            assert_eq!(m, Bytes::from_static(b"first"));
            // SYN + SYN-ACK cross the rack before data: at least two
            // propagation delays plus the data's own trip.
            assert!(
                now() >= 3 * 2_000,
                "delivery at {} predates a 3-way handshake",
                now()
            );
            assert_eq!(rx.recv().await, None);
            d2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn handshake_survives_syn_loss() {
        let mut sim = Sim::new();
        let done = Rc::new(std::cell::Cell::new(false));
        let d2 = done.clone();
        sim.spawn(async move {
            let (src, dst) = host_sides();
            // Heavy loss: SYNs drop too; the retry loop must connect.
            let lossy = fast_link().with_loss(0.3, 77);
            let (tx, mut rx) = TcpConnector::new(lossy).stream(src, dst);
            for i in 0..20u8 {
                tx.send(Bytes::from(vec![i; 1_024]));
            }
            drop(tx);
            let mut n = 0u8;
            while let Some(m) = rx.recv().await {
                assert_eq!(m[0], n);
                n += 1;
            }
            assert_eq!(n, 20);
            d2.set(true);
        });
        sim.run();
        assert!(done.get(), "handshake under loss deadlocked");
    }

    #[test]
    fn muxed_flows_share_one_wire() {
        // 4 saturating flows over one shared 100G link must split the
        // line rate, not each get a private 100G.
        let mut sim = Sim::new();
        sim.spawn(async {
            let (src, dst) = host_sides();
            let streams = TcpConnector::new(fast_link()).streams(src, dst, 4);
            let t0 = now();
            let mut handles = Vec::new();
            let per_flow: u64 = 16 * 1024 * 1024;
            for (tx, mut rx) in streams {
                for _ in 0..per_flow / 65_536 {
                    tx.send(Bytes::from(vec![0u8; 65_536]));
                }
                drop(tx);
                handles.push(dpdpu_des::spawn(async move {
                    let mut got = 0u64;
                    while let Some(m) = rx.recv().await {
                        got += m.len() as u64;
                    }
                    got
                }));
            }
            let per_flow_got = dpdpu_des::join_all(handles).await;
            assert!(per_flow_got.iter().all(|&g| g == per_flow));
            let elapsed = now() - t0;
            let aggregate_gbps = (4 * per_flow) as f64 * 8.0 / elapsed as f64;
            assert!(
                aggregate_gbps < 100.0,
                "aggregate cannot exceed the shared link: {aggregate_gbps:.1}"
            );
            assert!(
                aggregate_gbps > 40.0,
                "four flows should still fill much of the link: {aggregate_gbps:.1}"
            );
        });
        sim.run();
    }

    #[test]
    fn muxed_flows_deliver_independently_and_in_order() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (src, dst) = host_sides();
            let streams = TcpConnector::new(fast_link()).streams(src, dst, 3);
            let mut handles = Vec::new();
            for (i, (tx, mut rx)) in streams.into_iter().enumerate() {
                for n in 0..50u8 {
                    tx.send(Bytes::from(vec![i as u8 * 100 + n; 4_096]));
                }
                drop(tx);
                handles.push(dpdpu_des::spawn(async move {
                    let mut expect = 0u8;
                    while let Some(m) = rx.recv().await {
                        assert_eq!(m[0], i as u8 * 100 + expect, "flow {i} out of order");
                        expect += 1;
                    }
                    assert_eq!(expect, 50, "flow {i} lost messages");
                }));
            }
            dpdpu_des::join_all(handles).await;
        });
        sim.run();
    }

    #[test]
    fn slow_consumer_throttles_the_sender() {
        // §6 co-designed flow control: the application's consumption rate
        // must reach the sender through the advertised window.
        let mut sim = Sim::new();
        let done = Rc::new(std::cell::Cell::new(false));
        let d2 = done.clone();
        sim.spawn(async move {
            let (src, dst) = host_sides();
            let params = TcpParams {
                recv_ring_slots: 4,
                ..TcpParams::default()
            };
            let (tx, mut rx) = TcpConnector::new(fast_link())
                .params(params)
                .stream(src, dst);
            let stats = tx.stats.clone();
            const MSGS: u64 = 40;
            for i in 0..MSGS {
                tx.send(Bytes::from(vec![i as u8; 8_192]));
            }
            drop(tx);
            // Consumer takes 100 µs per message.
            let mut n = 0u64;
            while let Some(m) = rx.recv().await {
                assert_eq!(m[0], n as u8, "in order despite throttling");
                n += 1;
                dpdpu_des::sleep(100_000).await;
                // The stack may hold at most ring+1 undelivered chunks in
                // flight toward the app at any point; the window keeps
                // the sender from racing ahead of consumption.
                let max_ahead = stats.bytes_delivered.get() / 8_192;
                assert!(
                    max_ahead <= n + 4 + 1,
                    "sender ran {max_ahead} chunks ahead of consumer at {n}"
                );
            }
            assert_eq!(n, MSGS);
            // Whole transfer is paced by the consumer: >= MSGS * 100 µs.
            assert!(now() >= MSGS * 100_000, "finished too fast: {}", now());
            assert_eq!(
                stats.retransmits.get(),
                0,
                "window control needs no retransmits"
            );
            d2.set(true);
        });
        sim.run();
        assert!(done.get(), "flow-control test deadlocked");
    }

    #[test]
    fn zero_window_reopens_after_stall() {
        let mut sim = Sim::new();
        let done = Rc::new(std::cell::Cell::new(false));
        let d2 = done.clone();
        sim.spawn(async move {
            let (src, dst) = host_sides();
            let params = TcpParams {
                recv_ring_slots: 2,
                ..TcpParams::default()
            };
            let (tx, mut rx) = TcpConnector::new(fast_link())
                .params(params)
                .stream(src, dst);
            for i in 0..10u8 {
                tx.send(Bytes::from(vec![i; 8_192]));
            }
            drop(tx);
            // Stall completely for 5 ms, then drain: the window update
            // must restart the flow.
            dpdpu_des::sleep(5_000_000).await;
            let mut n = 0u8;
            while let Some(m) = rx.recv().await {
                assert_eq!(m[0], n);
                n += 1;
            }
            assert_eq!(n, 10);
            d2.set(true);
        });
        sim.run();
        assert!(done.get(), "zero-window test deadlocked");
    }

    #[test]
    #[should_panic(expected = "recv_ring_slots must be at least 1")]
    fn zero_receive_ring_is_rejected_at_the_connector() {
        // Used to advertise a zero window nothing could reopen.
        let _ = TcpConnector::new(fast_link()).params(TcpParams {
            recv_ring_slots: 0,
            ..TcpParams::default()
        });
    }

    #[test]
    #[should_panic(expected = "max_wnd_segs must be at least 1")]
    fn zero_max_window_is_rejected_at_the_connector() {
        // Used to clamp cwnd to zero while the RTO kept re-arming.
        let _ = TcpConnector::new(fast_link()).params(TcpParams {
            max_wnd_segs: 0,
            ..TcpParams::default()
        });
    }

    #[test]
    fn empty_stream_closes_cleanly() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (src, dst) = host_sides();
            let (tx, mut rx) = TcpConnector::new(fast_link()).stream(src, dst);
            drop(tx);
            assert_eq!(rx.recv().await, None);
        });
        sim.run();
    }

    #[test]
    fn message_larger_than_mss_is_segmented_and_reassembled() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (src, dst) = host_sides();
            let (tx, mut rx) = TcpConnector::new(fast_link()).stream(src, dst);
            let big: Bytes = (0..100_000u32).map(|i| (i % 253) as u8).collect();
            tx.send(big.clone());
            let stats = tx.stats.clone();
            drop(tx);
            let mut got = Vec::new();
            while let Some(m) = rx.recv().await {
                got.extend_from_slice(&m);
            }
            assert_eq!(Bytes::from(got), big);
            assert!(stats.segments_sent.get() >= 13, "100 KB over 8 KB MSS");
        });
        sim.run();
    }

    #[test]
    fn connector_selects_algorithm_and_delivers() {
        // Every algorithm behind the connector must still deliver in
        // order over a clean link (the deeper per-algorithm behavior is
        // covered in cong::tests and the integration suite).
        for alg in CongAlgKind::ALL {
            let mut sim = Sim::new();
            sim.spawn(async move {
                let (src, dst) = host_sides();
                let (tx, mut rx) = TcpConnector::new(fast_link())
                    .params(TcpParams {
                        cong: alg,
                        ..TcpParams::default()
                    })
                    .stream(src, dst);
                for i in 0..30u8 {
                    tx.send(Bytes::from(vec![i; 4_096]));
                }
                drop(tx);
                let mut n = 0u8;
                while let Some(m) = rx.recv().await {
                    assert_eq!(m[0], n, "{} out of order", alg.name());
                    n += 1;
                }
                assert_eq!(n, 30, "{} lost messages", alg.name());
            });
            sim.run();
        }
    }

    #[test]
    fn labeled_connector_exports_stats_to_registry() {
        let telemetry = dpdpu_telemetry::Telemetry::install();
        let mut sim = Sim::new();
        sim.spawn(async {
            let (src, dst) = host_sides();
            let (tx, mut rx) = TcpConnector::new(fast_link())
                .label("unit")
                .stream(src, dst);
            for _ in 0..10 {
                tx.send(Bytes::from(vec![3u8; 8_192]));
            }
            drop(tx);
            while rx.recv().await.is_some() {}
        });
        sim.run();
        let labels = [("flow", "unit"), ("conn", "0")];
        let segs = telemetry.registry().counter("tcp_segments_sent", &labels);
        assert!(
            segs.get() >= 10,
            "registry must see the flow's segments: {}",
            segs.get()
        );
        let delivered = telemetry.registry().counter("tcp_bytes_delivered", &labels);
        assert_eq!(delivered.get(), 10 * 8_192);
        let cwnd = telemetry.registry().gauge("tcp_final_cwnd", &labels);
        assert!(
            cwnd.get() >= 8_192.0,
            "final cwnd gauge must be set: {}",
            cwnd.get()
        );
    }
}
