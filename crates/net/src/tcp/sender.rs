//! The sending side: handshake, window fill, retransmission (fast
//! retransmit + RTO), and FIN teardown. Reliability decisions live
//! here; *window* decisions are delegated to the connection's
//! [`CongAlg`], which sees one measurement per congestion event and
//! reports the `cwnd`/`ssthresh` the sender must apply.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use dpdpu_des::{race, timeout, Either, Receiver};

use super::cong::{CongAlg, CongConfig, Measurement};
use super::conn::{AckEvent, SegPort, Segment};
use super::{TcpParams, TcpStats};
use crate::fabric::Endpoint;

/// Initial congestion window, in segments (RFC 6928's IW10).
const INIT_CWND_SEGS: u64 = 10;

pub(crate) struct SendState {
    /// Lowest unacknowledged byte.
    pub snd_una: u64,
    /// Next byte to transmit.
    pub snd_nxt: u64,
    /// Congestion window, bytes (mirrors the algorithm's last report).
    pub cwnd: f64,
    /// Slow-start threshold, bytes (mirrors the last report).
    pub ssthresh: f64,
    /// Receiver-advertised window, bytes (flow control).
    pub snd_wnd: u64,
    pub dup_acks: u32,
    /// Unsent message queue (already segmented).
    pub unsent: VecDeque<(u64, Bytes)>,
    /// In-flight segments by sequence number.
    pub inflight: BTreeMap<u64, Bytes>,
}

enum Evt {
    App(Option<Bytes>),
    Ack(Option<AckEvent>),
    Rto,
}

pub(crate) async fn sender_task(
    side: Endpoint,
    port: SegPort,
    mut app_rx: Receiver<Bytes>,
    mut ack_rx: Receiver<AckEvent>,
    params: TcpParams,
    stats: Rc<TcpStats>,
    label: Option<Rc<str>>,
) {
    let mss = params.mss as u64;
    let max_wnd = (params.max_wnd_segs * mss) as f64;
    let mut alg: Box<dyn CongAlg> = params.cong.build();
    let initial = alg.install(&CongConfig {
        mss,
        init_cwnd: (INIT_CWND_SEGS * mss) as f64,
        max_wnd,
    });
    let st = RefCell::new(SendState {
        snd_una: 0,
        snd_nxt: 0,
        cwnd: initial.cwnd,
        ssthresh: initial.ssthresh,
        snd_wnd: params.recv_ring_slots as u64 * mss,
        dup_acks: 0,
        unsent: VecDeque::new(),
        inflight: BTreeMap::new(),
    });
    let mut app_open = true;

    // Three-way handshake: connection management is part of the §6
    // control plane (the offloaded stack runs it on the DPU too). SYN is
    // retried on the RTO like any other segment.
    'handshake: for attempt in 0..5 {
        if attempt > 0 {
            // The SYN rides the data link; a resend is the recovery for
            // a SYN lost there (the ACK path cannot drop).
            dpdpu_check::fault_handled("link_drop", "retried");
        }
        side.charge_ack().await;
        port.send(Segment::Syn).await;
        loop {
            match timeout(params.rto_ns, ack_rx.recv()).await {
                Ok(Some(AckEvent::SynAck)) => break 'handshake,
                Ok(Some(_)) => continue,
                Ok(None) => return, // peer unreachable
                Err(_) => break,    // retransmit the SYN
            }
        }
    }

    loop {
        // Fill the window.
        loop {
            let next = {
                let mut s = st.borrow_mut();
                let in_flight_bytes = s.snd_nxt - s.snd_una;
                // Effective window: congestion AND receiver flow control.
                let wnd = (s.cwnd.min(max_wnd) as u64).min(s.snd_wnd);
                match s.unsent.front() {
                    Some((_, payload)) if in_flight_bytes + payload.len() as u64 <= wnd => {
                        let (seq, payload) = s.unsent.pop_front().expect("front checked");
                        s.snd_nxt = seq + payload.len() as u64;
                        s.inflight.insert(seq, payload.clone());
                        Some((seq, payload))
                    }
                    _ => None,
                }
            };
            let Some((seq, payload)) = next else { break };
            side.charge_data_segment(payload.len() as u64).await;
            stats.segments_sent.inc();
            port.send(Segment::Data {
                seq,
                payload,
                ecn: false,
            })
            .await;
        }

        let idle = {
            let s = st.borrow();
            s.inflight.is_empty() && s.unsent.is_empty()
        };
        if idle && !app_open {
            break; // all data delivered; proceed to FIN
        }

        // Wait for the next event: app data, an ACK, or the RTO. Once the
        // app half is closed its channel yields `None` forever, so it must
        // leave the wait set.
        let event = match (app_open, idle) {
            (true, true) => match race(app_rx.recv(), ack_rx.recv()).await {
                Either::Left(v) => Evt::App(v),
                Either::Right(v) => Evt::Ack(v),
            },
            (true, false) => {
                match timeout(params.rto_ns, race(app_rx.recv(), ack_rx.recv())).await {
                    Ok(Either::Left(v)) => Evt::App(v),
                    Ok(Either::Right(v)) => Evt::Ack(v),
                    Err(_) => Evt::Rto,
                }
            }
            (false, _) => match timeout(params.rto_ns, ack_rx.recv()).await {
                Ok(v) => Evt::Ack(v),
                Err(_) => Evt::Rto,
            },
        };

        match event {
            Evt::App(Some(data)) => {
                // Segment the message at the MSS; the host boundary cost
                // (ring + DMA on the offloaded path) is paid per message.
                let _span = dpdpu_telemetry::span(side.device(), "tcp-tx", "send_msg")
                    .with("bytes", data.len());
                side.app_boundary(data.len() as u64).await;
                let mut s = st.borrow_mut();
                let mut base = s
                    .unsent
                    .back()
                    .map(|(seq, p)| seq + p.len() as u64)
                    .unwrap_or(s.snd_nxt);
                let mut remaining = data;
                loop {
                    let take = remaining.len().min(params.mss);
                    let chunk = remaining.split_to(take);
                    s.unsent.push_back((base, chunk));
                    base += take as u64;
                    if remaining.is_empty() {
                        break;
                    }
                }
            }
            Evt::App(None) => {
                app_open = false;
            }
            Evt::Ack(Some(AckEvent::Ack {
                ack,
                wnd,
                update,
                ece,
            })) => {
                // The state borrow is scoped so no RefCell guard lives
                // across an await; retransmission happens afterwards.
                let fast_retransmit = {
                    let mut s = st.borrow_mut();
                    s.snd_wnd = wnd;
                    if update {
                        // Pure window update: flow-control signal only.
                        None
                    } else if ack > s.snd_una {
                        let acked_bytes = ack - s.snd_una;
                        s.snd_una = ack;
                        s.dup_acks = 0;
                        let keys: Vec<u64> = s.inflight.range(..ack).map(|(k, _)| *k).collect();
                        for k in keys {
                            s.inflight.remove(&k);
                        }
                        // Window growth (or an ECN-echo response) is the
                        // algorithm's call.
                        let m = Measurement {
                            ack,
                            snd_nxt: s.snd_nxt,
                            acked_bytes,
                            ecn: ece,
                        };
                        let r = if ece {
                            stats.ecn_echoes.inc();
                            alg.on_ecn(&m)
                        } else {
                            alg.on_ack(&m)
                        };
                        s.cwnd = r.cwnd;
                        s.ssthresh = r.ssthresh;
                        None
                    } else if !s.inflight.is_empty() {
                        s.dup_acks += 1;
                        if s.dup_acks == 3 {
                            // Fast retransmit.
                            let m = Measurement {
                                ack,
                                snd_nxt: s.snd_nxt,
                                acked_bytes: 0,
                                ecn: ece,
                            };
                            let r = alg.on_dup_ack(&m);
                            s.cwnd = r.cwnd;
                            s.ssthresh = r.ssthresh;
                            s.inflight.iter().next().map(|(k, v)| (*k, v.clone()))
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                };
                if let Some((seq, payload)) = fast_retransmit {
                    side.charge_data_segment(payload.len() as u64).await;
                    stats.segments_sent.inc();
                    stats.retransmits.inc();
                    // A retransmit is the transport-level recovery for a
                    // dropped frame (injected or natural).
                    dpdpu_check::fault_handled("link_drop", "retried");
                    port.send(Segment::Data {
                        seq,
                        payload,
                        ecn: false,
                    })
                    .await;
                }
            }
            Evt::Ack(Some(AckEvent::SynAck | AckEvent::FinAck)) => {}
            // ACK ingress gone: no progress is possible.
            Evt::Ack(None) => return,
            Evt::Rto => {
                let first = {
                    let mut s = st.borrow_mut();
                    let m = Measurement {
                        ack: s.snd_una,
                        snd_nxt: s.snd_nxt,
                        acked_bytes: 0,
                        ecn: false,
                    };
                    let r = alg.on_timeout(&m);
                    s.cwnd = r.cwnd;
                    s.ssthresh = r.ssthresh;
                    s.dup_acks = 0;
                    s.inflight.iter().next().map(|(k, v)| (*k, v.clone()))
                };
                stats.rto_fires.inc();
                if let Some((seq, payload)) = first {
                    side.charge_data_segment(payload.len() as u64).await;
                    stats.segments_sent.inc();
                    stats.retransmits.inc();
                    // A retransmit is the transport-level recovery for a
                    // dropped frame (injected or natural).
                    dpdpu_check::fault_handled("link_drop", "retried");
                    port.send(Segment::Data {
                        seq,
                        payload,
                        ecn: false,
                    })
                    .await;
                }
            }
        }
    }

    // FIN with bounded retries.
    let fin_seq = st.borrow().snd_nxt;
    let mut acked = false;
    for attempt in 0..5 {
        if attempt > 0 {
            // The FIN rides the data link; a resend is the recovery for
            // a FIN lost there (the ACK path cannot drop).
            dpdpu_check::fault_handled("link_drop", "retried");
        }
        port.send(Segment::Fin { seq: fin_seq }).await;
        match timeout(params.rto_ns, ack_rx.recv()).await {
            Ok(Some(AckEvent::FinAck)) => {
                acked = true;
                break;
            }
            Ok(Some(AckEvent::Ack { .. } | AckEvent::SynAck)) => continue,
            Ok(None) | Err(_) => continue,
        }
    }
    if !acked {
        // Retries exhausted: half-close anyway — the unacked FIN is a
        // surfaced terminal state, not a hang.
        dpdpu_check::fault_handled("link_drop", "surfaced");
    }
    // Flows enrolled in the metrics registry report their final window.
    if let Some(label) = label {
        let conn = port.conn.to_string();
        if let Some(g) =
            dpdpu_telemetry::gauge("tcp_final_cwnd", &[("flow", &label), ("conn", &conn)])
        {
            g.set(st.borrow().cwnd);
        }
    }
}
