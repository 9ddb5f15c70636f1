//! The sending side: handshake, window fill, retransmission (fast
//! retransmit + RTO), and FIN teardown. Reliability decisions live
//! here; *window* decisions belong to the connection's [`Cong`], which
//! the sender tells one [`Event`] per congestion event and whose
//! `cwnd` it reads back when filling the window.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use dpdpu_des::{race, timeout, Either, Receiver};
use dpdpu_faults::FaultSite;

use super::cong::{Cong, Event, Measurement};
use super::conn::{SegPort, Segment};
use super::{TcpParams, TcpStats, MSS};
use crate::fabric::Endpoint;

/// Initial congestion window, in segments (RFC 6928's IW10).
const INIT_CWND_SEGS: u64 = 10;

pub(crate) struct SendState {
    /// Lowest unacknowledged byte.
    pub(crate) snd_una: u64,
    /// Next byte to transmit.
    pub(crate) snd_nxt: u64,
    /// Congestion window and the policy that moves it.
    pub(crate) cong: Cong,
    /// Receiver-advertised window, bytes (flow control).
    pub(crate) snd_wnd: u64,
    pub(crate) dup_acks: u32,
    /// Unsent message queue (already segmented).
    pub(crate) unsent: VecDeque<(u64, Bytes)>,
    /// In-flight segments by sequence number.
    pub(crate) inflight: BTreeMap<u64, Bytes>,
}

impl SendState {
    /// What the algorithm is told at a congestion event.
    fn measurement(&self, ack: u64, acked_bytes: u64, ecn: bool) -> Measurement {
        Measurement {
            ack,
            snd_nxt: self.snd_nxt,
            acked_bytes,
            ecn,
        }
    }
}

/// Retransmits the oldest in-flight segment, if any: the recovery both
/// fast retransmit and the RTO take.
async fn retransmit_first(s: &SendState, side: &Endpoint, port: &SegPort, stats: &TcpStats) {
    let Some((&seq, payload)) = s.inflight.iter().next() else {
        return;
    };
    let payload = payload.clone();
    side.charge_data_segment(payload.len() as u64).await;
    stats.segments_sent.inc();
    stats.retransmits.inc();
    // A retransmit is the transport-level recovery for a dropped frame
    // (injected or natural).
    dpdpu_check::fault_handled(FaultSite::LinkDrop.label(), "retried");
    port.send(Segment::Data {
        seq,
        payload,
        ecn: false,
    })
    .await;
}

enum Evt {
    App(Option<Bytes>),
    Ack(Option<Segment>),
    Rto,
}

pub(crate) async fn sender_task(
    side: Endpoint,
    port: SegPort,
    mut app_rx: Receiver<Bytes>,
    mut ack_rx: Receiver<Segment>,
    params: TcpParams,
    stats: Rc<TcpStats>,
    label: Option<Rc<str>>,
) {
    let mss = MSS as u64;
    let max_wnd = (params.max_wnd_segs * mss) as f64;
    let mut s = SendState {
        snd_una: 0,
        snd_nxt: 0,
        cong: Cong::new(params.cong, mss, (INIT_CWND_SEGS * mss) as f64, max_wnd),
        snd_wnd: params.recv_ring_slots as u64 * mss,
        dup_acks: 0,
        unsent: VecDeque::new(),
        inflight: BTreeMap::new(),
    };
    let mut app_open = true;

    // Three-way handshake: connection management is part of the §6
    // control plane (the offloaded stack runs it on the DPU too). SYN is
    // retried on the RTO like any other segment.
    'handshake: for attempt in 0..5 {
        side.charge_ack().await;
        port.send(Segment::Syn).await;
        loop {
            match timeout(params.rto_ns, ack_rx.recv()).await {
                Ok(Some(Segment::SynAck)) => break 'handshake,
                Ok(Some(_)) => continue,
                Ok(None) => return, // peer unreachable
                Err(_) => break,    // retransmit the SYN
            }
        }
        // The SYN rides the data link; a resend is the recovery for a
        // SYN lost there (the ACK path cannot drop). Past the last
        // attempt the sender goes on unsynchronised, as the receiver
        // takes data without one: like the unacked FIN, a surfaced
        // terminal state.
        let outcome = if attempt < 4 { "retried" } else { "surfaced" };
        dpdpu_check::fault_handled(FaultSite::LinkDrop.label(), outcome);
    }

    loop {
        // Fill the window.
        loop {
            let in_flight_bytes = s.snd_nxt - s.snd_una;
            // Effective window: congestion AND receiver flow control.
            let wnd = (s.cong.cwnd.min(max_wnd) as u64).min(s.snd_wnd);
            let fits = |(_, payload): &(u64, Bytes)| in_flight_bytes + payload.len() as u64 <= wnd;
            if !s.unsent.front().is_some_and(fits) {
                break;
            }
            let (seq, payload) = s.unsent.pop_front().expect("front checked");
            s.snd_nxt = seq + payload.len() as u64;
            s.inflight.insert(seq, payload.clone());
            side.charge_data_segment(payload.len() as u64).await;
            stats.segments_sent.inc();
            port.send(Segment::Data {
                seq,
                payload,
                ecn: false,
            })
            .await;
        }

        let idle = s.inflight.is_empty() && s.unsent.is_empty();
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
                let mut base = s
                    .unsent
                    .back()
                    .map(|(seq, p)| seq + p.len() as u64)
                    .unwrap_or(s.snd_nxt);
                let mut remaining = data;
                loop {
                    let take = remaining.len().min(MSS);
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
            Evt::Ack(Some(Segment::Ack {
                ack,
                wnd,
                update,
                ece,
            })) => {
                s.snd_wnd = wnd;
                if update {
                    // Pure window update: flow-control signal only.
                } else if ack > s.snd_una {
                    let acked_bytes = ack - s.snd_una;
                    s.snd_una = ack;
                    s.dup_acks = 0;
                    let keys: Vec<u64> = s.inflight.range(..ack).map(|(k, _)| *k).collect();
                    for k in keys {
                        s.inflight.remove(&k);
                    }
                    // Window growth (or an ECN-echo response) is the
                    // policy's call.
                    if ece {
                        stats.ecn_echoes.inc();
                    }
                    s.cong.on(Event::Ack, &s.measurement(ack, acked_bytes, ece));
                } else if !s.inflight.is_empty() {
                    s.dup_acks += 1;
                    if s.dup_acks == 3 {
                        // Fast retransmit.
                        s.cong.on(Event::DupAck, &s.measurement(ack, 0, ece));
                        retransmit_first(&s, &side, &port, &stats).await;
                    }
                }
            }
            Evt::Ack(Some(_)) => {}
            // ACK ingress gone: no progress is possible.
            Evt::Ack(None) => return,
            Evt::Rto => {
                s.cong
                    .on(Event::Timeout, &s.measurement(s.snd_una, 0, false));
                s.dup_acks = 0;
                stats.rto_fires.inc();
                retransmit_first(&s, &side, &port, &stats).await;
            }
        }
    }

    // FIN with bounded retries.
    let fin_seq = s.snd_nxt;
    let mut acked = false;
    for attempt in 0..5 {
        if attempt > 0 {
            // The FIN rides the data link; a resend is the recovery for
            // a FIN lost there (the ACK path cannot drop).
            dpdpu_check::fault_handled(FaultSite::LinkDrop.label(), "retried");
        }
        port.send(Segment::Fin { seq: fin_seq }).await;
        match timeout(params.rto_ns, ack_rx.recv()).await {
            Ok(Some(Segment::FinAck)) => {
                acked = true;
                break;
            }
            Ok(Some(_) | None) | Err(_) => continue,
        }
    }
    if !acked {
        // Retries exhausted: half-close anyway — the unacked FIN is a
        // surfaced terminal state, not a hang.
        dpdpu_check::fault_handled(FaultSite::LinkDrop.label(), "surfaced");
    }
    // Flows enrolled in the metrics registry report their final window.
    if let Some(label) = label {
        let conn = port.conn.to_string();
        if let Some(g) =
            dpdpu_telemetry::gauge("tcp_final_cwnd", &[("flow", &label), ("conn", &conn)])
        {
            g.set(s.cong.cwnd);
        }
    }
}
