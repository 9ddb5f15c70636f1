//! Connection management: wire segments, the shared-link port, and the
//! mux builder that wires sender/receiver tasks to their demultiplexed
//! channels. Everything here is about *getting segments between
//! endpoints*; reliability lives in [`super::sender`] /
//! [`super::receiver`], window policy in [`super::cong`].

use std::rc::Rc;

use bytes::Bytes;
use dpdpu_des::{channel, spawn, Permit, Sender};
use dpdpu_hw::{Link, LinkConfig};

use super::receiver::receiver_task;
use super::sender::sender_task;
use super::{TcpParams, TcpReceiver, TcpSender, TcpStats};
use crate::fabric::Endpoint;

/// TCP segment header bytes on the wire (Ethernet+IP+TCP, rounded).
pub(crate) const HEADER_BYTES: u64 = 66;
/// ACK-only frame size on the wire.
pub(crate) const ACK_BYTES: u64 = 66;

/// Wire segments.
#[derive(Debug, Clone)]
pub(crate) enum Segment {
    /// Connection request.
    Syn,
    /// Connection accept.
    SynAck,
    Data {
        seq: u64,
        payload: Bytes,
        /// Congestion Experienced: stamped by the link when the frame's
        /// queueing delay exceeded the ECN threshold.
        ecn: bool,
    },
    /// Cumulative ACK + advertised receive window (bytes the receiver
    /// can still buffer beyond `ack`). `update` marks a pure window
    /// update (no new data acknowledged) — excluded from duplicate-ACK
    /// counting, as in real TCP. `ece` echoes the CE mark of the data
    /// segment this ACK acknowledges (the DCTCP feedback path).
    Ack {
        ack: u64,
        wnd: u64,
        update: bool,
        ece: bool,
    },
    Fin {
        seq: u64,
    },
    FinAck,
}

impl Segment {
    pub(crate) fn wire_bytes(&self) -> u64 {
        match self {
            Segment::Data { payload, .. } => HEADER_BYTES + payload.len() as u64,
            _ => ACK_BYTES,
        }
    }
}

/// A connection's handle on a (possibly shared) physical link: frames
/// are tagged with the connection id and demultiplexed at the far end.
#[derive(Clone)]
pub(crate) struct SegPort {
    pub(crate) link: Rc<Link<(u32, Segment)>>,
    pub(crate) conn: u32,
}

impl SegPort {
    pub(crate) async fn send(&self, seg: Segment) {
        let bytes = seg.wire_bytes();
        match seg {
            // Data rides through the marking path: the link decides the
            // CE bit after the frame has cleared the queue.
            Segment::Data { seq, payload, .. } => {
                let conn = self.conn;
                self.link
                    .send_marked(bytes, move |marked| {
                        (
                            conn,
                            Segment::Data {
                                seq,
                                payload,
                                ecn: marked,
                            },
                        )
                    })
                    .await;
            }
            seg => self.link.send((self.conn, seg), bytes).await,
        }
    }
}

/// Builds `streams` simplex connections sharing one physical link per
/// direction (data forward, ACKs reverse): the core
/// [`super::TcpConnector`] delegates to.
pub(crate) fn build_mux(
    src: Endpoint,
    dst: Endpoint,
    link_cfg: LinkConfig,
    params: TcpParams,
    streams: usize,
    label: Option<Rc<str>>,
) -> Vec<(TcpSender, TcpReceiver)> {
    assert!(streams > 0, "need at least one stream");
    let (data_link, mut data_rx) = Link::new("tcp-data", link_cfg);
    // The ACK path is deliberately lossless — natural loss AND injected
    // drops. Cumulative acking recovers a lost ACK with no observable
    // handling event, which would break fault-hygiene accounting. It is
    // never ECN-marked either: marks ride only on data segments.
    let (ack_link, mut ack_rx) = Link::new_fault_exempt(
        "tcp-ack",
        LinkConfig {
            loss_rate: 0.0,
            ecn_threshold_ns: 0,
            ..link_cfg
        },
    );

    let mut out = Vec::with_capacity(streams);
    let mut data_demux: Vec<Sender<Segment>> = Vec::with_capacity(streams);
    let mut ack_demux: Vec<Sender<Segment>> = Vec::with_capacity(streams);

    for conn in 0..streams as u32 {
        let stats = Rc::new(TcpStats::for_flow(label.as_deref(), conn));
        let (app_in_tx, app_in_rx) = channel::<Bytes>();
        let (app_out_tx, app_out_rx) = channel::<(Bytes, Permit)>();
        let (ack_evt_tx, ack_evt_rx) = channel::<Segment>();
        let (data_seg_tx, data_seg_rx) = channel::<Segment>();
        let (ack_seg_tx, mut ack_seg_rx) = channel::<Segment>();
        let (wnd_tx, wnd_rx) = channel::<()>();
        data_demux.push(data_seg_tx);
        ack_demux.push(ack_seg_tx);

        // Sender-side machinery.
        {
            let stats = stats.clone();
            let src = src.clone();
            let label = label.clone();
            let port = SegPort {
                link: data_link.clone(),
                conn,
            };
            spawn(async move {
                sender_task(src, port, app_in_rx, ack_evt_rx, params, stats, label).await;
            });
        }
        // Sender-side ACK ingress (ACKs arrive on the reverse link).
        {
            let src = src.clone();
            spawn(async move {
                while let Some(seg) = ack_seg_rx.recv().await {
                    src.charge_ack().await;
                    if ack_evt_tx.send(seg).is_err() {
                        break;
                    }
                }
            });
        }
        // Receiver-side ingress.
        {
            let stats = stats.clone();
            let dst = dst.clone();
            let port = SegPort {
                link: ack_link.clone(),
                conn,
            };
            spawn(async move {
                receiver_task(dst, port, data_seg_rx, wnd_rx, app_out_tx, params, stats).await;
            });
        }
        out.push((
            TcpSender {
                app_tx: app_in_tx,
                stats: stats.clone(),
            },
            TcpReceiver {
                app_rx: app_out_rx,
                wnd_tx,
                stats,
            },
        ));
    }

    // Demultiplexers: route tagged frames to their connection.
    spawn(async move {
        while let Some((conn, seg)) = data_rx.recv().await {
            if let Some(tx) = data_demux.get(conn as usize) {
                let _ = tx.send(seg);
            }
        }
    });
    spawn(async move {
        while let Some((conn, seg)) = ack_rx.recv().await {
            if let Some(tx) = ack_demux.get(conn as usize) {
                let _ = tx.send(seg);
            }
        }
    });

    out
}
