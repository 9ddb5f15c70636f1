//! The receiving side: in-order reassembly, receive-ring flow control,
//! cumulative ACKs (echoing ECN marks back to the sender), and FIN
//! handling.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use dpdpu_des::{race, Either, Permit, Receiver, Semaphore, Sender};

use super::conn::{SegPort, Segment};
use super::{TcpParams, TcpStats, MSS};
use crate::fabric::Endpoint;

pub(crate) async fn receiver_task(
    side: Endpoint,
    port: SegPort,
    mut data_rx: Receiver<Segment>,
    mut wnd_rx: Receiver<()>,
    app_out: Sender<(Bytes, Permit)>,
    params: TcpParams,
    stats: Rc<TcpStats>,
) {
    let mut rcv_nxt: u64 = 0;
    let mut reorder: BTreeMap<u64, Bytes> = BTreeMap::new();
    // In-order payloads waiting for a free receive-ring slot.
    let mut undelivered: VecDeque<Bytes> = VecDeque::new();
    let credits = Semaphore::new(params.recv_ring_slots);
    let mut app_out = Some(app_out);
    let mut fin_pending = false;
    // Once the app half closes, its wnd channel yields None forever and
    // must leave the wait set.
    let mut wnd_open = true;
    let mss = MSS as u64;
    let mut advertised: u64 = params.recv_ring_slots as u64 * mss;

    loop {
        // Drain deliverable payloads into free ring slots.
        while let Some(permit) = if undelivered.is_empty() {
            None
        } else {
            credits.try_acquire()
        } {
            let payload = undelivered.pop_front().expect("non-empty checked");
            stats.bytes_delivered.add(payload.len() as u64);
            let span = dpdpu_telemetry::span(side.device(), "tcp-rx", "deliver_msg")
                .with("bytes", payload.len());
            side.app_boundary(payload.len() as u64).await;
            drop(span);
            if let Some(out) = &app_out {
                let _ = out.send((payload, permit));
            }
        }
        if fin_pending && undelivered.is_empty() {
            app_out = None; // end-of-stream after everything is handed over
            fin_pending = false;
        }

        let evt = if wnd_open {
            race(data_rx.recv(), wnd_rx.recv()).await
        } else {
            Either::Left(data_rx.recv().await)
        };
        // Advertised window: free slots not yet promised to queued data.
        let wnd = |credits: &Semaphore, undelivered: &VecDeque<Bytes>| {
            (credits.available().saturating_sub(undelivered.len()) as u64) * mss
        };
        match evt {
            Either::Left(Some(Segment::Data { seq, payload, ecn })) => {
                side.charge_data_segment(payload.len() as u64).await;
                if seq == rcv_nxt {
                    rcv_nxt += payload.len() as u64;
                    undelivered.push_back(payload);
                    // Pull any contiguous buffered segments along.
                    while let Some((&seq2, _)) = reorder.iter().next() {
                        if seq2 != rcv_nxt {
                            break;
                        }
                        let payload = reorder.remove(&seq2).expect("checked");
                        rcv_nxt += payload.len() as u64;
                        undelivered.push_back(payload);
                    }
                } else if seq > rcv_nxt {
                    reorder.entry(seq).or_insert(payload);
                }
                // Cumulative (possibly duplicate) ACK + current window.
                // The segment's CE mark is echoed so the sender's
                // algorithm sees exactly which bytes met a long queue.
                side.charge_ack().await;
                stats.acks_sent.inc();
                advertised = wnd(&credits, &undelivered);
                port.send(Segment::Ack {
                    ack: rcv_nxt,
                    wnd: advertised,
                    update: false,
                    ece: ecn,
                })
                .await;
            }
            Either::Left(Some(Segment::Syn)) => {
                side.charge_ack().await;
                port.send(Segment::SynAck).await;
            }
            Either::Left(Some(Segment::Fin { seq })) => {
                side.charge_ack().await;
                port.send(Segment::FinAck).await;
                if seq == rcv_nxt {
                    fin_pending = true;
                }
            }
            Either::Left(Some(_)) => {}
            Either::Left(None) => return,
            Either::Right(Some(())) => {
                // The application consumed a message. Send a pure window
                // update only when the window re-opens (was below one
                // MSS, now at least one) — the TCP zero-window-update
                // rule; anything chattier floods the reverse path.
                let new_wnd = wnd(&credits, &undelivered);
                if advertised < mss && new_wnd >= mss {
                    side.charge_ack().await;
                    advertised = new_wnd;
                    port.send(Segment::Ack {
                        ack: rcv_nxt,
                        wnd: new_wnd,
                        update: true,
                        ece: false,
                    })
                    .await;
                }
            }
            Either::Right(None) => {
                // App receiver dropped: keep consuming the wire so the
                // peer can finish, but deliver nowhere.
                app_out = None;
                wnd_open = false;
            }
        }
    }
}
