//! One-shot value handoff between tasks (used for request/response RPC
//! inside the simulation and for task join handles).

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::store_waker;

enum State<T> {
    Empty,
    Value(T),
    SenderDropped,
    Taken,
}

struct Inner<T> {
    state: State<T>,
    waker: Option<Waker>,
}

/// Sending half of a oneshot channel; consumed by [`OneshotSender::send`].
pub struct OneshotSender<T> {
    inner: Rc<RefCell<Inner<T>>>,
    sent: bool,
}

/// Receiving half of a oneshot channel; a future yielding
/// `Result<T, Cancelled>`.
pub struct OneshotReceiver<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

/// Error: the sender was dropped without sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

/// Creates a oneshot channel.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let inner = Rc::new(RefCell::new(Inner {
        state: State::Empty,
        waker: None,
    }));
    (
        OneshotSender {
            inner: inner.clone(),
            sent: false,
        },
        OneshotReceiver { inner },
    )
}

impl<T> OneshotSender<T> {
    /// Delivers the value; returns it back if the receiver is gone.
    pub fn send(mut self, value: T) -> Result<(), T> {
        self.sent = true;
        let mut inner = self.inner.borrow_mut();
        if Rc::strong_count(&self.inner) == 1 {
            return Err(value);
        }
        inner.state = State::Value(value);
        if let Some(waker) = inner.waker.take() {
            waker.wake();
        }
        Ok(())
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        if !self.sent {
            let mut inner = self.inner.borrow_mut();
            inner.state = State::SenderDropped;
            if let Some(waker) = inner.waker.take() {
                waker.wake();
            }
        }
    }
}

impl<T> OneshotReceiver<T> {
    /// Whether a poll would complete: the value was sent, the sender was
    /// dropped, or the value was already taken.
    pub(crate) fn is_resolved(&self) -> bool {
        !matches!(self.inner.borrow().state, State::Empty)
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Result<T, Cancelled>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.inner.borrow_mut();
        match std::mem::replace(&mut inner.state, State::Taken) {
            State::Value(v) => Poll::Ready(Ok(v)),
            State::SenderDropped => Poll::Ready(Err(Cancelled)),
            State::Taken => panic!("oneshot polled after completion"),
            State::Empty => {
                inner.state = State::Empty;
                store_waker(&mut inner.waker, cx.waker());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{sleep, spawn, Sim};

    #[test]
    fn send_before_recv() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (tx, rx) = oneshot();
            tx.send(5u64).unwrap();
            assert_eq!(rx.await, Ok(5));
        });
        sim.run();
    }

    #[test]
    fn recv_waits() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (tx, rx) = oneshot();
            spawn(async move {
                sleep(10).await;
                tx.send("done").unwrap();
            });
            assert_eq!(rx.await, Ok("done"));
        });
        sim.run();
    }

    #[test]
    fn dropped_sender_cancels() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (tx, rx) = oneshot::<u8>();
            drop(tx);
            assert_eq!(rx.await, Err(Cancelled));
        });
        sim.run();
    }

    #[test]
    fn send_to_dropped_receiver_returns_value() {
        let (tx, rx) = oneshot::<u8>();
        drop(rx);
        assert_eq!(tx.send(9), Err(9));
    }
}
