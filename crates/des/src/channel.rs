//! Unbounded single-consumer channels between simulation tasks.
//!
//! These are deliberately unbounded: backpressure in the simulation is
//! modelled explicitly (credit counters, ring-buffer capacities, window
//! sizes) rather than implicitly through channel capacity, so the transport
//! primitive itself never blocks a sender.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct Inner<T> {
    queue: VecDeque<T>,
    recv_waker: Option<Waker>,
    /// The task awaiting [`Sender::closed`], woken when the receiver drops.
    close_waker: Option<Waker>,
    senders: usize,
    receiver_alive: bool,
}

/// Sending half. Clonable; the channel closes when every sender is dropped.
pub struct Sender<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

/// Receiving half.
pub struct Receiver<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

/// Error returned by [`Sender::send`] when the receiver is gone; carries the
/// unsent value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Creates an unbounded channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(RefCell::new(Inner {
        queue: VecDeque::new(),
        recv_waker: None,
        close_waker: None,
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueues a value, waking the receiver if it is parked.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.inner.borrow_mut();
        if !inner.receiver_alive {
            return Err(SendError(value));
        }
        inner.queue.push_back(value);
        if let Some(waker) = inner.recv_waker.take() {
            waker.wake();
        }
        Ok(())
    }

    /// Resolves once the receiver is dropped, so a producer parked on
    /// something else can race its wait against the hang-up. One task
    /// waits on it at a time: the receiver's drop wakes the task that
    /// polled it last.
    pub fn closed(&self) -> Closed<'_, T> {
        Closed { tx: self }
    }
}

/// Future returned by [`Sender::closed`].
pub struct Closed<'a, T> {
    tx: &'a Sender<T>,
}

impl<T> Future for Closed<'_, T> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.tx.inner.borrow_mut();
        if !inner.receiver_alive {
            return Poll::Ready(());
        }
        crate::executor::store_waker(&mut inner.close_waker, cx.waker());
        Poll::Pending
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.senders -= 1;
        if inner.senders == 0 {
            if let Some(waker) = inner.recv_waker.take() {
                waker.wake();
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Waits for the next value; returns `None` once all senders are dropped
    /// and the queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Number of values currently buffered.
    pub(crate) fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True if no values are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.receiver_alive = false;
        if let Some(waker) = inner.close_waker.take() {
            waker.wake();
        }
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut inner = self.rx.inner.borrow_mut();
        if let Some(v) = inner.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if inner.senders == 0 {
            return Poll::Ready(None);
        }
        crate::executor::store_waker(&mut inner.recv_waker, cx.waker());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{sleep, spawn, Sim};
    use std::cell::Cell;

    #[test]
    fn send_then_recv() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (tx, mut rx) = channel();
            tx.send(7u32).unwrap();
            assert_eq!(rx.recv().await, Some(7));
        });
        sim.run();
    }

    #[test]
    fn recv_waits_for_sender() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (tx, mut rx) = channel();
            spawn(async move {
                sleep(100).await;
                tx.send(1u8).unwrap();
            });
            assert_eq!(rx.recv().await, Some(1));
            assert_eq!(crate::executor::now(), 100);
        });
        sim.run();
    }

    #[test]
    fn recv_returns_none_when_senders_dropped() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (tx, mut rx) = channel::<u8>();
            drop(tx);
            assert_eq!(rx.recv().await, None);
        });
        sim.run();
    }

    #[test]
    fn send_fails_after_receiver_dropped() {
        let (tx, rx) = channel::<u8>();
        assert_eq!(tx.send(2), Ok(()));
        drop(rx);
        assert_eq!(tx.send(3), Err(SendError(3)));
    }

    #[test]
    fn closed_resolves_when_the_receiver_drops() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (tx, rx) = channel::<u8>();
            spawn(async move {
                sleep(100).await;
                drop(rx);
            });
            tx.closed().await;
            assert_eq!(crate::executor::now(), 100);
            // Already closed: resolves at once.
            tx.closed().await;
        });
        sim.run();
    }

    #[test]
    fn fifo_order_preserved_across_senders() {
        let mut sim = Sim::new();
        let seen = Rc::new(Cell::new(0usize));
        let seen2 = seen.clone();
        sim.spawn(async move {
            let (tx, mut rx) = channel();
            for i in 0..100u32 {
                tx.clone().send(i).unwrap();
            }
            drop(tx);
            let mut expect = 0;
            while let Some(v) = rx.recv().await {
                assert_eq!(v, expect);
                expect += 1;
            }
            seen2.set(expect as usize);
        });
        sim.run();
        assert_eq!(seen.get(), 100);
    }
}
