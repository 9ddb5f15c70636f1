//! Small future combinators used by protocol models: `timeout` for
//! retransmission timers, `race` for "first of two events", and `join_all`
//! for fan-out/fan-in.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::executor::{sleep, JoinHandle, Sleep};
use crate::time::Time;

/// Error returned by [`timeout`] when the deadline fires first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

/// Result of [`race`].
#[derive(Debug, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The left future finished first.
    Left(A),
    /// The right future finished first.
    Right(B),
}

/// Future returned by [`timeout`].
pub struct Timeout<F> {
    /// Structurally pinned: never moved out of a pinned `Timeout`.
    fut: F,
    timer: Sleep,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: nothing moves out of `self`: `fut` is reached only
        // through the pin made here, `Timeout` has no `Drop` and is `Unpin`
        // only when `F` is. `timer` is `Unpin`, so it needs no pin.
        let (fut, timer) = unsafe {
            let this = self.get_unchecked_mut();
            (Pin::new_unchecked(&mut this.fut), &mut this.timer)
        };
        if let Poll::Ready(v) = fut.poll(cx) {
            return Poll::Ready(Ok(v));
        }
        match Pin::new(timer).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Runs `fut`, giving up after `ns` of virtual time. On timeout the inner
/// future is dropped (cancelled); when `fut` wins, the timer is cancelled.
///
/// `fut` is held inline, so the returned future is `Unpin` only when `F`
/// is: pin it with `pin!` or `Box::pin` to poll it by hand.
pub fn timeout<F: Future>(ns: Time, fut: F) -> Timeout<F> {
    Timeout {
        fut,
        timer: sleep(ns),
    }
}

/// Future returned by [`race`].
pub struct Race<A, B> {
    /// Both structurally pinned: never moved out of a pinned `Race`.
    a: A,
    b: B,
}

impl<A: Future, B: Future> Future for Race<A, B> {
    type Output = Either<A::Output, B::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: nothing moves out of `self`: `a` and `b` are reached
        // only through the pins made here, `Race` has no `Drop` and is
        // `Unpin` only when both futures are.
        let (a, b) = unsafe {
            let this = self.get_unchecked_mut();
            (
                Pin::new_unchecked(&mut this.a),
                Pin::new_unchecked(&mut this.b),
            )
        };
        if let Poll::Ready(v) = a.poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = b.poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    }
}

/// Polls both futures; completes with whichever finishes first, dropping
/// the loser. The left future wins ties.
///
/// Both futures are held inline, so the returned future is `Unpin` only
/// when `A` and `B` are: pin it with `pin!` or `Box::pin` to poll it by
/// hand.
pub fn race<A: Future, B: Future>(a: A, b: B) -> Race<A, B> {
    Race { a, b }
}

/// Awaits every join handle, returning outputs in input order.
pub async fn join_all<T>(handles: Vec<JoinHandle<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, sleep, spawn, Sim};

    #[test]
    fn timeout_lets_fast_future_through() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let r = timeout(100, async {
                sleep(50).await;
                7u8
            })
            .await;
            assert_eq!(r, Ok(7));
            assert_eq!(now(), 50);
        });
        sim.run();
    }

    #[test]
    fn timeout_fires_on_slow_future() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let r = timeout(100, async {
                sleep(500).await;
                7u8
            })
            .await;
            assert_eq!(r, Err(Elapsed));
            assert_eq!(now(), 100);
        });
        sim.run();
    }

    #[test]
    fn race_picks_earlier() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let r = race(
                async {
                    sleep(30).await;
                    "a"
                },
                async {
                    sleep(20).await;
                    "b"
                },
            )
            .await;
            assert_eq!(r, Either::Right("b"));
            assert_eq!(now(), 20);
        });
        sim.run();
    }

    #[test]
    fn join_all_preserves_order() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let handles: Vec<_> = (0..5u64)
                .map(|i| {
                    spawn(async move {
                        sleep(100 - i * 10).await;
                        i
                    })
                })
                .collect();
            let out = join_all(handles).await;
            assert_eq!(out, vec![0, 1, 2, 3, 4]);
            assert_eq!(now(), 100);
        });
        sim.run();
    }
}
