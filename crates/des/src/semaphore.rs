//! FIFO counting semaphore for modelling limited resources.
//!
//! Fairness is strict FIFO: a waiter never overtakes an earlier waiter even
//! when permits free up out of order. Acquire futures are cancel-safe — a
//! permit granted to a future that is subsequently dropped is returned to
//! the pool.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::probe::Site;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WaitState {
    Waiting,
    Granted,
    Cancelled,
}

struct Waiter {
    state: Cell<WaitState>,
    waker: RefCell<Option<Waker>>,
}

struct SemInner {
    permits: usize,
    /// Total permits (the initial count).
    capacity: usize,
    /// Accounting label; labeled semaphores report acquire/release
    /// events through [`crate::probe`] so a conformance checker can
    /// balance them. `None` keeps the semaphore silent.
    label: Option<Site>,
    waiters: VecDeque<Rc<Waiter>>,
}

impl SemInner {
    fn note_acquire(&self) {
        if let Some(label) = self.label {
            crate::probe::emit_acquire(label, self.capacity, self.capacity - self.permits);
        }
    }

    fn note_release(&self) {
        if let Some(label) = self.label {
            crate::probe::emit_release(label, self.capacity - self.permits);
        }
    }

    /// Hands available permits to waiters in FIFO order.
    fn grant(&mut self) {
        while self.permits > 0 {
            let Some(front) = self.waiters.front() else {
                break;
            };
            if front.state.get() == WaitState::Cancelled {
                self.waiters.pop_front();
                continue;
            }
            let waiter = self.waiters.pop_front().expect("front checked above");
            self.permits -= 1;
            self.note_acquire();
            waiter.state.set(WaitState::Granted);
            let waker = waiter.waker.borrow_mut().take();
            if let Some(waker) = waker {
                waker.wake();
            }
        }
    }
}

/// A FIFO counting semaphore.
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<SemInner>>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Self::build(None, permits)
    }

    /// Creates a semaphore that reports acquire/release accounting
    /// events under `label` (see [`crate::probe`]), interned here so
    /// the events carry an id, not a string.
    pub fn new_labeled(label: &str, permits: usize) -> Self {
        Self::build(Some(Site::new(label)), permits)
    }

    /// `label`: a name the caller already interned ([`crate::Server`]
    /// shares its site with its slot semaphore), or `None` for silence.
    pub(crate) fn build(label: Option<Site>, permits: usize) -> Self {
        Semaphore {
            inner: Rc::new(RefCell::new(SemInner {
                permits,
                capacity: permits,
                label,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Waits for a permit; the returned [`Permit`] releases on drop.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: self.inner.clone(),
            waiter: None,
            done: false,
        }
    }

    /// Takes a permit if one is immediately available (and no earlier waiter
    /// is queued).
    pub fn try_acquire(&self) -> Option<Permit> {
        let mut inner = self.inner.borrow_mut();
        if inner.permits > 0 && inner.waiters.is_empty() {
            inner.permits -= 1;
            inner.note_acquire();
            Some(Permit {
                sem: self.inner.clone(),
            })
        } else {
            None
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.inner.borrow().permits
    }

    /// Number of queued waiters (cancelled entries may be counted until
    /// they are reaped).
    pub fn queue_len(&self) -> usize {
        self.inner.borrow().waiters.len()
    }
}

/// An acquired permit; dropping it releases the semaphore.
pub struct Permit {
    sem: Rc<RefCell<SemInner>>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut inner = self.sem.borrow_mut();
        inner.permits += 1;
        inner.note_release();
        inner.grant();
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Rc<RefCell<SemInner>>,
    waiter: Option<Rc<Waiter>>,
    done: bool,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        if self.done {
            panic!("Acquire polled after completion");
        }
        match &self.waiter {
            None => {
                let mut inner = self.sem.borrow_mut();
                if inner.permits > 0 && inner.waiters.is_empty() {
                    inner.permits -= 1;
                    inner.note_acquire();
                    drop(inner);
                    self.done = true;
                    return Poll::Ready(Permit {
                        sem: self.sem.clone(),
                    });
                }
                let waiter = Rc::new(Waiter {
                    state: Cell::new(WaitState::Waiting),
                    waker: RefCell::new(Some(cx.waker().clone())),
                });
                inner.waiters.push_back(waiter.clone());
                drop(inner);
                self.waiter = Some(waiter);
                Poll::Pending
            }
            Some(waiter) => match waiter.state.get() {
                WaitState::Granted => {
                    self.done = true;
                    Poll::Ready(Permit {
                        sem: self.sem.clone(),
                    })
                }
                WaitState::Waiting => {
                    crate::executor::store_waker(&mut waiter.waker.borrow_mut(), cx.waker());
                    Poll::Pending
                }
                WaitState::Cancelled => unreachable!("cancelled acquire polled"),
            },
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if self.done {
            return; // permit handed out; its own Drop handles release
        }
        if let Some(waiter) = &self.waiter {
            match waiter.state.get() {
                WaitState::Granted => {
                    // Granted but never observed: return the permit.
                    let mut inner = self.sem.borrow_mut();
                    inner.permits += 1;
                    inner.note_release();
                    inner.grant();
                }
                WaitState::Waiting => waiter.state.set(WaitState::Cancelled),
                WaitState::Cancelled => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, sleep, spawn, Sim};

    #[test]
    fn serializes_access() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let sem = Semaphore::new(1);
            let mut handles = Vec::new();
            for _ in 0..4 {
                let sem = sem.clone();
                handles.push(spawn(async move {
                    let _p = sem.acquire().await;
                    sleep(100).await;
                    now()
                }));
            }
            let mut ends = Vec::new();
            for h in handles {
                ends.push(h.await);
            }
            assert_eq!(ends, vec![100, 200, 300, 400]);
        });
        sim.run();
    }

    #[test]
    fn capacity_two_runs_pairs() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let sem = Semaphore::new(2);
            let mut handles = Vec::new();
            for _ in 0..4 {
                let sem = sem.clone();
                handles.push(spawn(async move {
                    let _p = sem.acquire().await;
                    sleep(100).await;
                    now()
                }));
            }
            let mut ends = Vec::new();
            for h in handles {
                ends.push(h.await);
            }
            assert_eq!(ends, vec![100, 100, 200, 200]);
        });
        sim.run();
    }

    #[test]
    fn try_acquire_respects_queue() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let sem = Semaphore::new(1);
            let p = sem.try_acquire().expect("free permit");
            assert!(sem.try_acquire().is_none());
            let sem2 = sem.clone();
            let waiter = spawn(async move {
                let _p = sem2.acquire().await;
                now()
            });
            sleep(50).await;
            drop(p);
            assert_eq!(waiter.await, 50);
        });
        sim.run();
    }

    #[test]
    fn fifo_fairness() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let sem = Semaphore::new(1);
            let first = sem.acquire().await;
            let mut order = Vec::new();
            let mut handles = Vec::new();
            for i in 0..5u32 {
                let sem = sem.clone();
                // Stagger arrival so queue order is defined.
                sleep(1).await;
                handles.push(spawn(async move {
                    let _p = sem.acquire().await;
                    i
                }));
            }
            sleep(10).await;
            drop(first);
            for h in handles {
                order.push(h.await);
            }
            assert_eq!(order, vec![0, 1, 2, 3, 4]);
        });
        sim.run();
    }

    #[test]
    fn cancelled_waiter_is_skipped() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let sem = Semaphore::new(1);
            let held = sem.acquire().await;
            // Create a waiter and cancel it by dropping the future.
            let mut acq = Box::pin(sem.acquire());
            futures_poll_once(&mut acq).await;
            drop(acq);
            let sem2 = sem.clone();
            let h = spawn(async move {
                let _p = sem2.acquire().await;
                true
            });
            sleep(1).await;
            drop(held);
            assert!(h.await);
        });
        sim.run();
    }

    /// Polls a future exactly once (to register it as a waiter).
    async fn futures_poll_once<F: Future + Unpin>(fut: &mut F) {
        use std::task::Poll;
        let mut once = false;
        std::future::poll_fn(|cx| {
            if once {
                return Poll::Ready(());
            }
            once = true;
            let _ = Pin::new(&mut *fut).poll(cx);
            Poll::Ready(())
        })
        .await;
    }
}
