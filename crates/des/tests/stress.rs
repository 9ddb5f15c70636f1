//! Executor stress tests: the hot-path optimisations (cached wakers,
//! scratch-buffer drains, the owner-thread wake lane, one timer per
//! pending `Sleep`, timer slots cancelled when their sleep is dropped)
//! must hold up at scale *and* leave observable behaviour — final virtual
//! times, completion order — exactly where the unoptimised executor put
//! it.

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use dpdpu_des::{channel, now, sleep, spawn, timeout, yield_now, Sim};

#[test]
fn hundred_thousand_concurrent_tasks() {
    let tasks = 100_000u64;
    let done = Rc::new(Cell::new(0u64));
    let mut sim = Sim::new();
    for t in 0..tasks {
        let done = done.clone();
        sim.spawn(async move {
            yield_now().await;
            sleep(1 + t % 7).await;
            yield_now().await;
            done.set(done.get() + 1);
        });
    }
    let end = sim.run();
    assert_eq!(done.get(), tasks);
    // The slowest cohort sleeps 7ns from time 0; nothing else advances
    // the clock.
    assert_eq!(end, 7);
}

#[test]
fn million_timer_firings_land_on_the_exact_final_time() {
    let tasks = 100u64;
    let sleeps = 10_000u64;
    let mut sim = Sim::new();
    for t in 0..tasks {
        sim.spawn(async move {
            for _ in 0..sleeps {
                sleep(1 + t % 3).await;
            }
        });
    }
    let end = sim.run();
    // Task durations are sleeps * (1 + t % 3); the t % 3 == 2 cohort
    // finishes last.
    assert_eq!(end, 3 * sleeps);
    assert_eq!(sim.pending_timers(), 0);
}

#[test]
fn deep_spawn_join_chain() {
    let depth = 10_000u64;
    let hops = Rc::new(Cell::new(0u64));
    let mut sim = Sim::new();
    {
        let hops = hops.clone();
        sim.spawn(async move {
            let mut handle = spawn(async {
                sleep(1).await;
                0u64
            });
            for _ in 0..depth {
                let prev = handle;
                handle = spawn(async move {
                    let hops = prev.await;
                    sleep(1).await;
                    hops + 1
                });
            }
            hops.set(handle.await);
        });
    }
    let end = sim.run();
    // Link i completes at virtual time i + 1: the chain serialises.
    assert_eq!(hops.get(), depth);
    assert_eq!(end, depth + 1);
}

/// Completion order — the observable trace of wake order — must be
/// identical between replays of the same workload, and the exact final
/// virtual time must match the analytic answer. Guards the drain/queue
/// rewrite against reordering wakes.
#[test]
fn wake_order_is_identical_across_replays() {
    fn replay() -> (Vec<u64>, u64) {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for t in 0..2_000u64 {
            let order = order.clone();
            sim.spawn(async move {
                for _ in 0..=(t % 5) {
                    sleep(1 + (t * 7919) % 13).await;
                }
                order.borrow_mut().push(t);
            });
        }
        let end = sim.run();
        drop(sim);
        (
            Rc::try_unwrap(order).expect("sim dropped").into_inner(),
            end,
        )
    }

    let (first, end_first) = replay();
    let (second, end_second) = replay();
    assert_eq!(first.len(), 2_000);
    assert_eq!(first, second, "completion order must be reproducible");
    assert_eq!(end_first, end_second);
    let expected = (0..2_000u64)
        .map(|t| (1 + t % 5) * (1 + (t * 7919) % 13))
        .max()
        .unwrap();
    assert_eq!(end_first, expected);
}

/// A pending `Sleep` that is spuriously re-polled (the `timeout` pattern:
/// inner progress wakes the task while the deadline timer stays pending)
/// must keep exactly one live timer, not leave one per re-poll pending.
/// (A cancel-and-re-arm per re-poll keeps the live count; the executor's
/// `spurious_repolls_arm_no_new_timer` unit test reads the heap for that.)
#[test]
fn spurious_repolls_keep_one_timer_entry() {
    let steps = 1_000u64;
    let deadline = 1_000_000u64;
    let mut sim = Sim::new();
    sim.spawn(async move {
        let r = timeout(deadline, async {
            for _ in 0..steps {
                sleep(1).await;
            }
        })
        .await;
        assert!(r.is_ok(), "inner future beats the deadline");
    });
    // Pause mid-flight: the timeout deadline plus at most the one inner
    // sleep are pending — hundreds here means every spurious re-poll
    // armed a timer of its own.
    sim.run_until(steps / 2);
    assert!(
        sim.pending_timers() <= 2,
        "duplicate timer entries piled up: {}",
        sim.pending_timers()
    );
    // The inner loop won, so the deadline timer was cancelled; the clock
    // still lands on its deadline at quiescence, as it did when the
    // timer was left to fire.
    let end = sim.run();
    assert_eq!(end, deadline);
    assert_eq!(sim.pending_timers(), 0);
}

/// A `timeout` whose inner future wins cancels its timer: only the live
/// sleep stays pending, and passing the cancelled deadline polls nothing.
#[test]
fn won_timeout_leaves_no_timer_and_no_wake() {
    let mut sim = Sim::new();
    sim.spawn(async {
        assert_eq!(timeout(1_000, sleep(10)).await, Ok(()));
        sleep(5_000).await;
    });
    sim.run_until(500);
    assert_eq!(sim.pending_timers(), 1, "only the live sleep is pending");
    let polls = sim.polls();
    sim.run_until(2_000);
    assert_eq!(sim.polls(), polls, "the cancelled deadline woke the task");
    assert_eq!(sim.run(), 5_010);
}

/// The clock still visits cancelled deadlines: `run` lands on the latest
/// one, and `run_until` short of it stops at its own deadline.
#[test]
fn cancelled_deadlines_still_set_the_final_time() {
    fn sim() -> Sim {
        let sim = Sim::new();
        sim.spawn(async {
            // Deadlines 3 000, 7 010 and 5 020, each beaten by its sleep.
            for ns in [3_000, 7_000, 5_000] {
                assert_eq!(timeout(ns, sleep(10)).await, Ok(()));
            }
        });
        sim
    }
    let mut whole = sim();
    assert_eq!(whole.run(), 7_010);
    assert_eq!(whole.pending_timers(), 0);

    let mut partial = sim();
    assert_eq!(partial.run_until(6_000), 6_000);
    assert_eq!(partial.next_timer_deadline(), Some(7_010));
    assert_eq!(partial.pending_timers(), 1);
    assert_eq!(partial.run(), 7_010);
    assert_eq!(partial.next_timer_deadline(), None);
}

/// Three timers share a deadline and the middle one is cancelled: the
/// other two fire in arming order, and the cancelled one wakes no one.
#[test]
fn cancelled_middle_tie_is_skipped() {
    let order = Rc::new(RefCell::new(Vec::new()));
    let (tx, mut rx) = channel::<()>();
    let mut sim = Sim::new();
    let first = order.clone();
    sim.spawn(async move {
        sleep(100).await;
        first.borrow_mut().push("first");
    });
    let middle = order.clone();
    sim.spawn(async move {
        assert_eq!(timeout(100, rx.recv()).await, Ok(Some(())));
        middle.borrow_mut().push("middle");
        sleep(1_000).await;
    });
    let third = order.clone();
    sim.spawn(async move {
        sleep(100).await;
        third.borrow_mut().push("third");
    });
    sim.spawn(async move {
        sleep(50).await;
        tx.send(()).unwrap();
    });
    sim.run_until(99);
    let polls = sim.polls();
    sim.run_until(100);
    assert_eq!(*order.borrow(), ["middle", "first", "third"]);
    assert_eq!(
        sim.polls() - polls,
        2,
        "only the two live timers woke a task"
    );
    assert_eq!(sim.run(), 1_050);
}

/// A cancelled timer's slot is reused by the next one armed; the
/// cancelled key, surfacing later, must not fire the new timer.
#[test]
fn reused_slot_ignores_its_stale_key() {
    let (tx, mut rx) = channel::<()>();
    let mut sim = Sim::new();
    sim.spawn(async move {
        sleep(10).await;
        tx.send(()).unwrap();
    });
    sim.spawn(async move {
        assert_eq!(timeout(100, rx.recv()).await, Ok(Some(())));
        sleep(500).await;
        assert_eq!(now(), 510);
    });
    sim.run_until(50);
    assert_eq!(sim.pending_timers(), 1);
    let polls = sim.polls();
    sim.run_until(200);
    assert_eq!(sim.polls(), polls, "the stale key at 100 fired the slot");
    assert_eq!(sim.run(), 510);
}

/// Counts wakes, then forwards them.
struct Wrapped {
    inner: Waker,
    wakes: Arc<AtomicUsize>,
}

impl Wake for Wrapped {
    fn wake(self: Arc<Self>) {
        self.wakes.fetch_add(1, Ordering::Relaxed);
        self.inner.wake_by_ref();
    }
}

/// A sleep first polled by its task, then re-polled through an adaptor's
/// waker, fires once, through the adaptor.
#[test]
fn sleep_under_a_wrapped_waker_still_fires() {
    let wakes = Arc::new(AtomicUsize::new(0));
    let seen = wakes.clone();
    let mut sim = Sim::new();
    sim.spawn(async move {
        let (mut timer, mut nudge) = (sleep(100), sleep(50));
        let mut polls = 0;
        poll_fn(|cx| {
            polls += 1;
            if polls == 1 {
                // Arms `timer` on this task's own waker; `nudge` re-polls
                // the task at 50.
                assert!(Pin::new(&mut nudge).poll(cx).is_pending());
                return Pin::new(&mut timer).poll(cx);
            }
            let waker = Waker::from(Arc::new(Wrapped {
                inner: cx.waker().clone(),
                wakes: seen.clone(),
            }));
            Pin::new(&mut timer).poll(&mut Context::from_waker(&waker))
        })
        .await;
        assert_eq!(now(), 100);
        assert_eq!(polls, 3, "first poll, the nudge at 50, the timer at 100");
    });
    assert_eq!(sim.run(), 100);
    assert_eq!(wakes.load(Ordering::Relaxed), 1);
}

/// A sleep armed in one `Sim` and dropped while another runs, or after
/// its own is gone, cancels nothing in either. Both simulations arm their
/// first timer in slot 0 with sequence number 0.
#[test]
fn a_sleep_leaves_other_sims_alone() {
    type Stash = Rc<RefCell<Vec<Pin<Box<dyn Future<Output = ()>>>>>>;
    let stash: Stash = Rc::default();
    let mut a = Sim::new();
    let armed = stash.clone();
    a.spawn(async move {
        for ns in [100, 200] {
            let mut s: Pin<Box<dyn Future<Output = ()>>> = Box::pin(sleep(ns));
            poll_fn(|cx| {
                assert!(s.as_mut().poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            armed.borrow_mut().push(s);
        }
    });
    a.run_until(10);
    assert_eq!(a.pending_timers(), 2);

    let mut b = Sim::new();
    let done = Rc::new(Cell::new(false));
    let finished = done.clone();
    b.spawn(async move {
        sleep(100).await;
        finished.set(true);
    });
    let dropper = stash.clone();
    b.spawn(async move {
        sleep(10).await;
        drop(dropper.borrow_mut().remove(0));
    });
    assert_eq!(b.run(), 100);
    assert!(done.get(), "b's own timer in slot 0 still fired");

    assert_eq!(a.pending_timers(), 2, "a's timers are untouched");
    assert_eq!(a.run(), 200);
    drop(a);
    drop(stash.borrow_mut().pop());
}
