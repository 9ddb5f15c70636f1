//! The virtual-time executor.
//!
//! Tasks live in a slab; wakers push task ids onto a shared wake list; the
//! run loop polls every runnable task to quiescence and then advances the
//! virtual clock to the earliest pending timer (see `timer.rs`).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use crate::oneshot;
use crate::time::Time;
use crate::timer::{TimerId, Timers};

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Wake list shared with wakers. Wakers must be `Send + Sync`, so the list
/// carries a mutex-protected `remote` lane — but in practice every wake
/// originates from a poll on the executor thread, so there is also a
/// lock-free owner-thread `local` lane. A waker picks the lane by checking
/// whether the thread's currently-running `Sim` owns this very list (a
/// thread-local read + pointer compare); only foreign-thread wakes — which
/// nothing in-tree performs — pay for the mutex. The dirty flags are set on
/// every wake so drain passes where nothing woke skip both lanes entirely.
#[derive(Default)]
struct WakeList {
    /// Owner-thread lane. Only touched when `CURRENT` names the `Sim`
    /// owning this list, which pins the accessor to the executor thread —
    /// that invariant, not a lock, is what makes the `Sync` impl below
    /// sound.
    local: std::cell::UnsafeCell<Vec<usize>>,
    local_dirty: Cell<bool>,
    /// Foreign-thread lane (and wakes fired outside `Sim::run`).
    remote: Mutex<Vec<usize>>,
    remote_dirty: AtomicBool,
}

// SAFETY: `local`/`local_dirty` are only accessed on the thread whose
// running `Sim` owns this list (checked via the thread-local `CURRENT`
// before every touch); `Rc<SimShared>` cannot leave that thread, so those
// accesses are single-threaded. All other fields are `Sync` on their own.
unsafe impl Sync for WakeList {}

struct TaskWaker {
    list: Arc<WakeList>,
    task: usize,
}

impl TaskWaker {
    fn wake_task(&self) {
        let on_owner_thread = CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .is_some_and(|s| Arc::ptr_eq(&s.wake_list, &self.list))
        });
        if on_owner_thread {
            // SAFETY: the currently-entered Sim owns this list, so we are
            // on the executor thread — the only thread touching `local`.
            unsafe { (*self.list.local.get()).push(self.task) };
            self.list.local_dirty.set(true);
        } else {
            let mut woken = self.list.remote.lock().expect("wake list poisoned");
            woken.push(self.task);
            self.list.remote_dirty.store(true, Ordering::Release);
        }
    }
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_task();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.wake_task();
    }
}

/// Source of [`SimShared::id`].
static NEXT_SIM_ID: AtomicU64 = AtomicU64::new(0);

/// A timer a [`Sleep`] armed, and the simulation it was armed in.
#[derive(Clone, Copy)]
struct Armed {
    sim: u64,
    timer: TimerId,
}

/// Executor state shared between the run loop and futures polled inside it.
pub(crate) struct SimShared {
    /// Distinct per `Sim` in the process: a `Sleep` dropped or polled
    /// while another simulation is entered leaves that one's timers alone.
    id: u64,
    now: Cell<Time>,
    timers: RefCell<Timers>,
    /// Tasks spawned while the simulation is running (or before it starts).
    spawned: RefCell<Vec<BoxFuture>>,
    /// Fast-path flag mirroring `!spawned.is_empty()`, so the run loop's
    /// per-poll admission check is a plain `Cell` read.
    has_spawned: Cell<bool>,
    /// Root tasks ([`Sim::spawn`]) that have not finished yet.
    live_roots: Cell<usize>,
    wake_list: Arc<WakeList>,
}

impl SimShared {
    fn arm(&self, deadline: Time, waker: &Waker) -> Armed {
        let timer = self.timers.borrow_mut().arm(deadline, waker.clone());
        Armed {
            sim: self.id,
            timer,
        }
    }

    /// Whether `armed` is still pending here and wakes whoever polls
    /// through `waker`.
    fn wakes(&self, armed: Armed, waker: &Waker) -> bool {
        armed.sim == self.id
            && self
                .timers
                .borrow()
                .waker_of(armed.timer)
                .is_some_and(|w| w.will_wake(waker))
    }

    fn disarm(&self, armed: Armed) {
        if armed.sim == self.id {
            // Bound first: the waker a cancel hands back is dropped after
            // the borrow ends.
            let waker = self.timers.borrow_mut().cancel(armed.timer);
            drop(waker);
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<SimShared>>> = const { RefCell::new(None) };
}

fn with_shared<R>(f: impl FnOnce(&SimShared) -> R) -> R {
    CURRENT.with(|c| {
        let cur = c.borrow();
        let shared = cur.as_ref().expect(
            "dpdpu-des: not inside a running Sim (did you call now()/sleep() outside Sim::run?)",
        );
        f(shared)
    })
}

struct EnterGuard {
    prev: Option<Rc<SimShared>>,
}

fn enter(shared: Rc<SimShared>) -> EnterGuard {
    CURRENT.with(|c| {
        let prev = c.borrow_mut().replace(shared);
        EnterGuard { prev }
    })
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

/// A deterministic single-threaded simulation executor with a virtual clock.
pub struct Sim {
    shared: Rc<SimShared>,
    tasks: Vec<Option<BoxFuture>>,
    /// One cached waker per task slot, created with the slot and shared by
    /// every poll of whatever task occupies it — the hot path never
    /// allocates a fresh `Arc<TaskWaker>` per poll.
    wakers: Vec<Waker>,
    free: Vec<usize>,
    ready: VecDeque<usize>,
    queued: Vec<bool>,
    /// Reusable drain buffer swapped with the shared wake list, so neither
    /// side loses its capacity between iterations.
    scratch: Vec<usize>,
    /// Total task polls, ever. See [`Sim::polls`].
    polls: Cell<u64>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation at virtual time zero.
    pub fn new() -> Self {
        crate::probe::emit_epoch();
        Sim {
            shared: Rc::new(SimShared {
                id: NEXT_SIM_ID.fetch_add(1, Ordering::Relaxed),
                now: Cell::new(0),
                timers: RefCell::new(Timers::default()),
                spawned: RefCell::new(Vec::new()),
                has_spawned: Cell::new(false),
                live_roots: Cell::new(0),
                wake_list: Arc::new(WakeList::default()),
            }),
            tasks: Vec::new(),
            wakers: Vec::new(),
            free: Vec::new(),
            ready: VecDeque::new(),
            queued: Vec::new(),
            scratch: Vec::new(),
            polls: Cell::new(0),
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> Time {
        self.shared.now.get()
    }

    /// Timers the clock has yet to visit: one per pending sleep (a
    /// spurious re-poll keeps its timer; a sleep dropped before its
    /// deadline cancels it) or, when none is pending, one for the latest
    /// cancelled deadline still ahead of the clock (see [`Sim::run_until`]).
    pub fn pending_timers(&self) -> usize {
        let timers = self.shared.timers.borrow();
        match timers.live() {
            0 => usize::from(timers.horizon() > self.now()),
            live => live,
        }
    }

    /// Deadline of the earliest pending timer or, when none is pending,
    /// the latest cancelled deadline still ahead of the clock. This is the
    /// simulation's next *local* event: the conservative synchronizer in
    /// [`crate::domain`] uses it as one component of a domain's promise.
    pub fn next_timer_deadline(&self) -> Option<Time> {
        let mut timers = self.shared.timers.borrow_mut();
        let horizon = timers.horizon();
        timers
            .next_deadline()
            .or((horizon > self.now()).then_some(horizon))
    }

    /// True when a task is queued, spawned, or has a wake pending — i.e.
    /// calling [`Sim::run_until`] with the current time would poll
    /// something.
    pub fn has_runnable(&self) -> bool {
        !self.ready.is_empty()
            || self.shared.has_spawned.get()
            || self.shared.wake_list.local_dirty.get()
            || self.shared.wake_list.remote_dirty.load(Ordering::Acquire)
    }

    /// Total task polls performed so far. A cheap progress signal for
    /// drivers that need to know whether a `run_until` did anything.
    pub fn polls(&self) -> u64 {
        self.polls.get()
    }

    /// Jumps the clock straight to `t` without going through the timer
    /// heap. This is how cross-domain messages are delivered at their
    /// stamped virtual time: the domain driver quiesces the simulation
    /// below `t`, advances to exactly `t`, and only then wakes the
    /// receivers — so arrivals at `t` are processed *before* local timers
    /// at `t` fire, a fixed convention that makes the merged event order
    /// independent of how work was sliced across synchronization rounds.
    ///
    /// # Panics
    /// Panics if `t` is in the past or jumps over a pending timer.
    pub fn advance_to(&mut self, t: Time) {
        let prev = self.shared.now.get();
        assert!(
            t >= prev,
            "advance_to({t}) would move the clock backwards from {prev}"
        );
        if let Some(deadline) = self.next_timer_deadline() {
            assert!(
                deadline >= t,
                "advance_to({t}) would jump over a pending timer at {deadline}"
            );
        }
        if t != prev {
            self.shared.now.set(t);
            crate::probe::emit_advance(prev, t);
        }
    }

    /// Spawns a root task. Tasks spawned before [`Sim::run`] start at time 0
    /// in spawn order.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        spawn_on(&self.shared, fut, true)
    }

    /// Runs until no task is runnable and no timer is pending, returning the
    /// final virtual time. Background tasks (spawned with [`spawn`]) still
    /// blocked on channels/semaphores at that point are waiting on a peer
    /// that exited and are dropped with the simulation.
    ///
    /// # Panics
    /// Panics if a root task ([`Sim::spawn`]) is still parked at
    /// quiescence: a body that deadlocks before its assertions must not
    /// pass vacuously. A driver that stops early uses [`Sim::run_until`].
    pub fn run(&mut self) -> Time {
        let end = self.run_until(Time::MAX);
        assert!(
            self.shared.live_roots.get() == 0,
            "dpdpu-des: simulation quiesced before the root task finished (deadlock?)"
        );
        end
    }

    /// Runs until the simulation is idle or virtual time would exceed
    /// `deadline`, whichever comes first. Returns the final virtual time.
    ///
    /// A cancelled timer wakes nothing, but the clock still visits its
    /// deadline: idle below the latest cancelled deadline (the horizon),
    /// the clock lands on it, or on `deadline` if that comes first — where
    /// it would stand had the cancelled timer fired into a task that
    /// ignored it. Final times therefore do not depend on whether a
    /// timeout was cancelled or left to expire.
    pub fn run_until(&mut self, deadline: Time) -> Time {
        let _guard = enter(self.shared.clone());
        loop {
            self.admit_spawned();
            self.drain_woken();
            while let Some(id) = self.ready.pop_front() {
                self.queued[id] = false;
                self.poll_task(id);
                self.admit_spawned();
                self.drain_woken();
            }
            // Quiescent: fire the next timer due by `deadline`. Timers
            // beyond it keep their keys — re-arming one would hand it a
            // fresh tie-break sequence number and reorder it against a
            // same-deadline sibling on a later call.
            let due = self.shared.timers.borrow_mut().pop_due(deadline);
            let Some((at, waker)) = due else {
                self.settle(deadline);
                break;
            };
            self.set_clock(at);
            waker.wake();
        }
        self.shared.now.get()
    }

    fn set_clock(&self, t: Time) {
        let prev = self.shared.now.get();
        debug_assert!(t >= prev);
        if t > prev {
            self.shared.now.set(t);
            crate::probe::emit_advance(prev, t);
        }
    }

    /// Idle with no timer due by `deadline`: the horizon rule of
    /// [`Sim::run_until`].
    fn settle(&self, deadline: Time) {
        let (live, horizon) = {
            let timers = self.shared.timers.borrow();
            (timers.live(), timers.horizon())
        };
        if live > 0 || horizon > deadline {
            self.shared.now.set(deadline.max(self.shared.now.get()));
        } else {
            self.set_clock(horizon.max(self.shared.now.get()));
        }
    }

    fn admit_spawned(&mut self) {
        if !self.shared.has_spawned.get() {
            return;
        }
        self.shared.has_spawned.set(false);
        let mut spawned = self.shared.spawned.borrow_mut();
        for fut in spawned.drain(..) {
            let id = match self.free.pop() {
                Some(id) => {
                    self.tasks[id] = Some(fut);
                    id
                }
                None => {
                    self.tasks.push(Some(fut));
                    self.queued.push(false);
                    let id = self.tasks.len() - 1;
                    self.wakers.push(Waker::from(Arc::new(TaskWaker {
                        list: self.shared.wake_list.clone(),
                        task: id,
                    })));
                    id
                }
            };
            if !self.queued[id] {
                self.queued[id] = true;
                self.ready.push_back(id);
            }
        }
    }

    fn drain_woken(&mut self) {
        let wake_list = &self.shared.wake_list;
        if wake_list.local_dirty.get() {
            wake_list.local_dirty.set(false);
            // Swap the owner-thread lane out against the (empty) scratch
            // buffer: both vectors keep their grown capacity, so
            // steady-state wakes and drains are allocation-free.
            let mut scratch = std::mem::take(&mut self.scratch);
            // SAFETY: `drain_woken` runs on the thread that owns this Sim,
            // the only thread permitted to touch `local` (see `WakeList`).
            let local = unsafe { &mut *wake_list.local.get() };
            std::mem::swap(local, &mut scratch);
            for &id in &scratch {
                self.enqueue_woken(id);
            }
            scratch.clear();
            self.scratch = scratch;
        }
        // A plain load first: nothing in-tree wakes from another thread,
        // so the read-modify-write runs only when a foreign wake landed.
        // The swap keeps the Acquire that pairs with `wake_task`'s
        // Release store; the Relaxed pre-check reads no data through the
        // flag, and a store it misses is seen by the next drain, as one
        // landing just after the swap always was.
        let wake_list = &self.shared.wake_list;
        if wake_list.remote_dirty.load(Ordering::Relaxed)
            && wake_list.remote_dirty.swap(false, Ordering::Acquire)
        {
            let remote = std::mem::take(&mut *wake_list.remote.lock().expect("wake list poisoned"));
            for id in remote {
                self.enqueue_woken(id);
            }
        }
    }

    fn enqueue_woken(&mut self, id: usize) {
        // Stale wakes for completed tasks are ignored.
        if id < self.tasks.len() && self.tasks[id].is_some() && !self.queued[id] {
            self.queued[id] = true;
            self.ready.push_back(id);
        }
    }

    fn poll_task(&mut self, id: usize) {
        self.polls.set(self.polls.get() + 1);
        // Poll in place: the future stays in its slot (nothing a task can
        // reach re-enters `Sim`, so the slot is stable across the poll),
        // and the cached waker is shared by every poll of this slot.
        let poll = {
            let Some(fut) = self.tasks[id].as_mut() else {
                return;
            };
            let mut cx = Context::from_waker(&self.wakers[id]);
            fut.as_mut().poll(&mut cx)
        };
        if poll.is_ready() {
            self.tasks[id] = None;
            self.free.push(id);
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Parked tasks may own guards whose destructors read the virtual
        // clock (telemetry spans, probe scopes). Enter the sim context so
        // those destructors run *inside* the simulation at its final
        // time, exactly as they would had the task completed normally.
        let _guard = enter(self.shared.clone());
        self.tasks.clear();
        self.shared.spawned.borrow_mut().clear();
    }
}

fn spawn_on<T: 'static>(
    shared: &Rc<SimShared>,
    fut: impl Future<Output = T> + 'static,
    root: bool,
) -> JoinHandle<T> {
    let (tx, rx) = oneshot::oneshot();
    if root {
        shared.live_roots.set(shared.live_roots.get() + 1);
    }
    shared.spawned.borrow_mut().push(Box::pin(async move {
        let value = fut.await;
        if root {
            with_shared(|s| s.live_roots.set(s.live_roots.get() - 1));
        }
        let _ = tx.send(value);
    }));
    shared.has_spawned.set(true);
    JoinHandle { rx }
}

/// Handle to a spawned task; awaiting it yields the task's output.
pub struct JoinHandle<T> {
    rx: oneshot::OneshotReceiver<T>,
}

impl<T> JoinHandle<T> {
    /// Whether awaiting this handle would complete at once: the task
    /// returned, or was cancelled (its simulation dropped it). Reads the
    /// handle's state; polls nothing.
    pub fn is_finished(&self) -> bool {
        self.rx.is_resolved()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        match Pin::new(&mut self.rx).poll(cx) {
            Poll::Ready(Ok(v)) => Poll::Ready(v),
            Poll::Ready(Err(_)) => panic!("joined task was cancelled (simulation ended early?)"),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Runs `fut` as the root task of a fresh simulation and returns its value.
///
/// Spawns `fut` at virtual time zero, runs to quiescence — the same polls
/// and clock advances as `Sim::new()` + [`Sim::spawn`] + [`Sim::run`] —
/// then drops the simulation, which cancels every task still parked, and
/// hands back the root's output. Hold a [`Sim`] directly only when the
/// caller needs the handle itself (`run_until`, `polls`, a domain root).
///
/// # Panics
/// As [`Sim::run`]: if the simulation quiesces while the root task is
/// still parked.
pub fn block_on<T: 'static>(fut: impl Future<Output = T> + 'static) -> T {
    let mut sim = Sim::new();
    let mut root = sim.spawn(fut);
    sim.run();
    drop(sim);
    match Pin::new(&mut root).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(value) => value,
        Poll::Pending => unreachable!("Sim::run returned, so the root finished"),
    }
}

/// Spawns a task on the currently running simulation.
///
/// # Panics
/// Panics when called outside [`Sim::run`].
pub fn spawn<T: 'static>(fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
    CURRENT.with(|c| {
        let cur = c.borrow();
        let shared = cur
            .as_ref()
            .expect("dpdpu-des: spawn() called outside a running Sim");
        spawn_on(shared, fut, false)
    })
}

/// Current virtual time of the running simulation, in nanoseconds.
///
/// # Panics
/// Panics when called outside [`Sim::run`].
pub fn now() -> Time {
    with_shared(|s| s.now.get())
}

/// Like [`now`], but returns `None` instead of panicking when called
/// outside a running simulation. Useful for components (fault windows,
/// circuit breakers) that are also exercised from plain unit tests.
pub fn try_now() -> Option<Time> {
    CURRENT.with(|c| c.borrow().as_ref().map(|s| s.now.get()))
}

/// Future returned by [`sleep`] / [`sleep_until`].
///
/// The first pending poll arms one timer. A spurious re-poll through the
/// same waker (a `timeout`/`race` whose sibling progressed) keeps it; a
/// different waker (the sleep moved to another task, or an adaptor wrapped
/// the waker) re-arms it. Completing or dropping the sleep cancels a timer
/// that has not fired, so it wakes no one.
pub struct Sleep {
    when: When,
    armed: Option<Armed>,
}

#[derive(Clone, Copy)]
enum When {
    /// A relative sleep not yet polled: its deadline counts from the
    /// first poll.
    After(Time),
    At(Time),
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        with_shared(|shared| {
            let now = shared.now.get();
            let deadline = match self.when {
                When::At(t) => t,
                When::After(ns) => {
                    let t = now.saturating_add(ns);
                    self.when = When::At(t);
                    t
                }
            };
            if now >= deadline {
                // Fired, or overtaken at this instant by a same-deadline
                // timer armed earlier: either way its key must not wake
                // the task again.
                if let Some(armed) = self.armed.take() {
                    shared.disarm(armed);
                }
                return Poll::Ready(());
            }
            if !self.armed.is_some_and(|a| shared.wakes(a, cx.waker())) {
                if let Some(old) = self.armed.take() {
                    shared.disarm(old);
                }
                self.armed = Some(shared.arm(deadline, cx.waker()));
            }
            Poll::Pending
        })
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(armed) = self.armed {
            // Outside its own simulation (another one entered, or none)
            // a sleep touches nothing.
            let _ = CURRENT.try_with(|c| {
                if let Some(shared) = c.borrow().as_ref() {
                    shared.disarm(armed);
                }
            });
        }
    }
}

/// Parks `waker` in `slot` for a pending poll. A stored waker that
/// already wakes the same task is kept: re-polls by one task (the
/// common case, through its slot's cached waker) clone no `Arc`.
pub(crate) fn store_waker(slot: &mut Option<Waker>, waker: &Waker) {
    if !slot.as_ref().is_some_and(|w| w.will_wake(waker)) {
        *slot = Some(waker.clone());
    }
}

/// Suspends the current task for `ns` nanoseconds of virtual time.
pub fn sleep(ns: Time) -> Sleep {
    Sleep {
        when: When::After(ns),
        armed: None,
    }
}

/// Suspends the current task until absolute virtual time `t` (no-op if `t`
/// is in the past).
pub fn sleep_until(t: Time) -> Sleep {
    Sleep {
        when: When::At(t),
        armed: None,
    }
}

/// Yields to other runnable tasks without advancing time.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn empty_sim_finishes_at_zero() {
        let mut sim = Sim::new();
        assert_eq!(sim.run(), 0);
    }

    #[test]
    fn sleep_advances_clock() {
        let mut sim = Sim::new();
        sim.spawn(async {
            sleep(500).await;
            assert_eq!(now(), 500);
            sleep(250).await;
            assert_eq!(now(), 750);
        });
        assert_eq!(sim.run(), 750);
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let mut sim = Sim::new();
        let h = sim.spawn(async {
            sleep(0).await;
            now()
        });
        let check = sim.spawn(async move { assert_eq!(h.await, 0) });
        sim.run();
        drop(check);
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for (i, delay) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let order = order.clone();
            sim.spawn(async move {
                sleep(delay).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
    }

    #[test]
    fn timer_ties_fire_in_registration_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for i in 0..8 {
            let order = order.clone();
            sim.spawn(async move {
                sleep(100).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn nested_spawn_and_join() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let h = spawn(async {
                sleep(100).await;
                42
            });
            assert_eq!(h.await, 42);
            assert_eq!(now(), 100);
        });
        assert_eq!(sim.run(), 100);
    }

    #[test]
    fn sleep_until_past_is_noop() {
        let mut sim = Sim::new();
        sim.spawn(async {
            sleep(100).await;
            sleep_until(50).await; // already past
            assert_eq!(now(), 100);
            sleep_until(200).await;
            assert_eq!(now(), 200);
        });
        assert_eq!(sim.run(), 200);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new();
        sim.spawn(async {
            sleep(1_000_000).await;
        });
        assert_eq!(sim.run_until(500), 500);
        // Resuming finishes the pending sleep.
        assert_eq!(sim.run(), 1_000_000);
    }

    #[test]
    fn yield_now_does_not_advance_time() {
        let mut sim = Sim::new();
        sim.spawn(async {
            for _ in 0..10 {
                yield_now().await;
            }
            assert_eq!(now(), 0);
        });
        assert_eq!(sim.run(), 0);
    }

    #[test]
    fn task_slots_are_reused() {
        let mut sim = Sim::new();
        sim.spawn(async {
            for _ in 0..100 {
                spawn(async { sleep(1).await }).await;
            }
        });
        sim.run();
        assert!(
            sim.tasks.len() < 10,
            "slots should be recycled, got {}",
            sim.tasks.len()
        );
    }

    #[test]
    fn join_handle_is_finished_once_the_task_returns_or_is_cancelled() {
        let mut sim = Sim::new();
        let quick = sim.spawn(sleep(100));
        let parked = sim.spawn(std::future::pending::<()>());
        assert!(!quick.is_finished() && !parked.is_finished());
        sim.run_until(50);
        assert!(!quick.is_finished(), "still sleeping");
        sim.run_until(100);
        assert!(quick.is_finished());
        assert!(!parked.is_finished(), "parked for good, not finished");
        drop(sim);
        assert!(parked.is_finished(), "cancelled by the simulation's drop");
    }

    #[test]
    fn block_on_returns_the_roots_value() {
        let v = block_on(async {
            let h = spawn(async {
                sleep(100).await;
                40
            });
            h.await + 2
        });
        assert_eq!(v, 42);
    }

    /// Records the virtual time at which it is dropped.
    struct DroppedAt(Rc<Cell<Option<Time>>>);

    impl Drop for DroppedAt {
        fn drop(&mut self) {
            self.0.set(Some(now()));
        }
    }

    #[test]
    fn block_on_cancels_background_tasks_at_return() {
        let dropped = Rc::new(Cell::new(None));
        let guard = DroppedAt(dropped.clone());
        block_on(async move {
            spawn(async move {
                let _guard = guard;
                std::future::pending::<()>().await;
            });
            sleep(500).await;
        });
        assert_eq!(
            dropped.get(),
            Some(500),
            "the parked task is dropped inside the simulation at its final time"
        );
    }

    #[test]
    #[should_panic(expected = "quiesced before the root task finished")]
    fn block_on_panics_when_the_root_deadlocks() {
        block_on(async {
            let (tx, mut rx) = crate::channel::<()>();
            rx.recv().await;
            drop(tx);
        });
    }

    /// The same rule for the hand-rolled harness: `Sim::run` itself
    /// refuses to return past a parked root.
    #[test]
    #[should_panic(expected = "quiesced before the root task finished")]
    fn run_panics_when_a_spawned_root_deadlocks() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let (tx, mut rx) = crate::channel::<()>();
            rx.recv().await;
            drop(tx);
        });
        sim.run();
    }

    /// Polls `fut`, counting every poll into `polls`.
    async fn counted<T>(polls: Rc<Cell<u64>>, fut: impl Future<Output = T>) -> T {
        let mut fut = std::pin::pin!(fut);
        std::future::poll_fn(|cx| {
            polls.set(polls.get() + 1);
            fut.as_mut().poll(cx)
        })
        .await
    }

    /// Timers, a contended [`crate::Server`], a channel, a straggler that
    /// outlives the root and a task parked for good; every task counts
    /// its polls into `polls`.
    async fn workload(polls: Rc<Cell<u64>>, end: Rc<Cell<Option<Time>>>) -> Time {
        let cpu = crate::Server::new("cpu", 1);
        let (tx, mut rx) = crate::channel::<Time>();
        for i in 0..4u64 {
            let (cpu, tx) = (cpu.clone(), tx.clone());
            spawn(counted(polls.clone(), async move {
                sleep(10 * i).await;
                cpu.process(25).await;
                let _ = tx.send(now());
            }));
        }
        spawn(counted(polls.clone(), sleep(1_000)));
        spawn(counted(polls.clone(), async move {
            let _guard = DroppedAt(end);
            let _tx = tx; // keeps the channel open: the root stops by count
            std::future::pending::<()>().await;
        }));
        let mut sum = 0;
        for _ in 0..4 {
            sum += rx.recv().await.expect("four workers report");
        }
        sum
    }

    #[test]
    fn block_on_polls_and_clock_match_the_spawn_run_spelling() {
        let (polls_a, end_a) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(None)));
        let mut sim = Sim::new();
        sim.spawn(counted(
            polls_a.clone(),
            workload(polls_a.clone(), end_a.clone()),
        ));
        let end = sim.run();
        assert_eq!(sim.polls(), polls_a.get(), "every poll is counted");
        drop(sim);
        assert_eq!(end_a.get(), Some(end));

        let (polls_b, end_b) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(None)));
        let sum = block_on(counted(
            polls_b.clone(),
            workload(polls_b.clone(), end_b.clone()),
        ));
        assert_eq!(sum, 25 + 50 + 75 + 100);
        assert_eq!(polls_b.get(), polls_a.get());
        assert_eq!(end_b.get(), Some(1_000));
        assert_eq!(end_b.get(), end_a.get());
    }

    /// A `timeout` re-polled on every inner step keeps the timer it armed
    /// first: no cancel-and-re-arm per spurious poll. `Sim::pending_timers`
    /// counts live timers only and cannot see that, so this reads the heap
    /// keys and the arm count.
    #[test]
    fn spurious_repolls_arm_no_new_timer() {
        let steps = 1_000u64;
        let mut sim = Sim::new();
        sim.spawn(async move {
            let r = crate::timeout(1_000_000, async {
                for _ in 0..steps {
                    sleep(1).await;
                }
            })
            .await;
            assert!(r.is_ok(), "inner future beats the deadline");
        });
        sim.run_until(steps / 2);
        let timers = sim.shared.timers.borrow();
        assert_eq!(timers.keys(), 2, "the deadline and the inner sleep");
        // Inner sleeps 1..=501 (the last armed at 500), plus the deadline.
        assert_eq!(timers.arms(), steps / 2 + 2, "the deadline was re-armed");
    }

    #[test]
    fn many_tasks_same_deadline_deterministic_end() {
        let mut sim1 = Sim::new();
        let mut sim2 = Sim::new();
        for sim in [&mut sim1, &mut sim2] {
            for i in 0..1000u64 {
                sim.spawn(async move {
                    sleep(i % 17).await;
                    sleep(i % 5).await;
                });
            }
        }
        assert_eq!(sim1.run(), sim2.run());
    }
}
