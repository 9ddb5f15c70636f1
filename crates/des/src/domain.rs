//! # Conservative parallel time domains
//!
//! Partitions a simulation into independent [`Sim`]s — one *time domain*
//! per shard platform — that run on worker threads and only interact
//! through latency-stamped inter-domain channels. A conservative
//! (Chandy–Misra–Bryant-style) synchronizer advances each domain to the
//! minimum of its neighbours' promised clocks plus the per-link lookahead,
//! so a domain never receives an event from its own past and the merged
//! event order is a pure function of (topology, seeds) — **independent of
//! thread count**. `DomainSet::run(jobs=1)` and `run(jobs=N)` replay
//! byte-identically.
//!
//! ## The synchronization protocol
//!
//! * Every cross-domain link has a positive `latency` — the lookahead. A
//!   message sent at local time `t` arrives stamped `t + latency`.
//! * Each domain publishes a **promise**: a monotone lower bound on the
//!   timestamp of anything it may still send. The promise is
//!   `min(next local timer, earliest unauthorized inbound message, EIT)`,
//!   where `EIT = min over in-links (promise(src) + latency)` is the
//!   earliest input time — the horizon below which the domain's input is
//!   complete.
//! * A domain may freely process local timers and deliver inbound
//!   messages with timestamps strictly below its EIT. Deliveries happen
//!   at exact event times (`Sim::advance_to`), messages at `t` are
//!   delivered before local timers at `t`, and same-timestamp deliveries
//!   across links are ordered by global link id — three fixed conventions
//!   that make the merged order independent of how work was sliced across
//!   synchronization rounds.
//! * When no thread can make progress from the promises alone (e.g. a
//!   ring of idle domains waiting on one far-future timer), a global
//!   relaxation computes the greatest fixed point of the promise
//!   equations directly — the shortest-path closure of local event
//!   bounds over link latencies — instead of iterating `+latency` steps.
//! * Termination is exact: the set is done when every domain is
//!   quiescent (no timers, no runnable tasks) and no sent message is
//!   still unauthorized. Parked receivers are dropped at teardown, just
//!   like parked tasks when a serial [`Sim::run`] returns.
//!
//! Soundness turns into a *checked* invariant: an inbound message stamped
//! at or before the receiver's clock means the sender broke its promise
//! (or someone forged a timestamp), and the driver panics with a
//! "lookahead violation" — the meta-test for the whole scheme.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

use crate::executor::{now, Sim};
use crate::time::Time;

/// Per-domain lifecycle callbacks, so higher layers (telemetry, the
/// conformance checker) can bind thread-local sessions to a domain
/// without this crate depending on them.
///
/// `enter`/`exit` bracket every slice of domain execution on the worker
/// thread (multiple domains can share one thread, so sessions must swap
/// in and out). `finish` runs once, *entered*, after the domain's `Sim`
/// has been dropped — the place to finalize sessions and export results.
pub trait DomainHooks {
    /// Called before the domain's tasks run on the current thread.
    fn enter(&mut self) {}
    /// Called after the domain's tasks yield the current thread.
    fn exit(&mut self) {}
    /// Called once at teardown, entered, just before the `Sim` drops —
    /// the last chance to read executor-level statistics (final clock,
    /// poll count) out of the live simulation.
    fn before_teardown(&mut self, _sim: &Sim) {}
    /// Called once at teardown, after `enter` and the `Sim` drop.
    fn finish(self: Box<Self>) {}
}

/// Hooks that do nothing — for domains without per-domain sessions.
pub struct NoHooks;

impl DomainHooks for NoHooks {}

/// Global synchronizer state shared by every worker thread.
struct SyncState {
    /// Monotone per-domain lower bounds on future send timestamps.
    promises: Vec<Time>,
    /// Per-domain lower bound on the next *local* timer (`Time::MAX`
    /// when none; 0 until the domain's first pass publishes one).
    timer_floor: Vec<Time>,
    /// Earliest unauthorized inbound timestamp per *receiving* domain
    /// (`Time::MAX` when none). Maintained under this lock from both
    /// sides: every [`XSender::push`] mins its stamped timestamp in via
    /// `note_send`, and the receiving domain overwrites the entry with a
    /// fresh queue scan at the end of each pass. Keeping it here — not
    /// derived from unlocked queue scans — is what makes a promise
    /// computation unable to miss a message that was sent while the
    /// scan ran.
    inbound: Vec<Time>,
    /// Whether each domain still has local work (timers or runnables).
    pending: Vec<bool>,
    /// Messages pushed to links but not yet authorized by their
    /// receiving domain. Termination requires zero: a quiescent domain
    /// with an unauthorized inbound message is not done, it is waiting.
    queued_unauth: u64,
    /// Bumped on every state change another thread might act on.
    generation: u64,
    /// Worker threads currently blocked on the condvar.
    waiting: usize,
    done: bool,
}

struct SyncShared {
    state: Mutex<SyncState>,
    cv: Condvar,
}

impl SyncShared {
    fn lock(&self) -> MutexGuard<'_, SyncState> {
        // A worker that panicked mid-update (a lookahead violation fires
        // inside `segment`, not under this lock) poisons nothing we
        // can't still read to shut down.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn note_send(&self, to: usize, ts: Time) {
        let mut s = self.lock();
        s.inbound[to] = s.inbound[to].min(ts);
        s.queued_unauth += 1;
        s.generation = s.generation.wrapping_add(1);
        if s.waiting > 0 {
            self.cv.notify_all();
        }
    }
}

/// One direction of an inter-domain channel.
struct LinkShared<T> {
    q: Mutex<VecDeque<(Time, T)>>,
    /// Authorization watermark: the receiving *tasks* may pop entries
    /// with `ts <= auth`; everything above is invisible to them until
    /// the domain driver has advanced the clock to the entry's time.
    auth: AtomicU64,
    /// Bumped after every push; lets the driver cache the queue scan.
    version: AtomicU64,
    waker: Mutex<Option<Waker>>,
    latency: Time,
}

/// Driver-side view of an inbound link, type-erased over the payload.
trait InPort: Send {
    /// Earliest timestamp above the authorization watermark, if any.
    fn unauth_front(&self) -> Option<Time>;
    /// Raises the watermark to `ts`, wakes the receiver, and returns how
    /// many entries became visible. Full scan on purpose: the queue is
    /// sorted only if every sender honoured its promise, which is
    /// exactly what we must not assume.
    fn authorize_upto(&self, ts: Time) -> u64;
    fn version(&self) -> u64;
}

impl<T: Send> InPort for Arc<LinkShared<T>> {
    fn unauth_front(&self) -> Option<Time> {
        let auth = self.auth.load(Ordering::Acquire);
        self.q
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|&(ts, _)| ts)
            .filter(|&ts| ts > auth)
            .min()
    }

    fn authorize_upto(&self, ts: Time) -> u64 {
        let prev = self.auth.load(Ordering::Acquire);
        let q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        let n = q.iter().filter(|&&(t, _)| t > prev && t <= ts).count() as u64;
        self.auth.store(prev.max(ts), Ordering::Release);
        drop(q);
        if n > 0 {
            if let Some(w) = self.waker.lock().unwrap_or_else(|e| e.into_inner()).take() {
                w.wake();
            }
        }
        n
    }

    fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

/// Sending half of an inter-domain channel. Clonable; sends are
/// immediate and stamped `now() + latency`.
pub struct XSender<T> {
    link: Arc<LinkShared<T>>,
    sync: Arc<SyncShared>,
    /// Receiving domain index — `note_send` needs it to floor the
    /// receiver's `inbound` bound under the synchronizer lock.
    to: usize,
}

impl<T> Clone for XSender<T> {
    fn clone(&self) -> Self {
        XSender {
            link: self.link.clone(),
            sync: self.sync.clone(),
            to: self.to,
        }
    }
}

impl<T: Send> XSender<T> {
    /// Sends `value` to the peer domain; it arrives at
    /// `now() + latency`. Must be called from inside a running domain.
    pub fn send(&self, value: T) {
        self.push(now().saturating_add(self.link.latency), value);
    }

    /// Test hook: forge an arrival timestamp, bypassing the latency
    /// stamp. This is how the meta-test plants a lookahead violation and
    /// proves the synchronizer catches it.
    #[doc(hidden)]
    pub fn send_with_timestamp(&self, ts: Time, value: T) {
        self.push(ts, value);
    }

    fn push(&self, ts: Time, value: T) {
        {
            let mut q = self.link.q.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back((ts, value));
            self.link.version.fetch_add(1, Ordering::Release);
        }
        self.sync.note_send(self.to, ts);
    }
}

/// Receiving half of an inter-domain channel. Single consumer.
pub struct XReceiver<T> {
    link: Arc<LinkShared<T>>,
}

impl<T: Send> XReceiver<T> {
    /// Waits for the next authorized message. There is no close
    /// signal: a receiver whose senders went quiet simply stays parked
    /// and is dropped at teardown, exactly like a task awaiting a timer
    /// that never fires in a serial [`Sim`]. (A wall-clock-timed close
    /// edge would be observable — and nondeterministic.)
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { link: &self.link }
    }
}

/// Future returned by [`XReceiver::recv`].
pub struct Recv<'a, T> {
    link: &'a LinkShared<T>,
}

impl<T: Send> std::future::Future for Recv<'_, T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        // No lost-wakeup race here: `authorize_upto` runs on this same
        // thread (the domain driver), never concurrently with a poll.
        let auth = self.link.auth.load(Ordering::Acquire);
        let mut q = self.link.q.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = q.iter().position(|&(ts, _)| ts <= auth) {
            let (_, value) = q.remove(pos).expect("position came from this queue");
            return Poll::Ready(value);
        }
        drop(q);
        *self.link.waker.lock().unwrap_or_else(|e| e.into_inner()) = Some(cx.waker().clone());
        Poll::Pending
    }
}

struct InLink {
    /// Global creation-order id — the deterministic tie-break for
    /// same-timestamp deliveries across links.
    id: usize,
    from: usize,
    latency: Time,
    port: Box<dyn InPort>,
    /// Cached `unauth_front` result, valid while `version` matches and
    /// no authorization invalidated it — scanning every queue between
    /// consecutive timer fires would otherwise dominate the driver.
    cache_version: u64,
    cache: Option<Time>,
    cache_valid: bool,
}

impl InLink {
    fn front(&mut self) -> Option<Time> {
        let v = self.port.version();
        if !self.cache_valid || v != self.cache_version {
            self.cache = self.port.unauth_front();
            self.cache_version = v;
            self.cache_valid = true;
        }
        self.cache
    }

    fn authorize(&mut self, ts: Time) -> u64 {
        self.cache_valid = false;
        self.port.authorize_upto(ts)
    }
}

type DomainSetup = Box<dyn FnOnce() -> (Sim, Box<dyn DomainHooks>) + Send>;

struct DomainSlot {
    name: String,
    setup: Option<DomainSetup>,
    in_links: Vec<InLink>,
}

/// A set of time domains plus the links between them. Build the
/// topology first (`add_domain`, `link`), install each domain's root
/// (`set_root` — the closure runs *on the worker thread* so thread-local
/// sessions it installs belong to the domain), then [`DomainSet::run`].
pub struct DomainSet {
    domains: Vec<DomainSlot>,
    sync: Arc<SyncShared>,
    next_link: usize,
}

impl Default for DomainSet {
    fn default() -> Self {
        Self::new()
    }
}

impl DomainSet {
    pub fn new() -> Self {
        DomainSet {
            domains: Vec::new(),
            sync: Arc::new(SyncShared {
                state: Mutex::new(SyncState {
                    promises: Vec::new(),
                    timer_floor: Vec::new(),
                    inbound: Vec::new(),
                    pending: Vec::new(),
                    queued_unauth: 0,
                    generation: 0,
                    waiting: 0,
                    done: false,
                }),
                cv: Condvar::new(),
            }),
            next_link: 0,
        }
    }

    /// Adds a domain and returns its index.
    pub fn add_domain(&mut self, name: impl Into<String>) -> usize {
        {
            let mut s = self.sync.lock();
            s.promises.push(0);
            s.timer_floor.push(0);
            s.inbound.push(Time::MAX);
            s.pending.push(true);
        }
        self.domains.push(DomainSlot {
            name: name.into(),
            setup: None,
            in_links: Vec::new(),
        });
        self.domains.len() - 1
    }

    /// Creates a directed channel `from → to` with the given latency.
    /// The latency must be positive: it *is* the conservative lookahead,
    /// and a zero-latency link would force the domains into lockstep.
    pub fn link<T: Send + 'static>(
        &mut self,
        from: usize,
        to: usize,
        latency: Time,
    ) -> (XSender<T>, XReceiver<T>) {
        assert!(
            latency > 0,
            "cross-domain links need a positive latency: it is the conservative lookahead"
        );
        assert!(from < self.domains.len(), "unknown source domain {from}");
        assert!(to < self.domains.len(), "unknown target domain {to}");
        assert_ne!(from, to, "links connect distinct domains");
        let link = Arc::new(LinkShared::<T> {
            q: Mutex::new(VecDeque::new()),
            auth: AtomicU64::new(0),
            version: AtomicU64::new(0),
            waker: Mutex::new(None),
            latency,
        });
        let id = self.next_link;
        self.next_link += 1;
        self.domains[to].in_links.push(InLink {
            id,
            from,
            latency,
            port: Box::new(link.clone()),
            cache_version: 0,
            cache: None,
            cache_valid: false,
        });
        (
            XSender {
                link: link.clone(),
                sync: self.sync.clone(),
                to,
            },
            XReceiver { link },
        )
    }

    /// Installs the domain's root. The closure runs on the worker thread
    /// that hosts the domain; it must create the [`Sim`] (spawning the
    /// root tasks) and may install thread-local sessions first so the
    /// `Sim`'s epoch lands inside them. The hooks re-enter/exit those
    /// sessions around every execution slice.
    pub fn set_root(
        &mut self,
        domain: usize,
        setup: impl FnOnce() -> (Sim, Box<dyn DomainHooks>) + Send + 'static,
    ) {
        self.domains[domain].setup = Some(Box::new(setup));
    }

    /// Runs every domain to completion on `jobs` worker threads
    /// (clamped to the domain count; `jobs = 1` is the serial
    /// reference) and returns each domain's final virtual time. Domains
    /// are assigned round-robin, and even `jobs = 1` uses a worker
    /// thread, so thread-local state behaves identically at every job
    /// count. Panics inside a domain (including lookahead violations)
    /// are resumed on the caller.
    pub fn run(mut self, jobs: usize) -> Vec<Time> {
        let n = self.domains.len();
        if n == 0 {
            return Vec::new();
        }
        let threads = jobs.clamp(1, n);
        // The static topology, for the relaxation pass: (from, to, latency).
        let topo: Arc<Vec<(usize, usize, Time)>> = Arc::new(
            self.domains
                .iter()
                .enumerate()
                .flat_map(|(to, d)| d.in_links.iter().map(move |l| (l.from, to, l.latency)))
                .collect(),
        );
        let mut buckets: Vec<Vec<(usize, DomainSlot)>> = (0..threads).map(|_| Vec::new()).collect();
        for (idx, mut slot) in self.domains.drain(..).enumerate() {
            // Deterministic same-timestamp merge order needs the links
            // scanned in global-id order.
            slot.in_links.sort_by_key(|l| l.id);
            buckets[idx % threads].push((idx, slot));
        }
        let finals: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let sync = &self.sync;
        let results: Vec<std::thread::Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    let sync = sync.clone();
                    let topo = topo.clone();
                    let finals = &finals;
                    scope.spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| worker(bucket, &sync, &topo, finals)))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("worker panics are caught inside the worker")
                })
                .collect()
        });
        for r in results {
            if let Err(payload) = r {
                resume_unwind(payload);
            }
        }
        finals.iter().map(|t| t.load(Ordering::Acquire)).collect()
    }
}

/// One domain resident on a worker thread.
struct DomainRt {
    idx: usize,
    name: String,
    sim: Sim,
    hooks: Box<dyn DomainHooks>,
    in_links: Vec<InLink>,
}

fn worker(
    bucket: Vec<(usize, DomainSlot)>,
    sync: &SyncShared,
    topo: &[(usize, usize, Time)],
    finals: &[AtomicU64],
) {
    // If this worker panics (setup failure, lookahead violation, a task
    // panic inside a domain), release every other thread so `run` can
    // join them and resume the payload.
    struct Bailout<'a>(&'a SyncShared);
    impl Drop for Bailout<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let mut s = self.0.lock();
                s.done = true;
                self.0.cv.notify_all();
            }
        }
    }
    let _bail = Bailout(sync);

    let mut rts: Vec<DomainRt> = bucket
        .into_iter()
        .map(|(idx, slot)| {
            let setup = slot
                .setup
                .expect("every domain needs a root: call set_root");
            let (sim, mut hooks) = setup();
            hooks.exit();
            DomainRt {
                idx,
                name: slot.name,
                sim,
                hooks,
                in_links: slot.in_links,
            }
        })
        .collect();

    loop {
        let (gen, done) = {
            let s = sync.lock();
            (s.generation, s.done)
        };
        if done {
            break;
        }
        let mut progress = false;
        for rt in &mut rts {
            progress |= pass(rt, sync);
        }
        {
            let mut s = sync.lock();
            if s.done {
                break;
            }
            if progress {
                continue;
            }
            if relax(&mut s, topo) {
                if s.waiting > 0 {
                    sync.cv.notify_all();
                }
                continue;
            }
            if s.generation != gen {
                continue;
            }
            // Park until some other thread changes the world. There is
            // no "all threads waiting ⇒ done" shortcut on purpose: a
            // parked thread may hold a wake that simply hasn't been
            // scheduled yet, so `waiting == threads` proves nothing.
            // Termination is exclusively the pass-level check — all
            // domains quiescent and no unauthorized message in flight —
            // and liveness is the relaxation's fixed point, below which
            // the globally earliest event is always strictly deliverable
            // (every other domain's bound sits at least one link latency
            // above it).
            s.waiting += 1;
            while !s.done && s.generation == gen {
                s = sync.cv.wait(s).unwrap_or_else(|e| e.into_inner());
            }
            s.waiting -= 1;
            if s.done {
                break;
            }
        }
    }

    for mut rt in rts {
        finals[rt.idx].store(rt.sim.now(), Ordering::Release);
        // Teardown runs entered: dropping the `Sim` drops parked tasks,
        // whose destructors may emit probe events that must land in the
        // domain's own session.
        rt.hooks.enter();
        rt.hooks.before_teardown(&rt.sim);
        drop(rt.sim);
        rt.hooks.finish();
    }
}

/// One execution slice of one domain: compute the EIT, run everything
/// strictly below it, then republish the promise and the termination
/// bookkeeping. Returns whether anything happened.
fn pass(rt: &mut DomainRt, sync: &SyncShared) -> bool {
    let eit = {
        let s = sync.lock();
        rt.in_links
            .iter()
            .map(|l| s.promises[l.from].saturating_add(l.latency))
            .min()
            .unwrap_or(Time::MAX)
    };
    let polls_before = rt.sim.polls();
    rt.hooks.enter();
    let outcome = catch_unwind(AssertUnwindSafe(|| segment(rt, eit)));
    rt.hooks.exit();
    let delivered = match outcome {
        Ok(d) => d,
        Err(payload) => resume_unwind(payload),
    };
    let mut progress = delivered > 0 || rt.sim.polls() != polls_before;

    let timer_floor = rt.sim.next_timer_deadline().unwrap_or(Time::MAX);
    let pending = rt.sim.pending_timers() > 0 || rt.sim.has_runnable();

    let mut s = sync.lock();
    // Re-scan the inbound fronts *under the synchronizer lock*. A scan
    // taken before acquiring it can miss a message a peer sent while the
    // segment ran — and whose sender then raised its own promise past
    // the send time — letting this domain publish a promise above an
    // event it still has to execute. Under the lock, any completed
    // `note_send` is ordered before us (its push is visible to the
    // scan), and a send still racing for the lock re-mins `inbound`
    // right after; until then the sender's published promise still
    // bounds that message. Overwriting (not min-ing) is what lets the
    // bound rise again once messages are delivered. No lock-order
    // inversion: senders release the queue lock before `note_send`.
    let mut front = Time::MAX;
    for l in rt.in_links.iter_mut() {
        if let Some(f) = l.front() {
            front = front.min(f);
        }
    }
    s.inbound[rt.idx] = front;
    s.timer_floor[rt.idx] = timer_floor;
    let base = timer_floor.min(front);
    s.queued_unauth -= delivered;
    let eit_now = rt
        .in_links
        .iter()
        .map(|l| s.promises[l.from].saturating_add(l.latency))
        .min()
        .unwrap_or(Time::MAX);
    // Promises are clamped monotone: a forged timestamp must not let a
    // domain walk its promise backwards and "legalize" the violation.
    let p = base.min(eit_now).max(s.promises[rt.idx]);
    if p != s.promises[rt.idx] {
        s.promises[rt.idx] = p;
        s.generation = s.generation.wrapping_add(1);
        progress = true;
        if s.waiting > 0 {
            sync.cv.notify_all();
        }
    }
    s.pending[rt.idx] = pending;
    if !s.done && s.queued_unauth == 0 && !s.pending.iter().any(|&b| b) {
        s.done = true;
        sync.cv.notify_all();
    }
    progress
}

/// Interleaves local timers and inbound deliveries strictly below `eit`,
/// in timestamp order, with messages-before-timers at equal times. The
/// clock only ever lands on *actual* event times (`run_until` to a real
/// timer deadline, `advance_to` to a real message timestamp) — never on
/// an EIT-derived bound — so the probe stream cannot pick up values that
/// depend on how rounds were sliced.
fn segment(rt: &mut DomainRt, eit: Time) -> u64 {
    let mut delivered = 0u64;
    loop {
        // Quiesce at the current instant first: deliveries and timer
        // fires below may have woken tasks that send or sleep again.
        let t = rt.sim.now();
        rt.sim.run_until(t);
        let mut next_msg: Option<Time> = None;
        for l in rt.in_links.iter_mut() {
            if let Some(f) = l.front() {
                assert!(
                    f > rt.sim.now(),
                    "lookahead violation: domain '{}' holds an inbound event stamped t={f} \
                     on link {} from domain {} with its clock already at t={} — the sender \
                     broke its promise (forged timestamp or zero-lookahead path)",
                    rt.name,
                    l.id,
                    l.from,
                    rt.sim.now(),
                );
                if f < eit {
                    next_msg = Some(next_msg.map_or(f, |m| m.min(f)));
                }
            }
        }
        let next_timer = rt.sim.next_timer_deadline().filter(|&d| d < eit);
        match (next_msg, next_timer) {
            (None, None) => break,
            (Some(m), Some(d)) if d < m => {
                rt.sim.run_until(d);
            }
            (Some(m), _) => {
                rt.sim.advance_to(m);
                for l in rt.in_links.iter_mut() {
                    if l.front() == Some(m) {
                        delivered += l.authorize(m);
                    }
                }
            }
            (None, Some(d)) => {
                rt.sim.run_until(d);
            }
        }
    }
    delivered
}

/// Closes the promise equations `p(d) = min(base(d), min over in-links
/// (p(src) + latency))` to their greatest fixed point — a shortest-path
/// relaxation seeded from each domain's local event bound
/// `min(timer_floor, inbound)`, both maintained under the synchronizer
/// lock so in-flight messages are never invisible to the seed. Raises
/// any promise below the fixed point; returns whether anything rose.
/// This is what lets a ring of idle domains jump straight past a
/// far-future timer instead of exchanging `+latency` null-message steps
/// forever.
fn relax(s: &mut SyncState, topo: &[(usize, usize, Time)]) -> bool {
    let mut q: Vec<Time> = s
        .timer_floor
        .iter()
        .zip(s.inbound.iter())
        .map(|(&t, &i)| t.min(i))
        .collect();
    loop {
        let mut changed = false;
        for &(from, to, latency) in topo {
            let bound = q[from].saturating_add(latency);
            if bound < q[to] {
                q[to] = bound;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut any = false;
    for (p, &fixed) in s.promises.iter_mut().zip(q.iter()) {
        if fixed > *p {
            *p = fixed;
            any = true;
        }
    }
    if any {
        s.generation = s.generation.wrapping_add(1);
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{sleep, sleep_until};
    use std::fmt::Write as _;

    type Log = Arc<Mutex<String>>;

    fn log(slot: &Log, line: std::fmt::Arguments<'_>) {
        let mut s = slot.lock().unwrap();
        s.write_fmt(line).unwrap();
        s.push('\n');
    }

    /// Two domains ping-pong a counter; returns (logs, final times).
    fn ping_pong(jobs: usize) -> (Vec<String>, Vec<Time>) {
        let logs: Vec<Log> = (0..2)
            .map(|_| Arc::new(Mutex::new(String::new())))
            .collect();
        let mut set = DomainSet::new();
        let a = set.add_domain("a");
        let b = set.add_domain("b");
        let (ab_tx, mut ab_rx) = set.link::<u64>(a, b, 1_000);
        let (ba_tx, mut ba_rx) = set.link::<u64>(b, a, 500);
        let la = logs[0].clone();
        set.set_root(a, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                for i in 0..5u64 {
                    ab_tx.send(i);
                    let echo = ba_rx.recv().await;
                    log(&la, format_args!("a t={} echo={echo}", now()));
                }
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        let lb = logs[1].clone();
        set.set_root(b, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                loop {
                    let v = ab_rx.recv().await;
                    log(&lb, format_args!("b t={} got={v}", now()));
                    ba_tx.send(v * 10);
                }
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        let finals = set.run(jobs);
        let out = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
        (out, finals)
    }

    #[test]
    fn ping_pong_timing_and_values() {
        let (logs, finals) = ping_pong(2);
        // A sends at 0, B receives at 1000, echo arrives at 1500; each
        // round trip costs 1500 ns of virtual time.
        assert_eq!(
            logs[0],
            "a t=1500 echo=0\na t=3000 echo=10\na t=4500 echo=20\n\
             a t=6000 echo=30\na t=7500 echo=40\n"
        );
        assert_eq!(
            logs[1],
            "b t=1000 got=0\nb t=2500 got=1\nb t=4000 got=2\n\
             b t=5500 got=3\nb t=7000 got=4\n"
        );
        assert_eq!(finals, vec![7_500, 7_000]);
    }

    #[test]
    fn parallel_replays_serial_byte_identically() {
        let serial = ping_pong(1);
        for jobs in [2, 4] {
            assert_eq!(ping_pong(jobs), serial, "jobs={jobs} diverged from serial");
        }
    }

    /// A three-domain ring relaying a token with per-hop sleeps; checks
    /// the merged behaviour is identical at every thread count.
    fn ring(jobs: usize) -> Vec<String> {
        let n = 3;
        let logs: Vec<Log> = (0..n)
            .map(|_| Arc::new(Mutex::new(String::new())))
            .collect();
        let mut set = DomainSet::new();
        let ids: Vec<usize> = (0..n).map(|d| set.add_domain(format!("r{d}"))).collect();
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for d in 0..n {
            let (tx, rx) = set.link::<u64>(ids[d], ids[(d + 1) % n], 700 + d as Time * 13);
            txs.push(tx);
            rxs.push(rx);
        }
        for (d, mut rx) in rxs.into_iter().enumerate() {
            // rx here is the link *into* domain d+1.
            let to = (d + 1) % n;
            let tx = txs[to].clone();
            let l = logs[to].clone();
            set.set_root(ids[to], move || {
                let sim = Sim::new();
                sim.spawn(async move {
                    if to == 0 {
                        // Domain 0 starts the token.
                        tx.send(1);
                    }
                    loop {
                        let v = rx.recv().await;
                        log(&l, format_args!("d{to} t={} v={v}", now()));
                        if v >= 40 {
                            break;
                        }
                        sleep(100 + v * 3).await;
                        tx.send(v + 1);
                    }
                });
                (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
            });
        }
        set.run(jobs);
        logs.iter().map(|l| l.lock().unwrap().clone()).collect()
    }

    #[test]
    fn ring_is_thread_count_invariant() {
        let serial = ring(1);
        assert!(serial[0].lines().count() > 10, "ring should actually relay");
        for jobs in [2, 3] {
            assert_eq!(ring(jobs), serial, "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn parked_receivers_terminate() {
        // Both domains only wait on each other: nothing can ever happen,
        // and the set must detect that instead of deadlocking — the
        // parallel analogue of Sim::run returning with parked tasks.
        let mut set = DomainSet::new();
        let a = set.add_domain("a");
        let b = set.add_domain("b");
        let (_tx_ab, mut rx_ab) = set.link::<u8>(a, b, 100);
        let (_tx_ba, mut rx_ba) = set.link::<u8>(b, a, 100);
        set.set_root(a, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                let _ = rx_ba.recv().await;
                unreachable!("nobody sends to a");
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        set.set_root(b, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                let _ = rx_ab.recv().await;
                unreachable!("nobody sends to b");
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        assert_eq!(set.run(2), vec![0, 0]);
    }

    #[test]
    fn idle_ring_jumps_a_far_future_timer() {
        // One domain sleeps 10 ms before sending; two others form an
        // idle cycle with 100 ns lookahead. The relaxation must close
        // the promise fixed point directly instead of exchanging 100k
        // +latency null rounds.
        let mut set = DomainSet::new();
        let a = set.add_domain("a");
        let b = set.add_domain("b");
        let c = set.add_domain("c");
        let (ab_tx, mut ab_rx) = set.link::<u64>(a, b, 100);
        let (bc_tx, mut bc_rx) = set.link::<u64>(b, c, 100);
        let (_cb_tx, mut cb_rx) = set.link::<u64>(c, b, 100);
        let got = Arc::new(Mutex::new(Vec::new()));
        set.set_root(a, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                sleep_until(10_000_000).await;
                ab_tx.send(7);
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        let got_b = got.clone();
        set.set_root(b, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                let v = ab_rx.recv().await;
                got_b.lock().unwrap().push((now(), v));
                bc_tx.send(v + 1);
            });
            sim.spawn(async move {
                let _ = cb_rx.recv().await;
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        let got_c = got.clone();
        set.set_root(c, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                let v = bc_rx.recv().await;
                got_c.lock().unwrap().push((now(), v));
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        set.run(3);
        assert_eq!(
            *got.lock().unwrap(),
            vec![(10_000_000 + 100, 7), (10_000_000 + 200, 8)]
        );
    }

    fn violation_run(jobs: usize) {
        let mut set = DomainSet::new();
        let a = set.add_domain("forger");
        let b = set.add_domain("victim");
        let (tx, mut rx) = set.link::<u64>(a, b, 100_000);
        // Reverse link with a tiny lookahead: the forger cannot reach
        // its 1 ms timer until the victim's promise is past ~1 ms, which
        // guarantees the victim's clock is far beyond the forged stamp
        // when it lands — regardless of thread scheduling.
        let (_back_tx, _back_rx) = set.link::<u64>(b, a, 100);
        set.set_root(a, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                sleep(1_000_000).await;
                // Forged: stamped far in the victim's past.
                tx.send_with_timestamp(10, 7);
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        set.set_root(b, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                // Keep the victim's clock moving so the forged stamp is
                // unambiguously in its past when it lands.
                for _ in 0..40 {
                    sleep(50_000).await;
                }
                let _ = rx.recv().await;
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        set.run(jobs);
    }

    #[test]
    fn forged_timestamp_is_caught() {
        for jobs in [1, 2] {
            let err = catch_unwind(AssertUnwindSafe(|| violation_run(jobs)))
                .expect_err("a forged timestamp must not pass silently");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("lookahead violation"),
                "jobs={jobs}: wrong panic: {msg}"
            );
        }
    }

    #[test]
    fn advance_to_rejects_jumping_a_timer() {
        let mut sim = Sim::new();
        sim.spawn(async {
            sleep(500).await;
        });
        sim.run_until(0);
        assert_eq!(sim.next_timer_deadline(), Some(500));
        let err = catch_unwind(AssertUnwindSafe(|| sim.advance_to(600)));
        assert!(
            err.is_err(),
            "advance_to must not jump over a pending timer"
        );
    }
}
