//! # Conservative time domains
//!
//! Partitions a simulation into independent [`Sim`]s — one *time domain*
//! per shard platform — that only interact through latency-stamped
//! inter-domain channels. One driver loop runs them in rounds, on one
//! worker thread: a conservative (Chandy–Misra–Bryant-style) schedule
//! that runs each domain only below the earliest time a message can
//! still reach it, so a domain never receives an event from its own past
//! and every domain's event order is a pure function of (topology,
//! seeds).
//!
//! ## The protocol
//!
//! * Every cross-domain link has a positive `latency` — the lookahead. A
//!   message sent at local time `t` arrives stamped `t + latency`.
//! * A round starts from each domain's **local bound**: its clock when a
//!   task is runnable, else `min(next timer deadline, earliest queued
//!   inbound message)`. `relax` closes the bounds over the link
//!   latencies (a shortest-path closure), so each becomes the earliest
//!   time its domain can act at all. A domain's **EIT** (earliest input
//!   time) is the least closed bound of a source plus that link's
//!   latency: nothing can still arrive below it.
//! * Each domain then runs, inside its hooks, every local timer and
//!   inbound delivery strictly below its EIT. Three fixed conventions
//!   make its order independent of how rounds slice the work: the clock
//!   lands only on actual event times (`Sim::advance_to` for a message,
//!   `run_until` for a timer), messages at `t` are delivered before local
//!   timers at `t`, and same-timestamp deliveries across links go in
//!   global link-id order.
//! * The domain holding the least local bound always has an EIT above it
//!   (latencies are positive), so every round retires at least one event,
//!   and a ring of idle domains waiting on one far-future timer jumps
//!   straight to it instead of creeping one lookahead per round.
//! * Termination is exact: the set is done when every domain is
//!   quiescent (no timers, no runnable tasks) and no message is queued.
//!   Parked receivers are dropped at teardown, just like parked tasks
//!   when a serial [`Sim::run`] returns.
//!
//! Soundness is a *checked* invariant: an inbound message stamped at or
//! before the receiver's clock means its sender broke the lookahead (a
//! forged timestamp), and the driver panics with a "lookahead violation"
//! instead of delivering it out of order.

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::pin::Pin;
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

use crate::executor::{now, store_waker, Sim};
use crate::time::Time;

/// Per-domain lifecycle callbacks, so higher layers (telemetry, the
/// conformance checker) can bind thread-local sessions to a domain
/// without this crate depending on them.
///
/// `enter`/`exit` bracket every slice of domain execution on the worker
/// thread (every domain shares that thread, so sessions must swap in and
/// out). `finish` runs once, *entered*, after the domain's `Sim` has been
/// dropped — the place to finalize sessions and export results.
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

/// One direction of an inter-domain channel.
struct LinkShared<T> {
    state: Mutex<LinkState<T>>,
    latency: Time,
}

struct LinkState<T> {
    q: VecDeque<(Time, T)>,
    /// Authorization watermark: the receiving *task* may pop entries with
    /// `ts <= auth`; everything above is invisible to it until the driver
    /// has advanced the clock to the entry's time.
    auth: Time,
    /// Earliest timestamp above `auth`, kept exact by every push and
    /// authorization so the driver never scans a queue to read it.
    front: Option<Time>,
    waker: Option<Waker>,
}

impl<T> LinkShared<T> {
    fn lock(&self) -> MutexGuard<'_, LinkState<T>> {
        // Nothing panics while holding the lock; a poisoned one is still
        // readable.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Driver-side view of an inbound link, type-erased over the payload.
trait InPort: Send {
    /// Earliest queued timestamp the receiver cannot see yet, if any.
    fn front(&self) -> Option<Time>;
    /// Raises the watermark to `ts` and wakes the receiver.
    fn authorize_upto(&self, ts: Time);
}

impl<T: Send> InPort for Arc<LinkShared<T>> {
    fn front(&self) -> Option<Time> {
        self.lock().front
    }

    fn authorize_upto(&self, ts: Time) {
        let waker = {
            let mut s = self.lock();
            s.auth = s.auth.max(ts);
            let auth = s.auth;
            // Full scan on purpose: the queue is sorted only if every
            // sender honoured its lookahead, which is exactly what we
            // must not assume.
            s.front = s.q.iter().map(|&(t, _)| t).filter(|&t| t > auth).min();
            s.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Sending half of an inter-domain channel. Clonable; sends are
/// immediate and stamped `now() + latency`.
pub struct XSender<T> {
    link: Arc<LinkShared<T>>,
}

impl<T> Clone for XSender<T> {
    fn clone(&self) -> Self {
        XSender {
            link: self.link.clone(),
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
    /// proves the driver catches it.
    #[doc(hidden)]
    pub fn send_with_timestamp(&self, ts: Time, value: T) {
        self.push(ts, value);
    }

    fn push(&self, ts: Time, value: T) {
        let mut s = self.link.lock();
        if ts > s.auth {
            s.front = Some(s.front.map_or(ts, |f| f.min(ts)));
        }
        s.q.push_back((ts, value));
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
    /// that never fires in a serial [`Sim`].
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
        let mut s = self.link.lock();
        let auth = s.auth;
        if let Some(pos) = s.q.iter().position(|&(ts, _)| ts <= auth) {
            let (_, value) = s.q.remove(pos).expect("position came from this queue");
            return Poll::Ready(value);
        }
        store_waker(&mut s.waker, cx.waker());
        Poll::Pending
    }
}

struct InLink {
    /// Global creation-order id — the deterministic tie-break for
    /// same-timestamp deliveries across links. A domain's in-links are
    /// held in creation order, so scanning them is id order.
    id: usize,
    from: usize,
    latency: Time,
    port: Box<dyn InPort>,
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
        }
    }

    /// Adds a domain and returns its index.
    pub fn add_domain(&mut self, name: impl Into<String>) -> usize {
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
            state: Mutex::new(LinkState {
                q: VecDeque::new(),
                auth: 0,
                front: None,
                waker: None,
            }),
            latency,
        });
        // Ids count the links created so far.
        let id = self.domains.iter().map(|d| d.in_links.len()).sum();
        self.domains[to].in_links.push(InLink {
            id,
            from,
            latency,
            port: Box::new(link.clone()),
        });
        (XSender { link: link.clone() }, XReceiver { link })
    }

    /// Installs the domain's root. The closure runs on the worker thread
    /// that hosts the domains; it must create the [`Sim`] (spawning the
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

    /// Runs every domain to completion and returns each domain's final
    /// virtual time. The domains share one worker thread, never the
    /// caller's, so thread-local sessions a root installs cannot meet the
    /// caller's. Panics inside a domain (including lookahead violations)
    /// are resumed on the caller.
    ///
    /// `jobs` is ignored: the domains always run on that one thread. It
    /// is kept only because the `benchmark/` crate still passes it.
    pub fn run(self, _jobs: usize) -> Vec<Time> {
        let domains = self.domains;
        std::thread::spawn(move || drive(domains))
            .join()
            .unwrap_or_else(|payload| resume_unwind(payload))
    }
}

/// One domain resident on the worker thread.
struct DomainRt {
    name: String,
    sim: Sim,
    hooks: Box<dyn DomainHooks>,
    in_links: Vec<InLink>,
}

impl DomainRt {
    /// The earliest time this domain can act on its own: its clock when a
    /// task is runnable, else its next timer or queued inbound message
    /// (`Time::MAX` when it is quiescent and nothing is queued).
    fn local_bound(&self) -> Time {
        if self.sim.has_runnable() {
            return self.sim.now();
        }
        let timer = self.sim.next_timer_deadline().unwrap_or(Time::MAX);
        self.in_links
            .iter()
            .filter_map(|l| l.port.front())
            .fold(timer, Time::min)
    }
}

/// Sets every domain up, runs rounds until the set is done, then tears
/// each domain down and returns its final clock.
fn drive(slots: Vec<DomainSlot>) -> Vec<Time> {
    // The static topology, for the relaxation: (from, to, latency).
    let topo: Vec<(usize, usize, Time)> = slots
        .iter()
        .enumerate()
        .flat_map(|(to, d)| d.in_links.iter().map(move |l| (l.from, to, l.latency)))
        .collect();
    let mut rts: Vec<DomainRt> = slots
        .into_iter()
        .map(|slot| {
            let setup = slot
                .setup
                .expect("every domain needs a root: call set_root");
            let (sim, mut hooks) = setup();
            hooks.exit();
            DomainRt {
                name: slot.name,
                sim,
                hooks,
                in_links: slot.in_links,
            }
        })
        .collect();

    let mut local = vec![Time::MAX; rts.len()];
    let mut closed = local.clone();
    loop {
        for (bound, rt) in local.iter_mut().zip(&rts) {
            *bound = rt.local_bound();
        }
        if local.iter().all(|&b| b == Time::MAX) {
            break;
        }
        closed.copy_from_slice(&local);
        relax(&mut closed, &topo);
        for (rt, &bound) in rts.iter_mut().zip(&local) {
            let eit = rt
                .in_links
                .iter()
                .map(|l| closed[l.from].saturating_add(l.latency))
                .min()
                .unwrap_or(Time::MAX);
            // A domain with nothing below its EIT sits the round out.
            if bound < eit {
                rt.hooks.enter();
                segment(rt, eit);
                rt.hooks.exit();
            }
        }
    }

    rts.into_iter()
        .map(|mut rt| {
            let end = rt.sim.now();
            // Teardown runs entered: dropping the `Sim` drops parked
            // tasks, whose destructors may emit probe events that must
            // land in the domain's own session.
            rt.hooks.enter();
            rt.hooks.before_teardown(&rt.sim);
            drop(rt.sim);
            rt.hooks.finish();
            end
        })
        .collect()
}

/// Interleaves local timers and inbound deliveries strictly below `eit`,
/// in timestamp order, with messages-before-timers at equal times. The
/// clock only ever lands on *actual* event times (`run_until` to a real
/// timer deadline, `advance_to` to a real message timestamp) — never on
/// an EIT-derived bound — so the probe stream cannot pick up values that
/// depend on how rounds were sliced.
fn segment(rt: &mut DomainRt, eit: Time) {
    loop {
        // Quiesce at the current instant first: deliveries and timer
        // fires below may have woken tasks that send or sleep again.
        let t = rt.sim.now();
        rt.sim.run_until(t);
        let mut next_msg: Option<Time> = None;
        for l in &rt.in_links {
            if let Some(f) = l.port.front() {
                assert!(
                    f > rt.sim.now(),
                    "lookahead violation: domain '{}' holds an inbound event stamped t={f} \
                     on link {} from domain {} with its clock already at t={} — the sender \
                     broke its lookahead (forged timestamp or zero-lookahead path)",
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
                for l in &rt.in_links {
                    if l.port.front() == Some(m) {
                        l.port.authorize_upto(m);
                    }
                }
            }
            (None, Some(d)) => {
                rt.sim.run_until(d);
            }
        }
    }
}

/// Closes the bounds `b(d) = min(local(d), min over in-links (b(src) +
/// latency))` to their fixed point in place — a shortest-path relaxation
/// over the link latencies, seeded with each domain's local bound. This
/// is what lets a ring of idle domains jump straight past a far-future
/// timer instead of advancing one `+latency` step per round.
fn relax(bounds: &mut [Time], topo: &[(usize, usize, Time)]) {
    loop {
        let mut changed = false;
        for &(from, to, latency) in topo {
            let bound = bounds[from].saturating_add(latency);
            if bound < bounds[to] {
                bounds[to] = bound;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{sleep, sleep_until};
    use std::fmt::Write as _;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    type Log = Arc<Mutex<String>>;

    fn log(slot: &Log, line: std::fmt::Arguments<'_>) {
        let mut s = slot.lock().unwrap();
        s.write_fmt(line).unwrap();
        s.push('\n');
    }

    /// Two domains ping-pong a counter; returns (logs, final times).
    fn ping_pong() -> (Vec<String>, Vec<Time>) {
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
        let finals = set.run(1);
        let out = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
        (out, finals)
    }

    #[test]
    fn ping_pong_timing_and_values() {
        let (logs, finals) = ping_pong();
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
    fn parked_receivers_terminate() {
        // Both domains only wait on each other: nothing can ever happen,
        // and the set must detect that instead of looping — the
        // domain analogue of Sim::run returning with parked tasks.
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
        // the bounds' fixed point directly instead of running 100k
        // +latency rounds.
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
        // its 1 ms timer until the victim's bound is past ~1 ms, which
        // guarantees the victim's clock is far beyond the forged stamp
        // when it lands.
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
