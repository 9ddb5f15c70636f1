//! Instrumentation hooks for the executor's service centres.
//!
//! The DES substrate sits below every engine crate, so it cannot depend
//! on `dpdpu-telemetry` or `dpdpu-check` (both depend on this crate).
//! Instead it exposes a narrow, zero-cost-when-disabled hook: an
//! installable [`Probe`] that receives completed (track, name, start,
//! end) intervals from [`crate::Server`], plus semaphore accounting and
//! clock-advance events. Two independent sinks exist:
//!
//! * the **tracer** slot ([`set_probe`]) — installed by the telemetry
//!   crate to build spans and timelines;
//! * the **checker** slot ([`set_checker`]) — installed by the
//!   conformance layer (`dpdpu-check`) to verify invariants such as
//!   virtual-time monotonicity and acquire/release balance.
//!
//! Every event is delivered to both sinks. The enabled flag is a plain
//! thread-local `Cell<bool>` so the disabled-path cost in
//! `Server::process` is one predictable branch — no `RefCell` borrow,
//! no virtual call.
//!
//! Events name their resource by [`Site`], a handle the resource interns
//! once at construction, so a sink keys its per-resource state by array
//! index instead of comparing names on every event.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use crate::time::Time;

/// An interned name: what every probe event and conformance check-point
/// carries instead of a string, and what a telemetry span stores for its
/// device, track, name and attribute keys.
///
/// [`Site::new`] interns into an append-only, thread-local table —
/// instrumented resources are `Rc` and never leave the thread that built
/// them. Ids are dense per thread and follow interning order, which
/// under a multi-threaded runner is OS-scheduling order: key state by
/// [`Site::index`], but order and print by [`Site::name`] only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Site(u32);

/// FNV-1a-64, the classic short-key hash: the site table's hasher, and
/// the hash `dpdpu_check::golden::fingerprint` pins a whole export with.
/// A name is a handful of bytes; SipHash's keyed setup costs more than
/// hashing the whole name. Not DoS-resistant — fine for trusted,
/// in-process bytes.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[derive(Default)]
struct SiteTable {
    ids: HashMap<Rc<str>, Site, BuildHasherDefault<Fnv1a>>,
    names: Vec<Rc<str>>,
}

impl Site {
    /// The handle for `name`, interned on first sight: a hash lookup,
    /// plus one allocation for a new name.
    pub fn new(name: &str) -> Site {
        SITES.with(|t| {
            let mut t = t.borrow_mut();
            if let Some(&site) = t.ids.get(name) {
                return site;
            }
            let site = Site(u32::try_from(t.names.len()).expect("site table overflow"));
            let name: Rc<str> = Rc::from(name);
            t.names.push(name.clone());
            t.ids.insert(name, site);
            site
        })
    }

    /// Dense per-thread index, for `Vec`-backed per-site state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The interned name. For cold paths: reports, sweeps, violation
    /// messages, trace export.
    pub fn name(self) -> Rc<str> {
        SITES.with(|t| t.borrow().names[self.index()].clone())
    }
}

/// Prints the interned name (a table lookup: for messages, not events).
impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Receiver for instrumentation events from the DES substrate.
///
/// All methods except [`Probe::span`] have default no-op bodies so a
/// sink only pays for the events it cares about.
pub trait Probe {
    /// The resource at `track` spent `start..end` doing `name`
    /// (e.g. `("cpu-dpu", "wait")` or `("accel-Compress", "serve")`).
    fn span(&self, track: Site, name: &'static str, start: Time, end: Time);

    /// A permit of the labeled semaphore `track` was handed out.
    /// `in_flight` is the number of permits outstanding *after* this
    /// acquire; `capacity` is the semaphore's total permit count.
    fn acquire(&self, track: Site, capacity: usize, in_flight: usize) {
        let _ = (track, capacity, in_flight);
    }

    /// A permit of the labeled semaphore `track` was returned.
    /// `in_flight` is the number of permits outstanding *after* this
    /// release.
    fn release(&self, track: Site, in_flight: usize) {
        let _ = (track, in_flight);
    }

    /// The executor advanced the virtual clock from `from` to `to`.
    fn advance(&self, from: Time, to: Time) {
        let _ = (from, to);
    }

    /// A fresh [`crate::Sim`] was created: virtual time restarts at
    /// zero. Sinks that track the clock across a whole process (the
    /// conformance checker) must treat this as an epoch boundary, not a
    /// backwards jump.
    fn epoch(&self) {}
}

thread_local! {
    static PROBE: RefCell<Option<Rc<dyn Probe>>> = const { RefCell::new(None) };
    static CHECKER: RefCell<Option<Rc<dyn Probe>>> = const { RefCell::new(None) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SITES: RefCell<SiteTable> = RefCell::default();
}

fn refresh_enabled() {
    let any = PROBE.with(|p| p.borrow().is_some()) || CHECKER.with(|c| c.borrow().is_some());
    ENABLED.with(|e| e.set(any));
}

/// Installs `probe` as the thread's tracer sink (replacing any previous
/// one). Pass `None` to disable.
pub fn set_probe(probe: Option<Rc<dyn Probe>>) {
    PROBE.with(|p| *p.borrow_mut() = probe);
    refresh_enabled();
}

/// Installs `checker` as the thread's conformance sink (replacing any
/// previous one). Pass `None` to disable. Independent of [`set_probe`]:
/// both sinks receive every event.
pub fn set_checker(checker: Option<Rc<dyn Probe>>) {
    CHECKER.with(|c| *c.borrow_mut() = checker);
    refresh_enabled();
}

/// True when a tracer or checker is installed. Instrumented code should
/// consult this before computing timestamps so the disabled path stays
/// branch-only.
#[inline]
pub(crate) fn probe_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

fn each_sink(f: impl Fn(&dyn Probe)) {
    PROBE.with(|p| {
        if let Some(probe) = p.borrow().as_ref() {
            f(probe.as_ref());
        }
    });
    CHECKER.with(|c| {
        if let Some(checker) = c.borrow().as_ref() {
            f(checker.as_ref());
        }
    });
}

/// Delivers one interval to the installed sinks, if any.
#[inline]
pub fn emit_span(track: Site, name: &'static str, start: Time, end: Time) {
    if !probe_enabled() {
        return;
    }
    each_sink(|s| s.span(track, name, start, end));
}

/// Delivers one semaphore-acquire event to the installed sinks, if any.
#[inline]
pub fn emit_acquire(track: Site, capacity: usize, in_flight: usize) {
    if !probe_enabled() {
        return;
    }
    each_sink(|s| s.acquire(track, capacity, in_flight));
}

/// Delivers one semaphore-release event to the installed sinks, if any.
#[inline]
pub fn emit_release(track: Site, in_flight: usize) {
    if !probe_enabled() {
        return;
    }
    each_sink(|s| s.release(track, in_flight));
}

/// Delivers one clock-advance event to the installed sinks, if any.
#[inline]
pub fn emit_advance(from: Time, to: Time) {
    if !probe_enabled() {
        return;
    }
    each_sink(|s| s.advance(from, to));
}

/// Announces a new simulation epoch (fresh [`crate::Sim`], clock back
/// at zero) to the installed sinks, if any.
#[inline]
pub fn emit_epoch() {
    if !probe_enabled() {
        return;
    }
    each_sink(|s| s.epoch());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{sleep, Sim};
    use crate::server::Server;

    #[derive(Default)]
    struct Recorder {
        events: RefCell<Vec<(String, &'static str, Time, Time)>>,
        acquires: RefCell<Vec<(String, usize, usize)>>,
        releases: RefCell<Vec<(String, usize)>>,
        advances: Cell<usize>,
    }

    impl Probe for Recorder {
        fn span(&self, track: Site, name: &'static str, start: Time, end: Time) {
            self.events
                .borrow_mut()
                .push((track.to_string(), name, start, end));
        }
        fn acquire(&self, track: Site, capacity: usize, in_flight: usize) {
            self.acquires
                .borrow_mut()
                .push((track.to_string(), capacity, in_flight));
        }
        fn release(&self, track: Site, in_flight: usize) {
            self.releases
                .borrow_mut()
                .push((track.to_string(), in_flight));
        }
        fn advance(&self, from: Time, to: Time) {
            assert!(to >= from, "clock went backwards: {from} -> {to}");
            self.advances.set(self.advances.get() + 1);
        }
    }

    fn site_count() -> usize {
        SITES.with(|t| t.borrow().names.len())
    }

    #[test]
    fn site_interns_each_name_once() {
        let a = Site::new("probe-test.a");
        let b = Site::new("probe-test.b");
        assert_eq!(a, Site::new("probe-test.a"), "same name, same id");
        assert_ne!(a, b, "distinct names, distinct ids");
        assert_eq!((&*a.name(), &*b.name()), ("probe-test.a", "probe-test.b"));

        // The table grows per name, not per instance.
        let before = site_count();
        let servers: Vec<_> = (0..1_000).map(|_| Server::new("probe-test.x", 1)).collect();
        assert_eq!(site_count(), before + 1);
        assert!(servers.iter().all(|s| s.site() == servers[0].site()));
        assert_eq!(&*servers[0].site().name(), "probe-test.x");
    }

    /// The order of every figure: the platform's resources are built,
    /// then `Dpdpu::start` installs a sink. An id interned before the
    /// sink existed must reach it with the right name.
    #[test]
    fn site_interned_before_the_sink_is_installed_is_accounted() {
        let server = Server::new("probe-test.early", 2);
        let rec = Rc::new(Recorder::default());
        set_checker(Some(rec.clone()));
        let mut sim = Sim::new();
        let s2 = server.clone();
        sim.spawn(async move { s2.process(5).await });
        sim.run();
        set_checker(None);
        assert_eq!(
            *rec.acquires.borrow(),
            [("probe-test.early".to_string(), 2, 1)]
        );
        assert_eq!(
            *rec.releases.borrow(),
            [("probe-test.early".to_string(), 0)]
        );
        assert_eq!(
            *rec.events.borrow(),
            [("probe-test.early".to_string(), "serve", 0, 5)]
        );
    }

    #[test]
    fn server_emits_wait_and_serve_spans() {
        let rec = Rc::new(Recorder::default());
        set_probe(Some(rec.clone()));
        let mut sim = Sim::new();
        sim.spawn(async {
            let server = Server::new("disk", 1);
            let s2 = server.clone();
            let h = crate::executor::spawn(async move { s2.process(100).await });
            sleep(10).await; // second request arrives mid-service
            server.process(100).await;
            h.await;
        });
        sim.run();
        set_probe(None);

        let events = rec.events.borrow();
        let serves: Vec<_> = events.iter().filter(|e| e.1 == "serve").collect();
        let waits: Vec<_> = events.iter().filter(|e| e.1 == "wait").collect();
        assert_eq!(serves.len(), 2, "one serve span per request: {events:?}");
        // The second request queued from t=10 until the slot freed at 100.
        assert_eq!(waits.len(), 1, "only the blocked request waits: {events:?}");
        assert_eq!((waits[0].2, waits[0].3), (10, 100));
        assert!(events.iter().all(|e| e.0 == "disk"));
    }

    #[test]
    fn disabled_probe_costs_nothing_and_records_nothing() {
        set_probe(None);
        set_checker(None);
        assert!(!probe_enabled());
        let x = Site::new("x");
        emit_span(x, "y", 0, 1); // must be a no-op, not a panic
        emit_acquire(x, 1, 1);
        emit_release(x, 0);
        emit_advance(0, 1);
        let mut sim = Sim::new();
        sim.spawn(async {
            Server::new("s", 1).process(5).await;
        });
        sim.run();
    }

    #[test]
    fn checker_slot_receives_events_independently() {
        let tracer = Rc::new(Recorder::default());
        let checker = Rc::new(Recorder::default());
        set_probe(Some(tracer.clone()));
        set_checker(Some(checker.clone()));
        let mut sim = Sim::new();
        sim.spawn(async {
            let server = Server::new("nic", 1);
            server.process(7).await;
            sleep(3).await;
        });
        sim.run();
        set_probe(None);
        set_checker(None);
        assert!(!probe_enabled());

        // Both sinks saw the same serve span.
        for rec in [&tracer, &checker] {
            let events = rec.events.borrow();
            assert!(
                events.iter().any(|e| e.0 == "nic" && e.1 == "serve"),
                "missing serve span: {events:?}"
            );
        }
        // Server slots are a labeled semaphore: acquire/release balance.
        let acq = checker.acquires.borrow();
        let rel = checker.releases.borrow();
        assert_eq!(acq.len(), rel.len(), "acquire/release imbalance");
        assert!(acq.iter().all(|(t, cap, inf)| t == "nic" && *inf <= *cap));
        // The executor reported clock advances.
        assert!(checker.advances.get() > 0, "no advance events");
    }
}
