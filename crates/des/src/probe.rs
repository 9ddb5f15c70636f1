//! Instrumentation hooks for the executor's service centres, and the
//! thread's one session slot.
//!
//! The DES substrate sits below every engine crate, so it cannot depend
//! on `dpdpu-telemetry`, `dpdpu-check` or `dpdpu-faults` (all three
//! depend on this crate). Instead it holds what they install: one
//! thread-local [`Session`] of three [`Part`]s, each owned by a
//! [`Guard`]:
//!
//! * the **tracer** — the telemetry session, a [`Probe`] that builds
//!   spans and timelines;
//! * the **checker** — the conformance session (`dpdpu-check`), a
//!   [`Probe`] that verifies invariants such as virtual-time
//!   monotonicity and acquire/release balance;
//! * the **fault plan** (`dpdpu-faults`), which receives no events: the
//!   device models consult it.
//!
//! One rule covers all three: installing a part that is already present
//! panics, and a guard's drop removes exactly the part it installed,
//! also during an unwind. A crate reaches its own part by type with
//! [`get`] or [`with`].
//!
//! Every event is delivered to the tracer, then the checker. The enabled
//! flag is a plain thread-local `Cell<bool>` so the disabled-path cost in
//! `Server::process` is one predictable branch — no `RefCell` borrow,
//! no virtual call.
//!
//! Events name their resource by [`Site`], a handle the resource interns
//! once at construction, so a sink keys its per-resource state by array
//! index instead of comparing names on every event.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
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

/// A part of a run's session. Probe events reach the tracer, then the
/// checker; the fault plan receives none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// The telemetry session.
    Tracer,
    /// The conformance session.
    Checker,
    /// The fault plan.
    Faults,
}

/// One installed part: the `Rc` that owns it, and the part's type and
/// address, which [`with`] checks and reads without a virtual call.
/// `Guard::install`, the only constructor, takes `data` from the `Rc`
/// it clones into `owner` and `ty` from that `Rc`'s type, so `data`
/// always points at the value `owner` keeps alive, a value of type `ty`.
struct Installed {
    owner: Rc<dyn Any>,
    ty: TypeId,
    data: *const (),
}

/// The parts of one run's session, indexed by [`Part`]. The thread's slot
/// holds one; a caller that runs several simulations on one thread parks
/// each one's session in a value of its own and [`swap`]s it in.
#[derive(Default)]
pub struct Session {
    parts: [Option<Installed>; 3],
    /// The parts that receive probe events, as [`Probe`]s, in delivery
    /// order.
    sinks: [Option<Rc<dyn Probe>>; 3],
}

impl Session {
    fn clear(&mut self, part: Part) {
        self.parts[part as usize] = None;
        self.sinks[part as usize] = None;
    }
}

thread_local! {
    static SESSION: RefCell<Session> = const {
        RefCell::new(Session { parts: [None, None, None], sinks: [None, None, None] })
    };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SITES: RefCell<SiteTable> = RefCell::default();
}

/// Applies `f` to the thread's session, then refreshes the enabled flag.
fn with_slot(f: impl FnOnce(&mut Session)) {
    SESSION.with(|s| {
        f(&mut s.borrow_mut());
        let any_sink = s.borrow().sinks.iter().any(Option::is_some);
        ENABLED.with(|e| e.set(any_sink));
    });
}

/// Owns one installed part of the thread's session. Dropping it removes
/// that part, also during an unwind, unless [`remove`] or a [`swap`]
/// already took it out. Derefs to the part.
#[must_use = "the part is removed when its guard drops"]
pub struct Guard<T: 'static> {
    part: Part,
    value: Rc<T>,
}

impl<T: Any> Guard<T> {
    /// Installs `value` as `part`, a part no probe event reaches.
    ///
    /// # Panics
    ///
    /// If the thread's session already holds `part`. Parts do not nest:
    /// the inner guard's drop would leave the outer run without its part.
    pub fn new(part: Part, value: T) -> Self {
        Self::install(part, Rc::new(value), None)
    }

    fn install(part: Part, value: Rc<T>, sink: Option<Rc<dyn Probe>>) -> Self {
        with_slot(|s| {
            let slot = &mut s.parts[part as usize];
            assert!(
                slot.is_none(),
                "{part:?} already installed: session parts do not nest"
            );
            let (ty, data) = (TypeId::of::<T>(), Rc::as_ptr(&value).cast());
            let owner = value.clone();
            *slot = Some(Installed { owner, ty, data });
            s.sinks[part as usize] = sink;
        });
        Guard { part, value }
    }
}

impl<T: Probe + Any> Guard<T> {
    /// Installs `sink` as `part`; it receives every probe event. Panics
    /// as [`Guard::new`] does.
    pub fn sink(part: Part, sink: T) -> Self {
        let value = Rc::new(sink);
        Self::install(part, value.clone(), Some(value))
    }
}

impl<T> Deref for Guard<T> {
    type Target = Rc<T>;

    fn deref(&self) -> &Rc<T> {
        &self.value
    }
}

impl<T: 'static> Drop for Guard<T> {
    fn drop(&mut self) {
        let ours = Rc::as_ptr(&self.value).cast();
        with_slot(|s| {
            if s.parts[self.part as usize]
                .as_ref()
                .is_some_and(|p| p.data == ours)
            {
                s.clear(self.part);
            }
        });
    }
}

/// The installed `part`, if it is a `T`.
pub fn get<T: Any>(part: Part) -> Option<Rc<T>> {
    let owner = SESSION.with(|s| Some(s.borrow().parts[part as usize].as_ref()?.owner.clone()));
    owner?.downcast().ok()
}

/// Runs `f` on the installed `part`, if it is a `T`: [`get`] without
/// the reference count or a virtual call, for per-event paths.
pub fn with<T: Any, R>(part: Part, f: impl FnOnce(&T) -> R) -> Option<R> {
    SESSION.with(|s| {
        let session = s.borrow();
        let installed = session.parts[part as usize].as_ref()?;
        (installed.ty == TypeId::of::<T>()).then(|| {
            // SAFETY: `data` is the address of the value `installed.owner`
            // owns, a `T` as `ty` says. The shared borrow keeps that `Rc`
            // in the slot (removing it needs a mutable borrow), so the
            // value outlives `f`.
            f(unsafe { &*installed.data.cast::<T>() })
        })
    })
}

/// Removes `part` from the thread's session, whichever guard installed
/// it; that guard's drop then does nothing.
pub fn remove(part: Part) {
    with_slot(|s| s.clear(part));
}

/// Exchanges the thread's session with `parked`, every part at once.
pub fn swap(parked: &mut Session) {
    with_slot(|s| std::mem::swap(s, parked));
}

/// True when a tracer or checker is installed. Instrumented code should
/// consult this before computing timestamps so the disabled path stays
/// branch-only.
#[inline]
pub(crate) fn probe_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Delivers one event to the installed sinks, tracer first, if any.
#[inline]
fn each_sink(f: impl Fn(&dyn Probe)) {
    if probe_enabled() {
        SESSION.with(|s| {
            for sink in s.borrow().sinks.iter().flatten() {
                f(sink.as_ref());
            }
        });
    }
}

/// Delivers one interval to the installed sinks, if any.
#[inline]
pub fn emit_span(track: Site, name: &'static str, start: Time, end: Time) {
    each_sink(|s| s.span(track, name, start, end));
}

/// Delivers one semaphore-acquire event to the installed sinks, if any.
#[inline]
pub fn emit_acquire(track: Site, capacity: usize, in_flight: usize) {
    each_sink(|s| s.acquire(track, capacity, in_flight));
}

/// Delivers one semaphore-release event to the installed sinks, if any.
#[inline]
pub fn emit_release(track: Site, in_flight: usize) {
    each_sink(|s| s.release(track, in_flight));
}

/// Delivers one clock-advance event to the installed sinks, if any.
#[inline]
pub fn emit_advance(from: Time, to: Time) {
    each_sink(|s| s.advance(from, to));
}

/// Announces a new simulation epoch (fresh [`crate::Sim`], clock back
/// at zero) to the installed sinks, if any.
#[inline]
pub fn emit_epoch() {
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
    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    /// The order of every figure: the platform's resources are built,
    /// then a checker is installed. An id interned before the sink
    /// existed must reach it with the right name.
    #[test]
    fn site_interned_before_the_sink_is_installed_is_accounted() {
        let server = Server::new("probe-test.early", 2);
        let rec = Guard::sink(Part::Checker, Recorder::default());
        let mut sim = Sim::new();
        let s2 = server.clone();
        sim.spawn(async move { s2.process(5).await });
        sim.run();
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
        let rec = Guard::sink(Part::Tracer, Recorder::default());
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
        let tracer = Guard::sink(Part::Tracer, Recorder::default());
        let checker = Guard::sink(Part::Checker, Recorder::default());
        let mut sim = Sim::new();
        sim.spawn(async {
            let server = Server::new("nic", 1);
            server.process(7).await;
            sleep(3).await;
        });
        sim.run();

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

    /// Logs which sink saw each event, into a log both sinks share.
    struct Tag(&'static str, Rc<RefCell<Vec<&'static str>>>);

    impl Probe for Tag {
        fn span(&self, _: Site, _: &'static str, _: Time, _: Time) {
            self.1.borrow_mut().push(self.0);
        }
    }

    #[test]
    fn both_sinks_receive_every_event_tracer_first() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let _checker = Guard::sink(Part::Checker, Tag("checker", log.clone()));
        let _tracer = Guard::sink(Part::Tracer, Tag("tracer", log.clone()));
        emit_span(Site::new("nic"), "serve", 0, 1);
        emit_span(Site::new("nic"), "serve", 1, 2);
        assert_eq!(*log.borrow(), ["tracer", "checker", "tracer", "checker"]);
    }

    #[test]
    fn a_second_part_of_a_kind_panics_and_names_it() {
        let tracer = Guard::sink(Part::Tracer, Recorder::default());
        let checker = Guard::sink(Part::Checker, Recorder::default());
        let plan = Guard::new(Part::Faults, 7u32);
        for part in [Part::Tracer, Part::Checker] {
            let msg = panic_message(|| drop(Guard::sink(part, Recorder::default())));
            assert!(msg.contains(&format!("{part:?}")), "{msg}");
        }
        let msg = panic_message(|| drop(Guard::new(Part::Faults, 8u32)));
        assert!(msg.contains("Faults"), "{msg}");
        // The refused guards removed nothing.
        assert!(Rc::ptr_eq(&get::<Recorder>(Part::Tracer).unwrap(), &tracer));
        assert!(Rc::ptr_eq(
            &get::<Recorder>(Part::Checker).unwrap(),
            &checker
        ));
        assert_eq!(get::<u32>(Part::Faults).as_deref(), Some(&7));
        drop(plan);
    }

    #[test]
    fn dropping_one_guard_leaves_the_other_parts() {
        let tracer = Guard::sink(Part::Tracer, Recorder::default());
        let checker = Guard::sink(Part::Checker, Recorder::default());
        let plan = Guard::new(Part::Faults, 7u32);
        drop(checker);
        assert!(get::<Recorder>(Part::Checker).is_none());
        assert!(get::<Recorder>(Part::Tracer).is_some() && probe_enabled());
        drop(tracer);
        assert!(!probe_enabled(), "the plan is no sink");
        assert_eq!(with(Part::Faults, |n: &u32| *n), Some(7));
        drop(plan);
        assert!(get::<u32>(Part::Faults).is_none());
    }

    #[test]
    fn an_unwind_through_the_guards_empties_the_slot() {
        panic_message(|| {
            let _tracer = Guard::sink(Part::Tracer, Recorder::default());
            let _checker = Guard::sink(Part::Checker, Recorder::default());
            let _plan = Guard::new(Part::Faults, 7u32);
            panic!("the run failed");
        });
        assert!(get::<Recorder>(Part::Tracer).is_none());
        assert!(get::<Recorder>(Part::Checker).is_none());
        assert!(get::<u32>(Part::Faults).is_none());
        assert!(!probe_enabled());
    }

    #[test]
    fn swap_parks_and_restores_every_part() {
        let tracer = Guard::sink(Part::Tracer, Recorder::default());
        let plan = Guard::new(Part::Faults, 7u32);
        let mut parked = Session::default();
        swap(&mut parked);
        assert!(get::<Recorder>(Part::Tracer).is_none() && !probe_enabled());
        assert!(get::<u32>(Part::Faults).is_none());
        emit_span(Site::new("parked"), "serve", 0, 1);
        swap(&mut parked);
        assert!(probe_enabled());
        emit_span(Site::new("entered"), "serve", 0, 1);
        assert_eq!(tracer.events.borrow().len(), 1, "only the entered span");
        drop((tracer, plan));
        assert!(get::<u32>(Part::Faults).is_none());
    }
}
