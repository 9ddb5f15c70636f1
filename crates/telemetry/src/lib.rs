//! # dpdpu-telemetry — observability for the DPDPU simulation stack
//!
//! Everything in this crate is keyed on **virtual time** ([`dpdpu_des::Time`],
//! nanoseconds): spans cover virtual intervals, the sampler ticks on the
//! simulated clock, and exported traces show simulated — not wall-clock —
//! behaviour. The paper's argument is about where cycles, bytes, and queue
//! time go across host CPUs, DPU cores, accelerators, and the fabric; this
//! crate is how the repo shows that.
//!
//! Four pieces:
//!
//! * a **span tracer** ([`span`], [`record_span`]) with nesting and per-span
//!   attributes, zero-cost when no [`Telemetry`] is installed;
//! * a **metrics registry** ([`Registry`]) of named, labeled counters,
//!   gauges, and histograms built on the `dpdpu_des::stats` primitives;
//! * a **timeline sampler** ([`Telemetry::register_source`],
//!   [`start_sampler`]) polling per-resource utilisation and queue depth at
//!   a configurable virtual-time interval;
//! * **exporters**: Chrome `trace_event` JSON ([`Telemetry::chrome_trace`],
//!   loadable in `chrome://tracing` / Perfetto — one "process" per device,
//!   one "thread" per resource) and a plain-text summary table
//!   ([`Telemetry::summary`]).
//!
//! ## Usage
//!
//! ```
//! use dpdpu_telemetry::{self as telemetry, Telemetry};
//!
//! let t = Telemetry::install();
//! dpdpu_des::block_on(async {
//!     let _s = telemetry::span("dpu", "compute-engine", "compress");
//!     dpdpu_des::sleep(1_000).await;
//! });
//! let json = t.chrome_trace();
//! assert!(json.contains("compress"));
//! ```
//!
//! A session may span several runs, each a fresh `dpdpu_des::Sim` whose
//! clock starts at zero. It lays them end to end: each run's times are
//! recorded from a base one nanosecond past the latest time recorded
//! before it, so a multi-run figure's trace shows its runs one after
//! another and no track repeats a timestamp.
//!
//! The session is the tracer part of the thread's one `dpdpu_des::probe`
//! session slot, matching the single-threaded DES executor, until its
//! guard drops. While installed, `dpdpu_des::Server` queue/service
//! intervals reach it directly as probe events.

mod chrome;
pub mod json;
mod metrics;
mod sampler;
mod span;
mod summary;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dpdpu_des::probe::{self, Guard, Part, Probe, Site};
use dpdpu_des::Time;

pub use chrome::{merge_traces, TracePart};
pub use metrics::Registry;
pub use sampler::{start_sampler, CounterSample, SamplerHandle};
pub use span::{record_span, span, SpanGuard, SpanRecord, Tracer};

/// One telemetry session: tracer + registry + sampler state.
///
/// Create with [`Telemetry::install`]; everything recorded while installed
/// accumulates here and can be exported at any point, also after the
/// guard dropped.
pub struct Telemetry {
    tracer: Tracer,
    registry: Registry,
    sampler: sampler::SampleStore,
    /// The device ("host", "dpu", ...) each resource track belongs to,
    /// by the track's [`Site::index`]. Unassigned tracks land under
    /// [`SIM_PROCESS`].
    devices: RefCell<Vec<Option<Site>>>,
    /// [`SIM_PROCESS`], interned.
    sim: Site,
    /// Added to every virtual time this session records: each fresh
    /// `Sim` restarts its clock at zero, so a session that spans several
    /// runs lays them end to end instead of on top of one another.
    base: Cell<Time>,
    /// The latest time recorded so far, base included.
    latest: Cell<Option<Time>>,
}

/// Device name used for tracks nobody claimed.
pub(crate) const SIM_PROCESS: &str = "sim";

impl Probe for Telemetry {
    fn span(&self, track: Site, name: &'static str, start: Time, end: Time) {
        // An array index, one hash lookup and a Vec push — no heap
        // allocation on the per-event path.
        let device = self.device_of(track);
        let (start, end) = (self.stamp(start), self.stamp(end));
        self.tracer
            .record(device, track, Site::new(name), start, end, Vec::new());
    }

    /// A fresh `Sim`: its run starts a nanosecond after everything
    /// recorded so far.
    fn epoch(&self) {
        if let Some(latest) = self.latest.get() {
            self.base.set(latest + 1);
        }
    }
}

impl Telemetry {
    /// Creates a fresh session and installs it as the thread's tracer
    /// until the returned guard drops, so `Server` queue/service
    /// intervals are captured. The guard derefs to the session.
    ///
    /// # Panics
    ///
    /// If a telemetry session is already installed on this thread.
    pub fn install() -> Guard<Telemetry> {
        Guard::sink(
            Part::Tracer,
            Telemetry {
                tracer: Tracer::new(),
                registry: Registry::new(),
                sampler: sampler::SampleStore::new(),
                devices: RefCell::new(Vec::new()),
                sim: Site::new(SIM_PROCESS),
                base: Cell::new(0),
                latest: Cell::new(None),
            },
        )
    }

    /// Removes the thread's session before its guard drops (the drop then
    /// does nothing). Instrumented code reverts to its zero-cost disabled
    /// path.
    pub fn uninstall() {
        probe::remove(Part::Tracer);
    }

    /// The thread's current session, if one is installed.
    pub fn current() -> Option<Rc<Telemetry>> {
        probe::get(Part::Tracer)
    }

    /// True when a session is installed.
    pub fn is_enabled() -> bool {
        probe::with(Part::Tracer, |_: &Telemetry| ()).is_some()
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub(crate) fn sampler(&self) -> &sampler::SampleStore {
        &self.sampler
    }

    /// The session time of `t`, a time on the current run's clock.
    pub(crate) fn stamp(&self, t: Time) -> Time {
        let t = self.base.get() + t;
        self.latest
            .set(Some(self.latest.get().map_or(t, |l| l.max(t))));
        t
    }

    /// Declares that resource `track` belongs to device `process`, so its
    /// spans group under that device in the Chrome trace.
    pub fn assign_track(&self, track: impl AsRef<str>, process: impl AsRef<str>) {
        let track = Site::new(track.as_ref());
        let mut devices = self.devices.borrow_mut();
        if devices.len() <= track.index() {
            devices.resize(track.index() + 1, None);
        }
        devices[track.index()] = Some(Site::new(process.as_ref()));
    }

    /// The device owning `track` ([`SIM_PROCESS`] when unassigned).
    fn device_of(&self, track: Site) -> Site {
        let devices = self.devices.borrow();
        devices
            .get(track.index())
            .copied()
            .flatten()
            .unwrap_or(self.sim)
    }

    /// Registers a timeline source: `sample` is polled by the sampler on
    /// every tick and its value becomes a counter track named `name` under
    /// device `process`.
    pub fn register_source(
        &self,
        process: impl Into<String>,
        name: impl Into<String>,
        sample: impl Fn() -> f64 + 'static,
    ) {
        self.sampler
            .register(process.into(), name.into(), Box::new(sample));
    }

    /// All samples collected so far.
    pub fn samples(&self) -> Vec<CounterSample> {
        self.sampler.with(<[CounterSample]>::to_vec)
    }

    /// Exports everything recorded so far as Chrome `trace_event` JSON.
    pub fn chrome_trace(&self) -> String {
        chrome::export(self)
    }

    /// Everything recorded so far as domain number `domain`, named
    /// `name`, of a merged trace: the input of [`merge_traces`].
    pub fn trace_part(&self, domain: usize, name: &str) -> TracePart {
        chrome::part(self, Some((domain, name)))
    }

    /// Writes [`Telemetry::chrome_trace`] to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace())
    }

    /// Renders the plain-text summary table: span aggregates, metric
    /// values, and per-resource timeline statistics.
    pub fn summary(&self) -> String {
        summary::render(self)
    }
}

/// Convenience: get-or-create a counter in the current session's registry.
/// Returns `None` when telemetry is disabled; to bump one, use [`count`].
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Option<Rc<dpdpu_des::Counter>> {
    Telemetry::current().map(|t| t.registry.counter(name, labels))
}

/// Adds one to a counter of the current session's registry; does nothing
/// when telemetry is disabled.
pub fn count(name: &str, labels: &[(&str, &str)]) {
    if let Some(c) = counter(name, labels) {
        c.inc();
    }
}

/// Convenience: get-or-create a gauge in the current session's registry.
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Option<Rc<dpdpu_des::Gauge>> {
    Telemetry::current().map(|t| t.registry.gauge(name, labels))
}

/// Convenience: get-or-create a histogram in the current session's registry.
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> Option<Rc<dpdpu_des::Histogram>> {
    Telemetry::current().map(|t| t.registry.histogram(name, labels))
}
