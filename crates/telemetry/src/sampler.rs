//! The timeline sampler: polls registered per-resource sources (queue
//! depth, utilisation, …) at a fixed virtual-time interval, producing the
//! counter tracks in the Chrome trace.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use dpdpu_des::{now, sleep, spawn, Time};

use crate::Telemetry;

/// One polled data point.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Device the source belongs to.
    pub(crate) process: String,
    /// Track name (e.g. `util:cpu-dpu`).
    pub name: String,
    /// Virtual time of the poll, ns.
    pub(crate) t: Time,
    /// Sampled value.
    pub value: f64,
}

struct Source {
    process: String,
    name: String,
    sample: Box<dyn Fn() -> f64>,
}

/// Registered sources plus everything sampled so far; owned by
/// [`Telemetry`].
pub(crate) struct SampleStore {
    sources: RefCell<Vec<Source>>,
    samples: RefCell<Vec<CounterSample>>,
}

impl SampleStore {
    pub(crate) fn new() -> Self {
        SampleStore {
            sources: RefCell::new(Vec::new()),
            samples: RefCell::new(Vec::new()),
        }
    }

    pub(crate) fn register(&self, process: String, name: String, sample: Box<dyn Fn() -> f64>) {
        self.sources.borrow_mut().push(Source {
            process,
            name,
            sample,
        });
    }

    /// Polls every source once at the current virtual time.
    pub(crate) fn sample_all(&self) {
        let t = now();
        let sources = self.sources.borrow();
        let mut samples = self.samples.borrow_mut();
        for s in sources.iter() {
            samples.push(CounterSample {
                process: s.process.clone(),
                name: s.name.clone(),
                t,
                value: (s.sample)(),
            });
        }
    }

    /// Runs `f` over everything sampled so far, in place: the exporters
    /// read through this so an export copies no sample.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&[CounterSample]) -> R) -> R {
        f(&self.samples.borrow())
    }
}

/// Stops a running sampler task.
///
/// The sampler is an ordinary sim task; it must be told to stop from
/// *inside* the simulation (after the workload finishes), otherwise it
/// would keep scheduling wake-ups and `Sim::run` would never quiesce.
#[derive(Clone)]
pub struct SamplerHandle {
    stop: Rc<Cell<bool>>,
}

impl SamplerHandle {
    /// Requests the sampler to exit; it takes one final sample and stops
    /// at its next tick.
    pub fn stop(&self) {
        self.stop.set(true);
    }
}

/// Spawns the sampling task on the current simulation, polling all
/// registered sources every `interval_ns` of virtual time (first poll at
/// the current time). Must be called inside `Sim::run`; returns a handle
/// the workload uses to stop sampling when it is done. Without an
/// installed [`Telemetry`] session this is a no-op.
pub fn start_sampler(interval_ns: Time) -> SamplerHandle {
    assert!(interval_ns > 0, "sampler interval must be positive");
    let stop = Rc::new(Cell::new(false));
    let handle = SamplerHandle { stop: stop.clone() };
    if let Some(t) = Telemetry::current() {
        spawn(async move {
            loop {
                t.sampler().sample_all();
                if stop.get() {
                    break;
                }
                sleep(interval_ns).await;
            }
        });
    }
    handle
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::Sim;

    #[test]
    fn sampler_polls_at_the_interval_and_stops() {
        let t = Telemetry::install();
        let depth = Rc::new(Cell::new(0.0f64));
        let d2 = depth.clone();
        t.register_source("dpu", "queue:ssd", move || d2.get());

        let mut sim = Sim::new();
        sim.spawn(async move {
            let sampler = start_sampler(100);
            depth.set(3.0);
            sleep(250).await;
            depth.set(1.0);
            sleep(100).await;
            sampler.stop();
        });
        let end = sim.run();

        let samples = t.samples();
        // Polls at t=0,100,200,300 and the final one at 400 (stop tick).
        let times: Vec<Time> = samples.iter().map(|s| s.t).collect();
        assert_eq!(times, vec![0, 100, 200, 300, 400]);
        // The spawning task ran up to its first await before the sampler's
        // first poll, so even the t=0 sample sees depth=3.
        assert_eq!(samples[0].value, 3.0);
        assert_eq!(samples[1].value, 3.0);
        assert_eq!(samples[4].value, 1.0);
        assert!(end >= 400, "sim must quiesce after the sampler stops");
        assert!(samples
            .iter()
            .all(|s| s.process == "dpu" && s.name == "queue:ssd"));
    }

    #[test]
    fn sampler_without_session_is_a_noop() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let h = start_sampler(10);
            h.stop();
        });
        assert_eq!(sim.run(), 0);
    }
}
