//! The traffic director (paper §9, Q2).
//!
//! Every remote request reaches the DPU first. The director decides, per
//! reassembled message, whether DDS on the DPU serves it or it is
//! forwarded to the host endpoint. Transport semantics survive because
//! the connection terminates on the DPU either way: ordering and
//! reliability are provided once, below the director, and both serving
//! paths answer through the same connection (no second transport state
//! machine on the host).

use std::cell::Cell;

use dpdpu_des::{Counter, Time};
use dpdpu_faults::FaultSite;

/// How long a DPU-path fault keeps the director degraded (routing
/// everything to the host) before the DPU path is tried again.
pub const DEGRADE_PENALTY_NS: Time = 500_000;

/// Where a request is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Served by the offload engine on the DPU.
    Dpu,
    /// Forwarded to the host endpoint over PCIe.
    Host,
}

impl Route {
    /// The variant's name: the `route` span attribute and counter label.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Route::Dpu => "Dpu",
            Route::Host => "Host",
        }
    }
}

/// Directs classified requests and keeps the split observable.
///
/// Besides the application-level classification, the director is the
/// degradation point (graceful degradation, §9): a recorded DPU-path
/// fault opens a circuit breaker for [`DEGRADE_PENALTY_NS`], and an
/// injected DPU-overload window reads as degraded too — in either case
/// requests flow to the host, which can always serve them.
pub struct TrafficDirector {
    /// Requests routed to the DPU.
    pub(crate) to_dpu: Counter,
    /// Requests routed to the host.
    pub(crate) to_host: Counter,
    /// Requests rerouted to the host by degradation (fault or overload)
    /// that classification alone would have kept on the DPU.
    pub(crate) degraded: Counter,
    /// Hard switch: when false everything goes to the host (the legacy
    /// baseline DDS is compared against).
    offload_enabled: bool,
    /// Virtual time until which the DPU path is considered faulty.
    degraded_until: Cell<Time>,
    penalty_ns: Time,
}

impl Default for TrafficDirector {
    fn default() -> Self {
        Self::new(true)
    }
}

impl TrafficDirector {
    /// Creates a director; `offload_enabled=false` models the pre-DDS
    /// server where the DPU is a plain NIC.
    pub(crate) fn new(offload_enabled: bool) -> Self {
        TrafficDirector {
            to_dpu: Counter::new(),
            to_host: Counter::new(),
            degraded: Counter::new(),
            offload_enabled,
            degraded_until: Cell::new(0),
            penalty_ns: DEGRADE_PENALTY_NS,
        }
    }

    /// Records a DPU-path failure: the breaker opens and requests route
    /// to the host for the penalty window.
    pub(crate) fn record_dpu_fault(&self) {
        if let Some(now) = dpdpu_des::try_now() {
            self.degraded_until.set(now + self.penalty_ns);
        }
        dpdpu_telemetry::count("dds_degraded", &[("cause", "dpu_fault")]);
    }

    /// True while the DPU path is degraded (open breaker or injected
    /// overload window). Outside a simulation this is always false.
    pub fn is_degraded(&self) -> bool {
        let breaker_open = match dpdpu_des::try_now() {
            Some(now) => now < self.degraded_until.get(),
            None => false,
        };
        breaker_open || dpdpu_faults::dpu_overloaded()
    }

    /// Applies the classification, recording the outcome. `wants_dpu` is
    /// the application/UDF-level judgement (e.g. "index entry resident on
    /// DPU", "page clean"); degradation overrides it toward the host.
    pub(crate) fn route(&self, wants_dpu: bool) -> Route {
        if self.offload_enabled && wants_dpu {
            if self.is_degraded() {
                self.degraded.inc();
                self.to_host.inc();
                // Overload faults are absorbed by routing to the host.
                dpdpu_check::fault_handled(FaultSite::DpuOverload.label(), "degraded");
                return Route::Host;
            }
            self.to_dpu.inc();
            Route::Dpu
        } else {
            self.to_host.inc();
            Route::Host
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_respect_classification() {
        let d = TrafficDirector::new(true);
        assert_eq!(d.route(true), Route::Dpu);
        assert_eq!(d.route(false), Route::Host);
        assert_eq!(d.to_dpu.get(), 1);
        assert_eq!(d.to_host.get(), 1);
    }

    #[test]
    fn disabled_director_sends_everything_to_host() {
        let d = TrafficDirector::new(false);
        assert_eq!(d.route(true), Route::Host);
        assert_eq!(d.to_dpu.get(), 0);
    }

    #[test]
    fn fault_opens_breaker_then_recovers() {
        let mut sim = dpdpu_des::Sim::new();
        sim.spawn(async {
            let d = TrafficDirector::new(true);
            assert_eq!(d.route(true), Route::Dpu);
            d.record_dpu_fault();
            assert!(d.is_degraded());
            assert_eq!(d.route(true), Route::Host, "breaker reroutes to host");
            assert_eq!(d.degraded.get(), 1);
            dpdpu_des::sleep(DEGRADE_PENALTY_NS + 1).await;
            assert!(!d.is_degraded());
            assert_eq!(d.route(true), Route::Dpu, "breaker closes after penalty");
        });
        sim.run();
    }

    #[test]
    fn overload_window_degrades_routing() {
        let guard =
            dpdpu_faults::SessionGuard::new(dpdpu_faults::FaultPlan::new(2).dpu_overload(0, 1_000));
        let mut sim = dpdpu_des::Sim::new();
        sim.spawn(async {
            let d = TrafficDirector::new(true);
            assert_eq!(d.route(true), Route::Host);
            assert_eq!(d.degraded.get(), 1);
            dpdpu_des::sleep(2_000).await;
            assert_eq!(d.route(true), Route::Dpu);
        });
        sim.run();
        drop(guard);
    }
}
