//! **Ablation A9 — graceful degradation under injected faults.**
//!
//! The DES makes failure handling testable: a seeded [`FaultPlan`]
//! injects link drops, SSD read errors, and slow I/O into the full DDS
//! testbed, and we sweep the fault rate. The reproduction target is the
//! robustness story layered through the stack — the file service retries
//! transient SSD errors with exponential backoff, the traffic director
//! degrades the DPU path to the host when a fault slips through, and the
//! client re-sends timed-out requests — so **every request reaches a
//! terminal state**, while p99 latency and the host-served fraction rise
//! monotonically with the fault rate. Because fault decisions are charged
//! in virtual time from seeded streams, the same seed reproduces the same
//! run bit for bit (the CI determinism check diffs two traced runs).

use dpdpu_dds::kv::INDEX_ENTRY_BYTES;
use dpdpu_dds::server::DdsConfig;
use dpdpu_faults::{FaultPlan, SessionGuard};

use crate::fleet::dds_reads;
use crate::table::Table;

const KEYS: u64 = 64;
const GETS: u64 = 256;
const VALUE: usize = 512;
/// Seed for every seeded fault stream in this ablation.
const SEED: u64 = 42;
/// Extra device latency charged by an injected slow I/O.
const SLOW_IO_NS: u64 = 150_000;
/// Period of the injected DPU-overload square wave; its duty cycle is
/// the swept fault rate, so the overloaded share of virtual time tracks
/// the rate directly.
const OVERLOAD_PERIOD_NS: u64 = 2_000_000;
/// Overload periods laid down (covers the whole run comfortably).
const OVERLOAD_PERIODS: u64 = 400;

/// The swept fault rates (applied to link drops, SSD read errors, and
/// slow I/O simultaneously).
pub(crate) const RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];

/// Runs the sweep and renders the table.
pub(crate) fn run() -> String {
    let mut table = Table::new(&[
        "fault_rate",
        "resolved",
        "errors",
        "p99_us",
        "host_frac",
        "injected",
        "client_retries",
    ]);
    for rate in RATES {
        let m = measure(rate);
        table.row(vec![
            format!("{:.2}", rate),
            format!("{}/{}", m.resolved, GETS),
            format!("{}", m.errors),
            format!("{:.1}", m.p99_ns as f64 / 1e3),
            format!("{:.2}", m.host_frac),
            format!("{}", m.injected),
            format!("{}", m.retries),
        ]);
    }
    format!(
        "## Ablation A9: fault rate vs p99 and host fallback (seed {SEED})\n\
         (expected: every request resolves at every rate; p99 and the \
         host-served fraction rise with the fault rate as retries, \
         backoff, and degradation absorb the injected faults)\n\n{}",
        table.render()
    )
}

/// One point of the sweep.
pub(crate) struct FaultMeasurement {
    /// 99th-percentile get latency in virtual ns.
    pub(crate) p99_ns: u64,
    /// Fraction of measured gets served on the host path.
    pub(crate) host_frac: f64,
    /// Requests that reached a terminal state (response or typed error).
    pub(crate) resolved: u64,
    /// Requests that terminated with a typed error.
    pub(crate) errors: u64,
    /// Faults the plan injected over the whole run.
    pub(crate) injected: u64,
    /// Client-level re-sends (timeouts and server errors).
    pub(crate) retries: u64,
}

fn plan(rate: f64) -> FaultPlan {
    let mut p = FaultPlan::new(SEED)
        .link_drops(rate)
        .ssd_read_errors(rate)
        .ssd_slow_io(rate, SLOW_IO_NS);
    // Transient SSD errors are mostly absorbed by the file service's
    // retries (a DPU-path failure needs every retry to fail), so the
    // host-fallback pressure comes from overload: DPU cores report busy
    // for a `rate` fraction of every period, and the director reroutes
    // DPU-classified requests to the host for exactly those windows.
    if rate > 0.0 {
        let busy = (rate * OVERLOAD_PERIOD_NS as f64) as u64;
        for k in 0..OVERLOAD_PERIODS {
            let from = k * OVERLOAD_PERIOD_NS;
            p = p.dpu_overload(from, from + busy);
        }
    }
    p
}

/// Runs the read-heavy DDS workload under `plan(rate)`.
pub(crate) fn measure(rate: f64) -> FaultMeasurement {
    let guard = SessionGuard::new(plan(rate));
    let config = DdsConfig {
        kv_index_budget: KEYS * INDEX_ENTRY_BYTES,
        ..DdsConfig::default()
    };
    let mut r = dds_reads(config, KEYS, GETS, VALUE);
    let served = r.served_dpu + r.served_host;
    let host_frac = if served == 0 {
        0.0
    } else {
        r.served_host as f64 / served as f64
    };
    let latencies = &mut r.latencies;
    latencies.sort_unstable();
    FaultMeasurement {
        p99_ns: latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)],
        host_frac,
        resolved: latencies.len() as u64,
        errors: r.errors,
        injected: guard.session.report().total(),
        retries: r.retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_degrade_monotonically_and_all_requests_resolve() {
        let clean = measure(RATES[0]);
        let faulty = measure(RATES[3]);
        assert_eq!(clean.resolved, GETS, "clean run must resolve everything");
        assert_eq!(faulty.resolved, GETS, "faulty run must resolve everything");
        assert_eq!(clean.errors, 0);
        assert_eq!(clean.injected, 0, "rate 0 must inject nothing");
        assert!(faulty.injected > 0, "rate 0.10 must inject faults");
        assert!(
            faulty.host_frac > clean.host_frac,
            "degradation must push traffic to the host: clean={} faulty={}",
            clean.host_frac,
            faulty.host_frac
        );
        assert!(
            faulty.p99_ns > clean.p99_ns,
            "faults must cost tail latency: clean={} faulty={}",
            clean.p99_ns,
            faulty.p99_ns
        );
    }

    #[test]
    fn same_seed_reproduces_the_same_measurement() {
        let a = measure(0.05);
        let b = measure(0.05);
        assert_eq!(a.p99_ns, b.p99_ns);
        assert_eq!(a.host_frac.to_bits(), b.host_frac.to_bits());
        assert_eq!(a.resolved, b.resolved);
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.retries, b.retries);
    }
}
