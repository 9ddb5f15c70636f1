//! Tenant configuration for the serving layers.
//!
//! A [`TenantSpec`] names one tenant and carries everything the QoS
//! machinery needs to isolate it: the WFQ/DRR weight its queue is
//! served at, an SLO class (latency-sensitive KV vs batch scan — the
//! class labels telemetry and picks table groupings, it does not change
//! the scheduler math), and the admission knobs (token-bucket rate and
//! an in-flight cap). The specs have one consumer, the DDS gateway's
//! `GatewayConfig::tenants`, and a tenant *is* the index of its spec in
//! that vector: the gateway's `call` and `snapshot` take that `usize`.
//! The compute layer's schedulers speak the same vocabulary with a bare
//! weight vector indexed the same way.

/// What a tenant's traffic promises about itself, and therefore how its
/// latency should be read: point KV ops that care about tail latency,
/// or streaming batch scans that care about sustained goodput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloClass {
    /// Latency-sensitive point reads/updates.
    LatencyKv,
    /// Throughput-oriented streaming scans.
    BatchScan,
}

impl SloClass {
    /// Stable lowercase label for telemetry and tables.
    pub fn label(self) -> &'static str {
        match self {
            SloClass::LatencyKv => "latency-kv",
            SloClass::BatchScan => "batch-scan",
        }
    }
}

/// One tenant's identity, share, and admission limits.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Stable tenant name (labels telemetry and conformance accounting).
    pub name: String,
    /// WFQ/DRR weight; service share under contention is
    /// `weight / Σ weights` of the backlogged tenants.
    pub weight: u64,
    /// SLO class of this tenant's traffic.
    pub slo: SloClass,
    /// Token-bucket refill rate in ops per second of virtual time;
    /// `0` disables rate limiting for the tenant.
    pub rate_ops_per_sec: u64,
    /// Token-bucket depth in ops (the burst the tenant may front-load).
    /// Ignored when `rate_ops_per_sec == 0`.
    pub burst_ops: u64,
    /// Maximum requests the tenant may have admitted-but-unfinished at
    /// once; `0` disables the cap.
    pub max_in_flight: usize,
}

impl TenantSpec {
    /// A latency-sensitive KV tenant with the given weight and no
    /// admission limits (add them with [`rate`](Self::rate) /
    /// [`in_flight`](Self::in_flight)).
    pub fn latency(name: impl Into<String>, weight: u64) -> Self {
        assert!(weight > 0, "tenant weight must be positive");
        TenantSpec {
            name: name.into(),
            weight,
            slo: SloClass::LatencyKv,
            rate_ops_per_sec: 0,
            burst_ops: 0,
            max_in_flight: 0,
        }
    }

    /// A batch-scan tenant with the given weight and no admission
    /// limits.
    pub fn batch(name: impl Into<String>, weight: u64) -> Self {
        TenantSpec {
            slo: SloClass::BatchScan,
            ..Self::latency(name, weight)
        }
    }

    /// Sets the token-bucket rate limit: `ops_per_sec` sustained, up to
    /// `burst_ops` front-loaded.
    pub fn rate(mut self, ops_per_sec: u64, burst_ops: u64) -> Self {
        assert!(
            ops_per_sec == 0 || burst_ops > 0,
            "a rate-limited tenant needs a non-zero burst"
        );
        self.rate_ops_per_sec = ops_per_sec;
        self.burst_ops = burst_ops;
        self
    }

    /// Caps the tenant's admitted-but-unfinished requests.
    pub fn in_flight(mut self, cap: usize) -> Self {
        self.max_in_flight = cap;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_carry_class_and_limits() {
        let t = TenantSpec::latency("kv", 4).rate(10_000, 32).in_flight(8);
        assert_eq!(t.slo, SloClass::LatencyKv);
        assert_eq!(t.slo.label(), "latency-kv");
        assert_eq!((t.weight, t.rate_ops_per_sec, t.burst_ops), (4, 10_000, 32));
        assert_eq!(t.max_in_flight, 8);
        let b = TenantSpec::batch("scan", 2);
        assert_eq!(b.slo, SloClass::BatchScan);
        assert_eq!(b.rate_ops_per_sec, 0, "unlimited by default");
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_is_rejected() {
        let _ = TenantSpec::latency("t", 0);
    }
}
