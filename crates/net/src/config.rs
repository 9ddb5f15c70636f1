//! One network configuration to thread everywhere.
//!
//! `LinkConfig`, `TcpParams`, `FabricKind`, and `FabricParams` used to
//! travel ad-hoc through `ClusterConfig` and bench-bin CLI flags, each
//! site picking its own subset. [`NetConfig`] bundles them so every
//! layer (cluster, figure harnesses) passes a single struct.

use dpdpu_hw::LinkConfig;

use crate::fabric::{FabricKind, FabricParams};
use crate::tcp::TcpParams;

/// The full network configuration of a simulated deployment: physical
/// link shaping, TCP tunables (including the congestion-control
/// algorithm), and the cluster fabric selection.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Physical link per connection direction.
    pub link: LinkConfig,
    /// TCP tunables (MSS, windows, RTO, congestion control).
    pub tcp: TcpParams,
    /// Which fabric cluster shard traffic rides.
    pub fabric: FabricKind,
    /// RDMA-fabric tunables (ignored by the TCP fabric).
    pub fabric_params: FabricParams,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            link: LinkConfig::rack_100g(),
            tcp: TcpParams::default(),
            fabric: FabricKind::Tcp,
            fabric_params: FabricParams::default(),
        }
    }
}

impl NetConfig {
    /// Selects the cluster fabric (builder style).
    pub fn with_fabric(mut self, fabric: FabricKind) -> Self {
        self.fabric = fabric;
        self
    }

    /// This configuration, as the thing [`NetConfig::connect`] is called
    /// on. Kept only because `benchmark/` spells
    /// `.transport().connect(..)`; call `connect` directly.
    pub fn transport(&self) -> Self {
        *self
    }

    /// The network's latency floor in ns — the conservative lookahead a
    /// parallel time domain may promise across any connection built from
    /// this configuration. Every fabric kind rides [`NetConfig::link`],
    /// so the link's propagation delay bounds all of them.
    pub fn lookahead_ns(&self) -> dpdpu_des::Time {
        self.link.lookahead_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::CongAlgKind;

    #[test]
    fn default_matches_historical_wiring() {
        let net = NetConfig::default();
        assert_eq!(net.fabric, FabricKind::Tcp);
        assert_eq!(net.tcp.cong, CongAlgKind::Reno);
        assert_eq!(net.link.bits_per_sec, 100_000_000_000);
        assert_eq!(net.link.ecn_threshold_ns, 0);
    }

    #[test]
    fn builder_helpers_compose() {
        let net = NetConfig::default().with_fabric(FabricKind::RdmaOffload);
        assert_eq!(net.fabric, FabricKind::RdmaOffload);
    }
}
