//! One network configuration to thread everywhere.
//!
//! `LinkConfig`, `TcpParams`, `FabricKind`, and `FabricParams` used to
//! travel ad-hoc through `ClusterConfig` and bench-bin CLI flags, each
//! site picking its own subset. [`NetConfig`] bundles them so every
//! layer (cluster, bins) passes a single struct, and every bin parses
//! the same flags into it via [`NetConfig::apply_cli_flag`].

use dpdpu_hw::LinkConfig;

use crate::fabric::{FabricKind, FabricParams};
use crate::tcp::{CongAlgKind, TcpParams};

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

    /// Applies one `--flag value` pair from a bench-bin command line.
    /// Returns `Ok(true)` when the flag belongs to [`NetConfig`] and was
    /// applied, `Ok(false)` when it is not a network flag (the caller
    /// handles it), and `Err` with a usage message on a bad value.
    pub fn apply_cli_flag(&mut self, flag: &str, value: &str) -> Result<bool, String> {
        match flag {
            "--fabric" => {
                self.fabric = FabricKind::parse(value)
                    .ok_or_else(|| format!("unknown fabric {value:?} (tcp|rdma|rdma-offload)"))?;
            }
            "--cong" => {
                self.tcp.cong = CongAlgKind::parse(value)
                    .ok_or_else(|| format!("unknown algorithm {value:?} (reno|cubic|dctcp)"))?;
            }
            "--loss" => {
                let rate: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --loss value {value:?}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("--loss {rate} outside [0,1]"));
                }
                self.link.loss_rate = rate;
            }
            "--ecn-threshold-us" => {
                let us: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --ecn-threshold-us value {value:?}"))?;
                self.link.ecn_threshold_ns = us
                    .checked_mul(1_000)
                    .ok_or_else(|| format!("--ecn-threshold-us {us} overflows nanoseconds"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// One-line usage text for the flags [`Self::apply_cli_flag`] accepts.
    pub fn cli_help() -> &'static str {
        "[--fabric tcp|rdma|rdma-offload] [--cong reno|cubic|dctcp] \
         [--loss RATE] [--ecn-threshold-us US]"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_historical_wiring() {
        let net = NetConfig::default();
        assert_eq!(net.fabric, FabricKind::Tcp);
        assert_eq!(net.tcp.cong, CongAlgKind::Reno);
        assert_eq!(net.link.bits_per_sec, 100_000_000_000);
        assert_eq!(net.link.ecn_threshold_ns, 0);
    }

    #[test]
    fn cli_flags_parse_into_the_struct() {
        let mut net = NetConfig::default();
        assert_eq!(net.apply_cli_flag("--cong", "dctcp"), Ok(true));
        assert_eq!(net.tcp.cong, CongAlgKind::Dctcp);
        assert_eq!(net.apply_cli_flag("--fabric", "rdma"), Ok(true));
        assert_eq!(net.fabric, FabricKind::Rdma);
        assert_eq!(net.apply_cli_flag("--loss", "0.02"), Ok(true));
        assert_eq!(net.link.loss_rate, 0.02);
        assert_eq!(net.apply_cli_flag("--ecn-threshold-us", "50"), Ok(true));
        assert_eq!(net.link.ecn_threshold_ns, 50_000);
        // Unknown flags are left to the caller.
        assert_eq!(net.apply_cli_flag("--shards", "8"), Ok(false));
        // Bad values surface as errors.
        assert!(net.apply_cli_flag("--cong", "bbr").is_err());
        assert!(net.apply_cli_flag("--loss", "1.5").is_err());
        // u64::MAX / 1000 µs is the last value that fits in nanoseconds;
        // one more used to panic in debug and wrap in release.
        assert!(net
            .apply_cli_flag("--ecn-threshold-us", "18446744073709552")
            .is_err());
        assert_eq!(net.link.ecn_threshold_ns, 50_000);
        assert_eq!(
            net.apply_cli_flag("--ecn-threshold-us", "18446744073709551"),
            Ok(true)
        );
    }

    #[test]
    fn builder_helpers_compose() {
        let net = NetConfig::default().with_fabric(FabricKind::RdmaOffload);
        assert_eq!(net.fabric, FabricKind::RdmaOffload);
    }
}
