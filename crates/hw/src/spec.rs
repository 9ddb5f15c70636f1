//! Device specifications: concrete DPU and host products.
//!
//! DPU heterogeneity (paper challenge #3) is captured here as data: two
//! DPUs differ in core count/clock, memory, PCIe rate, and — critically —
//! which fixed-function accelerators they carry. BlueField-2 has a RegEx
//! engine; BlueField-3 and Intel IPU do not. DP kernels consult this
//! inventory at placement time instead of baking in vendor assumptions.

use crate::costs;

/// Fixed-function accelerator classes found on DPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccelKind {
    /// DEFLATE-class compression/decompression engine.
    Compression,
    /// Block-cipher (AES-class) engine.
    Encryption,
    /// Regular-expression matching engine (BlueField-2 RXP).
    RegEx,
    /// Content-hashing / deduplication engine.
    Dedup,
}

/// One accelerator instance on a DPU.
#[derive(Debug, Clone, Copy)]
pub struct AccelSpec {
    /// Function implemented.
    pub(crate) kind: AccelKind,
    /// Concurrent hardware contexts.
    pub(crate) contexts: usize,
    /// Fixed per-job latency, ns.
    pub(crate) fixed_latency_ns: u64,
    /// Streaming bandwidth, bytes/sec.
    pub(crate) bytes_per_sec: u64,
}

/// A DPU product description (paper Figure 4 for BlueField-2).
#[derive(Debug, Clone)]
pub struct DpuSpec {
    /// Product name.
    pub name: &'static str,
    /// Onboard general-purpose cores.
    pub cores: usize,
    /// Core clock, Hz.
    pub clock_hz: u64,
    /// Onboard DRAM, bytes.
    pub(crate) mem_bytes: u64,
    /// Accelerator inventory (heterogeneous across vendors).
    pub(crate) accels: Vec<AccelSpec>,
    /// Host-facing PCIe DMA bandwidth, bytes/sec.
    pub pcie_bytes_per_sec: u64,
}

impl DpuSpec {
    /// NVIDIA BlueField-2: 8× Arm A72 @ 2.5 GHz, 16 GB DDR4, compression +
    /// crypto + RegEx + dedup engines, ConnectX-6 100 Gbps, PCIe 4.0
    /// (paper §3, Figure 4).
    pub fn bluefield2() -> Self {
        DpuSpec {
            name: "BlueField-2",
            cores: 8,
            clock_hz: 2_500_000_000,
            mem_bytes: 16 << 30,
            accels: vec![
                AccelSpec {
                    kind: AccelKind::Compression,
                    contexts: 2,
                    fixed_latency_ns: costs::ACCEL_FIXED_LATENCY_NS,
                    bytes_per_sec: costs::BF2_COMPRESS_ASIC_BYTES_PER_SEC,
                },
                AccelSpec {
                    kind: AccelKind::Encryption,
                    contexts: 4,
                    fixed_latency_ns: costs::ACCEL_FIXED_LATENCY_NS,
                    bytes_per_sec: costs::BF2_CRYPTO_ASIC_BYTES_PER_SEC,
                },
                AccelSpec {
                    kind: AccelKind::RegEx,
                    contexts: 2,
                    fixed_latency_ns: costs::ACCEL_FIXED_LATENCY_NS,
                    bytes_per_sec: costs::BF2_REGEX_ASIC_BYTES_PER_SEC,
                },
                AccelSpec {
                    kind: AccelKind::Dedup,
                    contexts: 2,
                    fixed_latency_ns: costs::ACCEL_FIXED_LATENCY_NS,
                    bytes_per_sec: costs::BF2_DEDUP_ASIC_BYTES_PER_SEC,
                },
            ],
            pcie_bytes_per_sec: 16_000_000_000,
        }
    }

    /// NVIDIA BlueField-3: more/faster cores, **no RegEx engine** (paper
    /// §1/§5 heterogeneity example).
    pub fn bluefield3() -> Self {
        DpuSpec {
            name: "BlueField-3",
            cores: 16,
            clock_hz: 3_000_000_000,
            mem_bytes: 32 << 30,
            accels: vec![
                AccelSpec {
                    kind: AccelKind::Compression,
                    contexts: 4,
                    fixed_latency_ns: costs::ACCEL_FIXED_LATENCY_NS,
                    bytes_per_sec: 2 * costs::BF2_COMPRESS_ASIC_BYTES_PER_SEC,
                },
                AccelSpec {
                    kind: AccelKind::Encryption,
                    contexts: 4,
                    fixed_latency_ns: costs::ACCEL_FIXED_LATENCY_NS,
                    bytes_per_sec: 2 * costs::BF2_CRYPTO_ASIC_BYTES_PER_SEC,
                },
                AccelSpec {
                    kind: AccelKind::Dedup,
                    contexts: 2,
                    fixed_latency_ns: costs::ACCEL_FIXED_LATENCY_NS,
                    bytes_per_sec: costs::BF2_DEDUP_ASIC_BYTES_PER_SEC,
                },
            ],
            pcie_bytes_per_sec: 32_000_000_000,
        }
    }

    /// Intel IPU (Mount Evans class): Neoverse cores, crypto +
    /// compression, **no RegEx, no dedup** (paper §1 heterogeneity
    /// example).
    pub fn intel_ipu() -> Self {
        DpuSpec {
            name: "Intel-IPU",
            cores: 16,
            clock_hz: 2_500_000_000,
            mem_bytes: 16 << 30,
            accels: vec![
                AccelSpec {
                    kind: AccelKind::Compression,
                    contexts: 2,
                    fixed_latency_ns: costs::ACCEL_FIXED_LATENCY_NS,
                    bytes_per_sec: costs::BF2_COMPRESS_ASIC_BYTES_PER_SEC,
                },
                AccelSpec {
                    kind: AccelKind::Encryption,
                    contexts: 4,
                    fixed_latency_ns: costs::ACCEL_FIXED_LATENCY_NS,
                    bytes_per_sec: costs::BF2_CRYPTO_ASIC_BYTES_PER_SEC,
                },
            ],
            pcie_bytes_per_sec: 24_000_000_000,
        }
    }

    /// Looks up the spec for an accelerator kind, if this DPU has one.
    pub fn accel(&self, kind: AccelKind) -> Option<&AccelSpec> {
        self.accels.iter().find(|a| a.kind == kind)
    }
}

/// A host server description.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Product name.
    pub name: &'static str,
    /// Core count.
    pub(crate) cores: usize,
    /// Core clock, Hz.
    pub clock_hz: u64,
    /// DRAM, bytes.
    pub(crate) mem_bytes: u64,
}

impl HostSpec {
    /// AMD EPYC-class server (the paper's Figure 1 x86 baseline).
    pub fn epyc() -> Self {
        HostSpec {
            name: "EPYC",
            cores: 64,
            clock_hz: 3_000_000_000,
            mem_bytes: 256 << 30,
        }
    }

    /// Arm server (the paper's Figure 1 Arm baseline).
    pub fn arm_server() -> Self {
        HostSpec {
            name: "Arm",
            cores: 64,
            clock_hz: 2_500_000_000,
            mem_bytes: 256 << 30,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf2_matches_figure4() {
        let bf2 = DpuSpec::bluefield2();
        assert_eq!(bf2.cores, 8);
        assert_eq!(bf2.clock_hz, 2_500_000_000);
        assert_eq!(bf2.mem_bytes, 16 << 30);
        for kind in [
            AccelKind::Compression,
            AccelKind::Encryption,
            AccelKind::RegEx,
            AccelKind::Dedup,
        ] {
            assert!(bf2.accel(kind).is_some(), "BF-2 should carry {kind:?}");
        }
    }

    #[test]
    fn heterogeneity_regex_only_on_bf2() {
        assert!(DpuSpec::bluefield2().accel(AccelKind::RegEx).is_some());
        assert!(DpuSpec::bluefield3().accel(AccelKind::RegEx).is_none());
        assert!(DpuSpec::intel_ipu().accel(AccelKind::RegEx).is_none());
    }
}
