//! # dpdpu-hw — device models for DPUs and host servers
//!
//! The paper evaluates on real hardware (NVIDIA BlueField-2 DPUs, AMD EPYC
//! hosts, 100 Gbps NICs, NVMe SSDs) that this reproduction does not have.
//! This crate substitutes *calibrated discrete-event models* of each device
//! class, built on [`dpdpu_des`]:
//!
//! * [`CpuPool`] — a pool of identical cores at a clock rate; work is
//!   charged in cycles and accounted as busy time, which is how the paper
//!   reports "CPU cores consumed" (Figures 2 and 3).
//! * [`Accelerator`] — a fixed-function ASIC with a fixed setup latency,
//!   a streaming bandwidth, and a bounded number of concurrent contexts
//!   (Figure 1's compression engine, plus crypto/regex/dedup).
//! * [`Link`] — a point-to-point network link: FIFO serialization at line
//!   rate, propagation delay, optional seeded random loss.
//! * [`PcieLink`] — host↔DPU and DPU↔SSD DMA with per-transaction latency
//!   and bandwidth sharing.
//! * [`Ssd`] — an NVMe device with bounded queue depth, per-op base
//!   latency, and internal bandwidth.
//! * [`Memory`] — a capacity tracker used for the DPU's limited onboard
//!   memory (the constraint that forces DDS-style *partial* offloading).
//!
//! * [`PeerDevice`] — a PCIe peer accelerator (a GPU) with per-launch
//!   overheads, the fusion substrate of §5's extension.
//!
//! Device *specifications* ([`DpuSpec`], [`HostSpec`]) describe concrete
//! products — BlueField-2 (Figure 4), BlueField-3, Intel IPU — including
//! which accelerators each one carries, which is exactly the heterogeneity
//! DP kernels must absorb (paper §5). [`Platform`] instantiates live
//! devices from a pair of specs.

mod accel;
pub mod costs;
mod cpu;
mod link;
mod memory;
mod pcie;
mod peer;
mod platform;
mod spec;
mod ssd;

pub use accel::{AccelError, Accelerator};
pub use cpu::CpuPool;
pub use link::{Link, LinkConfig};
pub use memory::{Memory, MemoryError, MemoryReservation};
pub use pcie::PcieLink;
pub use peer::{PeerDevice, PeerSpec};
pub use platform::Platform;
pub use spec::{AccelKind, AccelSpec, DpuSpec, HostSpec};
pub use ssd::{IoError, Ssd};
