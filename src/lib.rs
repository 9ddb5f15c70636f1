//! # DPDPU — Data Processing with DPUs
//!
//! A full reproduction of *"DPDPU: Data Processing with DPUs"* (CIDR
//! 2025): a holistic DPU-centric framework for cloud data processing,
//! built as a deterministic simulation of the hardware the paper targets
//! (NVIDIA BlueField-2 class DPUs) with the real data-path algorithms
//! executing on top.
//!
//! This crate is the facade: it re-exports every workspace crate under
//! one roof and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! ```
//! use dpdpu::check::CheckGuard;
//! use dpdpu::core::Dpdpu;
//! use dpdpu::des::block_on;
//!
//! let _check = CheckGuard::new(); // every booted run is checked
//! block_on(async {
//!     let rt = Dpdpu::start_default();
//!     let file = rt.storage.create("hello.db").await.unwrap();
//!     rt.storage.write(file, 0, b"hello dpu").await.unwrap();
//!     let back = rt.storage.read(file, 0, 9).await.unwrap();
//!     assert_eq!(back, b"hello dpu");
//! });
//! ```

/// Conformance checking: simulation invariants, golden-file helpers.
pub use dpdpu_check as check;
/// Compute Engine: DP kernels, placement, sproc scheduling.
pub use dpdpu_compute as compute;
/// The assembled DPDPU runtime.
pub use dpdpu_core as core;
/// DDS: the DPU-optimized disaggregated storage server.
pub use dpdpu_dds as dds;
/// Deterministic virtual-time simulation substrate.
pub use dpdpu_des as des;
/// Deterministic seed-driven fault injection.
pub use dpdpu_faults as faults;
/// Calibrated device models (CPUs, accelerators, NICs, PCIe, SSDs).
pub use dpdpu_hw as hw;
/// Real data-path kernels (DEFLATE, AES, SHA-256, regex, dedup, relops).
pub use dpdpu_kernels as kernels;
/// Network Engine: TCP and RDMA, host vs DPU-offloaded.
pub use dpdpu_net as net;
/// Storage Engine: file system, DPU file service, front end, persistence.
pub use dpdpu_storage as storage;
/// Telemetry: virtual-time spans, metrics, timelines, Chrome-trace export.
pub use dpdpu_telemetry as telemetry;

// The README's Rust blocks run as doctests of this crate.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
