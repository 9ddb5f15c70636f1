//! The repository's performance ledger. See `benchmark/README.md`.
//!
//! `BENCHMARK.json` at the repository root is the single list of metric
//! and workload names, units, directions and bounds; the code here
//! computes values by name and [`spec::Spec`] decides what is emitted.

pub mod drive;
pub mod host;
pub mod isolated;
pub mod layers;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
