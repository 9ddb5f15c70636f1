//! # dpdpu-dds — DDS, the DPU-optimized disaggregated storage server
//! (paper §9, Figure 9)
//!
//! DDS is the paper's first realized piece of DPDPU: a storage server
//! where remote requests are **partially offloaded** — served directly on
//! the DPU when possible, forwarded to the host otherwise — because DPU
//! memory is an order of magnitude too small to hold everything (§7).
//! The three questions DDS answers map to this crate's modules:
//!
//! * **Q1 — files from the DPU**: the DPU owns the file mapping through
//!   `dpdpu_storage`'s [`FileService`]; see [`server`].
//! * **Q2 — directing traffic**: [`director`] classifies each reassembled
//!   request DPU-vs-host without breaking transport semantics (the
//!   transport terminates on the DPU; both paths answer through it).
//! * **Q3 — general, efficient offloading**: the UDF of §7 — parse a
//!   network message, decide whether the DPU can serve it alone, run it
//!   against the DPU file service — is [`proto::Request::decode`], then
//!   the server's `wants_dpu` and `try_exec` over the decoded
//!   [`proto::Op`]; see [`server::Dds::handle`].
//!
//! Two production-system stand-ins exercise the whole path end to end:
//!
//! * [`kv`] — a FASTER-style key-value store (in-memory hash index over
//!   a hybrid log) whose index is split between DPU and host memory;
//! * [`pageserver`] — an Azure-SQL-Hyperscale-style page server (WAL
//!   replay + GetPage) where dirty pages must be host-served until
//!   replay catches up.
//!
//! [`FileService`]: dpdpu_storage::FileService

pub mod cluster;
pub mod director;
pub mod gateway;
pub mod kv;
pub mod pageserver;
pub mod proto;
pub mod replication;
pub mod server;
