//! # dpdpu-storage — the Storage Engine (paper §7)
//!
//! The Storage Engine (SE) moves file execution off host CPUs:
//!
//! * [`BlockDevice`] — a content-holding block store whose timing comes
//!   from the calibrated NVMe model (`dpdpu_hw::Ssd`). Reads return the
//!   bytes that were actually written; every experiment downstream
//!   operates on real data.
//! * [`ExtentFs`] — an extent-based file system (inode table, block
//!   allocator with free-list reuse, directory). In DPDPU the DPU owns
//!   this file mapping — the prerequisite for serving remote requests
//!   without the host (DDS question Q1, §9).
//! * [`FileService`] — the DPU-side userspace file service (the SPDK-like
//!   polled path of §3/§7): file ops charge DPU cores a few thousand
//!   cycles and reach the SSD over peer-to-peer PCIe.
//! * [`HostKernelPath`] — the baseline this replaces: the same file
//!   system driven through the Linux kernel path at
//!   `LINUX_IO_CYCLES_PER_OP` per I/O on *host* cores (Figure 2's line).
//! * [`HostFrontEnd`] — the POSIX-like host library: lock-free request
//!   rings lazily DMA'd by the DPU (§7 "offloading file execution").
//! * [`PageCache`] / [`CachedFileService`] — the §9 "caching in the
//!   DPU-backed file system" extension: real LRU page caches whose
//!   capacity is charged against host or DPU memory, composable on both
//!   sides of the PCIe boundary.
//! * [`FastPersist`] — the §9 "faster persistence" extension: the DPU
//!   persists a write via PCIe P2P and acknowledges *before* forwarding
//!   to the host, cutting commit latency.
//! * [`RecordLog`] — the one append-only record log under `FastPersist`,
//!   the DDS KV store's hybrid log and the page server's WAL: the
//!   reserve-then-write tail and the torn-tail recovery walk.

mod blockdev;
mod cache;
mod front_end;
mod fs;
mod log;
mod persist;
mod service;

pub use blockdev::BlockDevice;
pub use cache::{CachedFileService, PageCache};
pub use front_end::HostFrontEnd;
pub use fs::{ExtentFs, FileId, FsError};
pub use log::RecordLog;
pub use persist::{AckMode, FastPersist};
pub use service::{FileService, HostKernelPath};
