//! # dpdpu-net — the Network Engine (paper §6)
//!
//! The Network Engine (NE) lowers the host-CPU cost of communication by
//! moving protocol execution onto the DPU while host applications keep
//! their familiar APIs:
//!
//! * [`tcp`] — a message-segmented TCP implementation (handshake, sliding
//!   window, congestion control — Reno, CUBIC, or DCTCP as policies over
//!   one window, picked by [`tcp::CongAlgKind`] — fast retransmit, RTO) that can run
//!   its protocol either on **host cores through the kernel path** or on
//!   **DPU cores behind a POSIX-like socket front end** where the host
//!   only touches lock-free rings and payload DMA (the §6 proposal).
//!   Figure 3's CPU-vs-bandwidth curve and its offloaded counterpart come
//!   from this module.
//! * [`rdma`] — RDMA verbs with explicit issue-side costs (WQE build,
//!   queue-pair lock, doorbell MMIO) and NIC-side op processing.
//! * [`rdma_offload`] — the paper's Figure 7 design: requests go into
//!   DMA-accessible lock-free rings, the DPU polls them with its DMA
//!   engine and issues the verbs itself, and the host only polls a
//!   completion ring.
//! * [`dfi`] — a DFI-style flow interface (pipelined record shipping)
//!   layered over either RDMA path, showing how an existing
//!   communication framework adopts the NE by swapping its transport.
//! * [`fabric`] — the cluster fabric: [`fabric::Endpoint`] says who is
//!   talking (and whether that side's stack runs on a DPU), and
//!   [`NetConfig::connect`] yields the `Connection` pair over which
//!   `DdsCluster` moves its per-shard request/response traffic — over
//!   TCP, host-verbs RDMA, or DPU-issued (NE-ring) RDMA, the latter two
//!   behind one credit-flow-controlled RPC framing.
//! * [`config`] — [`NetConfig`], the one bundle of link, TCP, and fabric
//!   parameters that `ClusterConfig` threads through the stack, with the
//!   shared `--fabric`/`--cong`/`--loss`/`--ecn-threshold-us` CLI flag
//!   parser the benchmark bins use.

pub mod config;
pub mod dfi;
pub mod fabric;
pub mod rdma;
pub mod rdma_offload;
pub mod tcp;

pub use config::NetConfig;
