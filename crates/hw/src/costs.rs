//! Calibrated cost constants.
//!
//! Absolute timings in the paper come from the authors' testbed; this
//! reproduction targets the *shapes* of the reported results (orderings,
//! slopes, crossover points), so each constant below is chosen to match a
//! quantitative anchor from the paper or its cited systems, documented
//! inline. All compute costs are in CPU cycles so they scale with the core
//! clock of whichever device runs them.

/// CPU cycles per byte for software DEFLATE compression on a modern x86
/// server core.
///
/// Anchor: Figure 1 shows the EPYC CPU compressing hundreds of MB in tens
/// of seconds; 55 cycles/byte at 3.0 GHz is ~54 MB/s per core, which is in
/// the middle of the range reported for single-threaded zlib level 6.
pub const DEFLATE_CYCLES_PER_BYTE_X86: u64 = 55;

/// CPU cycles per byte for software DEFLATE on an Arm A72 (BlueField-2 /
/// Graviton-class) core.
///
/// Anchor: Figure 1 shows the Arm CPU ~2–3× slower than EPYC; 110
/// cycles/byte at 2.5 GHz is ~22.7 MB/s per core.
pub const DEFLATE_CYCLES_PER_BYTE_ARM: u64 = 110;

/// BlueField-2 compression ASIC streaming bandwidth, bytes/sec.
///
/// Anchor: Figure 1 — "the compression accelerator on BF-2 outperforms
/// CPUs by an order of magnitude". 550 MB/s ≈ 10.1× the EPYC software rate
/// above.
pub(crate) const BF2_COMPRESS_ASIC_BYTES_PER_SEC: u64 = 550_000_000;

/// Fixed per-job setup latency of DPU hardware accelerators, nanoseconds.
/// Covers descriptor submission, engine scheduling, and completion
/// interrupt/poll. ASICs trade latency for throughput (paper §5: "high
/// throughput with high latency").
pub(crate) const ACCEL_FIXED_LATENCY_NS: u64 = 8_000;

/// Cycles per byte for software AES-128-CTR on x86 *without* AES-NI usage
/// in the model (worst-case software path the accelerator displaces).
pub const AES_CYCLES_PER_BYTE_X86: u64 = 18;

/// Cycles per byte for software AES on Arm cores.
pub const AES_CYCLES_PER_BYTE_ARM: u64 = 35;

/// BlueField-2 crypto ASIC bandwidth, bytes/sec (line-rate capable).
pub(crate) const BF2_CRYPTO_ASIC_BYTES_PER_SEC: u64 = 12_500_000_000;

/// Cycles per byte for software regex scanning (Thompson NFA).
pub const REGEX_CYCLES_PER_BYTE_CPU: u64 = 40;

/// BlueField-2 RegEx ASIC (RXP) bandwidth, bytes/sec.
pub(crate) const BF2_REGEX_ASIC_BYTES_PER_SEC: u64 = 4_000_000_000;

/// Cycles per byte for SHA-256 hashing in software.
pub const SHA_CYCLES_PER_BYTE_CPU: u64 = 12;

/// Dedup ASIC (content hashing) bandwidth, bytes/sec.
pub(crate) const BF2_DEDUP_ASIC_BYTES_PER_SEC: u64 = 8_000_000_000;

/// Host CPU cycles consumed per storage I/O through the Linux kernel path
/// (syscall entry/exit, VFS, block layer, interrupt handling, copyout).
///
/// Anchor: Figure 2 — 2.7 cores at 450 K pages/s. With 3.0 GHz host cores:
/// 2.7 × 3e9 / 450e3 = 18 000 cycles/op.
pub const LINUX_IO_CYCLES_PER_OP: u64 = 18_000;

/// Host CPU cycles per storage I/O through io_uring (batched submission
/// amortises syscalls, but VFS/block-layer/completion work remains).
///
/// Anchor: §2.2 — "We also tested Linux storage performance with the
/// more recent io_uring, but observed similar CPU cost."
pub const IOURING_IO_CYCLES_PER_OP: u64 = 16_500;

/// DPU CPU cycles per storage I/O on the SPDK-style polled userspace path
/// (no syscalls, no interrupts; paper §3 and §7).
pub const SPDK_IO_CYCLES_PER_OP: u64 = 2_500;

/// Host CPU cycles per file operation submitted through the DPDPU Storage
/// Engine front-end library (enqueue on a lock-free ring + later poll of
/// the completion ring; paper §7 "lock-free ring buffers ... lazily
/// DMA'ed").
pub const SE_HOST_RING_CYCLES_PER_OP: u64 = 600;

/// Host CPU cycles per TCP message (socket call, sk_buff management,
/// ACK processing amortised per 8 KB send). The TCP model adds 0.5
/// cycles per payload byte on top (checksum, segmentation bookkeeping,
/// copies between socket buffers and userspace).
///
/// Anchor: Figure 3 — substantial multi-core consumption approaching
/// 100 Gbps with 8 KB messages. 0.5 cycles/byte + 6000 cycles/message gives
/// ≈5.1 cores at 100 Gbps on 3 GHz cores.
pub const TCP_CYCLES_PER_MSG: u64 = 6_000;

/// DPU CPU cycles per TCP message when the stack runs on the DPU
/// (userspace stack, no syscall, batched rings; IO-TCP-style data plane).
pub const DPU_TCP_CYCLES_PER_MSG: u64 = 2_200;

/// Host CPU cycles per message with the NE socket front end (ring enqueue
/// + completion poll only; protocol runs on the DPU).
pub const NE_HOST_RING_CYCLES_PER_MSG: u64 = 450;

/// Host CPU cycles to issue one RDMA verb through standard userspace
/// verbs: WQE construction, queue-pair spinlock, memory fence, doorbell
/// MMIO write (an uncached PCIe write that stalls the store buffer).
///
/// Anchor: §6 "accessing the send/receive queues ... requires spinlocks
/// and memory fences; CPU stalls ... when ringing the doorbell register",
/// overheads confirmed by Cowbird (the paper's reference 10).
pub const RDMA_VERB_ISSUE_CYCLES: u64 = 450;

/// Host CPU cycles to poll one RDMA completion from the CQ.
pub const RDMA_CQ_POLL_CYCLES: u64 = 120;

/// Host CPU cycles to enqueue one request descriptor on the NE's
/// DMA-accessible lock-free ring (plain cached store + head update).
pub const NE_RING_ENQUEUE_CYCLES: u64 = 80;

/// DPU CPU cycles for the NE to convert one polled descriptor into an
/// RDMA verb on the DPU-side NIC interface.
pub const DPU_RDMA_ISSUE_CYCLES: u64 = 300;

/// NIC processing latency per RDMA operation, nanoseconds (hardware QP
/// processing, independent of payload).
pub const RDMA_NIC_OP_NS: u64 = 600;

/// PCIe 4.0 round-trip latency for a small DMA transaction, nanoseconds.
pub(crate) const PCIE_RTT_NS: u64 = 700;

/// Per-DMA-transaction engine overhead on top of the RTT, nanoseconds.
pub(crate) const DMA_SETUP_NS: u64 = 150;

/// Descriptor size on the SE/NE request and completion rings, bytes.
pub const RING_DESC_BYTES: u64 = 64;

/// Re-probe cadence of a DPU ring poller that found its ring empty,
/// nanoseconds.
pub(crate) const RING_IDLE_POLL_NS: u64 = 1_000;

/// NVMe SSD read base latency (4K–8K random read), nanoseconds.
pub(crate) const SSD_READ_LATENCY_NS: u64 = 78_000;

/// NVMe SSD write base latency (SLC-cache absorbed), nanoseconds.
pub(crate) const SSD_WRITE_LATENCY_NS: u64 = 14_000;

/// NVMe SSD internal read bandwidth, bytes/sec.
pub(crate) const SSD_READ_BYTES_PER_SEC: u64 = 3_200_000_000;

/// NVMe SSD internal write bandwidth, bytes/sec.
pub(crate) const SSD_WRITE_BYTES_PER_SEC: u64 = 2_800_000_000;

/// NVMe queue depth per device.
pub(crate) const SSD_QUEUE_DEPTH: usize = 128;

/// Host kernel network stack one-way latency, nanoseconds (driver,
/// softirq, socket wakeup, scheduler).
pub const HOST_KERNEL_NET_NS: u64 = 15_000;

/// One-way propagation + switching delay inside a data-center rack,
/// nanoseconds.
pub(crate) const RACK_PROPAGATION_NS: u64 = 2_000;

/// Context-switch / wakeup penalty when a host thread blocks on I/O,
/// nanoseconds.
pub const HOST_WAKEUP_NS: u64 = 3_000;
