//! # dpdpu-compute — the Compute Engine (paper §5)
//!
//! The Compute Engine (CE) gives data systems *efficient, general-purpose,
//! easy-to-program, portable* compute on a DPU-equipped server:
//!
//! * **DP kernels** ([`KernelOp`], [`DpKernel`]) — compute-heavy functions
//!   (compression, encryption, regex, dedup, hashing, relational
//!   operators) that can execute on *any* device: a hardware ASIC, a DPU
//!   core, or a host core. The functional result is identical everywhere;
//!   only latency and resource consumption differ.
//! * **Placement** ([`Placement`]) — *specified execution* pins a kernel
//!   to a target and reports [`KernelError::TargetUnavailable`] when that
//!   target does not exist on this DPU (the Figure 6 fallback pattern);
//!   *scheduled execution* lets the CE pick the fastest available device
//!   from capability + instantaneous load.
//! * **Sproc scheduling** ([`Scheduler`]) — stored procedures arrive at
//!   high rates and mixed sizes; the CE schedules them across DPU and
//!   host cores with FCFS or deficit-round-robin queues (the iPipe
//!   discipline the paper cites) and migrates work to the host when the
//!   DPU backs up.
//! * **Multi-tenancy** — DRR classes carry per-tenant weights, giving
//!   weighted fair shares of DPU compute, and [`AccelShares`]
//!   virtualizes an (unvirtualized) hardware accelerator with
//!   byte-weighted DRR queues in front of it (paper §5's isolation
//!   challenge).

mod engine;
mod ground_truth;
mod kernel;
mod scheduler;
mod tenant;

pub use engine::{ComputeEngine, DpKernel, Placement};
pub use kernel::{ExecTarget, KernelError, KernelInput, KernelKind, KernelOp, KernelOutput};
pub use scheduler::{SchedPolicy, Scheduler, SprocSpec};
pub use tenant::AccelShares;
