//! # dpdpu-core — the DPDPU runtime (paper §4, Figure 5)
//!
//! One object, [`Dpdpu`], assembles the three engines over a platform:
//!
//! * the **Compute Engine** (`dpdpu_compute`) for DP kernels and sprocs;
//! * the **Network Engine** (`dpdpu_net`) for TCP/RDMA offloading;
//! * the **Storage Engine** (`dpdpu_storage`) for the DPU file service
//!   and the host front end.
//!
//! The engines compose (§4 "Interactions"): shared state lives in DPU
//! memory (`platform.dpu_mem`), and one engine's output streams into the
//! next without barriers — see [`Dpdpu::read_compress_send`], the §4
//! walk-through ("read the data from local SSDs using the Storage
//! Engine … compress … in the DPU compression accelerator … deliver the
//! result to the client").
//!
//! Boot with [`Dpdpu::start`] (on a given platform) or
//! [`Dpdpu::start_default`] (EPYC + BlueField-2) inside a running
//! simulation, under a `dpdpu_check::CheckGuard`: every booted run is
//! checked, and the guard's drop runs the end-of-run sweeps. A fault plan
//! is not a runtime knob: a `dpdpu_faults::SessionGuard` installs it
//! around the run.
//!
//! ```
//! use dpdpu_core::Dpdpu;
//! use dpdpu_faults::{FaultPlan, SessionGuard};
//!
//! let guard = SessionGuard::new(FaultPlan::new(42).ssd_read_errors(0.01));
//! let _check = dpdpu_check::CheckGuard::new();
//! dpdpu_des::block_on(async {
//!     let rt = Dpdpu::start_default();
//!     let file = rt.storage.create("t").await.unwrap();
//!     rt.storage.write(file, 0, b"payload").await.unwrap();
//! });
//! println!("{}", guard.session.report());
//! ```

mod error;
mod report;
mod runtime;
mod tenants;

pub use error::DpdpuError;
pub use report::Report;
pub use runtime::Dpdpu;
pub use tenants::{SloClass, TenantSpec};
