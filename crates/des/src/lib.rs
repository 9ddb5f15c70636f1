//! # dpdpu-des — deterministic virtual-time discrete-event simulation
//!
//! A single-threaded async executor whose clock is *virtual*: time only
//! advances when every runnable task is blocked, and then it jumps straight
//! to the earliest pending timer deadline. Simulated hardware (CPU pools,
//! accelerators, NICs, SSDs) is modelled as [`Server`]s — FIFO resources
//! with a capacity and a per-request service time — and protocol logic is
//! written as ordinary `async` Rust awaiting [`sleep`], channels, and
//! semaphores.
//!
//! Determinism guarantees:
//!
//! * the run queue is FIFO and timer ties are broken by registration
//!   sequence number, so two runs of the same program produce identical
//!   event orders and identical virtual-time results;
//! * there is no real-time or OS dependency anywhere in the executor.
//!
//! ## Quick example
//!
//! ```
//! use dpdpu_des::{Sim, sleep, now};
//!
//! let mut sim = Sim::new();
//! sim.spawn(async {
//!     sleep(1_000).await;          // 1 µs of virtual time
//!     assert_eq!(now(), 1_000);
//! });
//! let end = sim.run();
//! assert_eq!(end, 1_000);
//! ```

mod channel;
mod combinators;
pub mod domain;
mod drr;
mod executor;
mod oneshot;
pub mod probe;
mod semaphore;
mod server;
mod stats;
mod time;

pub use channel::{channel, Receiver, SendError, Sender};
pub use combinators::{join_all, race, timeout, Either, Elapsed};
pub use domain::{DomainHooks, DomainSet, NoHooks, XReceiver, XSender};
pub use drr::Drr;
pub use executor::{now, sleep, sleep_until, spawn, try_now, yield_now, JoinHandle, Sim};
pub use oneshot::{oneshot, OneshotReceiver, OneshotSender};
pub use semaphore::{Permit, Semaphore};
pub use server::Server;
pub use stats::{Counter, Gauge, Histogram};
pub use time::{cycles_to_ns, transmit_ns, Time, MICROS, MILLIS, SECONDS};
