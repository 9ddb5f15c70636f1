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
//! use dpdpu_des::{block_on, now, sleep};
//!
//! let end = block_on(async {
//!     sleep(1_000).await;          // 1 µs of virtual time
//!     now()
//! });
//! assert_eq!(end, 1_000);
//! ```
//!
//! [`block_on`] is how an experiment runs: a fresh [`Sim`], the body as
//! its root task, run to quiescence, the body's value handed back (and a
//! panic if the body deadlocks). Drive a [`Sim`] by hand only when the
//! caller needs the handle — partial runs with [`Sim::run_until`], poll
//! counts, or one root per time domain ([`domain`]).

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
mod timer;

pub use channel::{channel, Receiver, SendError, Sender};
pub use combinators::{join_all, race, timeout, Either, Elapsed};
pub use domain::{DomainHooks, DomainSet, NoHooks, XReceiver, XSender};
pub use drr::Drr;
pub use executor::{block_on, now, sleep, sleep_until, spawn, try_now, yield_now, JoinHandle, Sim};
pub use oneshot::{oneshot, OneshotReceiver, OneshotSender};
pub use probe::Site;
pub use semaphore::{Permit, Semaphore};
pub use server::Server;
pub use stats::{Counter, Gauge, Histogram};
pub use time::{cycles_to_ns, transmit_ns, Time, MICROS, MILLIS, SECONDS};
