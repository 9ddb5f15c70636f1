//! Utilisation-accounting FIFO service centres.
//!
//! A [`Server`] models a hardware resource with a fixed number of identical
//! service slots (CPU cores, accelerator queues, NVMe channels). Requests
//! occupy one slot for their service time; busy nanoseconds are accumulated
//! so callers can report utilisation in "cores consumed" — the metric used
//! by the paper's Figures 2 and 3.

use std::cell::Cell;
use std::rc::Rc;

use crate::executor::{now, sleep};
use crate::probe::{self, Site};
use crate::semaphore::Semaphore;
use crate::time::Time;

/// A FIFO multi-slot service centre with busy-time accounting.
pub struct Server {
    name: String,
    site: Site,
    slots: usize,
    sem: Semaphore,
    busy_ns: Cell<u64>,
    completed: Cell<u64>,
}

impl Server {
    /// Creates a server with `slots` parallel service slots.
    pub fn new(name: impl Into<String>, slots: usize) -> Rc<Self> {
        assert!(slots > 0, "server needs at least one slot");
        let name = name.into();
        let site = Site::new(&name);
        // The slot semaphore carries the server's site so a conformance
        // checker can balance acquires against releases per resource.
        let sem = Semaphore::build(Some(site), slots);
        Rc::new(Server {
            name,
            site,
            slots,
            sem,
            busy_ns: Cell::new(0),
            completed: Cell::new(0),
        })
    }

    /// Server name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned name this server's probe events carry. Models
    /// wrapping one server (a link's wire, a PCIe lane) book their
    /// conformance check-points under it.
    pub fn site(&self) -> Site {
        self.site
    }

    /// Number of parallel slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Occupies one slot for `service_ns` of virtual time (FIFO queueing in
    /// front of the slots).
    pub async fn process(&self, service_ns: Time) {
        // Timestamps are only taken when a probe is installed, keeping the
        // common (untraced) path free of clock reads.
        let queued_at = if probe::probe_enabled() {
            Some(now())
        } else {
            None
        };
        let _permit = self.sem.acquire().await;
        if let Some(t0) = queued_at {
            let t1 = now();
            if t1 > t0 {
                probe::emit_span(self.site, "wait", t0, t1);
            }
        }
        let started = queued_at.map(|_| now());
        sleep(service_ns).await;
        if let Some(t0) = started {
            probe::emit_span(self.site, "serve", t0, now());
        }
        self.busy_ns.set(self.busy_ns.get() + service_ns);
        self.completed.set(self.completed.get() + 1);
    }

    /// Requests currently queued waiting for a slot (an instantaneous
    /// load signal for schedulers).
    pub fn queue_len(&self) -> usize {
        self.sem.queue_len()
    }

    /// Slots currently free.
    pub fn free_slots(&self) -> usize {
        self.sem.available()
    }

    /// Total busy nanoseconds accumulated across all slots.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.get()
    }

    /// Completed request count.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Average number of busy slots over `elapsed` — e.g. "CPU cores
    /// consumed" when the slots are cores.
    pub fn cores_consumed(&self, elapsed: Time) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.busy_ns.get() as f64 / elapsed as f64
    }

    /// Utilisation in `[0, 1]` of the whole pool over `elapsed`.
    pub fn utilization(&self, elapsed: Time) -> f64 {
        self.cores_consumed(elapsed) / self.slots as f64
    }

    /// Resets accounting counters (not queue state).
    pub fn reset_stats(&self) {
        self.busy_ns.set(0);
        self.completed.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, spawn, Sim};

    #[test]
    fn single_slot_serializes() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let server = Server::new("cpu", 1);
            let mut handles = Vec::new();
            for _ in 0..3 {
                let server = server.clone();
                handles.push(spawn(async move {
                    server.process(100).await;
                    now()
                }));
            }
            let mut ends = Vec::new();
            for h in handles {
                ends.push(h.await);
            }
            assert_eq!(ends, vec![100, 200, 300]);
            assert_eq!(server.busy_ns(), 300);
            assert_eq!(server.completed(), 3);
            assert!((server.cores_consumed(300) - 1.0).abs() < 1e-9);
        });
        sim.run();
    }

    #[test]
    fn multi_slot_overlaps() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let server = Server::new("pool", 4);
            let mut handles = Vec::new();
            for _ in 0..8 {
                let server = server.clone();
                handles.push(spawn(async move {
                    server.process(50).await;
                }));
            }
            for h in handles {
                h.await;
            }
            // 8 jobs of 50 on 4 slots => finishes at 100.
            assert_eq!(now(), 100);
            assert!((server.utilization(100) - 1.0).abs() < 1e-9);
        });
        sim.run();
    }

    #[test]
    fn queue_metrics_reflect_backlog() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let server = Server::new("s", 1);
            assert_eq!(server.free_slots(), 1);
            let mut hs = Vec::new();
            for _ in 0..3 {
                let server = server.clone();
                hs.push(spawn(async move { server.process(1_000).await }));
            }
            crate::executor::yield_now().await;
            crate::executor::yield_now().await;
            assert_eq!(server.free_slots(), 0);
            assert!(server.queue_len() >= 1, "waiters must be visible");
            for h in hs {
                h.await;
            }
            assert_eq!(server.free_slots(), 1);
            assert_eq!(server.queue_len(), 0);
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = Server::new("bad", 0);
    }
}
