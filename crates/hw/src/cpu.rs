//! CPU core pools with cycle-based accounting.

use std::rc::Rc;

use dpdpu_des::{cycles_to_ns, Server, Time};

/// A pool of identical CPU cores at a fixed clock rate.
///
/// Work is charged in cycles: `exec(cycles)` queues FIFO for a free core,
/// occupies it for `cycles / clock` of virtual time, and accumulates busy
/// time. [`CpuPool::cores_consumed`] then reports the paper's
/// "CPU cores consumed" metric.
pub struct CpuPool {
    server: Rc<Server>,
    clock_hz: u64,
}

impl CpuPool {
    /// Creates a pool of `cores` cores at `clock_hz`.
    pub fn new(name: impl Into<String>, cores: usize, clock_hz: u64) -> Rc<Self> {
        assert!(clock_hz > 0, "clock rate must be positive");
        Rc::new(CpuPool {
            server: Server::new(name, cores),
            clock_hz,
        })
    }

    /// Pool name.
    pub fn name(&self) -> &str {
        self.server.name()
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.server.slots()
    }

    /// Nanoseconds a given cycle count takes on one of these cores.
    pub fn cycles_ns(&self, cycles: u64) -> Time {
        cycles_to_ns(cycles, self.clock_hz)
    }

    /// Runs `cycles` of work on one core (FIFO queued).
    pub async fn exec(&self, cycles: u64) {
        self.server.process(self.cycles_ns(cycles)).await;
    }

    /// Total busy nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.server.busy_ns()
    }

    /// Work items queued for a core right now.
    pub fn queue_len(&self) -> usize {
        self.server.queue_len()
    }

    /// Average cores busy over `elapsed` ns — the paper's Figures 2/3
    /// y-axis.
    pub fn cores_consumed(&self, elapsed: Time) -> f64 {
        self.server.cores_consumed(elapsed)
    }

    /// Pool utilisation in `[0, 1]`.
    pub fn utilization(&self, elapsed: Time) -> f64 {
        self.server.utilization(elapsed)
    }

    /// Completed work items.
    pub fn completed(&self) -> u64 {
        self.server.completed()
    }

    /// Clears accounting.
    pub fn reset_stats(&self) {
        self.server.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{now, spawn, Sim};

    #[test]
    fn cycles_translate_to_time() {
        let mut sim = Sim::new();
        sim.spawn(async {
            // 2.5 GHz core: 2500 cycles = 1 µs.
            let cpu = CpuPool::new("arm", 1, 2_500_000_000);
            cpu.exec(2_500).await;
            assert_eq!(now(), 1_000);
        });
        sim.run();
    }

    #[test]
    fn pool_parallelism_bounded_by_cores() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let cpu = CpuPool::new("host", 2, 1_000_000_000);
            let mut hs = Vec::new();
            for _ in 0..4 {
                let cpu = cpu.clone();
                hs.push(spawn(async move { cpu.exec(1_000).await }));
            }
            for h in hs {
                h.await;
            }
            // 4 × 1µs jobs on 2 cores => 2µs.
            assert_eq!(now(), 2_000);
        });
        sim.run();
    }

    #[test]
    fn cores_consumed_matches_figure_metric() {
        let mut sim = Sim::new();
        sim.spawn(async {
            let cpu = CpuPool::new("host", 8, 3_000_000_000);
            // 450K IOPS × 18000 cycles for 10 ms of virtual time.
            let ops = 4_500u64;
            for _ in 0..ops {
                cpu.exec(18_000).await;
            }
            let elapsed = now();
            let consumed = cpu.cores_consumed(elapsed);
            // Serial execution -> exactly 1 core busy.
            assert!((consumed - 1.0).abs() < 1e-6, "consumed={consumed}");
        });
        sim.run();
    }
}
