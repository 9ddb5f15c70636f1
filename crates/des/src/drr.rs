//! Weighted-fair queueing: the one deficit-round-robin loop every
//! contended resource shares (sproc scheduler, accelerator admission,
//! gateway dispatch). A one-class [`Drr`] is a plain arrival-order FIFO.

use std::collections::VecDeque;

/// A deficit-round-robin scheduler over per-tenant queues.
///
/// Classic DRR: visiting a backlogged queue tops its deficit up by
/// `quantum × weight` once, then serves head items while the deficit
/// covers their cost; an empty queue forfeits its deficit. Over any
/// interval where a set of tenants stays backlogged, served cost
/// converges to the weight ratio, and a weight-1 tenant is never
/// starved: every full rotation grows its deficit by one quantum, so
/// its head item is served within a bounded amount of competing work.
pub struct Drr<T> {
    queues: Vec<VecDeque<(u64, T)>>,
    deficits: Vec<u64>,
    weights: Vec<u64>,
    quantum: u64,
    cursor: usize,
    topped_up: bool,
    len: usize,
    served: Vec<u64>,
}

impl<T> Drr<T> {
    /// A scheduler with one queue per weight. `quantum` is the cost
    /// budget added per visit (before weight scaling).
    pub fn new(weights: &[u64], quantum: u64) -> Self {
        assert!(!weights.is_empty(), "scheduler needs at least one queue");
        assert!(quantum > 0, "zero quantum would never serve anything");
        assert!(
            weights.iter().all(|&w| w > 0),
            "zero-weight queues would starve"
        );
        Drr {
            queues: weights.iter().map(|_| VecDeque::new()).collect(),
            deficits: vec![0; weights.len()],
            weights: weights.to_vec(),
            quantum,
            cursor: 0,
            topped_up: false,
            len: 0,
            served: vec![0; weights.len()],
        }
    }

    /// Queues an item of `cost` for `tenant` (cost is clamped to at
    /// least 1 so free items cannot capture the scheduler).
    pub fn enqueue(&mut self, tenant: usize, cost: u64, item: T) {
        self.queues[tenant].push_back((cost.max(1), item));
        self.len += 1;
    }

    /// The next item to dispatch, in DRR order: `(tenant, cost, item)`.
    /// Returns `None` only when every queue is empty — the scheduler is
    /// work-conserving by construction.
    pub fn pick(&mut self) -> Option<(usize, u64, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let c = self.cursor;
            if self.queues[c].is_empty() {
                // An empty queue forfeits its deficit: credit must not
                // accumulate while a tenant has nothing to send.
                self.deficits[c] = 0;
                self.advance();
                continue;
            }
            if !self.topped_up {
                self.deficits[c] = self.deficits[c].saturating_add(self.quantum * self.weights[c]);
                self.topped_up = true;
            }
            let head_cost = self.queues[c][0].0;
            if head_cost <= self.deficits[c] {
                let (cost, item) = self.queues[c].pop_front().expect("non-empty checked above");
                self.deficits[c] -= cost;
                self.len -= 1;
                self.served[c] += cost;
                if self.queues[c].is_empty() {
                    self.deficits[c] = 0;
                }
                return Some((c, cost, item));
            }
            self.advance();
        }
    }

    fn advance(&mut self) {
        self.cursor = (self.cursor + 1) % self.queues.len();
        self.topped_up = false;
    }

    /// Items queued across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tenant has anything queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items queued for one tenant.
    pub fn queue_depth(&self, tenant: usize) -> usize {
        self.queues[tenant].len()
    }

    /// Total cost served to one tenant since construction.
    pub fn served(&self, tenant: usize) -> u64 {
        self.served[tenant]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drr_splits_service_by_weight() {
        let mut s: Drr<u32> = Drr::new(&[3, 1], 100);
        for i in 0..400 {
            s.enqueue((i % 2) as usize, 100, i);
        }
        // Serve half the backlog; both queues stay backlogged throughout.
        for _ in 0..200 {
            assert!(s.pick().is_some(), "backlogged scheduler must serve");
        }
        let ratio = s.served(0) as f64 / s.served(1) as f64;
        assert!(
            (2.5..=3.5).contains(&ratio),
            "3:1 weights should serve ~3x: served {} vs {}",
            s.served(0),
            s.served(1)
        );
    }

    #[test]
    fn drr_serves_oversized_items_eventually() {
        // A single item costing many quanta must still be served (the
        // deficit accumulates across rotations).
        let mut s: Drr<&str> = Drr::new(&[1, 1], 10);
        s.enqueue(0, 1_000, "huge");
        s.enqueue(1, 5, "small");
        let mut got = Vec::new();
        while let Some((_, _, item)) = s.pick() {
            got.push(item);
        }
        assert_eq!(got, vec!["small", "huge"]);
    }
}
