//! Lightweight measurement helpers for experiments: counters and latency
//! histograms with exact quantiles.

use std::cell::{Cell, RefCell};

/// A monotonically increasing event counter.
#[derive(Default)]
pub struct Counter {
    value: Cell<u64>,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get() + n);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.get()
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.set(0);
    }
}

/// A point-in-time level that can move both ways (queue depths, free
/// slots, credit balances). Unlike [`Counter`] it is signed-delta and
/// float-valued so utilisation fractions fit too.
#[derive(Default)]
pub struct Gauge {
    value: Cell<f64>,
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    pub fn set(&self, v: f64) {
        self.value.set(v);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: f64) {
        self.value.set(self.value.get() + d);
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        self.value.get()
    }
}

/// Records individual samples and reports exact order statistics.
///
/// Simulation experiments are bounded (at most a few million samples), so we
/// keep all samples and sort on demand rather than approximating.
#[derive(Default)]
pub struct Histogram {
    samples: RefCell<Vec<u64>>,
    sorted: Cell<bool>,
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.samples.borrow_mut().push(v);
        self.sorted.set(false);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.borrow().len()
    }

    /// Sum of all samples.
    pub(crate) fn sum(&self) -> u64 {
        self.samples.borrow().iter().sum()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.samples.borrow().iter().copied().max()
    }

    /// Exact quantile by the nearest-rank method; `q` in `[0, 1]`.
    /// Returns `None` when empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
        let mut samples = self.samples.borrow_mut();
        if samples.is_empty() {
            return None;
        }
        if !self.sorted.get() {
            samples.sort_unstable();
            self.sorted.set(true);
        }
        let rank =
            ((q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        Some(samples[rank - 1])
    }

    /// Median (p50).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_quantiles_exact() {
        let h = Histogram::new();
        for v in [5u64, 1, 4, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), Some(5));
        assert_eq!(h.p50(), Some(3));
        assert_eq!(h.quantile(1.0), Some(5));
        assert_eq!(h.quantile(0.0), Some(1));
        assert!((h.mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn record_after_quantile_resorts() {
        let h = Histogram::new();
        h.record(10);
        assert_eq!(h.p50(), Some(10));
        h.record(1);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.p50(), Some(1)); // nearest-rank of 2 samples at q=0.5
    }

    #[test]
    fn empty_histogram_quantiles_all_none() {
        let h = Histogram::new();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
        assert_eq!(h.p99(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::new();
        h.record(42);
        for q in [0.0, 0.001, 0.5, 0.999, 1.0] {
            assert_eq!(h.quantile(q), Some(42), "q={q}");
        }
        assert_eq!(h.quantile(0.0), Some(42));
        assert_eq!(h.max(), Some(42));
        assert!((h.mean() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let h = Histogram::new();
        for v in [1u64, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.quantile(-1.0), Some(1));
        assert_eq!(h.quantile(2.0), Some(3));
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(4.0);
        g.add(1.5);
        g.add(-2.0);
        assert!((g.get() - 3.5).abs() < 1e-12);
    }
}
