//! The metrics registry: named, labeled counters, gauges, and histograms.
//!
//! The value types are the `dpdpu_des::stats` primitives — this module
//! adds naming, labels, get-or-create identity, and enumeration for the
//! exporters. Labels are sorted at key-construction time so
//! `[("a","1"),("b","2")]` and `[("b","2"),("a","1")]` address the same
//! instrument.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dpdpu_des::{Counter, Gauge, Histogram};

/// Canonical rendered key: `name{k1=v1,k2=v2}` with sorted labels.
fn key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let body: Vec<String> = sorted.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

/// Get-or-create registry of named instruments.
pub struct Registry {
    counters: RefCell<BTreeMap<String, Rc<Counter>>>,
    gauges: RefCell<BTreeMap<String, Rc<Gauge>>>,
    histograms: RefCell<BTreeMap<String, Rc<Histogram>>>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            counters: RefCell::new(BTreeMap::new()),
            gauges: RefCell::new(BTreeMap::new()),
            histograms: RefCell::new(BTreeMap::new()),
        }
    }

    /// Counter identified by `name` + `labels` (created at zero on first use).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Rc<Counter> {
        self.counters
            .borrow_mut()
            .entry(key(name, labels))
            .or_insert_with(|| Rc::new(Counter::new()))
            .clone()
    }

    /// Gauge identified by `name` + `labels`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Rc<Gauge> {
        self.gauges
            .borrow_mut()
            .entry(key(name, labels))
            .or_insert_with(|| Rc::new(Gauge::new()))
            .clone()
    }

    /// Histogram identified by `name` + `labels`.
    pub(crate) fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Rc<Histogram> {
        self.histograms
            .borrow_mut()
            .entry(key(name, labels))
            .or_insert_with(|| Rc::new(Histogram::new()))
            .clone()
    }

    /// All counters as (rendered key, value), sorted by key.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .borrow()
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// All gauges as (rendered key, value), sorted by key.
    pub fn gauge_values(&self) -> Vec<(String, f64)> {
        self.gauges
            .borrow()
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect()
    }

    /// All histograms as (rendered key, handle), sorted by key.
    pub(crate) fn histograms(&self) -> Vec<(String, Rc<Histogram>)> {
        self.histograms
            .borrow()
            .iter()
            .map(|(k, h)| (k.clone(), h.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_instrument() {
        let r = Registry::new();
        let a = r.counter("reqs", &[("route", "dpu")]);
        let b = r.counter("reqs", &[("route", "dpu")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same labels must alias the same counter");
        let other = r.counter("reqs", &[("route", "host")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        let a = r.gauge("depth", &[("dev", "ssd"), ("side", "dpu")]);
        let b = r.gauge("depth", &[("side", "dpu"), ("dev", "ssd")]);
        a.set(7.0);
        assert_eq!(b.get(), 7.0);
        assert_eq!(r.gauge_values().len(), 1);
    }

    #[test]
    fn rendered_keys_are_stable() {
        let r = Registry::new();
        r.counter("plain", &[]).inc();
        r.counter("lab", &[("b", "2"), ("a", "1")]).inc();
        let keys: Vec<String> = r.counter_values().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["lab{a=1,b=2}".to_string(), "plain".to_string()]);
    }
}
