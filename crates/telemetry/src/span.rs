//! The span tracer: nested, attributed virtual-time intervals.
//!
//! Labels (process, track, name, attribute keys) are stored as des
//! [`Site`]s — the enabled record path performs no heap allocation for
//! labels, and the strings are resolved back only at export: per span by
//! [`Tracer::spans`], per line written by the Chrome exporter.

use std::cell::{Cell, RefCell};

use dpdpu_des::{now, Site, Time};

use crate::Telemetry;

/// One finished span, resolved to strings for exporters and tests.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (assigned at open, ascending).
    pub id: u64,
    /// Id of the span that was open when this one opened, if any.
    pub parent: Option<u64>,
    /// Device ("process" in the Chrome trace).
    pub process: String,
    /// Resource within the device ("thread" in the Chrome trace).
    pub track: String,
    /// What happened.
    pub name: String,
    /// Virtual start time, ns.
    pub start: Time,
    /// Virtual end time, ns.
    pub end: Time,
    /// Free-form key/value attributes.
    pub attrs: Vec<(String, String)>,
}

/// Compact in-memory form: labels are sites, values stay owned. An open
/// span is one too, its `end` set when its guard drops.
pub(crate) struct RawSpan {
    id: u64,
    parent: Option<u64>,
    pub(crate) process: Site,
    pub(crate) track: Site,
    pub(crate) name: Site,
    pub(crate) start: Time,
    pub(crate) end: Time,
    pub(crate) attrs: Vec<(Site, String)>,
}

/// Collects spans; owned by [`Telemetry`].
pub struct Tracer {
    spans: RefCell<Vec<RawSpan>>,
    open: RefCell<Vec<u64>>,
    next_id: Cell<u64>,
}

impl Tracer {
    pub(crate) fn new() -> Self {
        Tracer {
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            next_id: Cell::new(1),
        }
    }

    fn fresh_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// Records an already-finished span under the innermost open one.
    pub(crate) fn record(
        &self,
        process: Site,
        track: Site,
        name: Site,
        start: Time,
        end: Time,
        attrs: Vec<(Site, String)>,
    ) {
        let id = self.fresh_id();
        self.spans.borrow_mut().push(RawSpan {
            id,
            parent: self.open.borrow().last().copied(),
            process,
            track,
            name,
            start,
            end,
            attrs,
        });
    }

    /// Snapshot of every finished span in completion order, with labels
    /// resolved back to strings. This is where sites are materialised —
    /// call it at export time, not per event.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .borrow()
            .iter()
            .map(|raw| SpanRecord {
                id: raw.id,
                parent: raw.parent,
                process: raw.process.to_string(),
                track: raw.track.to_string(),
                name: raw.name.to_string(),
                start: raw.start,
                end: raw.end,
                attrs: raw
                    .attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            })
            .collect()
    }

    /// Runs `f` over the finished spans as stored, sites unresolved, in
    /// completion order: the Chrome exporter formats from these in place
    /// and never builds a [`SpanRecord`].
    pub(crate) fn with_raw<R>(&self, f: impl FnOnce(&[RawSpan]) -> R) -> R {
        f(&self.spans.borrow())
    }

    /// Number of finished spans.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// True when no spans have finished.
    pub fn is_empty(&self) -> bool {
        self.spans.borrow().is_empty()
    }
}

/// Opens a span on device `process`, resource `track`. The span closes —
/// and is recorded — when the returned guard drops. When no [`Telemetry`]
/// session is installed the guard is inert: no clock read, no allocation,
/// nothing recorded. When one is installed, the labels are interned
/// (allocation-free after first sight) rather than copied.
pub fn span(process: &str, track: &str, name: &'static str) -> SpanGuard {
    let Some(t) = Telemetry::current() else {
        return SpanGuard { inner: None };
    };
    let id = t.tracer.fresh_id();
    let parent = t.tracer.open.borrow().last().copied();
    t.tracer.open.borrow_mut().push(id);
    SpanGuard {
        inner: Some(RawSpan {
            id,
            parent,
            process: Site::new(process),
            track: Site::new(track),
            name: Site::new(name),
            start: now(),
            end: 0,
            attrs: Vec::new(),
        }),
    }
}

/// Records a span with explicit endpoints (no guard involved).
pub fn record_span(
    process: &str,
    track: &str,
    name: &str,
    start: Time,
    end: Time,
    attrs: &[(&str, &str)],
) {
    if let Some(t) = Telemetry::current() {
        let attrs = attrs
            .iter()
            .map(|(k, v)| (Site::new(k), v.to_string()))
            .collect();
        t.tracer.record(
            Site::new(process),
            Site::new(track),
            Site::new(name),
            start,
            end,
            attrs,
        );
    }
}

/// RAII handle for an open span; records the span on drop.
pub struct SpanGuard {
    inner: Option<RawSpan>,
}

impl SpanGuard {
    /// Attaches a key/value attribute (no-op when telemetry is disabled).
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        if let Some(open) = self.inner.as_mut() {
            open.attrs.push((Site::new(key), value.to_string()));
        }
        self
    }

    /// Builder-style [`SpanGuard::attr`] for use at the open site.
    pub fn with(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.attr(key, value);
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut open) = self.inner.take() else {
            return;
        };
        // The session may have been uninstalled while the span was open;
        // in that case the interval is silently dropped.
        let Some(t) = Telemetry::current() else {
            return;
        };
        let mut stack = t.tracer.open.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
            stack.remove(pos);
        }
        drop(stack);
        open.end = now();
        t.tracer.spans.borrow_mut().push(open);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdpu_des::{sleep, Sim};

    #[test]
    fn spans_nest_and_carry_attributes() {
        let t = Telemetry::install();
        let mut sim = Sim::new();
        sim.spawn(async {
            let _outer = span("dpu", "engine", "request").with("tenant", 3);
            sleep(100).await;
            {
                let mut inner = span("dpu", "engine", "kernel");
                inner.attr("kind", "compress");
                sleep(50).await;
            }
            sleep(25).await;
        });
        sim.run();

        let spans = t.tracer().spans();
        assert_eq!(spans.len(), 2);
        // Children finish first.
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "kernel");
        assert_eq!(outer.name, "request");
        assert_eq!(
            inner.parent,
            Some(outer.id),
            "nesting must link child to parent"
        );
        assert_eq!(outer.parent, None);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert_eq!((inner.start, inner.end), (100, 150));
        assert_eq!((outer.start, outer.end), (0, 175));
        assert_eq!(outer.attrs, vec![("tenant".to_string(), "3".to_string())]);
        assert_eq!(
            inner.attrs,
            vec![("kind".to_string(), "compress".to_string())]
        );
    }

    #[test]
    fn disabled_tracer_is_inert() {
        // Outside a sim, now() would panic — so this only passes if the
        // disabled guard genuinely never reads the clock.
        let mut g = span("dpu", "engine", "noop");
        g.attr("k", "v");
        drop(g);
        record_span("dpu", "engine", "noop", 0, 1, &[]);
        assert!(!Telemetry::is_enabled());
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let t = Telemetry::install();
        let mut sim = Sim::new();
        sim.spawn(async {
            let _root = span("sim", "main", "root");
            for _ in 0..3 {
                let _child = span("sim", "main", "child");
                sleep(10).await;
            }
        });
        sim.run();

        let spans = t.tracer().spans();
        let root_id = spans.iter().find(|s| s.name == "root").unwrap().id;
        let children: Vec<_> = spans.iter().filter(|s| s.name == "child").collect();
        assert_eq!(children.len(), 3);
        assert!(children.iter().all(|c| c.parent == Some(root_id)));
    }

    #[test]
    fn sessions_do_not_nest_and_uninstall_is_idempotent_with_the_drop() {
        let t = Telemetry::install();
        let nested = std::panic::catch_unwind(Telemetry::install);
        assert!(nested.is_err(), "a second session must be refused");
        Telemetry::uninstall();
        assert!(!Telemetry::is_enabled());
        let next = Telemetry::install();
        drop(t);
        let current = Telemetry::current().expect("the old guard removed nothing");
        assert!(std::rc::Rc::ptr_eq(&current, &next));
    }
}
