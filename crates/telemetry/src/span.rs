//! The span tracer: nested, attributed virtual-time intervals.
//!
//! Labels (process, track, name, attribute keys) are stored as interned
//! [`Sym`]bols — the enabled record path performs no heap allocation for
//! labels, and the strings are resolved back only at export: per span by
//! [`Tracer::spans`], per line written by the Chrome exporter.

use std::cell::{Cell, RefCell};

use dpdpu_des::{now, Time};

use crate::intern::{Interner, Sym};
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

/// Compact in-memory form: labels are symbols, values stay owned.
pub(crate) struct RawSpan {
    id: u64,
    parent: Option<u64>,
    pub(crate) process: Sym,
    pub(crate) track: Sym,
    pub(crate) name: Sym,
    pub(crate) start: Time,
    pub(crate) end: Time,
    pub(crate) attrs: Vec<(Sym, String)>,
}

/// Collects spans; owned by [`Telemetry`].
pub struct Tracer {
    spans: RefCell<Vec<RawSpan>>,
    open: RefCell<Vec<u64>>,
    next_id: Cell<u64>,
    intern: Interner,
}

impl Tracer {
    pub(crate) fn new() -> Self {
        Tracer {
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            next_id: Cell::new(1),
            intern: Interner::new(),
        }
    }

    fn fresh_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// The session's label symbol table.
    pub fn interner(&self) -> &Interner {
        &self.intern
    }

    /// Records an already-finished span (used for retroactive intervals,
    /// e.g. scheduler queueing measured from a stored submission time).
    pub fn record(
        &self,
        process: &str,
        track: &str,
        name: &str,
        start: Time,
        end: Time,
        attrs: Vec<(String, String)>,
    ) {
        let attrs = attrs
            .into_iter()
            .map(|(k, v)| (self.intern.intern(&k), v))
            .collect();
        self.record_syms(
            self.intern.intern(process),
            self.intern.intern(track),
            self.intern.intern(name),
            start,
            end,
            attrs,
        );
    }

    /// Symbol-level [`Tracer::record`]: the allocation-free hot path used
    /// by the DES probe adapter once its labels are interned.
    pub(crate) fn record_syms(
        &self,
        process: Sym,
        track: Sym,
        name: Sym,
        start: Time,
        end: Time,
        attrs: Vec<(Sym, String)>,
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
    /// resolved back to strings. This is where symbols are materialised —
    /// call it at export time, not per event.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .borrow()
            .iter()
            .map(|raw| SpanRecord {
                id: raw.id,
                parent: raw.parent,
                process: self.intern.resolve(raw.process).to_string(),
                track: self.intern.resolve(raw.track).to_string(),
                name: self.intern.resolve(raw.name).to_string(),
                start: raw.start,
                end: raw.end,
                attrs: raw
                    .attrs
                    .iter()
                    .map(|(k, v)| (self.intern.resolve(*k).to_string(), v.clone()))
                    .collect(),
            })
            .collect()
    }

    /// Runs `f` over the finished spans as stored, symbols unresolved,
    /// in completion order: the Chrome exporter formats from these in
    /// place and never builds a [`SpanRecord`].
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
pub fn span(process: &str, track: &str, name: impl AsRef<str>) -> SpanGuard {
    let Some(t) = Telemetry::current() else {
        return SpanGuard { inner: None };
    };
    let intern = &t.tracer.intern;
    let (process, track, name) = (
        intern.intern(process),
        intern.intern(track),
        intern.intern(name.as_ref()),
    );
    let id = t.tracer.fresh_id();
    let parent = t.tracer.open.borrow().last().copied();
    t.tracer.open.borrow_mut().push(id);
    SpanGuard {
        inner: Some(OpenSpan {
            id,
            parent,
            process,
            track,
            name,
            start: now(),
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
        let intern = &t.tracer.intern;
        let attrs = attrs
            .iter()
            .map(|(k, v)| (intern.intern(k), v.to_string()))
            .collect();
        t.tracer.record_syms(
            intern.intern(process),
            intern.intern(track),
            intern.intern(name),
            start,
            end,
            attrs,
        );
    }
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    process: Sym,
    track: Sym,
    name: Sym,
    start: Time,
    attrs: Vec<(Sym, String)>,
}

/// RAII handle for an open span; records the span on drop.
pub struct SpanGuard {
    inner: Option<OpenSpan>,
}

impl SpanGuard {
    /// Attaches a key/value attribute (no-op when telemetry is disabled).
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        if let Some(open) = self.inner.as_mut() {
            // The symbol is only valid for the session that opened the
            // span; if that session is gone the span will be dropped on
            // close anyway, so skipping the attribute is consistent.
            if let Some(t) = Telemetry::current() {
                open.attrs
                    .push((t.tracer.intern.intern(key), value.to_string()));
            }
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
        let Some(open) = self.inner.take() else {
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
        t.tracer.spans.borrow_mut().push(RawSpan {
            id: open.id,
            parent: open.parent,
            process: open.process,
            track: open.track,
            name: open.name,
            start: open.start,
            end: now(),
            attrs: open.attrs,
        });
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
        Telemetry::uninstall();

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
        Telemetry::uninstall();
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
        Telemetry::uninstall();

        let spans = t.tracer().spans();
        let root_id = spans.iter().find(|s| s.name == "root").unwrap().id;
        let children: Vec<_> = spans.iter().filter(|s| s.name == "child").collect();
        assert_eq!(children.len(), 3);
        assert!(children.iter().all(|c| c.parent == Some(root_id)));
    }

    #[test]
    fn repeated_labels_intern_to_a_tiny_symbol_table() {
        let t = Telemetry::install();
        let mut sim = Sim::new();
        sim.spawn(async {
            for _ in 0..1_000 {
                let _s = span("dpu", "engine", "op").with("k", "v");
                sleep(1).await;
            }
        });
        sim.run();
        Telemetry::uninstall();
        assert_eq!(t.tracer().len(), 1_000);
        // dpu, engine, op, k — every repeat hit the table.
        assert_eq!(t.tracer().interner().len(), 4);
    }
}
