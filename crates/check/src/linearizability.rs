//! A per-key atomic-register linearizability checker.
//!
//! Clients record complete operation histories — invocation time,
//! response time, and outcome — and [`History::check`] decides whether
//! the history is consistent with *some* linearization of each key as
//! an atomic register. The checker is **sound, not complete**: every
//! violation it reports is a real linearizability violation (given the
//! preconditions below), but histories that interleave pathologically
//! may pass even when a full Wing–Gong search would reject them. For a
//! fault-injected storage stack that is the right trade: zero false
//! alarms, deterministic verdicts, linear running time.
//!
//! Preconditions:
//!
//! * **Unique write values per key.** Each write to a key carries a
//!   value no other write to that key uses (clients encode
//!   `client_id × 2^32 + seq`), so a read's value identifies its
//!   source write unambiguously.
//! * **No deletes.** Once any acked write to a key completes, a read
//!   of that key must not return "not found".
//! * **Failed writes are ambiguous.** A write whose ack was lost (the
//!   client timed out or the connection broke) *may* have been
//!   applied. Its value is a legal read result, but it anchors no
//!   ordering obligation.
//!
//! Detected violation classes:
//!
//! * **Phantom value** — a read returned a value no recorded write to
//!   that key produced, or one whose write began after the read ended.
//! * **Stale read** — a read returned a value that some acked write
//!   had *definitely* overwritten before the read began
//!   (`source.end < overwriter.start && overwriter.end < read.start`).
//! * **Lost update** — a read observed "not found" even though an
//!   acked write to the key had completed before the read started.
//! * **Non-monotonic reads** — two reads, one strictly after the
//!   other in real time, observed values whose source writes are
//!   ordered the other way (`second_source.end < first_source.start`).

use std::collections::BTreeMap;

use dpdpu_des::Time;

/// What one operation did and how it resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// A write of `value`; `acked` is false when the client never saw
    /// the ack (the write may or may not have taken effect).
    Write { value: u64, acked: bool },
    /// A read returning `Some(value)` or `None` ("not found").
    Read { value: Option<u64> },
}

/// One completed client operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Recording client (diagnostic only).
    pub(crate) client: usize,
    /// Key operated on.
    pub(crate) key: u64,
    /// Invocation time.
    pub(crate) start: Time,
    /// Response (or give-up) time; must be `>= start`.
    pub(crate) end: Time,
    /// Operation and outcome.
    pub(crate) kind: OpKind,
}

/// An operation history, appended by any number of clients.
#[derive(Debug, Default)]
pub struct History {
    ops: Vec<Op>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one operation.
    pub(crate) fn push(&mut self, op: Op) {
        debug_assert!(op.end >= op.start, "op ends before it starts");
        self.ops.push(op);
    }

    /// Convenience: record an acked write.
    pub fn write_ok(&mut self, client: usize, key: u64, value: u64, start: Time, end: Time) {
        self.push(Op {
            client,
            key,
            start,
            end,
            kind: OpKind::Write { value, acked: true },
        });
    }

    /// Convenience: record a write whose ack never arrived.
    pub fn write_ambiguous(&mut self, client: usize, key: u64, value: u64, start: Time, end: Time) {
        self.push(Op {
            client,
            key,
            start,
            end,
            kind: OpKind::Write {
                value,
                acked: false,
            },
        });
    }

    /// Convenience: record a read.
    pub fn read(&mut self, client: usize, key: u64, value: Option<u64>, start: Time, end: Time) {
        self.push(Op {
            client,
            key,
            start,
            end,
            kind: OpKind::Read { value },
        });
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operation was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Merges another history into this one (fleet runs record one
    /// history per client and check the union).
    pub fn merge(&mut self, other: History) {
        self.ops.extend(other.ops);
    }

    /// Checks every key's sub-history against the atomic-register
    /// rules. Returns human-readable violation descriptions; an empty
    /// vector means the history is consistent.
    pub fn check(&self) -> Vec<String> {
        let mut by_key: BTreeMap<u64, (Vec<&Op>, Vec<&Op>)> = BTreeMap::new();
        for op in &self.ops {
            let entry = by_key.entry(op.key).or_default();
            match op.kind {
                OpKind::Write { .. } => entry.0.push(op),
                OpKind::Read { .. } => entry.1.push(op),
            }
        }
        let mut violations = Vec::new();
        for (key, (writes, mut reads)) in by_key {
            reads.sort_by_key(|r| (r.start, r.end));
            check_key(key, &writes, &reads, &mut violations);
        }
        violations
    }
}

fn write_value(op: &Op) -> u64 {
    match op.kind {
        OpKind::Write { value, .. } => value,
        OpKind::Read { .. } => unreachable!("write list holds only writes"),
    }
}

fn write_acked(op: &Op) -> bool {
    matches!(op.kind, OpKind::Write { acked: true, .. })
}

fn check_key(key: u64, writes: &[&Op], reads: &[&Op], out: &mut Vec<String>) {
    // (source write, read) pairs for the monotonicity pass.
    let mut observed: Vec<(&Op, &Op)> = Vec::new();
    for read in reads {
        let OpKind::Read { value } = read.kind else {
            unreachable!()
        };
        match value {
            None => {
                // Lost update: an acked write completed before this
                // read began, yet the read saw nothing (no deletes).
                if let Some(w) = writes.iter().find(|w| write_acked(w) && w.end < read.start) {
                    out.push(format!(
                        "key {key}: client {} read not-found at [{}, {}] after client {}'s \
                         acked write of {} completed at {} (lost update)",
                        read.client,
                        read.start,
                        read.end,
                        w.client,
                        write_value(w),
                        w.end,
                    ));
                }
            }
            Some(v) => {
                let Some(source) = writes
                    .iter()
                    .find(|w| write_value(w) == v && w.start <= read.end)
                else {
                    out.push(format!(
                        "key {key}: client {} read value {v} at [{}, {}] that no \
                         overlapping-or-earlier write produced (phantom value)",
                        read.client, read.start, read.end,
                    ));
                    continue;
                };
                // Stale read: some acked write definitely sits between
                // the source write and this read.
                if let Some(over) = writes
                    .iter()
                    .find(|w| write_acked(w) && source.end < w.start && w.end < read.start)
                {
                    out.push(format!(
                        "key {key}: client {} read value {v} at [{}, {}], but client {}'s \
                         acked write of {} fully overwrote it before the read began \
                         (stale read: source ended {}, overwrite ran [{}, {}])",
                        read.client,
                        read.start,
                        read.end,
                        over.client,
                        write_value(over),
                        source.end,
                        over.start,
                        over.end,
                    ));
                }
                observed.push((source, read));
            }
        }
    }
    // Non-monotonic reads: strictly-ordered reads must not observe
    // strictly-reverse-ordered writes.
    for (i, &(w1, r1)) in observed.iter().enumerate() {
        for &(w2, r2) in &observed[i + 1..] {
            let (first, second) = if r1.end < r2.start {
                ((w1, r1), (w2, r2))
            } else if r2.end < r1.start {
                ((w2, r2), (w1, r1))
            } else {
                continue;
            };
            let ((fw, fr), (sw, sr)) = (first, second);
            if sw.end < fw.start {
                out.push(format!(
                    "key {key}: reads went backwards — client {} saw {} at [{}, {}], then \
                     client {} saw {} at [{}, {}], but the second value's write ended at {} \
                     before the first value's write began at {} (non-monotonic reads)",
                    fr.client,
                    write_value(fw),
                    fr.start,
                    fr.end,
                    sr.client,
                    write_value(sw),
                    sr.start,
                    sr.end,
                    sw.end,
                    fw.start,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_sequential_histories_pass() {
        assert!(History::new().check().is_empty());
        let mut h = History::new();
        h.write_ok(0, 1, 100, 0, 10);
        h.read(1, 1, Some(100), 20, 30);
        h.write_ok(0, 1, 200, 40, 50);
        h.read(1, 1, Some(200), 60, 70);
        assert!(h.check().is_empty());
    }

    #[test]
    fn concurrent_reads_may_see_either_side_of_a_write() {
        let mut h = History::new();
        h.write_ok(0, 1, 100, 0, 10);
        // Write of 200 overlaps both reads: either value is legal.
        h.write_ok(0, 1, 200, 20, 60);
        h.read(1, 1, Some(100), 25, 35);
        h.read(2, 1, Some(200), 40, 50);
        assert!(h.check().is_empty());
    }

    #[test]
    fn stale_read_after_acked_overwrite_is_flagged() {
        let mut h = History::new();
        h.write_ok(0, 1, 100, 0, 10);
        h.write_ok(0, 1, 200, 20, 30);
        // Read starts well after the overwrite completed, returns 100.
        h.read(1, 1, Some(100), 40, 50);
        let v = h.check();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("stale read"), "{v:?}");
    }

    #[test]
    fn not_found_after_acked_write_is_a_lost_update() {
        let mut h = History::new();
        h.write_ok(0, 7, 100, 0, 10);
        h.read(1, 7, None, 20, 30);
        let v = h.check();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("lost update"), "{v:?}");
    }

    #[test]
    fn phantom_value_is_flagged() {
        let mut h = History::new();
        h.write_ok(0, 1, 100, 0, 10);
        h.read(1, 1, Some(999), 20, 30);
        let v = h.check();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("phantom value"), "{v:?}");
    }

    #[test]
    fn value_from_a_write_that_started_after_the_read_is_phantom() {
        let mut h = History::new();
        h.write_ok(0, 1, 100, 50, 60);
        h.read(1, 1, Some(100), 0, 10);
        let v = h.check();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("phantom value"), "{v:?}");
    }

    #[test]
    fn ambiguous_write_value_is_readable_but_anchors_nothing() {
        let mut h = History::new();
        h.write_ok(0, 1, 100, 0, 10);
        // Timed-out write: may or may not have landed.
        h.write_ambiguous(0, 1, 200, 20, 30);
        // Reading the ambiguous value is fine…
        h.read(1, 1, Some(200), 40, 50);
        // …and so is still reading the old value (the ambiguous write
        // may never have been applied). NOTE: reads overlap, so the
        // monotonicity rule does not fire either.
        h.read(2, 1, Some(100), 40, 50);
        assert!(h.check().is_empty());
    }

    #[test]
    fn non_monotonic_reads_are_flagged() {
        let mut h = History::new();
        h.write_ok(0, 1, 100, 0, 10);
        // Ambiguous write (no stale-read anchor), then two ordered
        // reads observing new-then-old: the register went backwards.
        h.write_ambiguous(0, 1, 200, 20, 30);
        h.read(1, 1, Some(200), 40, 50);
        h.read(1, 1, Some(100), 60, 70);
        let v = h.check();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("non-monotonic"), "{v:?}");
    }

    #[test]
    fn merged_histories_check_as_one() {
        let mut a = History::new();
        a.write_ok(0, 1, 100, 0, 10);
        let mut b = History::new();
        b.read(1, 1, None, 20, 30);
        a.merge(b);
        assert_eq!(a.len(), 2);
        let v = a.check();
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
