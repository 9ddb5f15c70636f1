//! Span plumbing that sits outside the program: the self-time rule over
//! `SpanRecord` trees, and a reader for the one-event-per-line Chrome
//! traces `run_par` returns (the only view of its domains).

use std::collections::HashMap;

use dpdpu_des::Time;
use dpdpu_telemetry::SpanRecord;

/// Self time of every span in `spans`, keyed by span id: the span's
/// duration minus the part of its interval that its child spans cover.
/// Children are clipped to the parent's interval and overlapping
/// children are counted once, so a parent that fans out into concurrent
/// children is not charged a negative self time.
pub fn self_times(spans: &[SpanRecord]) -> HashMap<u64, Time> {
    let mut children: HashMap<u64, Vec<(Time, Time)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_within(kids, s.start, s.end));
            (s.id, (s.end - s.start) - covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(Time, Time)], lo: Time, hi: Time) -> Time {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// One complete (`"ph":"X"`) event of a Chrome trace.
pub struct ChromeSpan<'a> {
    /// Device the track belongs to.
    pub process: &'a str,
    /// Resource name.
    pub track: &'a str,
    /// What happened.
    pub name: &'a str,
    /// Virtual start, ns.
    pub start: Time,
    /// Virtual end, ns.
    pub end: Time,
}

/// Calls `visit` for every complete event of `trace`, in file order.
///
/// Relies on the exporter's format contract (`dpdpu_telemetry::chrome`):
/// one event per line, metadata first, `ts`/`dur` in fractional µs.
pub fn chrome_spans<'a>(trace: &'a str, mut visit: impl FnMut(ChromeSpan<'a>)) {
    let mut processes: HashMap<u64, &str> = HashMap::new();
    let mut tracks: HashMap<(u64, u64), &str> = HashMap::new();
    for line in trace.lines() {
        let Some(ph) = str_field(line, "\"ph\":\"") else {
            continue;
        };
        let (Some(pid), Some(tid)) = (num_field(line, "\"pid\":"), num_field(line, "\"tid\":"))
        else {
            continue;
        };
        let (pid, tid) = (pid as u64, tid as u64);
        match ph {
            "M" => {
                let Some(label) = str_field(line, "\"args\":{\"name\":\"") else {
                    continue;
                };
                if line.contains("\"name\":\"process_name\"") {
                    processes.insert(pid, label);
                } else {
                    tracks.insert((pid, tid), label);
                }
            }
            "X" => {
                let (Some(name), Some(ts), Some(dur)) = (
                    str_field(line, "\"name\":\""),
                    num_field(line, "\"ts\":"),
                    num_field(line, "\"dur\":"),
                ) else {
                    continue;
                };
                let start = (ts * 1e3).round() as Time;
                visit(ChromeSpan {
                    process: processes.get(&pid).copied().unwrap_or(""),
                    track: tracks.get(&(pid, tid)).copied().unwrap_or(""),
                    name,
                    start,
                    end: start + (dur * 1e3).round() as Time,
                });
            }
            _ => {}
        }
    }
}

/// The string value following `key` (which ends in the opening quote).
/// Labels in these traces never contain escaped quotes.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(&rest[..rest.find('"')?])
}

/// The number following `key`.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let len = rest
        .bytes()
        .take_while(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'e' | b'E' | b'+'))
        .count();
    rest[..len].parse().ok()
}
