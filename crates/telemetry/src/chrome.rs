//! Chrome `trace_event` exporter.
//!
//! Produces the JSON Object Format (`{"traceEvents": [...]}`) that
//! `chrome://tracing` and Perfetto load directly. Mapping:
//!
//! * device ("host", "dpu", …) → trace **process** (`pid`), named via
//!   `process_name` metadata;
//! * resource within a device (cpu pool, accelerator, link, engine) →
//!   trace **thread** (`tid`), named via `thread_name` metadata;
//! * span → `"ph":"X"` complete event with `ts`/`dur` in microseconds
//!   (fractional — virtual time is nanosecond-granular);
//! * sampler timeline → `"ph":"C"` counter events.
//!
//! Format contract (`benchmark/src/trace.rs` reads it): exactly one
//! event per line, metadata lines before timed ones. The golden-trace
//! test reads an export as JSON, so it is not a second reader of this
//! line layout.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use dpdpu_des::{Site, Time};

use crate::json::{Escaped, Number};
use crate::Telemetry;

const HEAD: &str = "{\"traceEvents\":[\n";
const TAIL: &str = "\n],\"displayTimeUnit\":\"ns\"}\n";

/// Maximum pids a single domain's part may use in a merge — the
/// per-domain pid namespace stride.
const MERGE_PID_STRIDE: u64 = 1_000;

/// One session's events, formatted once, plus the index [`merge_traces`]
/// sorts. Plain owned data: a time domain publishes it from its thread.
pub struct TracePart {
    domain: usize,
    /// [`HEAD`], the metadata lines, then the timed lines in recording
    /// order (spans, then samples); every line ends in `",\n"`.
    text: String,
    /// Line boundaries in `text`: entry 0 is where the timed lines start,
    /// entry `i >= 1` is timed line `i`'s virtual start, ns, and its end.
    index: Vec<(Time, usize)>,
}

/// Renders the full trace for `t`.
pub(crate) fn export(t: &Telemetry) -> String {
    close(part(t, None).text)
}

/// Turns [`HEAD`] plus `",\n"`-terminated lines into a whole trace.
fn close(mut text: String) -> String {
    if text.len() > HEAD.len() {
        text.truncate(text.len() - ",\n".len());
    }
    text.push_str(TAIL);
    text
}

/// The one formatting pass: every line is written once, into one
/// buffer, straight from the raw spans' sites. `domain` is the
/// session's (index, name) in a merge — its pids move into the domain's
/// namespace and its device names gain a `"{name}/"` prefix as they are
/// written — or `None` for a trace of its own.
pub(crate) fn part(t: &Telemetry, domain: Option<(usize, &str)>) -> TracePart {
    t.tracer().with_raw(|spans| {
        t.sampler().with(|samples| {
            // Deterministic pid/tid assignment: sorted device names, then
            // sorted track names within each device — resolved once per
            // distinct (process, track) pair, not per span. A pair's ids
            // sit in its track's row (by site index): a track almost
            // always belongs to one device, so finding them hashes nothing.
            let mut ids: Vec<Vec<(Site, (u64, u64))>> = Vec::new();
            let mut tracks: BTreeMap<(Rc<str>, Rc<str>), (Site, Site)> = BTreeMap::new();
            for s in spans {
                let i = s.track.index();
                if ids.len() <= i {
                    ids.resize_with(i + 1, Vec::new);
                }
                if !ids[i].iter().any(|&(p, _)| p == s.process) {
                    ids[i].push((s.process, (0, 0)));
                    tracks.insert((s.process.name(), s.track.name()), (s.process, s.track));
                }
            }
            let mut pids: BTreeMap<&str, u64> = tracks.keys().map(|(p, _)| (&**p, 0)).collect();
            for s in samples {
                pids.entry(s.process.as_str()).or_insert(0);
            }
            // A trace of its own is numbered like domain 0 and not prefixed.
            let d = domain.map_or(0, |(d, _)| d);
            let prefix = domain.map_or(String::new(), |(_, name)| format!("{}/", Escaped(name)));
            assert!(
                domain.is_none() || (pids.len() as u64) < MERGE_PID_STRIDE,
                "domain trace uses pid {} >= the merge stride {MERGE_PID_STRIDE}",
                pids.len()
            );
            for (i, pid) in pids.values_mut().enumerate() {
                *pid = d as u64 * MERGE_PID_STRIDE + i as u64 + 1;
            }

            let lines = spans.len() + samples.len();
            // A typical event line is 80–90 bytes: reserve once.
            let mut out = String::with_capacity(HEAD.len() + 96 * lines);
            out.push_str(HEAD);
            for (process, pid) in &pids {
                let _ = writeln!(
                    out,
                    r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{prefix}{}"}}}},"#,
                    Escaped(process)
                );
            }
            let (mut device, mut tid) = (None, 0);
            for ((process, track), &(p, t)) in &tracks {
                tid = if device == Some(process) { tid + 1 } else { 1 };
                device = Some(process);
                let pid = pids[&**process];
                *slot(&mut ids, p, t) = (pid, tid);
                let _ = writeln!(
                    out,
                    r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{}"}}}},"#,
                    Escaped(track)
                );
            }

            let mut index = Vec::with_capacity(1 + lines);
            index.push((0, out.len()));
            for s in spans {
                let (pid, tid) = *slot(&mut ids, s.process, s.track);
                let _ = write!(
                    out,
                    r#"{{"name":"{}","ph":"X","pid":{pid},"tid":{tid},"ts":{},"dur":{},"args":{{"#,
                    Escaped(&s.name.name()),
                    Number(s.start as f64 / 1_000.0),
                    Number(s.end.saturating_sub(s.start) as f64 / 1_000.0),
                );
                for (i, (k, v)) in s.attrs.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(out, r#"{sep}"{}":"{}""#, Escaped(&k.name()), Escaped(v));
                }
                out.push_str("}},\n");
                index.push((s.start, out.len()));
            }
            for s in samples {
                let _ = writeln!(
                    out,
                    r#"{{"name":"{}","ph":"C","pid":{},"tid":0,"ts":{},"args":{{"value":{}}}}},"#,
                    Escaped(&s.name),
                    pids[s.process.as_str()],
                    Number(s.t as f64 / 1_000.0),
                    Number(s.value),
                );
                index.push((s.t, out.len()));
            }
            TracePart { domain: d, text: out, index }
        })
    })
}

/// The (pid, tid) of a (process, track) pair [`part`] has seen.
fn slot(ids: &mut [Vec<(Site, (u64, u64))>], process: Site, track: Site) -> &mut (u64, u64) {
    let row = &mut ids[track.index()];
    let at = row.iter().position(|&(p, _)| p == process);
    &mut row[at.expect("every span's pair has a row entry")].1
}

/// Merges per-domain parts (from [`Telemetry::trace_part`], passed in
/// domain-index order) into one trace.
///
/// This is the parallel simulation core's canonical probe-stream merge:
/// timed events are globally ordered by **(virtual time, domain index,
/// original in-domain order)**, so the merged trace is a pure function
/// of the per-domain parts — independent of thread count or wall-clock
/// interleaving. Each domain has its own pid namespace and its process
/// names are prefixed `"{domain}/"` so Perfetto shows one process group
/// per domain.
///
/// Nothing is parsed: the sort key is each line's integer start ns (the
/// order of its printed `ts`: `ns as f64 / 1000.0` is strictly monotone
/// below 2^53 ns) and lines are copied out of the parts as byte ranges.
pub fn merge_traces<'a>(parts: impl IntoIterator<Item = &'a TracePart>) -> String {
    let parts: Vec<&TracePart> = parts.into_iter().collect();
    let mut keys = Vec::with_capacity(parts.iter().map(|p| p.index.len()).sum());
    let mut out = String::with_capacity(parts.iter().map(|p| p.text.len()).sum());
    out.push_str(HEAD);
    for (d, part) in parts.iter().enumerate() {
        assert_eq!(part.domain, d, "parts are merged in domain-index order");
        out.push_str(&part.text[HEAD.len()..part.index[0].1]);
        keys.extend((1..part.index.len()).map(|i| (part.index[i].0, d, i)));
    }
    keys.sort_unstable();
    for (_, d, i) in keys {
        let (text, index) = (&parts[d].text, &parts[d].index);
        out.push_str(&text[index[i - 1].1..index[i].1]);
    }
    close(out)
}

#[cfg(test)]
mod tests {
    use super::merge_traces;
    use std::rc::Rc;

    use crate::json::Json;
    use crate::{record_span, span, start_sampler, Telemetry};
    use dpdpu_des::{sleep, Sim};

    /// Structural validation shared with the acceptance test in
    /// `dpdpu-bench`: the export parses, has the object-format shell, and
    /// every event carries the fields its phase requires.
    fn validate(text: &str) -> Json {
        let doc = Json::parse(text).expect("chrome trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array is required");
        for e in events {
            let ph = e
                .get("ph")
                .and_then(Json::as_str)
                .expect("every event has ph");
            assert!(e.get("name").and_then(Json::as_str).is_some());
            assert!(e.get("pid").and_then(Json::as_f64).is_some());
            match ph {
                "X" => {
                    assert!(e.get("ts").and_then(Json::as_f64).is_some());
                    assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
                }
                "C" => {
                    assert!(e
                        .get("args")
                        .unwrap()
                        .get("value")
                        .and_then(Json::as_f64)
                        .is_some());
                }
                "M" => {
                    assert!(e
                        .get("args")
                        .unwrap()
                        .get("name")
                        .and_then(Json::as_str)
                        .is_some());
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
        doc
    }

    #[test]
    fn export_is_wellformed_and_complete() {
        let t = Telemetry::install();
        t.assign_track("nic", "dpu");
        let tick = std::rc::Rc::new(std::cell::Cell::new(0.0f64));
        let tick2 = tick.clone();
        t.register_source("dpu", "util:nic", move || tick2.get());

        let mut sim = Sim::new();
        sim.spawn(async move {
            let sampler = start_sampler(50);
            {
                let _s = span("dpu", "engine", "request").with("tenant", "a\"b");
                sleep(120).await;
            }
            record_span("host", "kernel", "syscall", 10, 40, &[("op", "read")]);
            tick.set(0.75);
            sleep(50).await;
            sampler.stop();
        });
        sim.run();

        let text = t.chrome_trace();
        let doc = validate(&text);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();

        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        let req = xs
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("request"))
            .unwrap();
        assert_eq!(req.get("dur").unwrap().as_f64(), Some(0.12)); // 120 ns = 0.12 µs
        assert_eq!(
            req.get("args").unwrap().get("tenant").unwrap().as_str(),
            Some("a\"b")
        );

        let counters = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .count();
        assert!(counters >= 2, "sampler ticks must appear as counter events");

        // Two devices → two process_name records with distinct pids.
        let procs: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("process_name"))
            .collect();
        assert_eq!(procs.len(), 2);
        let pids: std::collections::BTreeSet<u64> = procs
            .iter()
            .map(|e| e.get("pid").unwrap().as_f64().unwrap() as u64)
            .collect();
        assert_eq!(pids.len(), 2);
    }

    #[test]
    fn empty_session_still_exports_valid_json() {
        let t = Telemetry::install();
        validate(&t.chrome_trace());
    }

    #[test]
    fn merged_traces_are_ordered_by_virtual_time_then_domain() {
        let mut traces = Vec::new();
        for (d, (start, end)) in [(100u64, 300u64), (50, 200)].iter().enumerate() {
            let t = Telemetry::install();
            record_span("host", "cpu", "early", *start, *end, &[]);
            record_span("host", "cpu", "late", 500, 900, &[]);
            traces.push(t.trace_part(d, &format!("d{d}")));
        }
        let merged = merge_traces(&traces);
        let doc = validate(&merged);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let xs: Vec<(f64, u64)> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .map(|e| {
                (
                    e.get("ts").unwrap().as_f64().unwrap(),
                    e.get("pid").unwrap().as_f64().unwrap() as u64,
                )
            })
            .collect();
        // (ts, domain) sorted: d1's 0.05 µs span first, then d0's 0.1,
        // then both 0.5 µs spans in domain order.
        assert_eq!(xs.len(), 4);
        assert!(xs.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(xs[0].0, 0.05);
        assert!(xs[0].1 >= 1_000, "domain 1 pids are offset");
        assert_eq!(xs[2].0, 0.5);
        assert!(xs[2].1 < 1_000, "equal-ts ties break by domain index");
        // Process names carry the domain prefix.
        assert!(merged.contains("d0/host") && merged.contains("d1/host"));
        // Same inputs, same bytes.
        assert_eq!(merged, merge_traces(&traces));
    }

    /// Runs `f` under a fresh session and returns the session, after
    /// its guard dropped.
    fn session(f: impl FnOnce(&Telemetry)) -> Rc<Telemetry> {
        let t = Telemetry::install();
        f(&t);
        Rc::clone(&t)
    }

    /// A session whose 1 000 devices would make pid 1000: in a merge,
    /// domain 1's first pid.
    fn thousand_devices() -> Rc<Telemetry> {
        session(|_| {
            for device in 0..1_000 {
                record_span(&format!("dev{device}"), "cpu", "op", 0, 1, &[]);
            }
        })
    }

    #[test]
    #[should_panic(expected = "merge stride")]
    fn a_domain_with_a_full_pid_namespace_is_refused() {
        thousand_devices().trace_part(0, "d0");
    }

    #[test]
    fn a_trace_of_its_own_has_no_pid_limit() {
        assert!(thousand_devices().chrome_trace().contains(r#""pid":1000,"#));
    }

    // ---- bytes pinned as literals --------------------------------------
    // Measured at PR 22's exporter (format + re-parse merge) and held
    // across the single-pass rewrite: nothing below is computed by the
    // code under test.

    #[test]
    fn one_session_exports_these_exact_bytes() {
        let t = Telemetry::install();
        t.assign_track("nic", "dpu");
        t.register_source("dpu", "util:nic", || 0.5);
        let mut sim = Sim::new();
        sim.spawn(async {
            let sampler = start_sampler(2_000);
            {
                let _s = span("dpu", "nic", "request").with("path", "a\"b\\c");
                sleep(1_500).await;
            }
            record_span("host", "kernel", "syscall", 10, 40, &[("op", "read")]);
            // A probe span on a track nobody assigned lands under `sim`.
            dpdpu_des::probe::emit_span(dpdpu_des::Site::new("stray"), "serve", 1_000, 1_234);
            sampler.stop();
        });
        sim.run();
        assert_eq!(
            t.chrome_trace(),
            r#"{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"dpu"}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"host"}},
{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"sim"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"nic"}},
{"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"kernel"}},
{"name":"thread_name","ph":"M","pid":3,"tid":1,"args":{"name":"stray"}},
{"name":"request","ph":"X","pid":1,"tid":1,"ts":0,"dur":1.5,"args":{"path":"a\"b\\c"}},
{"name":"syscall","ph":"X","pid":2,"tid":1,"ts":0.01,"dur":0.03,"args":{"op":"read"}},
{"name":"serve","ph":"X","pid":3,"tid":1,"ts":1,"dur":0.234,"args":{}},
{"name":"util:nic","ph":"C","pid":1,"tid":0,"ts":0,"args":{"value":0.5}},
{"name":"util:nic","ph":"C","pid":1,"tid":0,"ts":2,"args":{"value":0.5}}
],"displayTimeUnit":"ns"}
"#
        );
    }

    #[test]
    fn an_empty_session_exports_these_exact_bytes() {
        let t = Telemetry::install();
        assert_eq!(
            t.chrome_trace(),
            "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ns\"}\n"
        );
    }

    #[test]
    fn a_merge_exports_these_exact_bytes() {
        // d0: two spans and a counter sample at 0.5 µs, one span before.
        let d0 = session(|t| {
            t.register_source("host", "depth", || 2.0);
            let mut sim = Sim::new();
            sim.spawn(async {
                record_span("host", "cpu", "a", 500, 900, &[]);
                record_span("host", "cpu", "b", 100, 300, &[]);
                sleep(500).await;
                start_sampler(100).stop();
                record_span("host", "cpu", "c", 500, 600, &[]);
            });
            sim.run();
        });
        // d1: one span tying at 0.5 µs, one earlier on a second device.
        let d1 = session(|_| {
            record_span("host", "cpu", "d", 500, 700, &[]);
            record_span("dpu", "arm", "e", 200, 250, &[]);
        });
        // d"2: no span at all, one counter sample, also at 0.5 µs.
        let d2 = session(|t| {
            t.register_source("nic", "q", || 1.0);
            let mut sim = Sim::new();
            sim.spawn(async {
                sleep(500).await;
                start_sampler(100).stop();
            });
            sim.run();
        });

        // The 0.5 µs tie: domain index first (a, c, depth of d0 before d
        // of d1 before q of d"2), then in-domain order (a before c
        // though b was recorded between them; spans before samples).
        assert_eq!(
            merge_traces(&[
                d0.trace_part(0, "d0"),
                d1.trace_part(1, "d1"),
                d2.trace_part(2, "d\"2")
            ]),
            r#"{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"d0/host"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"cpu"}},
{"name":"process_name","ph":"M","pid":1001,"tid":0,"args":{"name":"d1/dpu"}},
{"name":"process_name","ph":"M","pid":1002,"tid":0,"args":{"name":"d1/host"}},
{"name":"thread_name","ph":"M","pid":1001,"tid":1,"args":{"name":"arm"}},
{"name":"thread_name","ph":"M","pid":1002,"tid":1,"args":{"name":"cpu"}},
{"name":"process_name","ph":"M","pid":2001,"tid":0,"args":{"name":"d\"2/nic"}},
{"name":"b","ph":"X","pid":1,"tid":1,"ts":0.1,"dur":0.2,"args":{}},
{"name":"e","ph":"X","pid":1001,"tid":1,"ts":0.2,"dur":0.05,"args":{}},
{"name":"a","ph":"X","pid":1,"tid":1,"ts":0.5,"dur":0.4,"args":{}},
{"name":"c","ph":"X","pid":1,"tid":1,"ts":0.5,"dur":0.1,"args":{}},
{"name":"depth","ph":"C","pid":1,"tid":0,"ts":0.5,"args":{"value":2}},
{"name":"d","ph":"X","pid":1002,"tid":1,"ts":0.5,"dur":0.2,"args":{}},
{"name":"q","ph":"C","pid":2001,"tid":0,"ts":0.5,"args":{"value":1}}
],"displayTimeUnit":"ns"}
"#
        );
    }
}
