//! The span reducer's self-time rule on a hand-built tree.

use dpdpu_benchmark::trace::{chrome_spans, self_times};
use dpdpu_telemetry::SpanRecord;

fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        process: "dpu".into(),
        track: "dds-server".into(),
        name: "req:KvGet".into(),
        start,
        end,
        attrs: Vec::new(),
    }
}

#[test]
fn self_time_is_duration_minus_what_children_cover() {
    let spans = [
        span(1, None, 0, 100),
        span(2, Some(1), 10, 40),
        span(3, Some(1), 30, 60),    // overlaps 2 on [30, 40]: counted once
        span(4, Some(1), 90, 120),   // outlives its parent: clipped to [90, 100]
        span(5, Some(2), 15, 20),    // a grandchild covers 2, not 1
        span(6, None, 200, 250),     // a second root, untouched
        span(7, Some(99), 0, 1_000), // parent not in the set: nobody is charged
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 100 - (50 + 10));
    assert_eq!(selfs[&2], 30 - 5);
    assert_eq!(selfs[&3], 30);
    assert_eq!(selfs[&4], 30);
    assert_eq!(selfs[&5], 5);
    assert_eq!(selfs[&6], 50);
    assert_eq!(selfs.len(), spans.len());
}

#[test]
fn fully_covered_and_childless_spans_sit_at_the_extremes() {
    let spans = [
        span(1, None, 0, 10),
        span(2, Some(1), 0, 5),
        span(3, Some(1), 5, 10),
        span(4, Some(1), 2, 8),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 0);
    assert_eq!(selfs[&4], 6);
}

#[test]
fn chrome_reader_recovers_tracks_and_nanoseconds() {
    let t = dpdpu_telemetry::Telemetry::install();
    let mut sim = dpdpu_des::Sim::new();
    sim.spawn(async {
        let server = dpdpu_des::Server::new("node0.EPYC-cpu", 1);
        server.process(1_234).await;
        let _s = dpdpu_telemetry::span("dpu", "dds-server", "req:KvGet");
        dpdpu_des::sleep(77).await;
    });
    sim.run();
    dpdpu_telemetry::Telemetry::uninstall();
    let mut seen = Vec::new();
    chrome_spans(&t.chrome_trace(), |s| {
        seen.push((s.track.to_string(), s.name.to_string(), s.start, s.end));
    });
    assert_eq!(
        seen,
        [
            ("node0.EPYC-cpu".to_string(), "serve".to_string(), 0, 1_234),
            (
                "dds-server".to_string(),
                "req:KvGet".to_string(),
                1_234,
                1_311
            ),
        ]
    );
}
