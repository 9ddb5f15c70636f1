//! Plain-text summary exporter: span aggregates per (device, resource,
//! name), metric values, and timeline statistics, as aligned tables.

use std::collections::BTreeMap;

use crate::{CounterSample, Telemetry};

/// Left-aligns `rows` under `header` with two-space gutters.
fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(cell);
            if i + 1 < cells.len() {
                for _ in cell.len()..widths[i] {
                    line.push(' ');
                }
            }
        }
        line.trim_end().to_string()
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    let mut out = render_row(&head);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

pub(crate) fn render(t: &Telemetry) -> String {
    t.sampler().with(|samples| render_with(t, samples))
}

fn render_with(t: &Telemetry, samples: &[CounterSample]) -> String {
    let spans = t.tracer().spans();
    let end = spans
        .iter()
        .map(|s| s.end)
        .chain(samples.iter().map(|s| s.t))
        .max()
        .unwrap_or(0);

    let mut out = format!("== telemetry summary (virtual end: {end} ns) ==\n");

    // Span aggregates.
    #[derive(Default)]
    struct Agg {
        count: u64,
        total_ns: u64,
        max_ns: u64,
    }
    let mut aggs: BTreeMap<(String, String, String), Agg> = BTreeMap::new();
    for s in &spans {
        let a = aggs
            .entry((s.process.clone(), s.track.clone(), s.name.clone()))
            .or_default();
        a.count += 1;
        let d = s.end.saturating_sub(s.start);
        a.total_ns += d;
        a.max_ns = a.max_ns.max(d);
    }
    if !aggs.is_empty() {
        out.push_str("\n-- spans --\n");
        let rows: Vec<Vec<String>> = aggs
            .iter()
            .map(|((process, track, name), a)| {
                vec![
                    process.clone(),
                    track.clone(),
                    name.clone(),
                    a.count.to_string(),
                    a.total_ns.to_string(),
                    format!("{:.0}", a.total_ns as f64 / a.count as f64),
                    a.max_ns.to_string(),
                ]
            })
            .collect();
        out.push_str(&table(
            &[
                "device", "resource", "span", "count", "total_ns", "mean_ns", "max_ns",
            ],
            &rows,
        ));
    }

    // Metrics.
    let counters = t.registry().counter_values();
    if !counters.is_empty() {
        out.push_str("\n-- counters --\n");
        let rows: Vec<Vec<String>> = counters
            .iter()
            .map(|(k, v)| vec![k.clone(), v.to_string()])
            .collect();
        out.push_str(&table(&["counter", "value"], &rows));
    }
    let gauges = t.registry().gauge_values();
    if !gauges.is_empty() {
        out.push_str("\n-- gauges --\n");
        let rows: Vec<Vec<String>> = gauges
            .iter()
            .map(|(k, v)| vec![k.clone(), format!("{v:.3}")])
            .collect();
        out.push_str(&table(&["gauge", "value"], &rows));
    }
    let hists = t.registry().histograms();
    if !hists.is_empty() {
        out.push_str("\n-- histograms --\n");
        let rows: Vec<Vec<String>> = hists
            .iter()
            .map(|(k, h)| {
                vec![
                    k.clone(),
                    h.count().to_string(),
                    format!("{:.0}", h.mean()),
                    h.p50().map_or("-".into(), |v| v.to_string()),
                    h.p99().map_or("-".into(), |v| v.to_string()),
                    h.max().map_or("-".into(), |v| v.to_string()),
                ]
            })
            .collect();
        out.push_str(&table(
            &["histogram", "count", "mean", "p50", "p99", "max"],
            &rows,
        ));
    }

    // Timeline statistics.
    if !samples.is_empty() {
        #[derive(Default)]
        struct Tl {
            count: u64,
            sum: f64,
            max: f64,
            last: f64,
        }
        let mut tls: BTreeMap<(&str, &str), Tl> = BTreeMap::new();
        for s in samples {
            let tl = tls.entry((&s.process, &s.name)).or_default();
            tl.count += 1;
            tl.sum += s.value;
            tl.max = tl.max.max(s.value);
            tl.last = s.value;
        }
        out.push_str("\n-- timelines --\n");
        let rows: Vec<Vec<String>> = tls
            .iter()
            .map(|((process, name), tl)| {
                vec![
                    process.to_string(),
                    name.to_string(),
                    tl.count.to_string(),
                    format!("{:.3}", tl.sum / tl.count as f64),
                    format!("{:.3}", tl.max),
                    format!("{:.3}", tl.last),
                ]
            })
            .collect();
        out.push_str(&table(
            &["device", "timeline", "samples", "mean", "max", "last"],
            &rows,
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use crate::{span, Telemetry};
    use dpdpu_des::{sleep, Sim};

    #[test]
    fn summary_includes_all_sections() {
        let t = Telemetry::install();
        t.register_source("dpu", "queue:x", || 2.0);
        let mut sim = Sim::new();
        sim.spawn(async {
            let sampler = crate::start_sampler(10);
            {
                let _s = span("dpu", "engine", "work");
                sleep(30).await;
            }
            sampler.stop();
        });
        sim.run();
        if let Some(tt) = Telemetry::current() {
            tt.registry().counter("jobs", &[("target", "asic")]).add(5);
            tt.registry().gauge("depth", &[]).set(1.5);
            tt.registry().histogram("lat_ns", &[]).record(30);
        }

        let text = t.summary();
        for section in [
            "-- spans --",
            "-- counters --",
            "-- gauges --",
            "-- histograms --",
            "-- timelines --",
        ] {
            assert!(text.contains(section), "missing {section}:\n{text}");
        }
        assert!(text.contains("jobs{target=asic}"));
        assert!(text.contains("work"));
        assert!(text.contains("queue:x"));
    }

    #[test]
    fn empty_summary_has_header_only() {
        let t = Telemetry::install();
        let text = t.summary();
        assert!(text.starts_with("== telemetry summary"));
        assert!(!text.contains("-- spans --"));
    }
}
