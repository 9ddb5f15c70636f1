//! `--compare`'s verdicts, and the quartile spread they rest on.

use dpdpu_benchmark::report::{judge, Measured, Verdict};
use dpdpu_benchmark::spec::{Better, MetricSpec};
use dpdpu_benchmark::stats::iqr_share;

fn metric(better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name: "m".into(),
        unit: "u".into(),
        better,
        bound: Some(bound),
    }
}

fn steady(value: f64) -> Measured {
    Measured {
        value,
        reps: vec![value * 0.99, value, value * 1.01, value, value],
    }
}

#[test]
fn verdicts_follow_direction_bound_and_spread() {
    let lower = metric(Better::Lower, 0.10);
    assert_eq!(
        judge(&lower, &steady(100.0), &steady(105.0)),
        Verdict::Unchanged
    );
    assert_eq!(
        judge(&lower, &steady(100.0), &steady(120.0)),
        Verdict::Worse
    );
    assert_eq!(
        judge(&lower, &steady(100.0), &steady(80.0)),
        Verdict::Improved
    );
    let higher = metric(Better::Higher, 0.10);
    assert_eq!(
        judge(&higher, &steady(100.0), &steady(120.0)),
        Verdict::Improved
    );
    assert_eq!(
        judge(&higher, &steady(100.0), &steady(80.0)),
        Verdict::Worse
    );

    // Repetitions spread wider than the bound: neither "unchanged" nor a
    // 15 % difference can be told from noise, a 60 % one can.
    let noisy = |value: f64| Measured {
        value,
        reps: vec![value * 0.8, value * 0.9, value, value * 1.1, value * 1.2],
    };
    assert_eq!(
        judge(&lower, &noisy(100.0), &noisy(103.0)),
        Verdict::Unresolved
    );
    assert_eq!(
        judge(&lower, &noisy(100.0), &noisy(115.0)),
        Verdict::Unresolved
    );
    assert_eq!(judge(&lower, &noisy(100.0), &noisy(160.0)), Verdict::Worse);

    // Single-shot metrics (the virtual ones) carry no repetitions.
    let exact = |value: f64| Measured {
        value,
        reps: Vec::new(),
    };
    assert_eq!(
        judge(&lower, &exact(100.0), &exact(100.0)),
        Verdict::Unchanged
    );
    assert_eq!(judge(&lower, &exact(100.0), &exact(111.0)), Verdict::Worse);
}

#[test]
fn spread_matches_pythons_exclusive_quartiles() {
    // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((iqr_share(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert!((iqr_share(&[3.0, 1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
    assert_eq!(iqr_share(&[1.0]), None);
    assert_eq!(iqr_share(&[]), None);
}
