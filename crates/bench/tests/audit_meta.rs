//! Meta-test for the determinism auditor: an auditor that never fires
//! is indistinguishable from one that works, so we plant deliberate
//! nondeterminism and require it to be caught.

use dpdpu_bench::audit;
use dpdpu_bench::scenarios::ScenarioFn;

/// The plant is caught at one worker and at four, once per seed, in
/// seed order: with four seeds, four workers each replay one.
#[test]
fn auditor_catches_planted_nondeterminism() {
    let planted: [(&'static str, ScenarioFn); 1] =
        [("planted_nondeterminism", audit::planted_nondeterminism)];
    let seeds = [42, 7, 1234, 5];
    for jobs in [1, 4] {
        let divergences = audit::audit_scenarios(&planted, &seeds, jobs, |_, _, _| {});
        let caught: Vec<_> = divergences.iter().map(|d| d.seed).collect();
        assert_eq!(
            caught, seeds,
            "jobs={jobs}: one divergence per seed, in order"
        );
        for d in &divergences {
            assert_eq!(d.scenario, "planted_nondeterminism");
            assert_eq!(d.channel, "stdout");
            assert!(
                d.detail.contains("plant="),
                "the differ must point at the leaked counter line:\n{}",
                d.detail
            );
        }
    }
}

#[test]
fn auditor_passes_honest_scenarios() {
    let divergences = audit::audit_all(&[42], 1, |_, _, _| {});
    assert!(
        divergences.is_empty(),
        "shipped scenarios must be deterministic: {}",
        divergences
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
