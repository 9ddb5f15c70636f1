//! Meta-test for the determinism auditor: an auditor that never fires
//! is indistinguishable from one that works, so we plant deliberate
//! nondeterminism and require it to be caught.

use dpdpu_bench::audit;
use dpdpu_bench::scenarios::ScenarioFn;

#[test]
fn auditor_catches_planted_nondeterminism() {
    let planted: [(&'static str, ScenarioFn); 1] =
        [("planted_nondeterminism", audit::planted_nondeterminism)];
    let divergences = audit::audit_scenarios(&planted, &[42], 1, |_, _, _| {});
    assert!(
        !divergences.is_empty(),
        "the planted process-global counter must surface as a divergence"
    );
    let d = &divergences[0];
    assert_eq!(d.scenario, "planted_nondeterminism");
    assert_eq!(d.seed, 42);
    assert_eq!(d.channel, "stdout");
    assert!(
        d.detail.contains("plant="),
        "the differ must point at the leaked counter line:\n{}",
        d.detail
    );
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
