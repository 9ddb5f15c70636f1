//! Meta-test for the determinism auditor: an auditor that never fires
//! is indistinguishable from one that works, so we plant deliberate
//! nondeterminism and require it to be caught. And an auditor that
//! skips an experiment vouches for nothing, so its report must name
//! every entry of the registry.

use dpdpu_bench::audit;

/// The plant is caught at one worker and at four, once per seed, in
/// seed order: with four seeds, four workers each replay one.
#[test]
fn auditor_catches_planted_nondeterminism() {
    let planted = [audit::planted_nondeterminism()];
    let seeds = [42, 7, 1234, 5];
    for jobs in [1, 4] {
        let divergences = audit::replay(&planted, &seeds, jobs, |_, _| {});
        let caught: Vec<_> = divergences.iter().map(|d| d.run.as_str()).collect();
        let each = seeds.map(|s| format!("planted_nondeterminism seed={s}"));
        assert_eq!(
            caught, each,
            "jobs={jobs}: one divergence per seed, in order"
        );
        for d in &divergences {
            assert_eq!(d.channel, "stdout");
            assert!(
                d.detail.contains("plant="),
                "the differ must point at the leaked counter line:\n{}",
                d.detail
            );
        }
    }
}

/// The audit replays every registered experiment and says so: its
/// report names each id of `all()`, an entry that declares `--seed` once
/// per seed in seed order and every other entry once, every run
/// reproducible, with the same bytes at one worker and at four.
#[test]
fn the_audit_replays_every_experiment_once_per_seed_it_takes() {
    let registry = dpdpu_bench::all();
    let seeds = [42, 7];
    let mut expected = String::new();
    for e in &registry {
        if e.knobs.contains(&"--seed") {
            for s in seeds {
                expected += &format!("{} seed={s}: ok\n", e.id);
            }
        } else {
            expected += &format!("{}: ok\n", e.id);
        }
    }
    for jobs in [1, 4] {
        let mut report = String::new();
        let divergences = audit::replay(&registry, &seeds, jobs, |run, ok| {
            report += &format!("{run}: {}\n", if ok { "ok" } else { "DIVERGED" });
        });
        let found: Vec<_> = divergences.iter().map(ToString::to_string).collect();
        assert!(found.is_empty(), "jobs={jobs}:\n{}", found.join("\n"));
        assert_eq!(report, expected, "jobs={jobs}");
    }
}
