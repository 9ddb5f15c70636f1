//! The multi-seed determinism auditor.
//!
//! The DES's core promise is bit-for-bit reproducibility: the same
//! scenario with the same seed must produce the same stdout and the
//! same Chrome trace, every time, in debug and release. The auditor
//! enforces that mechanically — every scenario × seed pair is replayed
//! twice in-process and both channels are byte-compared. CI runs it
//! over {debug, release} × 3 seeds.
//!
//! Trust-but-verify applies to the auditor itself:
//! [`planted_nondeterminism`] is a deliberately broken scenario (it
//! leaks a process-global counter into its output) and the `--self-test`
//! flag plus the `audit_meta` integration test prove the auditor flags
//! it.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::scenarios::{self, ScenarioFn, ScenarioRun};

/// One detected reproducibility failure.
pub struct Divergence {
    /// Scenario name.
    pub scenario: String,
    /// Seed the scenario was replayed with.
    pub seed: u64,
    /// Which output channel diverged: `"stdout"` or `"trace"`.
    pub channel: &'static str,
    /// First differing lines (normalised), for the failure message.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} seed={}] {} diverged between identical replays:\n{}",
            self.scenario, self.seed, self.channel, self.detail
        )
    }
}

fn compare(
    scenario: &str,
    seed: u64,
    channel: &'static str,
    a: &str,
    b: &str,
) -> Option<Divergence> {
    if a == b {
        return None;
    }
    // Byte-inequality is the verdict; the normalising differ only
    // renders the failure message.
    let detail = dpdpu_check::golden::diff(a, b)
        .unwrap_or_else(|| "outputs differ only in trailing whitespace/newlines".into());
    Some(Divergence {
        scenario: scenario.to_string(),
        seed,
        channel,
        detail,
    })
}

/// One audit job: replay `(name, seed)` twice, byte-compare both channels.
fn audit_one(name: &str, f: ScenarioFn, seed: u64) -> Vec<Divergence> {
    let first: ScenarioRun = f(seed);
    let second: ScenarioRun = f(seed);
    let mut found = Vec::new();
    found.extend(compare(name, seed, "stdout", &first.stdout, &second.stdout));
    found.extend(compare(name, seed, "trace", &first.trace, &second.trace));
    found
}

/// Worker count the auditor uses when the caller doesn't pick one: one
/// per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Replays each `(name, scenario)` twice per seed and byte-compares
/// stdout and trace, spread across `jobs` worker threads (`jobs = 1` is
/// the serial run). Returns every divergence found (empty = fully
/// deterministic).
///
/// Each `(scenario, seed)` pair is an independent job — the simulator and
/// telemetry sessions are thread-confined, so replaying different pairs on
/// different OS threads cannot interact. Determinism of the *report* is
/// preserved by construction: every job writes into its own slot, indexed
/// by position in the matrix order, and progress/divergences are
/// collected from those slots in that fixed order after all workers have
/// joined. The output is byte-identical at every `jobs`, no matter how
/// the OS schedules the workers.
pub fn audit_scenarios(
    scenarios: &[(&'static str, ScenarioFn)],
    seeds: &[u64],
    jobs: usize,
    mut progress: impl FnMut(&str, u64, bool),
) -> Vec<Divergence> {
    let matrix: Vec<(&'static str, ScenarioFn, u64)> = scenarios
        .iter()
        .flat_map(|&(name, f)| seeds.iter().map(move |&seed| (name, f, seed)))
        .collect();
    let workers = jobs.clamp(1, matrix.len().max(1));
    let slots: Vec<Mutex<Option<Vec<Divergence>>>> =
        matrix.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(name, f, seed)) = matrix.get(i) else {
                    break;
                };
                *slots[i].lock().expect("audit slot poisoned") = Some(audit_one(name, f, seed));
            });
        }
    });
    let mut divergences = Vec::new();
    for (slot, &(name, _, seed)) in slots.iter().zip(&matrix) {
        let found = slot
            .lock()
            .expect("audit slot poisoned")
            .take()
            .expect("every job ran to completion");
        progress(name, seed, found.is_empty());
        divergences.extend(found);
    }
    divergences
}

/// Audits every shipped scenario over `seeds` on `jobs` worker threads.
pub fn audit_all(
    seeds: &[u64],
    jobs: usize,
    progress: impl FnMut(&str, u64, bool),
) -> Vec<Divergence> {
    audit_scenarios(&scenarios::all(), seeds, jobs, progress)
}

/// Monotonic process-global counter — the planted nondeterminism.
static PLANT: AtomicU64 = AtomicU64::new(0);

/// A deliberately nondeterministic scenario: alongside an honest little
/// simulation it leaks a process-global counter into stdout, so two
/// replays can never match. Exists purely so the auditor's detection
/// path is itself tested (`--self-test`, `tests/audit_meta.rs`).
pub fn planted_nondeterminism(seed: u64) -> ScenarioRun {
    let leak = PLANT.fetch_add(1, Ordering::Relaxed);
    let mut run = crate::scenarios::compute_pipeline(seed);
    run.stdout.push_str(&format!("plant={leak}\n"));
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_outputs_produce_no_divergence() {
        assert!(compare("s", 1, "stdout", "a\nb\n", "a\nb\n").is_none());
    }

    #[test]
    fn differing_outputs_are_reported_with_detail() {
        let d = compare("s", 1, "trace", "a\nb\n", "a\nc\n").expect("must diverge");
        assert_eq!(d.channel, "trace");
        assert!(d.to_string().contains("seed=1"), "{d}");
    }

    /// Renders a progress callback's observations as one comparable string.
    fn progress_log(log: &mut String) -> impl FnMut(&str, u64, bool) + '_ {
        move |name, seed, ok| {
            log.push_str(&format!("{name} {seed} {ok}\n"));
        }
    }

    #[test]
    fn parallel_runner_reports_identically_to_serial() {
        let seeds = [42, 7];
        let mut serial = String::new();
        let serial_div = audit_all(&seeds, 1, progress_log(&mut serial));
        for jobs in [4, 64] {
            let mut parallel = String::new();
            let parallel_div = audit_all(&seeds, jobs, progress_log(&mut parallel));
            assert_eq!(serial, parallel, "jobs={jobs} changed the report order");
            assert_eq!(serial_div.len(), parallel_div.len());
        }
        assert!(
            serial_div.is_empty(),
            "shipped scenarios must be deterministic"
        );
    }

    #[test]
    fn parallel_runner_catches_planted_nondeterminism() {
        let planted: [(&'static str, ScenarioFn); 1] =
            [("planted_nondeterminism", planted_nondeterminism)];
        let divergences = audit_scenarios(&planted, &[42], 2, |_, _, _| {});
        assert!(
            !divergences.is_empty(),
            "plant must be detected in parallel mode"
        );
    }
}
