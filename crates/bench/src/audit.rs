//! The multi-seed determinism auditor.
//!
//! The DES's core promise is bit-for-bit reproducibility: the same
//! experiment with the same knobs must produce the same table and the
//! same Chrome trace, every time, in debug and release. The auditor
//! enforces that mechanically — every entry of [`crate::all`] is
//! replayed twice in-process through [`Experiment::run`] and both
//! channels are byte-compared: an entry that declares `--seed` (fig11
//! and the scenarios) once per seed, every other entry once per audit.
//! `all_figures --audit` runs it, and CI runs that over {debug, release}
//! × 3 seeds.
//!
//! Trust-but-verify applies to the auditor itself:
//! [`planted_nondeterminism`] is a deliberately broken, unregistered
//! experiment (it leaks a process-global counter into its output) and
//! the `audit_meta` integration test proves the auditor flags it at one
//! worker and at four.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{run_jobs, Experiment, Knobs};

/// One detected reproducibility failure.
pub struct Divergence {
    /// The replayed run: `id seed=s`, or `id` for an entry that takes no
    /// seed.
    pub run: String,
    /// Which output channel diverged: `"stdout"` or `"trace"`.
    pub channel: &'static str,
    /// First differing lines (normalised), for the failure message.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} diverged between identical replays:\n{}",
            self.run, self.channel, self.detail
        )
    }
}

fn compare(run: &str, channel: &'static str, a: &str, b: &str) -> Option<Divergence> {
    if a == b {
        return None;
    }
    // Byte-inequality is the verdict; the normalising differ only
    // renders the failure message.
    let detail = dpdpu_check::golden::diff(a, b)
        .unwrap_or_else(|| "outputs differ only in trailing whitespace/newlines".into());
    let run = run.to_string();
    Some(Divergence {
        run,
        channel,
        detail,
    })
}

/// One audit job: replay `e` at `seed` twice, byte-compare both channels.
fn audit_one(e: &Experiment, seed: Option<u64>, run: &str) -> Vec<Divergence> {
    let knobs = Knobs {
        seed,
        ..Knobs::default()
    };
    let (a, b) = (e.run(&knobs, false), e.run(&knobs, false));
    let mut found = Vec::new();
    found.extend(compare(run, "stdout", &a.table, &b.table));
    let (a, b) = (a.trace.unwrap_or_default(), b.trace.unwrap_or_default());
    found.extend(compare(run, "trace", &a, &b));
    found
}

/// Replays each of `experiments` twice and byte-compares table and
/// trace: one run per seed of `seeds` for an entry that declares
/// `--seed`, one run with the default knobs for every other entry. Each
/// run is one job of [`run_jobs`] on `jobs` workers (`jobs = 1` is the
/// serial run) and is reported to `progress` as `id seed=s` (or `id`)
/// in matrix order, so the report is byte-identical at every `jobs`.
/// Returns every divergence found (empty = fully deterministic).
pub fn replay(
    experiments: &[Experiment],
    seeds: &[u64],
    jobs: usize,
    mut progress: impl FnMut(&str, bool),
) -> Vec<Divergence> {
    let mut matrix = Vec::new();
    for e in experiments {
        if !e.knobs.contains(&"--seed") {
            matrix.push((e, None, e.id.to_string()));
            continue;
        }
        for &seed in seeds {
            matrix.push((e, Some(seed), format!("{} seed={seed}", e.id)));
        }
    }
    let found = run_jobs(matrix.len(), jobs, |i| {
        let (e, seed, run) = &matrix[i];
        audit_one(e, *seed, run)
    });
    let mut divergences = Vec::new();
    for (found, (_, _, run)) in found.into_iter().zip(&matrix) {
        progress(run, found.is_empty());
        divergences.extend(found);
    }
    divergences
}

/// Monotonic process-global counter — the planted nondeterminism.
static PLANT: AtomicU64 = AtomicU64::new(0);

/// A deliberately nondeterministic experiment, in no registry: the
/// `compute_pipeline` scenario at `--seed`, plus a process-global
/// counter leaked into its table, so two replays can never match. Exists
/// purely so the auditor's detection path is itself tested
/// (`tests/audit_meta.rs`).
pub fn planted_nondeterminism() -> Experiment {
    crate::scenario("planted_nondeterminism", |k| {
        let leak = PLANT.fetch_add(1, Ordering::Relaxed);
        let table = crate::scenarios::compute_pipeline(crate::seed(k)).table;
        format!("{table}plant={leak}\n").into()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_outputs_produce_no_divergence() {
        assert!(compare("s seed=1", "stdout", "a\nb\n", "a\nb\n").is_none());
    }

    #[test]
    fn differing_outputs_are_reported_with_detail() {
        let d = compare("s seed=1", "trace", "a\nb\n", "a\nc\n").expect("must diverge");
        assert_eq!(d.channel, "trace");
        assert!(
            d.to_string().starts_with("[s seed=1] trace diverged"),
            "{d}"
        );
    }

    /// Renders a progress callback's observations as one comparable string.
    fn progress_log(log: &mut String) -> impl FnMut(&str, bool) + '_ {
        move |run, ok| log.push_str(&format!("{run} {ok}\n"))
    }

    /// Three entries, one of them unseeded, at two seeds: the report is
    /// the same at 1, 4 and 64 workers, whatever the registry holds.
    #[test]
    fn parallel_runner_reports_identically_to_serial() {
        let three: Vec<_> = crate::all()
            .into_iter()
            .filter(|e| ["fig2", "fig11", "dds_kv"].contains(&e.id))
            .collect();
        let seeds = [42, 7];
        let mut serial = String::new();
        let serial_div = replay(&three, &seeds, 1, progress_log(&mut serial));
        for jobs in [4, 64] {
            let mut parallel = String::new();
            let parallel_div = replay(&three, &seeds, jobs, progress_log(&mut parallel));
            assert_eq!(serial, parallel, "jobs={jobs} changed the report order");
            assert_eq!(serial_div.len(), parallel_div.len());
        }
        let expected = "fig2 true\nfig11 seed=42 true\nfig11 seed=7 true\n\
                        dds_kv seed=42 true\ndds_kv seed=7 true\n";
        assert_eq!(serial, expected);
        assert!(
            serial_div.is_empty(),
            "shipped experiments must be deterministic"
        );
    }
}
