//! Golden-file conformance: a normalising differ with a bless path.
//!
//! Fixtures live under the caller's `tests/golden/`. A test produces
//! its actual output (a summary table, a trace digest) and calls
//! [`assert_matches`]; on mismatch the test fails with a line-level
//! diff. Setting `UPDATE_GOLDEN=1` rewrites the fixture instead —
//! review the resulting `git diff` before committing. An output too
//! large to review, such as a Chrome trace, is pinned by its
//! [`fingerprint`] instead of its text.

use std::fs;
use std::hash::Hasher;
use std::path::Path;

use dpdpu_des::probe::Fnv1a;

/// `bytes=<len> fnv1a64=<hash>` of `text`'s exact bytes: one line that
/// any changed byte changes, trailing whitespace included.
pub fn fingerprint(text: &str) -> String {
    let mut hash = Fnv1a::default();
    hash.write(text.as_bytes());
    format!("bytes={} fnv1a64={:016x}", text.len(), hash.finish())
}

/// Canonical form compared and stored on disk: CRLF → LF, trailing
/// whitespace stripped per line, exactly one trailing newline.
pub fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.replace("\r\n", "\n").split('\n') {
        out.push_str(line.trim_end());
        out.push('\n');
    }
    // split('\n') yields one empty trailing entry per final newline;
    // collapse whatever was there to a single newline.
    while out.ends_with("\n\n") {
        out.pop();
    }
    out
}

/// First differing lines between two normalised texts, with one line of
/// context, formatted for a panic message. `None` when identical.
pub fn diff(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut report = String::new();
    let mut shown = 0;
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e == a {
            continue;
        }
        if shown == 0 && i > 0 {
            report.push_str(&format!("  {:>4} | {}\n", i, exp[i - 1]));
        }
        if let Some(e) = e {
            report.push_str(&format!("- {:>4} | {e}\n", i + 1));
        }
        if let Some(a) = a {
            report.push_str(&format!("+ {:>4} | {a}\n", i + 1));
        }
        shown += 1;
        if shown >= 20 {
            report.push_str("  ... (further differences elided)\n");
            break;
        }
    }
    report.push_str(&format!(
        "  ({} expected lines, {} actual lines)",
        exp.len(),
        act.len()
    ));
    Some(report)
}

/// True when the environment asks for fixtures to be rewritten.
pub fn blessing() -> bool {
    std::env::var("UPDATE_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Compares `actual` against the fixture at `path` (after normalising
/// both). With `UPDATE_GOLDEN=1` the fixture is (re)written instead.
///
/// # Panics
/// On mismatch, or when the fixture is missing and blessing is off.
pub fn assert_matches(path: impl AsRef<Path>, actual: &str) {
    let path = path.as_ref();
    let actual = normalize(actual);
    if blessing() {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create golden dir");
        }
        fs::write(path, &actual).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let expected = match fs::read_to_string(path) {
        Ok(s) => normalize(&s),
        Err(e) => panic!(
            "golden fixture {} unreadable ({e}); run with UPDATE_GOLDEN=1 to bless it",
            path.display()
        ),
    };
    if let Some(d) = diff(&expected, &actual) {
        panic!(
            "output diverges from golden fixture {} \
             (UPDATE_GOLDEN=1 re-blesses):\n{d}",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_strips_trailing_whitespace_and_crlf() {
        assert_eq!(normalize("a  \r\nb\t\r\n"), "a\nb\n");
        assert_eq!(normalize("a\n\n\n"), "a\n");
        assert_eq!(normalize("a"), "a\n");
    }

    #[test]
    fn diff_reports_first_divergence_with_context() {
        let d = diff("a\nb\nc\n", "a\nB\nc\n").expect("must differ");
        assert!(d.contains("-    2 | b"), "{d}");
        assert!(d.contains("+    2 | B"), "{d}");
        assert!(d.contains("   1 | a"), "{d}");
        assert!(diff("same\n", "same\n").is_none());
    }

    #[test]
    fn fingerprint_is_fnv1a_64_of_the_exact_bytes() {
        assert_eq!(fingerprint(""), "bytes=0 fnv1a64=cbf29ce484222325");
        assert_eq!(fingerprint("a"), "bytes=1 fnv1a64=af63dc4c8601ec8c");
        assert_ne!(fingerprint("a\n"), fingerprint("a \n"));
    }

    #[test]
    fn assert_matches_roundtrips_through_a_temp_fixture() {
        let dir = std::env::temp_dir().join("dpdpu-check-golden-test");
        let path = dir.join("fixture.txt");
        let _ = std::fs::remove_file(&path);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "hello  \nworld\n").unwrap();
        assert_matches(&path, "hello\nworld");
        let err = std::panic::catch_unwind(|| assert_matches(&path, "hello\nmoon"));
        assert!(err.is_err(), "divergence must panic");
    }
}
