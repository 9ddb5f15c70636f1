//! The stdout of every example, run with no arguments in alphabetical
//! order under `=== name ===` headers, pinned as
//! `tests/golden/examples.stdout.txt` — the only CLI surface no other
//! golden covers. To re-bless after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test examples_golden
//! ```

use std::path::PathBuf;
use std::process::Command;

use dpdpu::check::golden;

#[test]
fn every_example_matches_its_golden() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(root.join("examples"))
        .expect("examples/ is readable")
        .filter_map(|entry| {
            let name = entry.expect("directory entry").file_name();
            Some(name.to_str()?.strip_suffix(".rs")?.to_string())
        })
        .collect();
    names.sort();
    // `cargo test` has already built them, next to this binary's own
    // directory: target/<profile>/{deps/<this test>, examples/<name>}.
    let exe = std::env::current_exe().expect("path of the test binary");
    let built = exe.parent().expect("deps/").parent().expect("<profile>/");
    let release = if cfg!(debug_assertions) {
        ""
    } else {
        " --release"
    };
    let mut actual = String::new();
    for name in &names {
        let out = Command::new(built.join("examples").join(name))
            .output()
            .unwrap_or_else(|e| {
                panic!("example `{name}` is not built ({e}): run `cargo build{release} --examples`")
            });
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "example `{name}` failed:\n{stderr}");
        actual.push_str(&format!("=== {name} ===\n"));
        actual.push_str(&String::from_utf8(out.stdout).expect("examples print UTF-8"));
    }
    golden::assert_matches(root.join("tests/golden/examples.stdout.txt"), &actual);
}
