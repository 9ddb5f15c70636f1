//! Doc drift guard: every figure table `all_figures` prints — pinned in
//! `tests/golden/all_figures.stdout.txt` and diffed in CI — must appear
//! verbatim in EXPERIMENTS.md, so the numbers the document quotes are
//! the numbers the code produces.

#[test]
fn every_figure_block_appears_verbatim_in_experiments_md() {
    let root = env!("CARGO_MANIFEST_DIR");
    let read = |rel: &str| {
        std::fs::read_to_string(format!("{root}/{rel}")).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    // Leading newline so the first header splits like the rest.
    let golden = format!("\n{}", read("tests/golden/all_figures.stdout.txt"));
    let doc = read("EXPERIMENTS.md");
    // A block runs from its `=== id ===` header to the next header.
    let blocks: Vec<String> = golden
        .split("\n=== ")
        .skip(1)
        .map(|body| format!("=== {}", body.trim_end()))
        .collect();
    assert!(!blocks.is_empty(), "golden holds no `=== id ===` block");
    let missing: Vec<&str> = blocks
        .iter()
        .filter(|block| !doc.contains(block.as_str()))
        .map(|block| block.lines().next().unwrap_or(block))
        .collect();
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md is missing or has drifted from these `all_figures` blocks \
         (paste them from tests/golden/all_figures.stdout.txt): {missing:?}"
    );
}
