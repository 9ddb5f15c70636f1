//! Regenerates every figure and ablation table in experiment-id order —
//! the artifact EXPERIMENTS.md records. Every run is invariant-checked.

fn main() {
    print!("{}", dpdpu_bench::render_all());
}
