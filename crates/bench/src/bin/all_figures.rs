//! `all_figures [id…]`: regenerates the named figure and ablation tables
//! (`all_figures fig2 A3`), or with no argument all of them — the
//! artifact EXPERIMENTS.md records. Every run is invariant-checked.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<_> = args.iter().map(String::as_str).collect();
    let known: Vec<_> = dpdpu_bench::all().iter().map(|(id, _)| *id).collect();
    if let Some(bad) = ids.iter().find(|id| !known.contains(id)) {
        eprintln!("unknown experiment id '{bad}'");
        eprintln!("usage: all_figures [id…], ids: {}", known.join(" "));
        std::process::exit(2);
    }
    let ids = if ids.is_empty() { &known } else { &ids };
    print!("{}", dpdpu_bench::render(ids));
}
