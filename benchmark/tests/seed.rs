//! `--seed` reaches the load generators: another seed is another key
//! stream and other virtual numbers, under the same names.

mod common;

use common::{names, result_metrics, run};

fn metrics(seed: &str) -> Vec<(String, f64)> {
    result_metrics(&run(&[
        "--workload",
        "kv_read_tcp",
        "--smoke",
        "--seed",
        seed,
        "--reps",
        "1",
        "--trace",
        "0",
    ]))
}

#[test]
fn another_seed_changes_the_virtual_numbers_but_not_the_names() {
    let (a, a_again, b) = (metrics("1"), metrics("1"), metrics("2"));
    assert_eq!(
        names(a.iter().map(|(n, _)| n)),
        names(b.iter().map(|(n, _)| n))
    );
    let virtual_of = |m: &[(String, f64)]| -> Vec<(String, u64)> {
        m.iter()
            .filter(|(n, _)| n.starts_with("virt_") || n == "host_cyc_per_op")
            .map(|(n, v)| (n.clone(), v.to_bits()))
            .collect()
    };
    assert_eq!(
        virtual_of(&a),
        virtual_of(&a_again),
        "one seed must repeat bit for bit"
    );
    let moved = virtual_of(&a)
        .iter()
        .zip(virtual_of(&b))
        .filter(|(x, y)| x.1 != y.1)
        .count();
    assert!(
        moved >= 3,
        "seed 2 moved only {moved} virtual metrics: {a:?} vs {b:?}"
    );
}
