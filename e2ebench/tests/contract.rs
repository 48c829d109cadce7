//! `BENCHMARK.json` and `predictions.json` stay within the benchmark
//! contract and agree with each other and with the code.

mod common;

use common::{benchmark, names, parse};

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars().next().unwrap().is_ascii_alphanumeric()
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_and_counts_stay_within_the_contract() {
    let b = benchmark();
    let e2e = names(&b, "end_to_end");
    let layers = names(&b, "per_layer");
    assert!(
        (1..=16).contains(&e2e.len()),
        "{} end-to-end metrics",
        e2e.len()
    );
    assert!(
        (1..=128).contains(&layers.len()),
        "{} per-layer metrics",
        layers.len()
    );
    let mut all: Vec<&String> = e2e.iter().chain(&layers).collect();
    for n in &all {
        assert!(valid_name(n), "bad metric name `{n}`");
    }
    let count = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), count, "a metric name is used twice");
    for m in b.get("end_to_end").arr() {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").num();
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            m.get("name").str()
        );
    }
    for m in b.get("per_layer").arr() {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
    }
    for m in b
        .get("end_to_end")
        .arr()
        .iter()
        .chain(b.get("per_layer").arr())
    {
        assert!(["higher", "lower"].contains(&m.get("better").str()));
        let unit = m.get("unit").str();
        assert!(!unit.is_empty() && unit.len() <= 16);
    }
    let setup = b
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s");
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").str(), "s");
    assert_eq!(setup.get("better").str(), "lower");
    let max_bound = b
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| m.get("bound").num())
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").num(),
        max_bound,
        "setup_s carries the largest bound"
    );
}

#[test]
fn workloads_are_the_implemented_ones() {
    let b = benchmark();
    let workloads: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["hyperperiod", "corpus", "daemon"]);
    for w in b.get("workloads").arr() {
        assert_eq!(w.keys(), ["name", "why"]);
        let why = w.get("why").str();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    assert_eq!(
        b.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn every_layer_has_a_prediction() {
    let b = benchmark();
    let p = parse(include_str!("../predictions.json"));
    let seeds = p.get("seeds");
    assert_ne!(seeds.get("default").num(), seeds.get("held_out").num());
    let e2e = names(&b, "end_to_end");
    let workloads: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let predicted: Vec<&str> = p
        .get("predictions")
        .arr()
        .iter()
        .map(|r| r.get("layer").str())
        .collect();
    assert_eq!(
        predicted,
        names(&b, "per_layer"),
        "one prediction per layer, in order"
    );
    for row in p.get("predictions").arr() {
        for m in row.get("moves").arr() {
            assert!(
                e2e.iter().any(|e| e == m.str()),
                "unknown end-to-end metric {m:?}"
            );
        }
        for w in row
            .get("on")
            .arr()
            .iter()
            .chain(row.get("unchanged_on").arr())
        {
            assert!(workloads.contains(&w.str()), "unknown workload {w:?}");
        }
    }
}
