//! Smoke mode: a tiny pass of every workload, oracle included, traced and
//! untraced, through the real binary. Each result line must report exactly
//! the metrics `BENCHMARK.json` declares for its mode.

mod common;

use std::process::Command;

use common::{benchmark, names, parse};

fn smoke(workload: &str, trace: &str) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "20261017",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace, "--smoke", "--root", root])
        .output()
        .expect("run e2ebench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let result = parse(stdout.lines().last().expect("a result line"));
    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &common::J::Bool(true));
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    let list = if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    };
    let b = benchmark();
    let want = names(&b, list);
    assert_eq!(
        result.get("metrics").keys(),
        want,
        "{workload} --trace {trace}"
    );
    for m in b.get(list).arr() {
        let got = result.get("metrics").get(m.get("name").str());
        assert_eq!(got.get("unit").str(), m.get("unit").str());
        assert!(got.get("value").num().is_finite());
    }
}

#[test]
fn corpus_smoke() {
    smoke("corpus", "0");
    smoke("corpus", "1");
}

#[test]
fn daemon_smoke() {
    smoke("daemon", "0");
    smoke("daemon", "1");
}

#[test]
fn hyperperiod_smoke() {
    smoke("hyperperiod", "0");
    smoke("hyperperiod", "1");
}

#[test]
fn refuses_an_unknown_workload_without_a_result() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(["--root", root])
        .output()
        .expect("run e2ebench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
