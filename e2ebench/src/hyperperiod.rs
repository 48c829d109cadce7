//! The `hyperperiod` workload: the user's real CLI wall, one
//! `aadlsched <file> --zones` child process per verdict, process start and
//! exit included, over `longperiod.aadl` and the seeded sets of
//! [`gen::hyperperiod_sets`]. A pass is the whole pool; a run measures
//! whole passes until the window is full, so every run sees the same mix.
//!
//! The traced pass runs each file three ways — the plain CLI, the CLI with
//! `--metrics` (its enabled recorder supplies the zone counters and the
//! observability cost), and the in-process pipeline — so the CLI wall
//! splits into library layers plus `cli.unattributed_ms`. It too runs whole
//! passes.

use std::path::PathBuf;
use std::time::Instant;

use crate::gen::{self, Case};
use crate::report::RunResult;
use crate::sys::{self, Bins};
use crate::{check_code, emit_end_to_end, pipeline, timed_setup, Ctx, Layers};

/// Generate the pool and write one `.aadl` file per case.
fn setup(ctx: &Ctx) -> Result<Vec<(Case, PathBuf)>, String> {
    let mut cases = vec![gen::bundled_case(&ctx.root, gen::LONGPERIOD, 0)?];
    cases.extend(gen::hyperperiod_sets(ctx.seed));
    if ctx.smoke {
        // The cheapest schedulable set and the overloaded one.
        cases.drain(..cases.len() - 2);
    }
    cases
        .into_iter()
        .map(|case| {
            let path = ctx.work.join(format!("{}.aadl", case.name));
            std::fs::write(&path, &case.source)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok((case, path))
        })
        .collect()
}

/// One CLI verdict: the exit code must match the oracle and agree with the
/// printed verdict line.
fn cli(bins: &Bins, case: &Case, args: &[&str]) -> Result<sys::Exit, String> {
    let exit = sys::run_child(&bins.aadlsched, args)?;
    check_code(case, exit.code, "aadlsched")?;
    let line = if case.expect == 0 {
        "VERDICT: schedulable"
    } else {
        "VERDICT: NOT schedulable"
    };
    if !exit.stdout.lines().any(|l| l.starts_with(line)) {
        return Err(format!("{}: no `{line}` line on stdout", case.name));
    }
    Ok(exit)
}

/// Run the workload.
pub fn run(ctx: &Ctx, bins: &Bins) -> Result<RunResult, String> {
    let (files, setup_s) = timed_setup(ctx, |_| setup(ctx))?;
    let mut out = RunResult::default();
    if ctx.trace {
        traced(ctx, bins, &files, &mut out);
        return Ok(out);
    }
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut peak_kib = 0;
    loop {
        for (case, path) in &files {
            let path = path.to_str().ok_or("non-UTF-8 work path")?;
            let t = Instant::now();
            let result = cli(bins, case, &[path, "--zones"]);
            walls.push(t.elapsed().as_secs_f64() * 1e3);
            if let Ok(exit) = &result {
                peak_kib = peak_kib.max(exit.maxrss_kib);
            }
            out.attempt(result.map(drop));
        }
        if ctx.done(start) {
            break;
        }
    }
    emit_end_to_end(&mut out, setup_s, &walls, start.elapsed(), peak_kib);
    Ok(out)
}

fn traced(ctx: &Ctx, bins: &Bins, files: &[(Case, PathBuf)], out: &mut RunResult) {
    let mut layers = Layers::default();
    let opts = pipeline::options(true);
    let start = Instant::now();
    loop {
        for (case, path) in files {
            out.attempt(traced_one(ctx, bins, case, path, &opts, &mut layers));
        }
        if ctx.done(start) {
            break;
        }
    }
    layers.emit(out);
}

fn traced_one(
    ctx: &Ctx,
    bins: &Bins,
    case: &Case,
    path: &std::path::Path,
    opts: &versa::Options,
    layers: &mut Layers,
) -> Result<(), String> {
    let file = path.to_str().ok_or("non-UTF-8 work path")?;
    let plain = cli(bins, case, &[file, "--zones"])?;
    let metrics_path = ctx.work.join(format!("{}.metrics.json", case.name));
    let metrics = metrics_path.to_str().ok_or("non-UTF-8 work path")?;
    let with_obs = cli(bins, case, &[file, "--zones", "--metrics", metrics])?;
    let text = std::fs::read_to_string(&metrics_path)
        .map_err(|e| format!("cannot read {metrics}: {e}"))?;
    let report = obs::Json::parse(&text).map_err(|e| format!("{metrics}: {e}"))?;
    let counters = report.get("counters");
    layers.add_zone(|name| {
        counters
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    });
    let plain_ms = plain.wall.as_secs_f64() * 1e3;
    layers.add_obs(with_obs.wall.as_secs_f64() * 1e3, plain_ms, &report);
    let inproc = pipeline::run(&case.source, opts, true)?;
    check_code(case, Some(i32::from(inproc.code)), "the library pipeline")?;
    layers.add_pipeline(&inproc)?;
    layers.add_cli(plain_ms, inproc.wall_ms());
    Ok(())
}
