//! The `corpus` workload: the in-process library pipeline on the default
//! concrete engine in verdict mode, over the five small bundled models and
//! [`CORPUS_SIZE`] seeded sets from [`gen::corpus_sets`]. One verdict's
//! time runs from source text to verdict, teardown included. A run
//! measures whole passes over the pool until the window is full.

use std::time::Instant;

use crate::gen::{self, Case};
use crate::report::RunResult;
use crate::{check_code, emit_end_to_end, pipeline, sys, timed_setup, Ctx, Layers};

/// Generated sets per pass — ten full cycles of the generator's strata
/// (the bundled five come on top).
pub const CORPUS_SIZE: usize = 10 * gen::STRATA;

/// Verdicts run untimed before the window opens: the allocator's heap and
/// mmap threshold settle over the first few hundred models, a cost a
/// long-lived library user pays once.
const WARMUP: usize = 300;

/// Generated sets per pass in smoke mode.
const SMOKE_SIZE: usize = 12;

/// Models whose zone counters the traced pass reads from an enabled
/// recorder (the concrete engine never runs the zone code, so they stay 0).
const ZONE_PROBES: usize = 20;

fn setup(ctx: &Ctx) -> Result<Vec<Case>, String> {
    let mut cases = gen::bundled(&ctx.root)?;
    let size = if ctx.smoke { SMOKE_SIZE } else { CORPUS_SIZE };
    cases.extend(gen::corpus_sets(ctx.seed, size));
    Ok(cases)
}

/// One verdict through the pipeline, checked against its oracle.
pub fn verdict(
    case: &Case,
    opts: &versa::Options,
    trace: bool,
) -> Result<pipeline::Outcome, String> {
    let o = pipeline::run(&case.source, opts, trace).map_err(|e| format!("{}: {e}", case.name))?;
    check_code(case, Some(i32::from(o.code)), "the library pipeline")?;
    Ok(o)
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let (cases, setup_s) = timed_setup(ctx, |_| setup(ctx))?;
    let mut out = RunResult::default();
    let opts = pipeline::options(false);
    if ctx.trace {
        let mut layers = Layers::default();
        let window = (!ctx.smoke).then_some(ctx.seconds);
        traced_pass(window, &cases, &opts, &mut layers, &mut out);
        layers.emit(&mut out);
        return Ok(out);
    }
    if !ctx.smoke {
        for case in cases.iter().take(WARMUP) {
            out.attempt(verdict(case, &opts, false).map(drop));
        }
    }
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        for case in &cases {
            let t = Instant::now();
            let result = verdict(case, &opts, false);
            walls.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempt(result.map(drop));
        }
        if ctx.done(start) {
            break;
        }
    }
    let window = start.elapsed();
    let peak = sys::vm_hwm_kib("self")?;
    emit_end_to_end(&mut out, setup_s, &walls, window, peak);
    Ok(out)
}

/// Traced verdicts over `cases` — whole passes until `window` is full, one
/// pass when it is `None` — then the zone-counter probe.
pub fn traced_pass(
    window: Option<std::time::Duration>,
    cases: &[Case],
    opts: &versa::Options,
    layers: &mut Layers,
    out: &mut RunResult,
) {
    let start = Instant::now();
    loop {
        for case in cases {
            out.attempt(verdict(case, opts, true).and_then(|o| layers.add_pipeline(&o)));
        }
        if window.map_or(true, |w| start.elapsed() >= w) {
            break;
        }
    }
    for case in cases.iter().take(ZONE_PROBES) {
        let rec = obs::Recorder::enabled();
        let mut probe = opts.clone();
        probe.obs = rec.clone();
        out.attempt(verdict(case, &probe, false).map(drop));
        layers.add_zone(|name| rec.counter(name).get());
    }
}
