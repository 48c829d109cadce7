//! The in-process library pipeline from AADL source text to verdict, the
//! same chain of public calls the `aadlsched` CLI makes:
//!
//! `parse_package` → `instantiate` → `validate` → `translate` →
//! `versa::explore` → `first_deadlock_trace` → `diagnose::raise` → drop.
//!
//! With tracing on, one clock reading sits at every boundary between two
//! calls, so each layer's time is the distance between two shared readings
//! and the layers add up to the pipeline's wall exactly.

use std::time::Instant;

use aadl::check::validate;
use aadl::instance::instantiate;
use aadl::parser::parse_package;
use aadl2acsr::diagnose::raise;
use aadl2acsr::{translate, AnalysisOptions, TranslateOptions};

/// Layer names, in call order; [`run`] records one reading before the first
/// and one after each.
pub const LAYERS: [&str; 9] = [
    "aadl.parse_ms",
    "aadl.instantiate_ms",
    "aadl.check_ms",
    "core.translate_ms",
    "versa.explore_ms",
    "versa.trace_ms",
    "core.diagnose_ms",
    "versa.exploration_drop_ms",
    "acsr.store_drop_ms",
];

/// Exploration options as the CLI sets them: verdict mode (stop at the
/// first deadlock), one thread, concrete or zone engine.
pub fn options(zones: bool) -> versa::Options {
    let mut o = AnalysisOptions::default().explore;
    o.zones = zones;
    o
}

/// What one pipeline run produced.
pub struct Outcome {
    /// The CLI exit code the verdict maps to: 0, 1 or 3.
    pub code: u8,
    /// Exploration statistics.
    pub stats: versa::Stats,
    /// With tracing, `LAYERS.len() + 1` clock readings; empty otherwise.
    pub marks: Vec<Instant>,
}

impl Outcome {
    /// Per-layer milliseconds (empty when untraced).
    pub fn layer_ms(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect()
    }

    /// First to last reading, in milliseconds (0 when untraced).
    pub fn wall_ms(&self) -> f64 {
        match (self.marks.first(), self.marks.last()) {
            (Some(a), Some(b)) => (*b - *a).as_secs_f64() * 1e3,
            _ => 0.0,
        }
    }
}

/// Run the pipeline on `src`. Input errors (the CLI's exit 2) are `Err`.
pub fn run(src: &str, opts: &versa::Options, trace: bool) -> Result<Outcome, String> {
    let mut marks = Vec::with_capacity(if trace { LAYERS.len() + 1 } else { 0 });
    let mut tick = || {
        if trace {
            marks.push(Instant::now());
        }
    };
    tick();
    let pkg = parse_package(src).map_err(|e| format!("parse error: {e}"))?;
    tick();
    let root = pkg.default_root()?;
    let model = instantiate(&pkg, &root).map_err(|e| format!("instantiation error: {e}"))?;
    tick();
    let errors = validate(&model);
    if !errors.is_empty() {
        return Err(format!("validation: {} error(s)", errors.len()));
    }
    tick();
    let tm = translate(&model, &TranslateOptions::default())
        .map_err(|e| format!("translation error: {e}"))?;
    tick();
    let mut eopts = opts.clone();
    eopts.store = Some(tm.store.clone());
    eopts.cas_context = tm.options_canon.clone();
    let ex = versa::explore(&tm.env, &tm.initial, &eopts);
    tick();
    let trace_found = ex.first_deadlock_trace();
    tick();
    let unschedulable = match trace_found {
        Some(t) => {
            drop(raise(&model, &tm, &t));
            true
        }
        None => false,
    };
    tick();
    let code = if unschedulable {
        1
    } else if ex.truncated || ex.cancelled {
        3
    } else {
        0
    };
    let stats = ex.stats.clone();
    drop(ex);
    tick();
    drop((eopts, tm, model, pkg));
    tick();
    Ok(Outcome { code, stats, marks })
}
