//! # e2ebench — the repository's end-to-end benchmark
//!
//! Drives the shipped program from outside with seeded, generated AADL text
//! and checks every verdict against an independent oracle (see [`gen`]).
//! Three workloads:
//!
//! * `hyperperiod` — `aadlsched <file> --zones` child processes over the
//!   bundled `longperiod.aadl` plus seeded four-thread RMS sets with long
//!   co-prime hyperperiods ([`hyperperiod`]);
//! * `corpus` — the in-process library pipeline on the concrete engine over
//!   hundreds of small seeded sets plus the five small bundled models
//!   ([`corpus`]);
//! * `daemon` — one `aadlschedd` driven closed-loop by two client
//!   connections sending inline `analyze` requests ([`daemon`]).
//!
//! An untraced run reports the end-to-end metrics; a traced run (`--trace
//! 1`) reports the per-layer metrics of [`Layers::emit`], timed around each
//! call into a layer's public function.

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub mod corpus;
pub mod daemon;
pub mod gen;
pub mod hyperperiod;
pub mod pipeline;
pub mod report;
pub mod sys;

use report::{median, quantile, ratio, RunResult};

/// How many times a run repeats its set-up to report the median.
pub const SETUP_REPS: usize = 15;

/// Everything one run needs.
pub struct Ctx {
    /// Repository root (holds `Cargo.toml` and `examples/models`).
    pub root: PathBuf,
    /// Scratch directory for generated inputs, removed after the run.
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Report per-layer (true) or end-to-end (false) metrics.
    pub trace: bool,
    /// Tiny single pass, for the benchmark's own tests.
    pub smoke: bool,
}

impl Ctx {
    /// True once a pass should stop: smoke runs do one pass, measured runs
    /// fill the window.
    pub fn done(&self, start: Instant) -> bool {
        self.smoke || start.elapsed() >= self.seconds
    }
}

/// Time `f` [`SETUP_REPS`] times (once in smoke mode); return the last
/// result and the median duration in seconds.
pub fn timed_setup<T>(
    ctx: &Ctx,
    mut f: impl FnMut(bool) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let reps = if ctx.smoke { 1 } else { SETUP_REPS };
    let mut secs = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        let t = Instant::now();
        let v = f(rep + 1 == reps)?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((last.expect("at least one rep"), median(&secs)))
}

/// The end-to-end metrics every workload reports, from per-verdict wall
/// times (ms), the measured window and the analysing process's peak RSS.
pub fn emit_end_to_end(
    out: &mut RunResult,
    setup_s: f64,
    walls_ms: &[f64],
    window: Duration,
    peak_rss_kib: u64,
) {
    let ok_frac = out.ok_frac();
    out.metric("setup_s", setup_s, "s");
    out.metric(
        "verdicts_per_s",
        walls_ms.len() as f64 / window.as_secs_f64(),
        "1/s",
    );
    out.metric("verdict_p50_ms", median(walls_ms), "ms");
    out.metric("verdict_p99_ms", quantile(walls_ms, 0.99), "ms");
    out.metric("ok_frac", ok_frac, "frac");
    out.metric("peak_rss_mb", peak_rss_kib as f64 / 1024.0, "MB");
}

/// Check a delivered exit code against the oracle.
pub fn check_code(case: &gen::Case, code: Option<i32>, via: &str) -> Result<(), String> {
    match code {
        Some(c) if c == i32::from(case.expect) => Ok(()),
        other => Err(format!(
            "{}: {via} gave {other:?}, {} oracle expects {}",
            case.name, case.oracle, case.expect
        )),
    }
}

/// Daemon-side layer figures from its `stats` snapshot.
#[derive(Default, Clone, Debug)]
pub struct Served {
    /// `served.exec` p50, ms.
    pub exec_p50_ms: f64,
    /// `served.queue_wait` p50, ms.
    pub queue_wait_p50_ms: f64,
    /// `served.serialize` p50, ms.
    pub serialize_p50_ms: f64,
    /// Cache hits over analyze requests.
    pub cache_hit_frac: f64,
    /// Requests that joined an in-flight identical job.
    pub coalesced: f64,
    /// Client round trip p50 minus `exec_p50_ms`.
    pub overhead_ms: f64,
}

/// Accumulates per-layer measurements over the models of a traced run.
#[derive(Default)]
pub struct Layers {
    models: usize,
    layer_ms: [f64; pipeline::LAYERS.len()],
    wall_ms: f64,
    states: f64,
    transitions: f64,
    dedup_hits: f64,
    explore_s: f64,
    memo_hits: f64,
    memo_misses: f64,
    subterms: f64,
    /// Sums of `zone.closed_form_advances`, `zone.replay_fallbacks`,
    /// `zone.shapes_derived`, `zone.quanta_collapsed` over `zone_models`.
    zone: [f64; 4],
    zone_models: usize,
    cli_models: usize,
    cli_wall_ms: f64,
    unattributed_ms: f64,
    obs_wall_ms: f64,
    obs_plain_ms: f64,
    obs_bytes: f64,
    obs_spans: f64,
    obs_models: usize,
    served: Served,
}

/// The zone counters, in [`Layers`] order.
pub const ZONE_COUNTERS: [&str; 4] = [
    "zone.closed_form_advances",
    "zone.replay_fallbacks",
    "zone.shapes_derived",
    "zone.quanta_collapsed",
];

impl Layers {
    /// Add one traced in-process pipeline run. Its layers must add up to
    /// its wall: the readings are shared, so any residual is a bug.
    pub fn add_pipeline(&mut self, o: &pipeline::Outcome) -> Result<(), String> {
        let layers = o.layer_ms();
        let sum: f64 = layers.iter().sum();
        let wall = o.wall_ms();
        if layers.len() != pipeline::LAYERS.len() || (sum - wall).abs() > 1e-6 * wall.max(1.0) {
            return Err(format!("layers sum to {sum} ms, wall is {wall} ms"));
        }
        self.models += 1;
        for (acc, ms) in self.layer_ms.iter_mut().zip(layers) {
            *acc += ms;
        }
        self.wall_ms += wall;
        let s = &o.stats;
        self.states += s.states as f64;
        self.transitions += s.transitions as f64;
        self.dedup_hits += s.dedup_hits as f64;
        self.explore_s += s.duration.as_secs_f64();
        self.memo_hits += s.memo_hits as f64;
        self.memo_misses += s.memo_misses as f64;
        self.subterms += s.unique_subterms as f64;
        Ok(())
    }

    /// Add one model's zone counters (looked up by name; absent = 0).
    pub fn add_zone(&mut self, get: impl Fn(&str) -> u64) {
        self.zone_models += 1;
        for (acc, name) in self.zone.iter_mut().zip(ZONE_COUNTERS) {
            *acc += get(name) as f64;
        }
    }

    /// Add one model's CLI wall next to its in-process pipeline wall: the
    /// difference is the time the CLI spends outside the library layers.
    pub fn add_cli(&mut self, cli_wall_ms: f64, pipeline_wall_ms: f64) {
        self.cli_models += 1;
        self.cli_wall_ms += cli_wall_ms;
        self.unattributed_ms += cli_wall_ms - pipeline_wall_ms;
    }

    /// Add one `aadlsched --metrics` run next to the plain run of the same
    /// file.
    pub fn add_obs(&mut self, traced_ms: f64, plain_ms: f64, report: &obs::Json) {
        self.obs_models += 1;
        self.obs_wall_ms += traced_ms;
        self.obs_plain_ms += plain_ms;
        self.obs_bytes += report.to_compact().len() as f64;
        if let Some(obs::Json::Arr(spans)) = report.get("spans") {
            self.obs_spans += spans.len() as f64;
        }
    }

    /// Record the daemon's own figures.
    pub fn set_served(&mut self, served: Served) {
        self.served = served;
    }

    /// Emit every per-layer metric, always the same set in the same order.
    /// Layer times are means per model, so they add up to `pipeline.wall_ms`
    /// and, with `cli.unattributed_ms`, to `cli.wall_ms`. A layer the
    /// workload never runs reports 0.
    pub fn emit(&self, out: &mut RunResult) {
        let per = |v: f64, n: usize| ratio(v, n as f64);
        for (name, ms) in pipeline::LAYERS.iter().zip(self.layer_ms) {
            out.metric(name, per(ms, self.models), "ms");
        }
        out.metric("pipeline.wall_ms", per(self.wall_ms, self.models), "ms");
        let drops = self.layer_ms[7] + self.layer_ms[8];
        out.metric("teardown_frac", ratio(drops, self.wall_ms), "frac");
        out.metric("versa.states", per(self.states, self.models), "count");
        out.metric(
            "versa.transitions",
            per(self.transitions, self.models),
            "count",
        );
        out.metric(
            "versa.dedup_hits",
            per(self.dedup_hits, self.models),
            "count",
        );
        out.metric(
            "versa.states_per_s",
            ratio(self.states, self.explore_s),
            "1/s",
        );
        out.metric(
            "acsr.memo_hit_frac",
            ratio(self.memo_hits, self.memo_hits + self.memo_misses),
            "frac",
        );
        out.metric(
            "acsr.subterms_per_state",
            ratio(self.subterms, self.states),
            "count",
        );
        for (name, v) in ZONE_COUNTERS.iter().zip(self.zone) {
            out.metric(name, per(v, self.zone_models), "count");
        }
        out.metric(
            "zone.served_frac",
            ratio(self.zone[0], self.zone[0] + self.zone[1]),
            "frac",
        );
        out.metric("cli.wall_ms", per(self.cli_wall_ms, self.cli_models), "ms");
        out.metric(
            "cli.unattributed_ms",
            per(self.unattributed_ms, self.cli_models),
            "ms",
        );
        let overhead = if self.obs_models == 0 {
            0.0
        } else {
            ratio(self.obs_wall_ms, self.obs_plain_ms) - 1.0
        };
        out.metric("obs.overhead_frac", overhead, "frac");
        out.metric(
            "obs.report_bytes",
            per(self.obs_bytes, self.obs_models),
            "bytes",
        );
        out.metric("obs.spans", per(self.obs_spans, self.obs_models), "count");
        let s = &self.served;
        out.metric("served.exec_p50_ms", s.exec_p50_ms, "ms");
        out.metric("served.queue_wait_p50_ms", s.queue_wait_p50_ms, "ms");
        out.metric("served.serialize_p50_ms", s.serialize_p50_ms, "ms");
        out.metric("served.cache_hit_frac", s.cache_hit_frac, "frac");
        out.metric("served.coalesced", s.coalesced, "count");
        out.metric("served.overhead_ms", s.overhead_ms, "ms");
    }
}
