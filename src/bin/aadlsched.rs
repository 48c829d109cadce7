//! `aadlsched` — command-line schedulability analysis of AADL models,
//! the CLI equivalent of the paper's OSATE plugin (§5):
//!
//! ```text
//! aadlsched <model.aadl> [RootSystem.impl] [options]
//!
//! When the root system implementation is omitted, the unique system
//! implementation that no other implementation instantiates as a
//! subcomponent is used (the top of the instantiation hierarchy). If the
//! package has several such candidates, the root must be given explicitly.
//!
//! options:
//!   --quantum <ms>    override the scheduling quantum
//!   --protocol <p>    override the Concurrency_Control_Protocol of every
//!                     shared data component (none | pip | pcp, or the full
//!                     AADL literal) without editing the model
//!   --compact         compact translation (drop redundant skeleton scopes)
//!   --exhaustive      explore the full state space (default: stop at the
//!                     first deadlock)
//!   --threads <n>     parallel frontier expansion with n workers
//!   --shards <n>      visited-set shards (default: auto = next power of two
//!                     ≥ threads; never affects results, only contention)
//!   --max-states <n>  state budget (verdict becomes "unknown" if exceeded)
//!   --no-memo         disable successor memoization (escape hatch; verdicts
//!                     are identical either way, only the wall time changes)
//!   --zones           delay-zone exploration: collapse forced runs of
//!                     quanta into single bulk steps (identical verdicts
//!                     and traces, far fewer materialized states on models
//!                     with long uncontended stretches; ignored with --dot,
//!                     which needs the concrete per-quantum LTS — a warning
//!                     is printed on stderr when both are given)
//!   --zone-advance <closed|replay>  how zone mode follows a forced run:
//!                     `closed` (the default) advances through cached
//!                     per-shape delay derivatives in O(#parameters);
//!                     `replay` re-derives every quantum through the step
//!                     relation. Verdicts and traces are identical — the
//!                     switch exists for honest A/B timing
//!   --zone-cap <n>    per-edge step cap in zone mode (default 4096; longer
//!                     forced runs chain several edges, so the value never
//!                     changes verdicts, only edge granularity)
//!   --store <s>       persistent cross-run artifact store: a directory to
//!                     consult before exploring and deposit verdicts into
//!                     after, `readonly:<dir>` to consult without writing,
//!                     or `off` (the default — no store is touched)
//!   --tree            print the instance tree with bindings and timing
//!   --acsr            print the generated ACSR process definitions
//!   --dot <file>      write the explored LTS as Graphviz dot
//!   --metrics <file>  write a schema-versioned JSON run report
//!   --trace-events <file>  write the span/event stream as JSON lines
//!   --progress        emit rate-limited exploration progress on stderr
//! ```
//!
//! Exit codes: 0 schedulable, 1 not schedulable, 2 usage/input error,
//! 3 unknown (state budget exhausted before a verdict).
//!
//! For byte-stable reports (tests, diffing), set `AADLSCHED_FAKE_CLOCK=<ns>`
//! to replace the monotonic clock with a fake that advances by the given
//! number of nanoseconds per reading.

use std::process::ExitCode;

use aadl::instance::instantiate;
use aadl::parser::parse_package;
use aadl::properties::{ConcurrencyControlProtocol, TimeVal};
use aadl2acsr::{
    analyze_translated, translate, AnalysisOptions, TranslateError, TranslateOptions,
    EXIT_INPUT_ERROR,
};
use obs::{Json, JsonLinesSink, Sink};

struct Args {
    file: String,
    root: Option<String>,
    quantum_ms: Option<i64>,
    protocol: Option<ConcurrencyControlProtocol>,
    compact: bool,
    exhaustive: bool,
    threads: usize,
    shards: usize,
    max_states: Option<usize>,
    no_memo: bool,
    zones: bool,
    zone_cap: Option<usize>,
    zone_advance: Option<versa::ZoneAdvance>,
    store: Option<String>,
    print_acsr: bool,
    print_tree: bool,
    dot: Option<String>,
    metrics: Option<String>,
    trace_events: Option<String>,
    progress: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: aadlsched <model.aadl> [RootSystem.impl] \
         [--quantum <ms>] [--protocol <none|pip|pcp>] [--compact] \
         [--exhaustive] [--threads <n>] [--shards <n>] \
         [--max-states <n>] [--no-memo] [--zones] \
         [--zone-advance <closed|replay>] [--zone-cap <n>] \
         [--store <dir|readonly:dir|off>] \
         [--tree] [--acsr] [--dot <file>] \
         [--metrics <file>] [--trace-events <file>] [--progress]\n\
         (omit RootSystem.impl to analyze the package's top-level system \
         implementation)"
    );
    ExitCode::from(EXIT_INPUT_ERROR)
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1).peekable();
    let file = raw.next().ok_or("missing <model.aadl>")?;
    let root = match raw.peek() {
        Some(a) if !a.starts_with("--") => raw.next(),
        _ => None,
    };
    let mut args = Args {
        file,
        root,
        quantum_ms: None,
        protocol: None,
        compact: false,
        exhaustive: false,
        threads: 1,
        shards: 0,
        max_states: None,
        no_memo: false,
        zones: false,
        zone_cap: None,
        zone_advance: None,
        store: None,
        print_acsr: false,
        print_tree: false,
        dot: None,
        metrics: None,
        trace_events: None,
        progress: false,
    };
    while let Some(flag) = raw.next() {
        match flag.as_str() {
            "--quantum" => {
                args.quantum_ms = Some(
                    raw.next()
                        .ok_or("--quantum needs a value")?
                        .parse()
                        .map_err(|e| format!("--quantum: {e}"))?,
                )
            }
            "--protocol" => {
                let raw = raw.next().ok_or("--protocol needs a value")?;
                args.protocol = Some(ConcurrencyControlProtocol::parse(&raw).ok_or_else(
                    || format!("--protocol: unknown protocol `{raw}` (none | pip | pcp)"),
                )?)
            }
            "--compact" => args.compact = true,
            "--exhaustive" => args.exhaustive = true,
            "--threads" => {
                args.threads = raw
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--shards" => {
                args.shards = raw
                    .next()
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--max-states" => {
                args.max_states = Some(
                    raw.next()
                        .ok_or("--max-states needs a value")?
                        .parse()
                        .map_err(|e| format!("--max-states: {e}"))?,
                )
            }
            "--no-memo" => args.no_memo = true,
            "--zones" => args.zones = true,
            "--zone-cap" => {
                let cap: usize = raw
                    .next()
                    .ok_or("--zone-cap needs a value")?
                    .parse()
                    .map_err(|e| format!("--zone-cap: {e}"))?;
                if cap == 0 {
                    return Err("--zone-cap must be at least 1".into());
                }
                args.zone_cap = Some(cap);
            }
            "--zone-advance" => {
                let mode = raw.next().ok_or("--zone-advance needs <closed|replay>")?;
                args.zone_advance = Some(match mode.as_str() {
                    "closed" => versa::ZoneAdvance::Closed,
                    "replay" => versa::ZoneAdvance::Replay,
                    other => {
                        return Err(format!(
                            "--zone-advance: unknown mode `{other}` (closed | replay)"
                        ))
                    }
                });
            }
            "--store" => {
                args.store = Some(raw.next().ok_or("--store needs <dir|readonly:dir|off>")?)
            }
            "--acsr" => args.print_acsr = true,
            "--tree" => args.print_tree = true,
            "--dot" => args.dot = Some(raw.next().ok_or("--dot needs a file")?),
            "--metrics" => {
                args.metrics = Some(raw.next().ok_or("--metrics needs a file")?)
            }
            "--trace-events" => {
                args.trace_events = Some(raw.next().ok_or("--trace-events needs a file")?)
            }
            "--progress" => args.progress = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Build the run recorder from the CLI flags: disabled (a no-op) unless any
/// observability output was requested, a fake clock when
/// `AADLSCHED_FAKE_CLOCK` asks for byte-stable reports.
fn build_recorder(args: &Args) -> Result<obs::Recorder, String> {
    if args.metrics.is_none() && args.trace_events.is_none() && !args.progress {
        return Ok(obs::Recorder::disabled());
    }
    let rec = match std::env::var("AADLSCHED_FAKE_CLOCK") {
        Ok(tick) => {
            let tick: u64 = tick
                .parse()
                .map_err(|e| format!("AADLSCHED_FAKE_CLOCK must be a tick in ns: {e}"))?;
            obs::Recorder::with_clock(Box::new(obs::FakeClock::new(tick)))
        }
        Err(_) => obs::Recorder::enabled(),
    };
    Ok(if args.progress {
        rec.with_progress()
    } else {
        rec
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let rec = match build_recorder(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_INPUT_ERROR);
        }
    };

    let source = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read `{}`: {e}", args.file);
            return ExitCode::from(EXIT_INPUT_ERROR);
        }
    };
    let pkg = match parse_package(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: parse error: {e}", args.file);
            return ExitCode::from(EXIT_INPUT_ERROR);
        }
    };
    let root = match &args.root {
        Some(r) => r.clone(),
        None => match pkg.default_root() {
            Ok(r) => {
                println!("root system: {r} (auto-selected)");
                r
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(EXIT_INPUT_ERROR);
            }
        },
    };
    let model = match instantiate(&pkg, &root) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("instantiation error: {e}");
            return ExitCode::from(EXIT_INPUT_ERROR);
        }
    };
    println!(
        "instance model: {} components, {} thread(s), {} processor(s), {} semantic connection(s)",
        model.num_components(),
        model.threads().count(),
        model.processors().count(),
        model.connections.len()
    );
    if args.print_tree {
        println!("\n{}", model.render_tree());
    }

    if let Some(p) = args.protocol {
        println!("concurrency control: {p} (forced by --protocol)");
    }
    let topts = TranslateOptions {
        compact: args.compact,
        quantum: args.quantum_ms.map(TimeVal::ms),
        protocol_override: args.protocol,
        obs: rec.clone(),
        ..Default::default()
    };
    let tm = match translate(&model, &topts) {
        Ok(tm) => tm,
        Err(TranslateError::Validation(errs)) => {
            // Point the user at the exact property association the checker
            // rejected, with its source position when the model came from
            // text (builder-made models carry no spans).
            eprintln!("translation error: the model violates the translation's assumptions (§4.1):");
            for e in &errs {
                match (e.property(), e.span()) {
                    (Some(prop), Some(span)) => {
                        eprintln!("  - {e}\n    (`{prop}` at {}:{span})", args.file)
                    }
                    (Some(prop), None) => eprintln!("  - {e}\n    (property `{prop}`)"),
                    _ => eprintln!("  - {e}"),
                }
            }
            return ExitCode::from(EXIT_INPUT_ERROR);
        }
        Err(e) => {
            eprintln!("translation error: {e}");
            return ExitCode::from(EXIT_INPUT_ERROR);
        }
    };
    println!(
        "translation: {} thread processes, {} dispatchers, {} queues, quantum = {} µs",
        tm.inventory.threads,
        tm.inventory.dispatchers,
        tm.inventory.queues,
        tm.quantum_ps / 1_000_000
    );
    if args.print_acsr {
        println!("\nACSR definitions:");
        for (_, def) in tm.env.defs() {
            if let Some(body) = &def.body {
                println!("  {} = {}", def.name, tm.env.display_proc(body));
            }
        }
        println!();
    }

    let mut aopts = if args.exhaustive {
        AnalysisOptions::exhaustive()
    } else {
        AnalysisOptions::default()
    };
    aopts.explore.threads = args.threads;
    aopts.explore.shards = args.shards;
    if let Some(max) = args.max_states {
        aopts.explore.max_states = max;
    }
    aopts.explore.memo = !args.no_memo;
    aopts.explore.zones = args.zones;
    if let Some(cap) = args.zone_cap {
        aopts.explore.zone_cap = cap;
    }
    if let Some(advance) = args.zone_advance {
        aopts.explore.zone_advance = advance;
    }
    aopts.explore.collect_lts = args.dot.is_some();
    if args.zones && args.dot.is_some() {
        eprintln!(
            "warning: --dot needs the concrete per-quantum LTS, so --zones is \
             ignored for this run; drop --dot to explore with delay zones"
        );
    }
    aopts.explore.obs = rec.clone();
    // The persistent artifact store. Off by default, so every store-less
    // invocation (including the fake-clock snapshot tests) is byte-identical
    // to pre-store builds.
    match args.store.as_deref() {
        None | Some("off") => {}
        Some(spec) => {
            let (dir, mode) = match spec.strip_prefix("readonly:") {
                Some(dir) => (dir, cas::Mode::ReadOnly),
                None => (spec, cas::Mode::ReadWrite),
            };
            match cas::CasStore::open(dir, mode) {
                Ok(store) => {
                    println!(
                        "artifact store: {dir} ({})",
                        if store.read_only() { "read-only" } else { "read-write" }
                    );
                    aopts.explore.cas = Some(std::sync::Arc::new(store));
                }
                Err(e) => {
                    eprintln!("error: cannot open artifact store `{dir}`: {e}");
                    return ExitCode::from(EXIT_INPUT_ERROR);
                }
            }
        }
    }

    let verdict = analyze_translated(&model, &tm, &aopts);
    println!("exploration: {}", verdict.stats());

    if let Some(dot_file) = &args.dot {
        // Re-run with LTS collection through versa directly for the export.
        let mut opts = aopts.explore.clone();
        opts.collect_lts = true;
        opts.stop_at_first_deadlock = false;
        let ex = versa::explore(&tm.env, &tm.initial, &opts);
        if let Some(lts) = &ex.lts {
            match std::fs::write(dot_file, lts.to_dot(&tm.env)) {
                Ok(()) => println!("LTS written to {dot_file}"),
                Err(e) => eprintln!("cannot write {dot_file}: {e}"),
            }
        }
    }

    if rec.is_enabled() {
        let run = rec.finish();
        if let Some(path) = &args.trace_events {
            let mut buf = Vec::new();
            if let Err(e) = JsonLinesSink.emit(&run, &mut buf) {
                eprintln!("cannot render trace events: {e}");
                return ExitCode::from(EXIT_INPUT_ERROR);
            }
            if let Err(e) = std::fs::write(path, buf) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(EXIT_INPUT_ERROR);
            }
            println!("trace events written to {path}");
        }
        if let Some(path) = &args.metrics {
            // The run id hashes the *inputs* — model source + the canonical
            // option string — never the wall clock, so identical invocations
            // produce identical ids.
            let canon_opts = format!(
                "root={root};quantum_ms={:?};compact={};exhaustive={};threads={};shards={};max_states={:?};memo={};zones={};zone_cap={};zone_advance={}",
                args.quantum_ms, args.compact, args.exhaustive, args.threads, args.shards,
                args.max_states, !args.no_memo, args.zones,
                aopts.explore.zone_cap, aopts.explore.zone_advance
            );
            let run_id = obs::run_id(&[source.as_bytes(), canon_opts.as_bytes()]);
            let mut report = obs::Report::new(&run_id, "aadlsched");
            report.set(
                "model",
                Json::obj([
                    ("file", Json::from(args.file.as_str())),
                    ("root", Json::from(root.as_str())),
                    ("components", Json::from(model.num_components())),
                    ("threads", Json::from(model.threads().count())),
                    ("processors", Json::from(model.processors().count())),
                    ("connections", Json::from(model.connections.len())),
                ]),
            );
            report.set(
                "translation",
                Json::obj([
                    ("threads", Json::from(tm.inventory.threads)),
                    ("dispatchers", Json::from(tm.inventory.dispatchers)),
                    ("queues", Json::from(tm.inventory.queues)),
                    ("device_gens", Json::from(tm.inventory.device_gens)),
                    ("observers", Json::from(tm.inventory.observers)),
                    ("defs", Json::from(tm.env.num_defs())),
                    ("quantum_ps", Json::Int(tm.quantum_ps)),
                ]),
            );
            report.set(
                "exploration",
                Json::obj([
                    ("states", Json::from(verdict.stats().states)),
                    ("transitions", Json::from(verdict.stats().transitions)),
                    ("levels", Json::from(verdict.stats().levels)),
                    ("peak_frontier", Json::from(verdict.stats().peak_frontier)),
                    ("dedup_hits", Json::from(verdict.stats().dedup_hits)),
                    ("deadlocks", Json::from(verdict.stats().deadlocks)),
                    ("memo_hits", Json::from(verdict.stats().memo_hits)),
                    ("memo_misses", Json::from(verdict.stats().memo_misses)),
                    ("memo_evictions", Json::from(verdict.stats().memo_evictions)),
                    ("unique_subterms", Json::from(verdict.stats().unique_subterms)),
                ]),
            );
            report.set(
                "verdict",
                Json::obj([
                    ("schedulable", Json::Bool(verdict.schedulable())),
                    ("truncated", Json::Bool(verdict.truncated())),
                ]),
            );
            report.attach_run(&run);
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(EXIT_INPUT_ERROR);
            }
            println!("metrics written to {path}");
        }
    }

    // The exit code derives from the typed outcome in exactly one place
    // (AnalysisOutcome::exit_code); the CLI only chooses the human wording.
    match verdict.reason_str() {
        Some("cancelled") => println!("VERDICT: unknown (cancelled)"),
        Some(_) => println!("VERDICT: unknown (state budget exhausted)"),
        None if verdict.schedulable() => {
            println!("VERDICT: schedulable — every thread meets its deadline in every behaviour")
        }
        None => {
            println!("VERDICT: NOT schedulable");
            if let Some(scenario) = verdict.scenario() {
                println!("\n{}", scenario.render());
            }
        }
    }
    // Every output is written and the process is about to exit. Freeing the
    // translated model would walk its whole term store, one canonical term
    // at a time, only for the OS to reclaim the pages anyway, so skip its
    // destructor. Returning from `main` (not `process::exit`) still lets std
    // flush stdout.
    std::mem::forget(tm);
    ExitCode::from(verdict.exit_code())
}
