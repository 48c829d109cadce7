//! `e2ebench` — run one workload of the end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <hyperperiod|corpus|daemon> --seed <n> --seconds <n>
//!          --trace <0|1> [--smoke] [--root <repo>]
//! ```
//!
//! Run from the repository root (or pass `--root`). Prints diagnostics on
//! stderr and, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`. Exits 0 when every verdict
//! matched its oracle, 1 when one did not (after printing the result), 2 on
//! a usage or set-up error (without a result).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use e2ebench::{corpus, daemon, hyperperiod, report::RunResult, sys, Ctx};

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut smoke = false;
    let mut root = PathBuf::from(".");
    while let Some(flag) = raw.next() {
        let mut val = || raw.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                })
            }
            "--root" => root = PathBuf::from(val()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let work = root
        .join("e2ebench")
        .join("work")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        ctx: Ctx {
            root,
            work,
            seed,
            seconds: Duration::from_secs_f64(seconds),
            trace: trace.ok_or("missing --trace")?,
            smoke,
        },
    })
}

fn run(args: &Args) -> Result<RunResult, String> {
    let ctx = &args.ctx;
    if !ctx.root.join("examples/models").is_dir() {
        return Err(format!(
            "{} is not the repository root (no examples/models)",
            ctx.root.display()
        ));
    }
    let bins = match args.workload.as_str() {
        "hyperperiod" | "daemon" => Some(sys::build_bins(&ctx.root)?),
        "corpus" => None,
        other => return Err(format!("unknown workload `{other}`")),
    };
    std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("cannot create {}: {e}", ctx.work.display()))?;
    let result = match (args.workload.as_str(), &bins) {
        ("hyperperiod", Some(b)) => hyperperiod::run(ctx, b),
        ("daemon", Some(b)) => daemon::run(ctx, b),
        _ => corpus::run(ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Some(parent) = ctx.work.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for f in &out.failures {
                eprintln!("e2ebench: failed: {f}");
            }
            println!("{}", out.to_json());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}
