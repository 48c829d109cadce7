//! The `daemon` workload: one `aadlschedd` with its default two workers,
//! driven closed-loop by [`CLIENTS`] connections — each sends its next
//! inline `analyze` request only after the previous result arrived. Every
//! connection draws its models from the corpus generator under its own
//! seed, and about [`REPEAT_FRAC`] of its requests repeat a recent source
//! text, so the result cache, coalescing, wire parse/serialize and queueing
//! all run against one warm, growing term store.
//!
//! A verdict's time is the client's round trip, request written to result
//! read. The traced pass adds the daemon's own `stats` figures and replays
//! a sample of the distinct request texts through the in-process pipeline
//! for the library layers.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use det::rng::splitmix64;
use det::DetRng;
use obs::Json;

use crate::gen::{self, Case};
use crate::report::{median, RunResult};
use crate::{check_code, corpus, emit_end_to_end, pipeline, sys, timed_setup, Ctx, Layers, Served};

/// Client connections.
pub const CLIENTS: usize = 2;

/// Share of requests that repeat a recent source text.
pub const REPEAT_FRAC: f64 = 0.3;

/// Distinct texts a repeat draws from: the connection's most recent ones.
const REPEAT_WINDOW: usize = 64;

/// Distinct generated texts per connection — two full cycles of the
/// corpus generator's strata; fresh requests cycle through them, which
/// bounds the daemon's store.
const POOL: usize = 2 * gen::STRATA;

/// Requests planned per connection (far more than a window can send).
const PLAN_LEN: usize = 200_000;

/// Distinct texts the traced pass replays in-process.
const REPLAY: usize = 200;

/// How long a client waits for one response line.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One connection's request plan: its texts and the order it sends them.
pub struct Plan {
    /// Distinct source texts with expectations.
    pub cases: Vec<Case>,
    /// Indices into `cases`, in send order.
    pub order: Vec<usize>,
    /// Length of the untimed warm-up prefix of `order`.
    pub warm: usize,
}

/// The plan of connection `client` under `seed`: `len` requests, each a
/// fresh text or (with probability [`REPEAT_FRAC`]) one of the last
/// [`REPEAT_WINDOW`] distinct texts it sent. Fresh texts cycle through a
/// pool of `pool`; with `warm_up`, the requests up to the first text's
/// second turn form the warm-up prefix, so the timed requests run against
/// a daemon whose store has seen every text once.
pub fn plan(seed: u64, client: usize, pool: usize, len: usize, warm_up: bool) -> Plan {
    let client_seed = splitmix64(seed ^ splitmix64(0x5eed_0000 + client as u64));
    let cases = gen::corpus_sets(client_seed, pool);
    let mut rng = DetRng::new(client_seed);
    let mut order = Vec::with_capacity(len);
    let mut fresh = 0usize;
    let mut warm = 0;
    for _ in 0..len {
        if fresh > 0 && rng.next_f64() < REPEAT_FRAC {
            let back = 1 + rng.below(fresh.min(REPEAT_WINDOW) as u64) as usize;
            order.push((fresh - back) % pool);
        } else {
            if warm_up && fresh == pool {
                warm = order.len();
            }
            order.push(fresh % pool);
            fresh += 1;
        }
    }
    Plan { cases, order, warm }
}

/// A running daemon.
pub struct Daemon {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start `aadlschedd` on an ephemeral port and wait for its readiness
    /// line.
    pub fn start(bin: &std::path::Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(l)) => {
                    if let Some(a) = l.strip_prefix("aadlschedd listening on ") {
                        break a.trim().to_string();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("aadlschedd exited before listening".into());
                }
            }
        };
        // Keep draining stdout so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || lines.for_each(drop));
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// Peak RSS of the daemon so far, KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        sys::vm_hwm_kib(&self.child.id().to_string())
    }

    /// Graceful shutdown; kill after a minute.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = Conn::open(&self.addr).and_then(|mut c| {
            c.send(&Json::obj([
                ("type", Json::from("shutdown")),
                ("id", Json::from("z")),
            ]))
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break Ok(s),
                Ok(None) if Instant::now() < deadline && sent.is_ok() => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break Err("aadlschedd did not shut down".to_string());
                }
            }
        };
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        let status = status?;
        sent?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("aadlschedd exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    /// Never leave a daemon behind, whatever path ends the run.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone().map_err(|e| e.to_string())?),
            writer: s,
        })
    }

    fn send(&mut self, msg: &Json) -> Result<(), String> {
        let mut line = msg.to_compact();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Json::parse(line.trim_end()).map_err(|e| format!("bad response: {e}")),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Send a request and return its terminal response (the one that is
    /// not `accepted`).
    fn call(&mut self, msg: &Json, id: &str) -> Result<Json, String> {
        self.send(msg)?;
        loop {
            let r = self.recv()?;
            if r.get("id").and_then(|v| v.as_str()) != Some(id) {
                return Err(format!("response for another id: {}", r.to_compact()));
            }
            if r.get("type").and_then(|t| t.as_str()) != Some("accepted") {
                return Ok(r);
            }
        }
    }
}

/// One analyze round trip, checked against the oracle; `Ok(cached)`.
fn analyze(conn: &mut Conn, case: &Case, id: &str) -> Result<bool, String> {
    let req = Json::obj([
        ("type", Json::from("analyze")),
        ("id", Json::from(id)),
        ("model", Json::from(case.source.as_str())),
    ]);
    let r = conn.call(&req, id)?;
    match r.get("type").and_then(|t| t.as_str()) {
        Some("result") => {
            let code = r.get("code").and_then(|c| c.as_i64()).map(|c| c as i32);
            check_code(case, code, "aadlschedd")?;
            Ok(r.get("cached").and_then(|c| c.as_bool()) == Some(true))
        }
        _ => Err(format!("{}: {}", case.name, r.to_compact())),
    }
}

/// A connection's timed round trips (ms) and every attempt's result.
#[derive(Default)]
struct ClientRun {
    rtt_ms: Vec<f64>,
    /// Round trips of the requests the daemon analyzed (no cache hit).
    analyzed_ms: Vec<f64>,
    results: Vec<Result<(), String>>,
}

/// Drive one connection through `plan`: the warm-up prefix untimed, then —
/// once every client is warm and the main thread has opened the window at
/// `gate` — timed requests until `window` has passed.
fn client(
    addr: &str,
    plan: &Plan,
    k: usize,
    window: Option<Duration>,
    gate: &Barrier,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut conn = Conn::open(addr);
    let (mut gated, mut stop) = (false, None);
    for (j, &i) in plan.order.iter().enumerate() {
        if j == plan.warm {
            gate.wait();
            gated = true;
            stop = window.map(|w| Instant::now() + w);
        }
        if j >= plan.warm && stop.is_some_and(|s| Instant::now() >= s) {
            break;
        }
        let c = match &mut conn {
            Ok(c) => c,
            Err(e) => {
                run.results.push(Err(e.clone()));
                break;
            }
        };
        let t = Instant::now();
        let r = analyze(c, &plan.cases[i], &format!("c{k}-{j}"));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if j >= plan.warm {
            run.rtt_ms.push(ms);
            if r == Ok(false) {
                run.analyzed_ms.push(ms);
            }
        }
        if r.is_err() {
            // The stream may be out of step with the protocol now.
            conn = Conn::open(addr);
        }
        run.results.push(r.map(drop));
    }
    if !gated {
        gate.wait();
    }
    run
}

/// Run the workload.
pub fn run(ctx: &Ctx, bins: &sys::Bins) -> Result<RunResult, String> {
    let (pool, len) = if ctx.smoke { (8, 10) } else { (POOL, PLAN_LEN) };
    let ((plans, daemon), setup_s) = timed_setup(ctx, |last| {
        let plans: Vec<Plan> = (0..CLIENTS)
            .map(|k| plan(ctx.seed, k, pool, len, !ctx.smoke))
            .collect();
        let daemon = Daemon::start(&bins.aadlschedd)?;
        if last {
            Ok((plans, Some(daemon)))
        } else {
            daemon.shutdown()?;
            Ok((plans, None))
        }
    })?;
    let daemon = daemon.expect("the last set-up keeps its daemon");
    let window = (!ctx.smoke).then_some(ctx.seconds);
    let gate = Barrier::new(CLIENTS + 1);
    let (runs, elapsed) = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let (addr, gate) = (&daemon.addr, &gate);
                s.spawn(move || client(addr, p, k, window, gate))
            })
            .collect();
        gate.wait();
        let start = Instant::now();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (runs, start.elapsed())
    });
    let mut out = RunResult::default();
    let (mut rtt, mut analyzed) = (Vec::new(), Vec::new());
    for r in runs {
        rtt.extend(r.rtt_ms);
        analyzed.extend(r.analyzed_ms);
        r.results.into_iter().for_each(|x| out.attempt(x));
    }
    let served_stats = ctx.trace.then(|| served(&daemon, median(&analyzed)));
    let peak = daemon.peak_rss_kib();
    let shut = daemon.shutdown();
    let peak = peak?;
    shut?;
    match served_stats {
        Some(stats) => {
            let mut layers = Layers::default();
            layers.set_served(stats?);
            replay(&plans, &mut layers, &mut out);
            layers.emit(&mut out);
        }
        None => emit_end_to_end(&mut out, setup_s, &rtt, elapsed, peak),
    }
    Ok(out)
}

/// The daemon's own figures from its `stats` snapshot.
fn served(daemon: &Daemon, analyzed_p50_ms: f64) -> Result<Served, String> {
    let mut conn = Conn::open(&daemon.addr)?;
    let stats = conn.call(
        &Json::obj([("type", Json::from("stats")), ("id", Json::from("s"))]),
        "s",
    )?;
    let counter = |name: &str| {
        stats
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0) as f64
    };
    let p50_ms = |name: &str| {
        stats
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("p50"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0) as f64
            / 1e6
    };
    let exec = p50_ms("served.exec");
    Ok(Served {
        exec_p50_ms: exec,
        queue_wait_p50_ms: p50_ms("served.queue_wait"),
        serialize_p50_ms: p50_ms("served.serialize"),
        cache_hit_frac: crate::report::ratio(
            counter("served.cache_hits"),
            counter("served.analyze"),
        ),
        coalesced: counter("served.coalesced"),
        overhead_ms: analyzed_p50_ms - exec,
    })
}

/// Replay the first distinct texts of each plan in-process for the library
/// layers of this request mix.
fn replay(plans: &[Plan], layers: &mut Layers, out: &mut RunResult) {
    let per_plan = REPLAY / plans.len();
    let sample: Vec<Case> = plans
        .iter()
        .flat_map(|p| p.cases.iter().take(per_plan).cloned())
        .collect();
    corpus::traced_pass(None, &sample, &pipeline::options(false), layers, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_warm_up_covers_the_pool() {
        let a = plan(5, 0, 40, 2000, true);
        let b = plan(5, 0, 40, 2000, true);
        assert_eq!((&a.cases, &a.order, a.warm), (&b.cases, &b.order, b.warm));
        assert_ne!(plan(5, 1, 40, 2000, true).cases, a.cases);
        let mut seen: Vec<usize> = a.order[..a.warm].to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 40, "the warm-up sends every text once");
        let repeats = a
            .order
            .windows(2)
            .filter(|w| w[1] < w[0] || w[1] == w[0])
            .count();
        let frac = repeats as f64 / a.order.len() as f64;
        assert!(frac > 0.2 && frac < 0.45, "{frac}");
        assert_eq!(plan(5, 0, 40, 2000, false).warm, 0);
    }
}
