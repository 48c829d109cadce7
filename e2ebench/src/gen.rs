//! Seeded, deterministic workload generation: AADL source text plus the
//! verdict an independent oracle expects for it.
//!
//! Every generated model is a one-processor periodic task set (synchronous
//! release, fixed execution times, implicit deadlines) rendered to AADL
//! text, so each one has an exact classical oracle:
//!
//! | policy | oracle |
//! |---|---|
//! | RMS | response-time analysis (`rm_schedulable`) |
//! | EDF | processor-demand criterion (`edf_schedulable`) |
//! | HPF + one shared datum | the locking simulator (`simulate_locking`), exact for distinct priorities and fixed execution times |
//!
//! The bundled example models carry pinned exit codes instead. The same
//! seed always yields byte-identical sources and expectations.

use std::path::Path;

use aadl::pretty::render_package;
use aadl::properties::ConcurrencyControlProtocol;
use det::rng::splitmix64;
use det::DetRng;
use sched_baselines::rta::rm_schedulable;
use sched_baselines::{
    edf_schedulable, simulate_locking, taskset_to_package_locking, ExecModel, LockProtocol, Policy,
    Task, TaskSet,
};

/// One benchmark input: AADL source text and the exit code (0 schedulable,
/// 1 not schedulable) its oracle predicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Case {
    /// Stable name, unique within a pool (also the file stem on disk).
    pub name: String,
    /// The AADL source text handed to the program.
    pub source: String,
    /// Expected exit code.
    pub expect: u8,
    /// Which oracle produced `expect`.
    pub oracle: &'static str,
}

/// The five small bundled models every corpus pass includes, with the exit
/// codes their documentation and golden tests pin.
pub const BUNDLED: [(&str, u8); 5] = [
    ("cruise_control.aadl", 0),
    ("flight_control.aadl", 0),
    ("inversion.aadl", 1),
    ("overloaded.aadl", 1),
    ("producer_handler.aadl", 0),
];

/// The bundled long co-prime hyperperiod model (always schedulable).
pub const LONGPERIOD: &str = "longperiod.aadl";

/// Co-prime period pool of the `hyperperiod` workload (ms = quanta).
pub const HP_PERIODS: [u64; 5] = [17, 19, 23, 29, 31];

/// Period pool of the `corpus` workload.
pub const CORPUS_PERIODS: [u64; 6] = [4, 5, 8, 10, 16, 20];

/// Read a bundled model with its pinned exit code.
pub fn bundled_case(root: &Path, file: &str, expect: u8) -> Result<Case, String> {
    let path = root.join("examples/models").join(file);
    let source = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(Case {
        name: file.trim_end_matches(".aadl").to_string(),
        source,
        expect,
        oracle: "pinned",
    })
}

/// The five bundled corpus models.
pub fn bundled(root: &Path) -> Result<Vec<Case>, String> {
    BUNDLED
        .iter()
        .map(|&(file, code)| bundled_case(root, file, code))
        .collect()
}

/// An independent random stream for `(seed, stream)`.
fn rng_for(seed: u64, stream: u64) -> DetRng {
    DetRng::new(splitmix64(seed ^ splitmix64(stream)))
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(rng: &mut DetRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Split utilization `u` over `periods` (UUniFast) into integer execution
/// times clamped to `[1, period]`.
fn draw_exec(rng: &mut DetRng, periods: &[u64], u: f64) -> Vec<u64> {
    let n = periods.len();
    let mut left = u;
    let mut shares = Vec::with_capacity(n);
    for i in 1..n {
        let next = left * rng.next_f64().powf(1.0 / (n - i) as f64);
        shares.push(left - next);
        left = next;
    }
    shares.push(left);
    periods
        .iter()
        .zip(shares)
        .map(|(&p, s)| ((s * p as f64).round() as u64).clamp(1, p))
        .collect()
}

/// Split utilization `u` over `periods` into near-equal shares (each within
/// ±30 % of `u / n` before normalizing), as integer execution times clamped
/// to `[1, period]`. A lopsided split changes a long-hyperperiod model's
/// exploration cost by a fifth, so these sets keep the split near even.
fn draw_even(rng: &mut DetRng, periods: &[u64], u: f64) -> Vec<u64> {
    let weights: Vec<f64> = periods.iter().map(|_| 0.7 + 0.6 * rng.next_f64()).collect();
    let total: f64 = weights.iter().sum();
    periods
        .iter()
        .zip(weights)
        .map(|(&p, w)| ((u * w / total * p as f64).round() as u64).clamp(1, p))
        .collect()
}

fn taskset(periods: &[u64], execs: &[u64]) -> TaskSet {
    TaskSet::new(
        periods
            .iter()
            .zip(execs)
            .map(|(&p, &c)| Task::new(0, p, c))
            .collect(),
    )
}

/// Render a task set as AADL text with its expectation.
fn case(
    name: String,
    ts: &TaskSet,
    policy: &str,
    ccp: ConcurrencyControlProtocol,
    ok: bool,
    oracle: &'static str,
) -> Case {
    Case {
        name,
        source: render_package(&taskset_to_package_locking(ts, policy, ccp)),
        expect: if ok { 0 } else { 1 },
        oracle,
    }
}

/// The generated part of one `hyperperiod` pass: four-thread RMS sets over
/// distinct co-prime periods from [`HP_PERIODS`].
///
/// Sampling is stratified so that the cost of a pass barely depends on the
/// seed: each of the five period quadruples appears once as a schedulable
/// set, at a fixed utilization level between 0.15 and 0.45 (the cheapest
/// hyperperiod gets the highest level), and the seed draws how that
/// utilization splits, near evenly, over the threads. A sixth, overloaded
/// set (U in 1.05–1.3, on a seeded quadruple) sends the zone engine down its
/// counterexample path.
pub fn hyperperiod_sets(seed: u64) -> Vec<Case> {
    const LEVELS: [f64; 5] = [0.45, 0.375, 0.30, 0.225, 0.15];
    let mut rng = rng_for(seed, 0x4859_5045_5250);
    let quads: Vec<Vec<u64>> = (0..5)
        .rev()
        .map(|skip| {
            HP_PERIODS
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, &p)| p)
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    for (quad, level) in quads.iter().zip(LEVELS) {
        // Redraw the split until the realized utilization sits within 0.02
        // of the level (integer execution times make it coarse).
        let mut best = taskset(quad, &draw_even(&mut rng, quad, level));
        for _ in 0..256 {
            if (best.utilization() - level).abs() <= 0.02 {
                break;
            }
            let ts = taskset(quad, &draw_even(&mut rng, quad, level));
            if (ts.utilization() - level).abs() < (best.utilization() - level).abs() {
                best = ts;
            }
        }
        out.push(best);
    }
    let quad = rng.pick(&quads).clone();
    let overloaded = loop {
        let u = 1.05 + 0.25 * rng.next_f64();
        let ts = taskset(&quad, &draw_exec(&mut rng, &quad, u));
        if ts.utilization() > 1.0 && !rm_schedulable(&ts) {
            break ts;
        }
    };
    out.push(overloaded);
    out.iter()
        .enumerate()
        .map(|(i, ts)| {
            let ok = rm_schedulable(ts);
            let periods: Vec<String> = ts.tasks.iter().map(|t| t.period.to_string()).collect();
            case(
                format!("hp{i}_{}", periods.join("_")),
                ts,
                "RMS",
                ConcurrencyControlProtocol::NoneSpecified,
                ok,
                "rta",
            )
        })
        .collect()
}

/// Consecutive corpus sets that cover every stratum once: 3 policies × 3
/// thread counts × 3 locking protocols × 8 utilization bands.
pub const STRATA: usize = 216;

/// `count` small seeded task sets for the `corpus` workload (and the
/// `daemon` clients): 3–5 threads, distinct periods from [`CORPUS_PERIODS`],
/// realized utilization 0.6–1.0, cycling through RMS, EDF and HPF and
/// through the thread counts; every HPF set has two threads sharing one
/// datum under none / PIP / PCP in turn.
pub fn corpus_sets(seed: u64, count: usize) -> Vec<Case> {
    let mut rng = rng_for(seed, 0x434f_5250_5553);
    (0..count).map(|i| corpus_set(&mut rng, i)).collect()
}

fn corpus_set(rng: &mut DetRng, i: usize) -> Case {
    // Stratified: every run of 27 consecutive sets holds each (policy,
    // thread count, locking protocol) cell equally often, and each cell
    // cycles through eight utilization bands (one full cycle is
    // [`STRATA`] sets), so the mix — and with it a pass's cost and tail —
    // barely depends on the seed.
    let policy = i % 3;
    let n = 3 + (i / 3) % 3;
    let band = ((i / 27) % 8) as f64;
    let ts = loop {
        // Distinct periods: equal ones would tie RMS priorities (undefined
        // rank) and EDF deadlines (every tie order is explored, which blows
        // a few sets up a hundredfold and makes pass costs seed-dependent).
        let mut pool = CORPUS_PERIODS.to_vec();
        shuffle(rng, &mut pool);
        let periods = &pool[..n];
        let u = 0.6 + 0.05 * (band + rng.next_f64());
        let ts = taskset(periods, &draw_exec(rng, periods, u));
        let realized = ts.utilization();
        if (0.6..=1.0).contains(&realized) {
            break ts;
        }
    };
    match policy {
        0 => {
            let ok = rm_schedulable(&ts);
            let name = format!("c{i}_rms");
            case(
                name,
                &ts,
                "RMS",
                ConcurrencyControlProtocol::NoneSpecified,
                ok,
                "rta",
            )
        }
        1 => {
            let ok = edf_schedulable(&ts);
            let name = format!("c{i}_edf");
            case(
                name,
                &ts,
                "EDF",
                ConcurrencyControlProtocol::NoneSpecified,
                ok,
                "edf-demand",
            )
        }
        _ => {
            let (ccp, lock, tag) = [
                (
                    ConcurrencyControlProtocol::NoneSpecified,
                    LockProtocol::None,
                    "none",
                ),
                (
                    ConcurrencyControlProtocol::PriorityInheritance,
                    LockProtocol::Inheritance,
                    "pip",
                ),
                (
                    ConcurrencyControlProtocol::PriorityCeiling,
                    LockProtocol::Ceiling,
                    "pcp",
                ),
            ][(i / 9) % 3];
            // Distinct priorities from 2 up: the translation clamps HPF
            // priorities to ≥ 2 (1 is the background level), so a 1 would
            // tie with a 2 and break the simulator's exactness condition.
            let mut prios: Vec<u32> = (2..=n as u32 + 1).collect();
            shuffle(rng, &mut prios);
            let mut sharers: Vec<usize> = (0..n).collect();
            shuffle(rng, &mut sharers);
            let mut tasks = ts.tasks;
            for (t, p) in tasks.iter_mut().zip(prios) {
                t.priority = Some(p);
            }
            for &s in &sharers[..2] {
                let len = rng.range_u64(1..=tasks[s].wcet);
                tasks[s] = tasks[s].clone().with_cs(0, len);
            }
            let ts = TaskSet::new(tasks);
            // Twice the hyperperiod: with U ≤ 1 a miss-free first hyperperiod
            // ends idle, so the second one repeats it exactly.
            let horizon = 2 * ts.hyperperiod();
            let ok = simulate_locking(&ts, Policy::Hpf, ExecModel::Wcet, horizon, lock).ok();
            case(format!("c{i}_hpf_{tag}"), &ts, "HPF", ccp, ok, "lock-sim")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(hyperperiod_sets(7), hyperperiod_sets(7));
        assert_eq!(corpus_sets(7, 60), corpus_sets(7, 60));
        assert_ne!(corpus_sets(7, 60), corpus_sets(8, 60));
        assert_ne!(hyperperiod_sets(7), hyperperiod_sets(8));
    }

    #[test]
    fn hyperperiod_sets_follow_the_design() {
        for seed in 0..20 {
            let sets = hyperperiod_sets(seed);
            assert_eq!(sets.len(), 6);
            assert_eq!(
                sets.iter().filter(|c| c.expect == 1).count(),
                1,
                "seed {seed}"
            );
            assert_eq!(sets.last().unwrap().expect, 1);
        }
    }

    #[test]
    fn corpus_mixes_policies_protocols_and_verdicts() {
        let sets = corpus_sets(3, 300);
        for tag in ["_rms", "_edf", "_hpf_none", "_hpf_pip", "_hpf_pcp"] {
            assert!(sets.iter().any(|c| c.name.ends_with(tag)), "{tag}");
        }
        let bad = sets.iter().filter(|c| c.expect == 1).count();
        assert!(bad > 30 && bad < 270, "{bad} unschedulable of 300");
    }
}
