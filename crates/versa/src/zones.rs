//! Delay-abstracted (zone-based) exploration.
//!
//! The concrete engine ([`crate::explore`]) materializes one state per
//! scheduling quantum, so the explored-state count of a periodic task model
//! scales with the hyperperiod — the source paper's own scalability wall
//! (§7). This module is the alternative frontier strategy behind
//! [`Options::zones`]: whenever a state has exactly one prioritized
//! successor, the whole *forced* chain — up to the next branch, deadlock,
//! cycle or the edge cap — becomes a single weighted *delay edge* of the
//! zone graph. Only branch points, deadlocks and run endpoints are
//! materialized as states; everything strictly inside a run has out-degree
//! exactly one, so it can neither deadlock nor offer behaviour the endpoint
//! doesn't already dominate (DESIGN.md §17 spells the argument out).
//!
//! # Two ways to walk a forced run
//!
//! [`Options::zone_advance`] selects how the chain is followed:
//!
//! * **`Replay`** — every quantum is re-derived through the memoized step
//!   relation ([`acsr::forced_run`]). This collapses *states* but still pays
//!   per-quantum *work*: the wall-clock win is only the fraction the
//!   frontier machinery cost.
//! * **`Closed`** (the default) — forced intervals are advanced through the
//!   per-shape derivative cache of [`acsr::advance`]: each state is factored
//!   into a structural *shape* plus a numeric *time vector*, the first visit
//!   to a shape derives (and verifies) how the vector moves per quantum, and
//!   every later visit jumps straight to the end of the interval in
//!   O(#parameters) — no per-quantum re-derivation at all (DESIGN.md §18).
//!   Non-linear shapes and unlearned boundaries fall back to concrete
//!   replay, so the mode is a pure optimisation.
//!
//! A delay edge therefore stores a list of *segments*: concretely replayed
//! unit steps, and closed-form spans that keep only their derivative and
//! length and re-materialize interior states syntactically on demand.
//!
//! # Shortest traces under weighted edges
//!
//! With unit edges BFS order *is* shortest-path order; delay edges have
//! weight = their per-quantum length, so the search here is a small
//! deterministic Dijkstra over a bucket queue keyed by concrete depth. A
//! state can be discovered at a long depth first and improved later; the
//! parent pointer, edge and depth are updated while the state is still
//! unexpanded, and stale queue entries are skipped on pop. Buckets are
//! processed in depth order, so the first deadlock expanded has minimal
//! concrete depth — exactly the concrete engine's shortest-counterexample
//! guarantee, which `tests/prop_zones.rs` and `tests/prop_advance.rs` pin
//! over random task fleets.
//!
//! # Identical results, fewer states, less work
//!
//! Verdicts, shortest-trace lengths and (for exhaustive runs) deadlock
//! counts are identical to the concrete engine in *both* advance modes:
//! every zone edge *is* a concrete step sequence (closed-form spans are
//! verified against the step relation when their derivative is learned, and
//! re-checked at the span ends on every use), and every deadlock state is
//! necessarily materialized (a deadlock has out-degree 0, an interior state
//! out-degree 1). [`Exploration::trace_to`] re-expands delay edges into the
//! same concrete timeline `diagnose` would get from the concrete engine.
//! [`Stats`] describes the zone graph (materialized states, delay edges,
//! buckets); the compression is reported through the `zone.delay_steps` /
//! `zone.quanta_collapsed` / `zone.singleton_steps` counters, and the
//! closed-form cache through `zone.closed_form_advances` /
//! `zone.replay_fallbacks` / `zone.shapes_derived` and the
//! `zone.shape_cache` gauge.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;

use acsr::{
    forced_run_closed, skeleton, zone, AdvanceCache, Env, Interned, Label, MemoConfig, RunEnd,
    RunOutcome, RunSeg, StepSession, TermId, TermStore, P,
};

use crate::explore::{
    CancelToken, Exploration, Options, StateId, Stats, ZoneAdvance, ZoneEnd, ZoneSeg,
};

/// The pure, per-state result a worker computes during bucket expansion.
/// Workers never touch the visited set or the queue; the deterministic
/// merge on the coordinating thread does, in frontier order, so thread
/// count can never change results.
enum Expansion {
    /// No prioritized successors.
    Deadlock,
    /// Exactly one prioritized successor: the maximal forced chain,
    /// `steps` concrete steps across the segments. The final segment's end
    /// is always materialized (it becomes the edge's target state).
    Forced { segs: Vec<RunSeg>, steps: u64 },
    /// Two or more prioritized successors: ordinary weight-1 edges.
    Branch(Vec<(Label, Interned)>),
}

fn expand_state(
    session: &StepSession<'_>,
    cache: Option<&AdvanceCache>,
    t: &Interned,
    cap: u64,
) -> Expansion {
    // Closed mode: the vector-domain runner ([`acsr::runner`]) walks the
    // whole chain as (shape, vector) pairs — spans and learned unit macros
    // advance arithmetically, everything else derives concretely — and
    // materializes only the run endpoint.
    if let Some(cache) = cache {
        return match forced_run_closed(session, cache, t, cap) {
            RunOutcome::Deadlock => Expansion::Deadlock,
            RunOutcome::Branch(succs) => Expansion::Branch(succs),
            RunOutcome::Run { segs, steps } => Expansion::Forced { segs, steps },
        };
    }
    match zone::forced_run(session, t, cap as usize) {
        Some(run) => {
            let steps = run.steps.len() as u64;
            Expansion::Forced {
                segs: run
                    .steps
                    .into_iter()
                    .map(|(l, t)| RunSeg::Unit(l, t))
                    .collect(),
                steps,
            }
        }
        // Not forced: re-derive the successor list (a memo hit right after
        // the probe inside `forced_run`) to distinguish deadlock from branch.
        None => {
            let succs = session.prioritized_steps(t);
            if succs.is_empty() {
                Expansion::Deadlock
            } else {
                Expansion::Branch(succs)
            }
        }
    }
}

/// Convert an engine-side segment end into the term-level representation
/// stored on the final [`Exploration`] (virtual ends stay virtual — they
/// rebuild on demand during trace reconstruction).
fn zone_end(end: RunEnd) -> ZoneEnd {
    match end {
        RunEnd::Real(t) => ZoneEnd::Real(t.into_term()),
        RunEnd::Virt { template, values } => ZoneEnd::Virt {
            template: template.into_term(),
            values,
        },
    }
}

/// One worker's chunk of a bucket, expanded in frontier order.
fn expand_chunk(
    session: &StepSession<'_>,
    cache: Option<&AdvanceCache>,
    states: &[Interned],
    ids: &[StateId],
    cap: u64,
    cancel: &CancelToken,
) -> Vec<Expansion> {
    let mut out = Vec::with_capacity(ids.len());
    for id in ids {
        if cancel.is_cancelled() {
            break;
        }
        out.push(expand_state(session, cache, &states[id.index()], cap));
    }
    out
}

/// The growing zone graph plus the Dijkstra bookkeeping.
struct ZoneGraph {
    states: Vec<Interned>,
    /// Best known concrete depth per state.
    depths: Vec<u64>,
    /// Expanded states are settled: their depth is final.
    expanded: Vec<bool>,
    parents: Vec<Option<(StateId, Label)>>,
    /// Segments of the delay edge into each state (`None` for unit edges —
    /// exactly the concrete engine's representation).
    edges: Vec<Option<Vec<RunSeg>>>,
    visited: HashMap<TermId, StateId>,
}

enum EdgeOutcome {
    Recorded,
    Truncated,
}

impl ZoneGraph {
    fn new(root: Interned) -> ZoneGraph {
        let mut visited = HashMap::new();
        visited.insert(root.id(), StateId(0));
        ZoneGraph {
            states: vec![root],
            depths: vec![0],
            expanded: vec![false],
            parents: vec![None],
            edges: vec![None],
            visited,
        }
    }

    /// Record one delay edge (total weight 1 is an ordinary unit edge) out
    /// of `from`, relaxing the target's depth Dijkstra-style.
    fn record_edge(
        &mut self,
        from: StateId,
        segs: Vec<RunSeg>,
        queue: &mut BTreeMap<u64, Vec<StateId>>,
        stats: &mut Stats,
        id_limit: usize,
        max_states: usize,
    ) -> EdgeOutcome {
        let last = segs.last().expect("edges are non-empty");
        let last_label = last.label().clone();
        let target = last
            .end()
            .interned()
            .cloned()
            .expect("the final segment of an edge is always materialized");
        let weight: u64 = segs.iter().map(RunSeg::weight).sum();
        let depth = self.depths[from.index()] + weight;
        let timeline = if weight >= 2 { Some(segs) } else { None };
        stats.transitions += 1;
        match self.visited.entry(target.id()) {
            Entry::Occupied(e) => {
                let sid = *e.get();
                stats.dedup_hits += 1;
                // Relax: a shorter concrete route to a still-unexpanded
                // state replaces its parent edge. Expanded states are
                // settled — edge weights are ≥ 1, so nothing popped from an
                // earlier bucket can ever improve.
                if !self.expanded[sid.index()] && depth < self.depths[sid.index()] {
                    self.depths[sid.index()] = depth;
                    self.parents[sid.index()] = Some((from, last_label));
                    self.edges[sid.index()] = timeline;
                    queue.entry(depth).or_default().push(sid);
                }
                EdgeOutcome::Recorded
            }
            Entry::Vacant(v) => {
                if self.states.len() >= id_limit || self.states.len() >= max_states {
                    return EdgeOutcome::Truncated;
                }
                let sid = StateId(self.states.len() as u32);
                v.insert(sid);
                self.states.push(target);
                self.depths.push(depth);
                self.expanded.push(false);
                self.parents.push(Some((from, last_label)));
                self.edges.push(timeline);
                queue.entry(depth).or_default().push(sid);
                EdgeOutcome::Recorded
            }
        }
    }
}

/// The zone-mode engine behind [`crate::explore::explore`] (dispatched to
/// when [`Options::zones`] is set and no LTS is requested).
pub(crate) fn explore_zones(
    env: &Env,
    initial: &P,
    opts: &Options,
    id_limit: usize,
) -> Exploration {
    let start = Instant::now();
    let id_limit = id_limit.max(1);
    // Per-edge step cap: bounds the work between two cancellation polls and
    // the size of any one edge's stored timeline, and doubles as the cycle
    // horizon for closed idle loops. Longer forced runs simply become
    // several chained edges, so the value never changes verdicts.
    let cap = opts.zone_cap.max(1) as u64;

    // Cross-run artifact store, exactly as in the concrete engine — the key
    // commits to the zones flag (and, in zone mode, the cap and advance
    // strategy), so distinct configurations can never answer each other's
    // queries even though replayed artifacts would agree.
    let cas_key = crate::cache::key_for(env, initial, opts, id_limit);
    if let (Some(key), Some(artifacts)) = (&cas_key, &opts.cas) {
        match artifacts.get(key) {
            cas::Lookup::Hit(payload) => {
                let replayed = crate::cache::decode(&payload)
                    .and_then(|a| crate::cache::replay(env, initial, &a, opts, start));
                match replayed {
                    Some(ex) => {
                        opts.obs.counter("cas.hits").inc();
                        return ex;
                    }
                    None => opts.obs.counter("cas.invalidations").inc(),
                }
            }
            cas::Lookup::Miss => opts.obs.counter("cas.misses").inc(),
            cas::Lookup::Invalid => opts.obs.counter("cas.invalidations").inc(),
        }
    }

    let run_span = opts.obs.span("explore");
    run_span.set("zones", 1);
    let dedup_counter = opts.obs.counter("explore.dedup_hits");
    let states_gauge = opts.obs.gauge("explore.states");
    let threads = opts.threads.max(1);
    let store = opts
        .store
        .clone()
        .unwrap_or_else(|| Arc::new(TermStore::new()));
    let memo_config = if opts.memo {
        MemoConfig::with_capacity(opts.memo_capacity)
    } else {
        MemoConfig::disabled()
    };
    let session = StepSession::new(env, store.clone(), memo_config);
    let advance_cache: Option<AdvanceCache> =
        (opts.zone_advance == ZoneAdvance::Closed).then(AdvanceCache::new);

    let mut stats = Stats::default();
    let mut deadlocks: Vec<StateId> = Vec::new();
    let mut truncated = false;
    let mut cancelled = false;
    let mut delay_steps = 0u64;
    let mut quanta_collapsed = 0u64;
    let mut singleton_steps = 0u64;

    let mut g = ZoneGraph::new(session.intern(initial));
    let mut queue: BTreeMap<u64, Vec<StateId>> = BTreeMap::new();
    queue.insert(0, vec![StateId(0)]);

    'search: while let Some((depth, bucket)) = queue.pop_first() {
        if opts.cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        // Settle the bucket: drop entries that were improved to a shallower
        // depth (re-queued there) or already expanded (duplicate pushes).
        let mut frontier: Vec<StateId> = Vec::with_capacity(bucket.len());
        for id in bucket {
            if !g.expanded[id.index()] && g.depths[id.index()] == depth {
                g.expanded[id.index()] = true;
                frontier.push(id);
            }
        }
        if frontier.is_empty() {
            continue;
        }
        stats.levels += 1;
        stats.peak_frontier = stats.peak_frontier.max(frontier.len());
        let level_span = run_span.child("explore.level");

        // Phase 1 — expansion. Per-state work is pure (successor lists and
        // forced runs from the shared memoized session; the advance cache
        // converges to the same derivatives under any interleaving), so wide
        // buckets fan out over scoped workers without any result-order
        // dependence.
        let expansions: Vec<Expansion> = if threads > 1 && frontier.len() >= 4 * threads {
            let chunk = frontier.len().div_ceil(threads);
            let collected: Mutex<Vec<(usize, Vec<Expansion>)>> =
                Mutex::new(Vec::with_capacity(threads));
            std::thread::scope(|s| {
                for (ci, ids) in frontier.chunks(chunk).enumerate() {
                    let collected = &collected;
                    let states = &g.states[..];
                    let session = &session;
                    let cache = advance_cache.as_ref();
                    let cancel = &opts.cancel;
                    s.spawn(move || {
                        let out = expand_chunk(session, cache, states, ids, cap, cancel);
                        let mut guard = match collected.try_lock() {
                            Ok(guard) => guard,
                            Err(TryLockError::WouldBlock) => {
                                collected.lock().expect("expansion lock poisoned")
                            }
                            Err(TryLockError::Poisoned(_)) => panic!("expansion lock poisoned"),
                        };
                        guard.push((ci, out));
                    });
                }
            });
            let mut chunks = collected.into_inner().expect("expansion lock poisoned");
            chunks.sort_unstable_by_key(|(ci, _)| *ci);
            chunks.into_iter().flat_map(|(_, out)| out).collect()
        } else {
            expand_chunk(
                &session,
                advance_cache.as_ref(),
                &g.states,
                &frontier,
                cap,
                &opts.cancel,
            )
        };

        // A token that fired mid-expansion leaves chunks cut short; discard
        // the bucket wholesale rather than merge a partial view.
        if opts.cancel.is_cancelled() {
            cancelled = true;
            level_span.end();
            break;
        }

        // Phase 2 — deterministic merge, in frontier order.
        let before_states = g.states.len();
        let before_transitions = stats.transitions;
        for (id, expansion) in frontier.iter().zip(expansions) {
            match expansion {
                Expansion::Deadlock => {
                    deadlocks.push(*id);
                    stats.deadlocks += 1;
                    if opts.stop_at_first_deadlock {
                        level_span.set("level", stats.levels as i64);
                        level_span
                            .set("transitions", (stats.transitions - before_transitions) as i64);
                        level_span.end();
                        break 'search;
                    }
                }
                Expansion::Forced { segs, steps } => {
                    if steps >= 2 {
                        delay_steps += 1;
                        quanta_collapsed += steps - 1;
                    } else {
                        singleton_steps += 1;
                    }
                    if let EdgeOutcome::Truncated = g.record_edge(
                        *id,
                        segs,
                        &mut queue,
                        &mut stats,
                        id_limit,
                        opts.max_states,
                    ) {
                        truncated = true;
                        level_span.end();
                        break 'search;
                    }
                }
                Expansion::Branch(succs) => {
                    singleton_steps += 1;
                    for (label, target) in succs {
                        if let EdgeOutcome::Truncated = g.record_edge(
                            *id,
                            vec![RunSeg::Unit(label, target)],
                            &mut queue,
                            &mut stats,
                            id_limit,
                            opts.max_states,
                        ) {
                            truncated = true;
                            level_span.end();
                            break 'search;
                        }
                    }
                }
            }
        }
        level_span.set("level", stats.levels as i64);
        level_span.set("frontier", frontier.len() as i64);
        level_span.set("discovered", (g.states.len() - before_states) as i64);
        level_span.set("transitions", (stats.transitions - before_transitions) as i64);
        level_span.set("states_total", g.states.len() as i64);
        level_span.end();
        states_gauge.set(g.states.len() as i64);
        opts.obs.progress(
            g.states.len() as u64,
            stats.levels as u64,
            queue.values().map(Vec::len).sum::<usize>() as u64,
        );
    }

    stats.states = g.states.len();
    let memo = session.memo_stats();
    stats.memo_hits = memo.hits;
    stats.memo_misses = memo.misses;
    stats.memo_evictions = memo.evictions;
    stats.unique_subterms = store.len();
    run_span.set("states", stats.states as i64);
    run_span.set("transitions", stats.transitions as i64);
    run_span.set("levels", stats.levels as i64);
    run_span.set("peak_frontier", stats.peak_frontier as i64);
    run_span.set("deadlocks", stats.deadlocks as i64);
    run_span.set("truncated", i64::from(truncated));
    if cancelled {
        run_span.set("cancelled", 1);
    }
    dedup_counter.add(stats.dedup_hits as u64);
    opts.obs.counter("zone.delay_steps").add(delay_steps);
    opts.obs.counter("zone.quanta_collapsed").add(quanta_collapsed);
    opts.obs.counter("zone.singleton_steps").add(singleton_steps);
    if let Some(cache) = &advance_cache {
        let a = cache.stats();
        opts.obs
            .counter("zone.closed_form_advances")
            .add(a.closed_form_advances);
        opts.obs
            .counter("zone.replay_fallbacks")
            .add(a.replay_fallbacks);
        opts.obs.counter("zone.shapes_derived").add(a.shapes_derived);
        opts.obs.gauge("zone.shape_cache").set(a.shape_cache as i64);
    }
    opts.obs.counter("step.memo_hits").add(stats.memo_hits);
    opts.obs.counter("step.memo_misses").add(stats.memo_misses);
    opts.obs
        .counter("step.memo_evictions")
        .add(stats.memo_evictions);
    opts.obs
        .gauge("term.unique_subterms")
        .set(stats.unique_subterms as i64);

    // Deposit for the next process. The artifact layout is shared with the
    // concrete engine and records a *per-quantum* deadlock skeleton, so the
    // first-deadlock zone path is re-expanded into its concrete chain here
    // (`cache::encode` indexes each step in prioritized-successor order —
    // a notion that only exists quantum by quantum). Closed-form spans are
    // materialized syntactically, the same way `trace_to` does it.
    if let (Some(key), Some(artifacts)) = (&cas_key, &opts.cas) {
        if !cancelled {
            let (chain_states, chain_parents, chain_deadlocks) = match deadlocks.first() {
                None => (vec![g.states[0].clone()], vec![None], Vec::new()),
                Some(&dead) => {
                    let mut path: Vec<StateId> = Vec::new();
                    let mut cur = dead;
                    while let Some((p, _)) = &g.parents[cur.index()] {
                        path.push(cur);
                        cur = *p;
                    }
                    path.reverse();
                    let mut cs: Vec<Interned> = vec![g.states[0].clone()];
                    let mut cp: Vec<Option<(StateId, Label)>> = vec![None];
                    for to in path {
                        match &g.edges[to.index()] {
                            Some(segs) => {
                                for seg in segs {
                                    match seg {
                                        RunSeg::Unit(label, t) => {
                                            let prev = StateId((cs.len() - 1) as u32);
                                            cp.push(Some((prev, label.clone())));
                                            cs.push(t.clone());
                                        }
                                        RunSeg::Span {
                                            label,
                                            delta,
                                            len,
                                            end,
                                        } => {
                                            let source =
                                                cs.last().expect("chain starts rooted").clone();
                                            let f = skeleton::factor(source.term());
                                            for k in 1..*len {
                                                let v: Vec<i64> = f
                                                    .values
                                                    .iter()
                                                    .zip(delta.iter())
                                                    .map(|(a, d)| a + d * k as i64)
                                                    .collect();
                                                let p = skeleton::rebuild(source.term(), &v)
                                                    .expect("span vectors stay within the shape");
                                                let prev = StateId((cs.len() - 1) as u32);
                                                cp.push(Some((prev, label.clone())));
                                                cs.push(session.intern(&p));
                                            }
                                            let prev = StateId((cs.len() - 1) as u32);
                                            cp.push(Some((prev, label.clone())));
                                            cs.push(end.materialize(&session));
                                        }
                                        RunSeg::Jump { label, end } => {
                                            let prev = StateId((cs.len() - 1) as u32);
                                            cp.push(Some((prev, label.clone())));
                                            cs.push(end.materialize(&session));
                                        }
                                    }
                                }
                            }
                            None => {
                                let label = g.parents[to.index()]
                                    .as_ref()
                                    .expect("on path")
                                    .1
                                    .clone();
                                let prev = StateId((cs.len() - 1) as u32);
                                cp.push(Some((prev, label)));
                                cs.push(g.states[to.index()].clone());
                            }
                        }
                    }
                    let d = StateId((cs.len() - 1) as u32);
                    (cs, cp, vec![d])
                }
            };
            let payload = crate::cache::encode(
                env,
                &session,
                &chain_states,
                &chain_parents,
                &chain_deadlocks,
                &stats,
                truncated,
            );
            if let Some(payload) = payload {
                if matches!(artifacts.put(key, &payload), Ok(true)) {
                    opts.obs.counter("cas.writes").inc();
                }
            }
        }
    }

    // The memo and the advance cache die with this run. Free them here, in
    // their own span, and stamp the duration afterwards, so that `Stats` and
    // the `explore` span account for the whole call.
    let release_span = run_span.child("explore.release");
    drop(session);
    drop(advance_cache);
    release_span.end();
    stats.duration = start.elapsed();
    run_span.end();

    Exploration {
        states: g.states.into_iter().map(Interned::into_term).collect(),
        parents: g.parents,
        zone_edges: g
            .edges
            .into_iter()
            .map(|e| {
                e.map(|segs| {
                    segs.into_iter()
                        .map(|s| match s {
                            RunSeg::Unit(l, t) => ZoneSeg::Unit(l, t.into_term()),
                            RunSeg::Span {
                                label,
                                delta,
                                len,
                                end,
                            } => ZoneSeg::Span {
                                label,
                                delta,
                                len,
                                end: zone_end(end),
                            },
                            RunSeg::Jump { label, end } => ZoneSeg::Jump {
                                label,
                                end: zone_end(end),
                            },
                        })
                        .collect()
                })
            })
            .collect(),
        deadlocks,
        lts: None,
        stats,
        truncated,
        cancelled,
    }
}

#[cfg(test)]
mod tests {
    use crate::explore::{explore, Options, StateId, ZoneAdvance};
    use acsr::prelude::*;

    fn cpu() -> Res {
        Res::new("cpu")
    }

    /// A straight forced chain of `n` quanta ending in NIL.
    fn chain(n: usize) -> P {
        let mut p = nil();
        for _ in 0..n {
            p = act([(cpu(), 1)], p);
        }
        p
    }

    fn assert_agree(env: &Env, p: &P, opts: &Options) {
        let concrete = explore(env, p, opts);
        for advance in [ZoneAdvance::Closed, ZoneAdvance::Replay] {
            let zoned = explore(
                env,
                p,
                &opts.clone().with_zones(true).with_zone_advance(advance),
            );
            assert_eq!(concrete.deadlock_free(), zoned.deadlock_free());
            assert_eq!(concrete.deadlocks.len(), zoned.deadlocks.len());
            assert_eq!(
                concrete.first_deadlock_trace().map(|t| t.len()),
                zoned.first_deadlock_trace().map(|t| t.len())
            );
            assert_eq!(
                concrete.first_deadlock_trace().map(|t| t.elapsed_quanta()),
                zoned.first_deadlock_trace().map(|t| t.elapsed_quanta())
            );
        }
    }

    #[test]
    fn long_forced_chain_collapses_to_two_states() {
        let env = Env::new();
        let p = chain(100);
        let concrete = explore(&env, &p, &Options::default());
        let zoned = explore(&env, &p, &Options::default().with_zones(true));
        assert_eq!(concrete.num_states(), 101);
        assert_eq!(zoned.num_states(), 2); // entry + the deadlocked endpoint
        assert_eq!(zoned.deadlocks.len(), 1);
        // The trace re-expands to the full 100-quantum concrete timeline.
        let t = zoned.first_deadlock_trace().unwrap();
        assert_eq!(t.len(), 100);
        assert_eq!(t.elapsed_quanta(), 100);
        assert_eq!(zoned.depth_of(zoned.deadlocks[0]), 100);
        // Every expanded trace state is a real concrete state: replaying the
        // labels through the step relation reproduces it.
        let concrete_trace = concrete.first_deadlock_trace().unwrap();
        for i in 0..t.len() {
            assert_eq!(t.state_after(i), concrete_trace.state_after(i));
        }
    }

    #[test]
    fn closed_and_replay_modes_agree_step_for_step() {
        // A branch into two instances of the *same* shape at different time
        // vectors: the second chain is advanced closed-form off the first
        // chain's learned derivative, so this exercises the span path end to
        // end — including trace materialization from (delta, len) alone.
        let env = Env::new();
        let p = choice([
            act([(Res::new("bus"), 1)], chain(30)),
            act([(cpu(), 1)], chain(20)),
        ]);
        let concrete = explore(&env, &p, &Options::default());
        let closed = explore(&env, &p, &Options::default().with_zones(true));
        let replay = explore(
            &env,
            &p,
            &Options::default()
                .with_zones(true)
                .with_zone_advance(ZoneAdvance::Replay),
        );
        assert_eq!(closed.num_states(), replay.num_states());
        assert_eq!(closed.deadlocks.len(), replay.deadlocks.len());
        for i in 0..closed.num_states() {
            assert_eq!(
                closed.state(StateId(i as u32)),
                replay.state(StateId(i as u32))
            );
        }
        let tc = closed.first_deadlock_trace().unwrap();
        let tr = replay.first_deadlock_trace().unwrap();
        let tk = concrete.first_deadlock_trace().unwrap();
        assert_eq!(tc.len(), tr.len());
        assert_eq!(tc.len(), tk.len());
        for i in 0..tc.len() {
            assert_eq!(tc.state_after(i), tr.state_after(i));
            assert_eq!(tc.state_after(i), tk.state_after(i));
        }
    }

    #[test]
    fn closed_mode_emits_the_advance_cache_counters() {
        let env = Env::new();
        // Same shape twice at different vectors: one derivation, then a
        // closed-form advance; the chain end is always a replay fallback.
        let p = choice([
            act([(Res::new("bus"), 1)], chain(30)),
            act([(cpu(), 1)], chain(20)),
        ]);
        let rec = obs::Recorder::enabled();
        let _ = explore(
            &env,
            &p,
            &Options::default().with_zones(true).with_obs(rec.clone()),
        );
        let run = rec.finish();
        let counter = |name: &str| {
            run.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert!(counter("zone.closed_form_advances") >= 1);
        assert!(counter("zone.replay_fallbacks") >= 1);
        assert!(counter("zone.shapes_derived") >= 1);
        let gauge = run
            .gauges
            .iter()
            .find(|(k, _, _)| k == "zone.shape_cache")
            .map(|(_, v, _)| *v)
            .unwrap_or(0);
        assert!(gauge >= 1);

        // Replay mode reports none of them.
        let rec2 = obs::Recorder::enabled();
        let _ = explore(
            &env,
            &p,
            &Options::default()
                .with_zones(true)
                .with_zone_advance(ZoneAdvance::Replay)
                .with_obs(rec2.clone()),
        );
        let run2 = rec2.finish();
        assert!(!run2
            .counters
            .iter()
            .any(|(k, _)| k == "zone.closed_form_advances"));
    }

    #[test]
    fn zone_cap_changes_never_change_verdicts() {
        let env = Env::new();
        let p = choice([
            chain(3),
            act([(Res::new("bus"), 1)], chain(7)),
        ]);
        let baseline = explore(&env, &p, &Options::default().with_zones(true));
        for cap in [1usize, 2, 3, 7] {
            for advance in [ZoneAdvance::Closed, ZoneAdvance::Replay] {
                let capped = explore(
                    &env,
                    &p,
                    &Options::default()
                        .with_zones(true)
                        .with_zone_cap(cap)
                        .with_zone_advance(advance),
                );
                assert_eq!(capped.deadlock_free(), baseline.deadlock_free());
                assert_eq!(capped.deadlocks.len(), baseline.deadlocks.len());
                assert_eq!(
                    capped.first_deadlock_trace().map(|t| t.len()),
                    baseline.first_deadlock_trace().map(|t| t.len())
                );
            }
        }
    }

    #[test]
    fn verdicts_and_trace_lengths_agree_on_small_shapes() {
        let env = Env::new();
        // Branchy: two paths of different length to a deadlock.
        let p = choice([
            chain(3),
            act([(Res::new("bus"), 1)], chain(7)),
        ]);
        assert_agree(&env, &p, &Options::default());
        assert_agree(&env, &p, &Options::verdict());

        // Deadlock-free idle loop.
        let mut env2 = Env::new();
        let d = env2.declare("Idle", 0);
        env2.set_body(d, act([] as [(Res, i32); 0], invoke(d, [])));
        assert_agree(&env2, &invoke(d, []), &Options::default());

        // Initially deadlocked.
        assert_agree(&env, &nil(), &Options::default());

        // Event mid-chain (instantaneous steps inside the forced run).
        let done = Symbol::new("done");
        let p = act([(cpu(), 1)], evt_send(done, 1, chain(4)));
        assert_agree(&env, &p, &Options::default());
    }

    #[test]
    fn relaxation_finds_the_shorter_route_through_a_shared_state() {
        let env = Env::new();
        // Two routes to the same 5-quantum tail: a 1-step hop and a forced
        // 9-quantum detour. The detour's endpoint is discovered first in
        // bucket order only if pushed at its long depth — the relaxation
        // must settle it at depth 1 before expansion.
        let tail = chain(5);
        let p = choice([
            act([(Res::new("bus"), 1)], tail.clone()),
            act([(cpu(), 1)], {
                let mut detour = tail;
                for _ in 0..8 {
                    detour = act([(cpu(), 1)], detour);
                }
                detour
            }),
        ]);
        assert_agree(&env, &p, &Options::default());
        let zoned = explore(&env, &p, &Options::default().with_zones(true));
        assert_eq!(zoned.first_deadlock_trace().unwrap().len(), 6);
    }

    #[test]
    fn threads_do_not_change_zone_results() {
        let mut env = Env::new();
        // A counter fan: from the root, 16 sibling chains of different
        // lengths, wide enough to trigger parallel bucket expansion.
        let alts: Vec<P> = (0..16)
            .map(|i| act([(Res::new(&format!("r{i}")), 1)], chain(i + 1)))
            .collect();
        let p = choice(alts);
        let d = env.declare("Root", 0);
        env.set_body(d, p);
        let p = invoke(d, []);
        let base = explore(&env, &p, &Options::default().with_zones(true));
        let par4 = explore(
            &env,
            &p,
            &Options::default().with_zones(true).with_threads(4),
        );
        assert_eq!(base.num_states(), par4.num_states());
        assert_eq!(base.deadlocks, par4.deadlocks);
        assert_eq!(base.stats.transitions, par4.stats.transitions);
        assert_eq!(base.stats.dedup_hits, par4.stats.dedup_hits);
        for i in 0..base.num_states() {
            assert_eq!(base.state(StateId(i as u32)), par4.state(StateId(i as u32)));
        }
        assert_eq!(
            base.first_deadlock_trace().map(|t| t.len()),
            par4.first_deadlock_trace().map(|t| t.len())
        );
        assert_agree(&env, &p, &Options::default());
    }

    #[test]
    fn zone_counters_report_the_compression() {
        let env = Env::new();
        let p = chain(50);
        let rec = obs::Recorder::enabled();
        let ex = explore(
            &env,
            &p,
            &Options::default().with_zones(true).with_obs(rec.clone()),
        );
        assert_eq!(ex.num_states(), 2);
        let run = rec.finish();
        let counter = |name: &str| {
            run.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("zone.delay_steps"), 1);
        assert_eq!(counter("zone.quanta_collapsed"), 49);
        assert_eq!(counter("zone.singleton_steps"), 0);
    }

    #[test]
    fn max_states_still_truncates_in_zone_mode() {
        let mut env = Env::new();
        // A fresh state per step via a parameterized counter — but branch at
        // every state so nothing is forced and the zone graph is as large as
        // the concrete one.
        let d = env.declare("Counter", 1);
        env.set_body(
            d,
            choice([
                act([(cpu(), 1)], invoke(d, [Expr::p(0).add(Expr::c(1))])),
                act([(Res::new("bus"), 1)], invoke(d, [Expr::p(0).add(Expr::c(2))])),
            ]),
        );
        let p = invoke(d, [Expr::c(0)]);
        let ex = explore(
            &env,
            &p,
            &Options::default().with_zones(true).with_max_states(40),
        );
        assert!(ex.truncated);
        assert!(!ex.deadlock_free());
    }

    #[test]
    fn cancelled_zone_runs_are_partial_and_never_free() {
        let mut env = Env::new();
        let d = env.declare("Idle", 0);
        env.set_body(d, act([] as [(Res, i32); 0], invoke(d, [])));
        let token = crate::explore::CancelToken::new();
        token.cancel();
        let ex = explore(
            &env,
            &invoke(d, []),
            &Options::default().with_zones(true).with_cancel(token),
        );
        assert!(ex.cancelled);
        assert!(!ex.deadlock_free());
    }

    #[test]
    fn collect_lts_falls_back_to_the_concrete_engine() {
        let env = Env::new();
        let p = chain(10);
        let opts = Options {
            collect_lts: true,
            zones: true,
            ..Options::default()
        };
        let ex = explore(&env, &p, &opts);
        // The concrete engine ran: all 11 states materialized, LTS present.
        assert_eq!(ex.num_states(), 11);
        let lts = ex.lts.as_ref().unwrap();
        assert_eq!(lts.transitions.len(), 11);
    }

    #[test]
    fn zone_artifacts_round_trip_through_the_store_and_never_cross_modes() {
        let env = Env::new();
        let p = chain(20);
        let dir = std::env::temp_dir().join(format!(
            "versa-zones-cas-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = std::sync::Arc::new(cas::CasStore::open(&dir, cas::Mode::ReadWrite).unwrap());
        let zopts = Options::default().with_zones(true).with_cas(store.clone());
        let rec1 = obs::Recorder::enabled();
        let cold = explore(&env, &p, &zopts.clone().with_obs(rec1.clone()));
        let cold_counters = rec1.finish().counters;
        assert!(cold_counters.iter().any(|(k, v)| k == "cas.writes" && *v == 1));
        let rec2 = obs::Recorder::enabled();
        let warm = explore(&env, &p, &zopts.clone().with_obs(rec2.clone()));
        let warm_counters = rec2.finish().counters;
        assert!(warm_counters.iter().any(|(k, v)| k == "cas.hits" && *v == 1));
        assert_eq!(cold.deadlock_free(), warm.deadlock_free());
        assert_eq!(
            cold.first_deadlock_trace().map(|t| t.len()),
            warm.first_deadlock_trace().map(|t| t.len())
        );
        assert_eq!(cold.stats.states, warm.stats.states);
        // The two advance strategies never answer each other's queries: the
        // key commits to the strategy, so a replay-mode run over the same
        // model must MISS even with a closed-mode artifact deposited.
        let rec4 = obs::Recorder::enabled();
        let _ = explore(
            &env,
            &p,
            &zopts
                .clone()
                .with_zone_advance(crate::explore::ZoneAdvance::Replay)
                .with_obs(rec4.clone()),
        );
        let c4 = rec4.finish().counters;
        assert!(c4.iter().any(|(k, v)| k == "cas.misses" && *v == 1));
        // A concrete run over the same model must MISS: the key commits to
        // the zones flag (a zone artifact's stats describe the zone graph).
        let rec3 = obs::Recorder::enabled();
        let concrete = explore(
            &env,
            &p,
            &Options::default().with_cas(store).with_obs(rec3.clone()),
        );
        let c = rec3.finish().counters;
        assert!(c.iter().any(|(k, v)| k == "cas.misses" && *v == 1));
        assert_eq!(concrete.num_states(), 21);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
