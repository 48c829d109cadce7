//! Property-based regression guard for the O(1)-equality claim of the term
//! store: interning must distinguish structurally-distinct terms even when
//! every digest collides. The store's [`TermStore::with_digest_mask`] hook
//! and [`HashedP::with_digest`] force collisions deliberately; under any
//! mask, id equality must coincide exactly with deep structural equality,
//! and the memoized step relation must be unchanged.
//!
//! Randomized terms come from the workspace's vendored [`det`] harness
//! (`det_prop!` runs 64 seeded cases per property by default; failures print
//! a `DET_PROP_SEED` that reproduces the exact case).

use std::collections::HashSet;
use std::sync::Arc;

use acsr::prelude::*;
use acsr::{HashedP, MemoConfig, StepSession, TermId, TermStore};
use det::det_prop;
use det::DetRng;

const RES_POOL: [&str; 3] = ["ic_cpu", "ic_bus", "ic_data"];

fn arb_leaf(rng: &mut DetRng) -> P {
    match rng.range_u64(0..3) {
        0 => nil(),
        1 => {
            let r = Res::new(*rng.pick(&RES_POOL));
            act([(r, rng.range_i64(0..4))], nil())
        }
        _ => {
            let sym = Symbol::new(*rng.pick(&["ie_x", "ie_y", "ie_z"]));
            let prio = rng.range_u64(0..4) as u32;
            if rng.next_bool() {
                evt_send(sym, prio, nil())
            } else {
                evt_recv(sym, prio, nil())
            }
        }
    }
}

fn arb_proc_depth(rng: &mut DetRng, depth: usize) -> P {
    if depth == 0 {
        return arb_leaf(rng);
    }
    match rng.range_u64(0..6) {
        0 => arb_leaf(rng),
        1 => {
            let n = rng.range_usize(1..4);
            choice((0..n).map(|_| arb_proc_depth(rng, depth - 1)).collect::<Vec<_>>())
        }
        2 => {
            let n = rng.range_usize(1..3);
            par((0..n).map(|_| arb_proc_depth(rng, depth - 1)).collect::<Vec<_>>())
        }
        3 => {
            let p = arb_proc_depth(rng, depth - 1);
            let t = rng.range_i64(0..4);
            scope(p, TimeBound::Finite(Expr::c(t)), None, Some(nil()), None)
        }
        4 => restrict(arb_proc_depth(rng, depth - 1), [Symbol::new("ie_x")]),
        _ => close(arb_proc_depth(rng, depth - 1), [Res::new("ic_data")]),
    }
}

/// A small ground process over the resource pool, with bounded depth.
fn arb_proc(rng: &mut DetRng) -> P {
    arb_proc_depth(rng, 3)
}

det_prop! {
    fn forced_digest_collisions_never_merge_distinct_structures(
        a in arb_proc, b in arb_proc
    ) {
        // Under every mask — including mask 0, which collapses *all* digests
        // into one bucket — two terms share an id iff they are structurally
        // equal, exactly as in the unmasked store.
        let structurally_equal = a == b;
        for mask in [0u64, 1, 0xFF, u64::MAX] {
            let store = TermStore::with_digest_mask(mask);
            let ia = store.intern(&a);
            let ib = store.intern(&b);
            assert_eq!(
                ia.id() == ib.id(),
                structurally_equal,
                "mask={mask:#x}: id equality diverged from structural equality\n a={a:?}\n b={b:?}"
            );
            assert_eq!(ia.digest(), ia.digest() & mask, "digest escaped the mask");
        }

        // The same inside one mask-0 digest chain that already holds over a
        // thousand distinct structures: ids stay distinct, resolve
        // round-trips, and structural copies re-intern to the same id
        // however deep in the chain their entry sits.
        const CHAIN: i64 = 1_024;
        let pad = |i: i64| act([(Res::new("ic_pad"), i)], nil());
        let store = TermStore::with_digest_mask(0);
        let pad_ids: Vec<TermId> =
            (0..CHAIN).map(|i| store.intern(&pad(i)).id()).collect();
        let ia = store.intern(&a);
        let ib = store.intern(&b);
        assert_eq!(
            ia.id() == ib.id(),
            structurally_equal,
            "long chain: id equality diverged from structural equality\n a={a:?}\n b={b:?}"
        );
        let distinct: HashSet<TermId> = pad_ids.iter().copied().collect();
        assert_eq!(distinct.len(), CHAIN as usize, "padding structures shared an id");
        assert!(!distinct.contains(&ia.id()) && !distinct.contains(&ib.id()));
        let mut expected: Vec<(P, TermId)> = (0..CHAIN).map(pad).zip(pad_ids).collect();
        expected.extend([(a.clone(), ia.id()), (b.clone(), ib.id())]);
        for (term, id) in &expected {
            assert_eq!(store.resolve(*id).term(), term, "resolve({id:?})");
            assert_eq!(store.intern(term).id(), *id, "re-interning {term:?}");
        }
    }

    fn forced_hashedp_collisions_fall_back_to_deep_compare(
        a in arb_proc, b in arb_proc
    ) {
        // The pre-interning keys must stay sound under the same attack: a
        // forced digest collision may only slow `HashedP` down (deep
        // compare), never change its equality verdict.
        let ha = HashedP::with_digest(a.clone(), 42);
        let hb = HashedP::with_digest(b.clone(), 42);
        assert_eq!(ha == hb, a == b);
    }

    fn collision_heavy_store_preserves_the_step_relation(p in arb_proc) {
        // A mask-0 store drives every insert through the chain-scan slow
        // path; the memoized session over it must still reproduce the legacy
        // step relation label for label, successor for successor.
        let env = Env::new();
        let legacy = steps(&env, &p);
        let store = Arc::new(TermStore::with_digest_mask(0));
        let session = StepSession::new(&env, store, MemoConfig::default());
        let interned = session.steps(&session.intern(&p));
        assert_eq!(legacy.len(), interned.len(), "step count for {p:?}");
        for ((ll, lp), (il, ip)) in legacy.iter().zip(&interned) {
            assert_eq!(ll, il, "label for {p:?}");
            assert_eq!(lp, ip.term(), "successor for {p:?}");
        }
    }
}
