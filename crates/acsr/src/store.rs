//! Hash-consed process terms: the [`TermStore`] interner.
//!
//! Exploration revisits the same subprocess terms relentlessly — every
//! periodic task re-enters the same skeleton states once per hyperperiod, and
//! every composed state shares almost all of its subterms with its
//! predecessor. A [`TermStore`] exploits that: it assigns each
//! *structurally unique* [`Proc`] subterm a stable [`TermId`] and keeps one
//! canonical [`P`] per structure, so
//!
//! * equality and hashing of interned terms are O(1) id comparisons — the
//!   deep-compare fallback of [`HashedP`](crate::hashed::HashedP) disappears;
//! * re-interning a term whose `Arc` is already canonical is a pointer-map
//!   hit, no tree walk at all;
//! * interning a freshly built successor walks only its *new spine*: shared
//!   children are canonical `Arc`s and resolve through the pointer fast path.
//!
//! The store is sharded over [`Mutex`]es and safe to share across worker
//! threads (`&TermStore` is `Sync`). Structural digests are deterministic
//! (FNV-1a over node kind, local fields and child digests — no pointers, no
//! random keys), so digest-derived decisions downstream (e.g. which shard of
//! a sharded visited set a state lands in) are reproducible run to run.
//! [`TermId`] *values*, by contrast, depend on interning order and may differ
//! between runs when workers race; they are stable within one store and must
//! never leak into externally visible results.
//!
//! # The canonical-children invariant
//!
//! Every term held by the store is *canonical*: its own `Arc` is the one the
//! store returns for its structure, and — recursively — so are all of its
//! children. [`TermStore::intern`] establishes this bottom-up, which is what
//! makes the shallow structural comparison sound: two canonical nodes are
//! structurally equal iff their variants and local fields match and their
//! children are pointer-equal.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::env::TagId;
use crate::expr::BExpr;
use crate::hashed::Fnv1a;
use crate::skeleton::{self, Factored};
use crate::symbol::{Res, Symbol};
use crate::term::{ActionT, EventT, Proc, TimeBound, P};
use crate::wordhash::WordMap;

/// Number of entry shards (power of two). Sixteen keeps worker contention
/// low at the thread counts the engine supports without bloating tiny runs.
const SHARDS: usize = 16;
const SHARD_BITS: u32 = 4;
/// Highest slot index representable inside one shard (u32 id space minus the
/// shard bits).
const MAX_SLOT: u32 = (1 << (32 - SHARD_BITS)) - 1;
/// End of a digest chain: no older slot holds the same digest. Above
/// [`MAX_SLOT`], so it can never name a real slot.
const NO_SLOT: u32 = u32::MAX;

/// Identifier of a structurally-unique term within one [`TermStore`].
///
/// Two interned terms are structurally equal **iff** their ids are equal —
/// that is the whole point of hash-consing. Ids are only meaningful within
/// the store that produced them.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use acsr::store::TermStore;
///
/// let store = TermStore::new();
/// let a = store.intern(&act([(Res::new("cpu"), 1)], nil()));
/// let b = store.intern(&act([(Res::new("cpu"), 1)], nil())); // fresh Arc, same structure
/// assert_eq!(a.id(), b.id());
/// assert_ne!(a.id(), store.intern(&nil()).id());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(u32);

impl TermId {
    /// The raw 32-bit value (shard index in the low bits, slot in the rest).
    pub fn raw(self) -> u32 {
        self.0
    }

    fn encode(shard: usize, slot: u32) -> TermId {
        assert!(slot <= MAX_SLOT, "term store shard overflow");
        TermId((slot << SHARD_BITS) | shard as u32)
    }

    fn shard(self) -> usize {
        (self.0 & (SHARDS as u32 - 1)) as usize
    }

    fn slot(self) -> usize {
        (self.0 >> SHARD_BITS) as usize
    }
}

/// An interned term: its [`TermId`], its structural digest, and the canonical
/// `Arc` for its structure.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use acsr::store::TermStore;
///
/// let store = TermStore::new();
/// let i = store.intern(&act([(Res::new("cpu"), 1)], nil()));
/// // Interning the *canonical* Arc again is a pointer-map hit with the same id.
/// let again = store.intern(&i.term().clone());
/// assert_eq!(i.id(), again.id());
/// assert_eq!(i.digest(), again.digest());
/// ```
#[derive(Clone, Debug)]
pub struct Interned {
    id: TermId,
    digest: u64,
    term: P,
}

impl Interned {
    /// The term's id: O(1) equality and hashing.
    pub fn id(&self) -> TermId {
        self.id
    }

    /// The deterministic structural digest (after the store's digest mask).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The canonical term.
    pub fn term(&self) -> &P {
        &self.term
    }

    /// Unwrap into the canonical term.
    pub fn into_term(self) -> P {
        self.term
    }
}

/// One canonical entry of a shard.
#[derive(Debug)]
struct Entry {
    term: P,
    digest: u64,
    /// The next-older slot with the same digest, or [`NO_SLOT`].
    next: u32,
}

/// One digest-indexed shard of the store: slot-addressed canonical entries
/// plus a digest index that resolves collisions by shallow comparison.
///
/// The index maps each digest to its *newest* slot; older slots with the
/// same digest chain through [`Entry::next`]. Digests almost never collide,
/// so a chain is almost always one entry long — and a new digest costs one
/// map insert, with no per-digest allocation.
#[derive(Default, Debug)]
struct EntryShard {
    /// Canonical entries, indexed by slot.
    entries: Vec<Entry>,
    /// digest → newest slot holding that digest.
    heads: WordMap<u64, u32>,
}

/// A thread-safe hash-consing interner for [`Proc`] terms.
///
/// See the [module documentation](self) for the design; see
/// [`TermStore::with_digest_mask`] for the collision-injection hook used by
/// the property tests.
///
/// # Examples
///
/// ```
/// use acsr::prelude::*;
/// use acsr::store::TermStore;
///
/// let store = TermStore::new();
/// let cpu = Res::new("cpu");
/// // Two structurally equal trees built independently...
/// let a = store.intern(&act([(cpu, 1)], act([(cpu, 2)], nil())));
/// let b = store.intern(&act([(cpu, 1)], act([(cpu, 2)], nil())));
/// // ...collapse to one id and one canonical Arc.
/// assert_eq!(a.id(), b.id());
/// assert!(std::sync::Arc::ptr_eq(a.term(), b.term()));
/// // Subterms are interned too: the tree above has 3 unique nodes.
/// assert_eq!(store.len(), 3);
/// ```
#[derive(Debug)]
pub struct TermStore {
    entry_shards: Vec<Mutex<EntryShard>>,
    /// Canonical `Arc` address → `(id, digest)`. Only canonical pointers are
    /// ever inserted, and the entry shards keep every canonical `Arc` alive,
    /// so an address can never be recycled while it is a key.
    ptr_shards: Vec<Mutex<WordMap<usize, (TermId, u64)>>>,
    /// `TermId::raw` → factored shape, memoized on first demand. Shapes live
    /// with the store so their lifetime matches the ids that key them.
    shape_shards: Vec<Mutex<WordMap<u32, Arc<Factored>>>>,
    count: AtomicUsize,
    digest_mask: u64,
}

impl Default for TermStore {
    fn default() -> TermStore {
        TermStore::new()
    }
}

impl TermStore {
    /// An empty store.
    pub fn new() -> TermStore {
        TermStore::with_digest_mask(u64::MAX)
    }

    /// An empty store whose structural digests are AND-ed with `mask` —
    /// a *testing* hook that forces digest collisions (`mask = 0` collapses
    /// every digest to zero). Interning stays correct under any mask: the
    /// digest chains fall back to shallow structural comparison, so
    /// structurally distinct terms always receive distinct ids.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use acsr::store::TermStore;
    ///
    /// let store = TermStore::with_digest_mask(0);
    /// let a = store.intern(&act([(Res::new("cpu"), 1)], nil()));
    /// let b = store.intern(&act([(Res::new("cpu"), 2)], nil()));
    /// assert_eq!(a.digest(), b.digest()); // digests forced to collide...
    /// assert_ne!(a.id(), b.id()); // ...but distinct structures stay distinct
    /// ```
    pub fn with_digest_mask(mask: u64) -> TermStore {
        TermStore {
            entry_shards: (0..SHARDS).map(|_| Mutex::new(EntryShard::default())).collect(),
            ptr_shards: (0..SHARDS).map(|_| Mutex::new(WordMap::default())).collect(),
            shape_shards: (0..SHARDS).map(|_| Mutex::new(WordMap::default())).collect(),
            count: AtomicUsize::new(0),
            digest_mask: mask,
        }
    }

    /// The factored shape of `t` ([`skeleton::factor`]), memoized per
    /// [`TermId`]. The closed-form delay advance factors every state it
    /// touches; states revisited across zone edges hit the memo.
    ///
    /// # Examples
    ///
    /// ```
    /// use acsr::prelude::*;
    /// use acsr::store::TermStore;
    ///
    /// let store = TermStore::new();
    /// let t = store.intern(&act([(Res::new("cpu"), 1)], nil()));
    /// let f = store.shape_of(&t);
    /// assert_eq!(f.values, vec![1]); // one chain hole of length 1
    /// assert!(std::sync::Arc::ptr_eq(&f, &store.shape_of(&t))); // memoized
    /// ```
    pub fn shape_of(&self, t: &Interned) -> Arc<Factored> {
        let raw = t.id().raw();
        let shard = &self.shape_shards[(raw as usize) & (SHARDS - 1)];
        if let Some(f) = shard
            .lock()
            .expect("term store shape shard poisoned")
            .get(&raw)
        {
            return f.clone();
        }
        let f = Arc::new(skeleton::factor(t.term()));
        self.note_shape(t, f.clone());
        f
    }

    /// Record a shape already known for `t` (because `t` was produced by
    /// [`skeleton::rebuild`] from a factored template), sparing the factor
    /// walk on the next [`TermStore::shape_of`]. A racing insert wins
    /// harmlessly: both sides computed the same factorization.
    pub fn note_shape(&self, t: &Interned, f: Arc<Factored>) {
        let raw = t.id().raw();
        let shard = &self.shape_shards[(raw as usize) & (SHARDS - 1)];
        shard
            .lock()
            .expect("term store shape shard poisoned")
            .entry(raw)
            .or_insert(f);
    }

    /// Number of structurally-unique subterms interned so far.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intern `p` (and, recursively, every subterm), returning its id,
    /// digest and canonical `Arc`.
    ///
    /// Cost: O(1) when `p` is already canonical (pointer-map hit); otherwise
    /// linear in the *non-canonical spine* of `p` — children that are already
    /// canonical stop the recursion at a pointer hit each.
    pub fn intern(&self, p: &P) -> Interned {
        if let Some(hit) = self.ptr_lookup(p) {
            return hit;
        }
        self.intern_slow(p)
    }

    /// Look up the entry for `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` did not come from this store.
    pub fn resolve(&self, id: TermId) -> Interned {
        let guard = self.entry_shards[id.shard()]
            .lock()
            .expect("term store shard poisoned");
        let entry = &guard.entries[id.slot()];
        Interned {
            id,
            digest: entry.digest,
            term: entry.term.clone(),
        }
    }

    fn ptr_shard(&self, p: &P) -> (&Mutex<WordMap<usize, (TermId, u64)>>, usize) {
        let addr = Arc::as_ptr(p) as usize;
        // Arc payloads are word-aligned; shift the dead low bits away before
        // selecting a shard.
        (&self.ptr_shards[(addr >> 4) & (SHARDS - 1)], addr)
    }

    fn ptr_lookup(&self, p: &P) -> Option<Interned> {
        let (shard, addr) = self.ptr_shard(p);
        let guard = shard.lock().expect("term store pointer shard poisoned");
        guard.get(&addr).map(|&(id, digest)| Interned {
            id,
            digest,
            term: p.clone(),
        })
    }

    fn register_ptr(&self, i: &Interned) {
        let (shard, addr) = self.ptr_shard(&i.term);
        let mut guard = shard.lock().expect("term store pointer shard poisoned");
        guard.entry(addr).or_insert((i.id, i.digest));
    }

    /// Canonicalize `p`'s children, digest the node, and insert (or find) it.
    fn intern_slow(&self, p: &P) -> Interned {
        let (digest, canon): (u64, P) = match &**p {
            Proc::Nil => (digest_nil(), p.clone()),
            Proc::Act { action, tag, next } => {
                let next_i = self.intern(next);
                let digest = digest_act(action, tag, next_i.digest);
                let canon = if Arc::ptr_eq(next, &next_i.term) {
                    p.clone()
                } else {
                    Arc::new(Proc::Act {
                        action: action.clone(),
                        tag: *tag,
                        next: next_i.term,
                    })
                };
                (digest, canon)
            }
            Proc::Evt { event, next } => {
                let next_i = self.intern(next);
                let digest = digest_evt(event, next_i.digest);
                let canon = if Arc::ptr_eq(next, &next_i.term) {
                    p.clone()
                } else {
                    Arc::new(Proc::Evt {
                        event: event.clone(),
                        next: next_i.term,
                    })
                };
                (digest, canon)
            }
            Proc::Choice(alts) => {
                let kids: Vec<Interned> = alts.iter().map(|a| self.intern(a)).collect();
                let digest = digest_list(3, &kids);
                let canon = if alts
                    .iter()
                    .zip(&kids)
                    .all(|(a, k)| Arc::ptr_eq(a, &k.term))
                {
                    p.clone()
                } else {
                    Arc::new(Proc::Choice(kids.into_iter().map(Interned::into_term).collect()))
                };
                (digest, canon)
            }
            Proc::Par(comps) => {
                let kids: Vec<Interned> = comps.iter().map(|c| self.intern(c)).collect();
                let digest = digest_list(4, &kids);
                let canon = if comps
                    .iter()
                    .zip(&kids)
                    .all(|(c, k)| Arc::ptr_eq(c, &k.term))
                {
                    p.clone()
                } else {
                    Arc::new(Proc::Par(kids.into_iter().map(Interned::into_term).collect()))
                };
                (digest, canon)
            }
            Proc::Guard { cond, then } => {
                let then_i = self.intern(then);
                let digest = digest_guard(cond, then_i.digest);
                let canon = if Arc::ptr_eq(then, &then_i.term) {
                    p.clone()
                } else {
                    Arc::new(Proc::Guard {
                        cond: cond.clone(),
                        then: then_i.term,
                    })
                };
                (digest, canon)
            }
            Proc::Scope {
                body,
                limit,
                exception,
                timeout,
                interrupt,
            } => {
                let body_i = self.intern(body);
                let exc_i = exception.as_ref().map(|(l, hd)| (*l, self.intern(hd)));
                let to_i = timeout.as_ref().map(|t| self.intern(t));
                let ir_i = interrupt.as_ref().map(|i| self.intern(i));
                let digest = digest_scope(limit, &body_i, &exc_i, &to_i, &ir_i);
                let unchanged = Arc::ptr_eq(body, &body_i.term)
                    && exception
                        .as_ref()
                        .zip(exc_i.as_ref())
                        .is_none_or(|((_, a), (_, b))| Arc::ptr_eq(a, &b.term))
                    && timeout
                        .as_ref()
                        .zip(to_i.as_ref())
                        .is_none_or(|(a, b)| Arc::ptr_eq(a, &b.term))
                    && interrupt
                        .as_ref()
                        .zip(ir_i.as_ref())
                        .is_none_or(|(a, b)| Arc::ptr_eq(a, &b.term));
                let canon = if unchanged {
                    p.clone()
                } else {
                    Arc::new(Proc::Scope {
                        body: body_i.term,
                        limit: limit.clone(),
                        exception: exc_i.map(|(l, hd)| (l, hd.term)),
                        timeout: to_i.map(Interned::into_term),
                        interrupt: ir_i.map(Interned::into_term),
                    })
                };
                (digest, canon)
            }
            Proc::Restrict { body, labels } => {
                let body_i = self.intern(body);
                let digest = digest_restrict(labels, body_i.digest);
                let canon = if Arc::ptr_eq(body, &body_i.term) {
                    p.clone()
                } else {
                    Arc::new(Proc::Restrict {
                        body: body_i.term,
                        labels: labels.clone(),
                    })
                };
                (digest, canon)
            }
            Proc::Close { body, resources } => {
                let body_i = self.intern(body);
                let digest = digest_close(resources, body_i.digest);
                let canon = if Arc::ptr_eq(body, &body_i.term) {
                    p.clone()
                } else {
                    Arc::new(Proc::Close {
                        body: body_i.term,
                        resources: resources.clone(),
                    })
                };
                (digest, canon)
            }
            Proc::Invoke { def, args } => {
                let mut h = Fnv1a::new();
                h.write_u8(9);
                def.hash(&mut h);
                args.hash(&mut h);
                (h.finish(), p.clone())
            }
        };
        self.insert(canon, digest & self.digest_mask)
    }

    // -- Fast-path node constructors -----------------------------------------
    //
    // The step session builds successor terms whose children it already holds
    // as [`Interned`] values. These constructors digest the node directly
    // from the children's digests and go straight to [`TermStore::insert`] —
    // no recursive walk, no per-child pointer-map lookup. They MUST produce
    // the exact digest [`TermStore::intern_slow`] would (both paths share the
    // `digest_*` helpers), or structurally equal terms would land in
    // different chains and be assigned two ids.

    /// Intern `Par(kids)` from already-interned components.
    pub(crate) fn mk_par(&self, kids: Vec<Interned>) -> Interned {
        let digest = digest_list(4, &kids) & self.digest_mask;
        let canon = Arc::new(Proc::Par(kids.into_iter().map(Interned::into_term).collect()));
        self.insert(canon, digest)
    }

    /// Intern `Restrict { body, labels }` from an already-interned body.
    pub(crate) fn mk_restrict(&self, body: &Interned, labels: &Arc<BTreeSet<Symbol>>) -> Interned {
        let digest = digest_restrict(labels, body.digest) & self.digest_mask;
        let canon = Arc::new(Proc::Restrict {
            body: body.term.clone(),
            labels: labels.clone(),
        });
        self.insert(canon, digest)
    }

    /// Intern `Close { body, resources }` from an already-interned body.
    pub(crate) fn mk_close(&self, body: &Interned, resources: &Arc<BTreeSet<Res>>) -> Interned {
        let digest = digest_close(resources, body.digest) & self.digest_mask;
        let canon = Arc::new(Proc::Close {
            body: body.term.clone(),
            resources: resources.clone(),
        });
        self.insert(canon, digest)
    }

    /// Intern a `Scope` node from already-interned children.
    pub(crate) fn mk_scope(
        &self,
        body: &Interned,
        limit: TimeBound,
        exception: &Option<(Symbol, Interned)>,
        timeout: &Option<Interned>,
        interrupt: &Option<Interned>,
    ) -> Interned {
        let digest = digest_scope(&limit, body, exception, timeout, interrupt) & self.digest_mask;
        let canon = Arc::new(Proc::Scope {
            body: body.term.clone(),
            limit,
            exception: exception.as_ref().map(|(l, hd)| (*l, hd.term.clone())),
            timeout: timeout.as_ref().map(|t| t.term.clone()),
            interrupt: interrupt.as_ref().map(|i| i.term.clone()),
        });
        self.insert(canon, digest)
    }

    /// Insert a node whose children are canonical, or find its existing
    /// entry. Collisions within a digest chain are resolved by shallow
    /// structural comparison (children by pointer — sound because both sides
    /// are canonical).
    fn insert(&self, canon: P, digest: u64) -> Interned {
        let shard_idx = (digest as usize) & (SHARDS - 1);
        let mut guard = self.entry_shards[shard_idx]
            .lock()
            .expect("term store shard poisoned");
        let EntryShard { entries, heads } = &mut *guard;
        let newest = heads.entry(digest);
        let older = match &newest {
            MapEntry::Occupied(o) => *o.get(),
            MapEntry::Vacant(_) => NO_SLOT,
        };
        let mut slot = older;
        while slot != NO_SLOT {
            let existing = &entries[slot as usize];
            if shallow_eq(&existing.term, &canon) {
                // The canonical Arc's address was registered when the
                // entry was created, so no pointer-map work is needed.
                return Interned {
                    id: TermId::encode(shard_idx, slot),
                    digest,
                    term: existing.term.clone(),
                };
            }
            slot = existing.next;
        }
        let slot = u32::try_from(entries.len()).expect("term store shard overflow");
        let id = TermId::encode(shard_idx, slot);
        entries.push(Entry {
            term: canon.clone(),
            digest,
            next: older,
        });
        *newest.or_insert(slot) = slot;
        drop(guard);
        self.count.fetch_add(1, Ordering::Relaxed);
        let out = Interned {
            id,
            digest,
            term: canon,
        };
        self.register_ptr(&out);
        out
    }
}

// ---------------------------------------------------------------------------
// Structural digests. One helper per node kind, shared by the recursive
// `intern_slow` walk and the `mk_*` fast-path constructors so the two paths
// cannot drift apart. Each digest covers the variant tag (a distinct byte per
// kind), the node's local fields via their `Hash` impls, and the children's
// *masked* digests — never pointers, never `TermId`s, so digests are
// deterministic across runs and interning orders.

fn digest_nil() -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(0);
    h.finish()
}

fn digest_act(action: &ActionT, tag: &Option<TagId>, next: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(1);
    action.hash(&mut h);
    tag.hash(&mut h);
    h.write_u64(next);
    h.finish()
}

fn digest_evt(event: &EventT, next: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(2);
    event.hash(&mut h);
    h.write_u64(next);
    h.finish()
}

/// Choice (`tag = 3`) and Par (`tag = 4`) digests: length-prefixed child list.
fn digest_list(tag: u8, kids: &[Interned]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(tag);
    h.write_usize(kids.len());
    for k in kids {
        h.write_u64(k.digest);
    }
    h.finish()
}

fn digest_guard(cond: &BExpr, then: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(5);
    cond.hash(&mut h);
    h.write_u64(then);
    h.finish()
}

fn digest_scope(
    limit: &TimeBound,
    body: &Interned,
    exception: &Option<(Symbol, Interned)>,
    timeout: &Option<Interned>,
    interrupt: &Option<Interned>,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(6);
    limit.hash(&mut h);
    h.write_u64(body.digest);
    match exception {
        Some((l, hd)) => {
            h.write_u8(1);
            l.hash(&mut h);
            h.write_u64(hd.digest);
        }
        None => h.write_u8(0),
    }
    match timeout {
        Some(t) => {
            h.write_u8(1);
            h.write_u64(t.digest);
        }
        None => h.write_u8(0),
    }
    match interrupt {
        Some(i) => {
            h.write_u8(1);
            h.write_u64(i.digest);
        }
        None => h.write_u8(0),
    }
    h.finish()
}

fn digest_restrict(labels: &Arc<BTreeSet<Symbol>>, body: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(7);
    labels.hash(&mut h);
    h.write_u64(body);
    h.finish()
}

fn digest_close(resources: &Arc<BTreeSet<Res>>, body: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u8(8);
    resources.hash(&mut h);
    h.write_u64(body);
    h.finish()
}

/// Structural equality of two nodes *whose children are canonical in the same
/// store*: variant and local fields compare by value, children by `Arc`
/// pointer identity.
fn shallow_eq(a: &Proc, b: &Proc) -> bool {
    match (a, b) {
        (Proc::Nil, Proc::Nil) => true,
        (
            Proc::Act {
                action: a1,
                tag: t1,
                next: n1,
            },
            Proc::Act {
                action: a2,
                tag: t2,
                next: n2,
            },
        ) => a1 == a2 && t1 == t2 && Arc::ptr_eq(n1, n2),
        (
            Proc::Evt {
                event: e1,
                next: n1,
            },
            Proc::Evt {
                event: e2,
                next: n2,
            },
        ) => e1 == e2 && Arc::ptr_eq(n1, n2),
        (Proc::Choice(x), Proc::Choice(y)) | (Proc::Par(x), Proc::Par(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| Arc::ptr_eq(p, q))
        }
        (
            Proc::Guard {
                cond: c1,
                then: p1,
            },
            Proc::Guard {
                cond: c2,
                then: p2,
            },
        ) => c1 == c2 && Arc::ptr_eq(p1, p2),
        (
            Proc::Scope {
                body: b1,
                limit: l1,
                exception: e1,
                timeout: t1,
                interrupt: i1,
            },
            Proc::Scope {
                body: b2,
                limit: l2,
                exception: e2,
                timeout: t2,
                interrupt: i2,
            },
        ) => {
            Arc::ptr_eq(b1, b2)
                && l1 == l2
                && match (e1, e2) {
                    (None, None) => true,
                    (Some((s1, h1)), Some((s2, h2))) => s1 == s2 && Arc::ptr_eq(h1, h2),
                    _ => false,
                }
                && opt_ptr_eq(t1, t2)
                && opt_ptr_eq(i1, i2)
        }
        (
            Proc::Restrict {
                body: b1,
                labels: l1,
            },
            Proc::Restrict {
                body: b2,
                labels: l2,
            },
        ) => Arc::ptr_eq(b1, b2) && (Arc::ptr_eq(l1, l2) || l1 == l2),
        (
            Proc::Close {
                body: b1,
                resources: r1,
            },
            Proc::Close {
                body: b2,
                resources: r2,
            },
        ) => Arc::ptr_eq(b1, b2) && (Arc::ptr_eq(r1, r2) || r1 == r2),
        (
            Proc::Invoke { def: d1, args: a1 },
            Proc::Invoke { def: d2, args: a2 },
        ) => d1 == d2 && a1 == a2,
        _ => false,
    }
}

fn opt_ptr_eq(a: &Option<P>, b: &Option<P>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => Arc::ptr_eq(x, y),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn cpu() -> Res {
        Res::new("cpu")
    }

    #[test]
    fn structurally_equal_terms_share_one_id() {
        let store = TermStore::new();
        let a = store.intern(&act([(cpu(), 1)], evt_send(Symbol::new("done"), 1, nil())));
        let b = store.intern(&act([(cpu(), 1)], evt_send(Symbol::new("done"), 1, nil())));
        assert_eq!(a.id(), b.id());
        assert_eq!(a.digest(), b.digest());
        assert!(Arc::ptr_eq(a.term(), b.term()));
        // nil, evt, act — three unique nodes despite six interned.
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn distinct_structures_get_distinct_ids() {
        let store = TermStore::new();
        let mut ids = std::collections::HashSet::new();
        for i in 0..50 {
            let t = store.intern(&act([(cpu(), i)], nil()));
            assert!(ids.insert(t.id()), "id reused for distinct term");
        }
        assert_eq!(store.len(), 51); // 50 act nodes + nil
    }

    #[test]
    fn canonical_terms_have_canonical_children() {
        let store = TermStore::new();
        let inner = act([(cpu(), 2)], nil());
        let outer = store.intern(&act([(cpu(), 1)], inner));
        match &**outer.term() {
            Proc::Act { next, .. } => {
                let child = store.intern(next);
                assert!(Arc::ptr_eq(next, child.term()), "child not canonical");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn interning_canonical_arc_is_a_pointer_hit() {
        let store = TermStore::new();
        let first = store.intern(&par([act([(cpu(), 1)], nil()), nil()]));
        let before = store.len();
        let again = store.intern(first.term());
        assert_eq!(first.id(), again.id());
        assert_eq!(store.len(), before);
    }

    #[test]
    fn resolve_round_trips() {
        let store = TermStore::new();
        let t = store.intern(&choice([act([(cpu(), 1)], nil()), nil()]));
        let r = store.resolve(t.id());
        assert_eq!(r.id(), t.id());
        assert_eq!(r.digest(), t.digest());
        assert!(Arc::ptr_eq(r.term(), t.term()));
    }

    #[test]
    fn all_variants_intern_and_distinguish() {
        let store = TermStore::new();
        let e = Symbol::new("e");
        let mut env = Env::new();
        let d = env.declare("D", 1);
        let terms: Vec<P> = vec![
            nil(),
            act([(cpu(), 1)], nil()),
            act_tagged([(cpu(), 1)], env.tag("t"), nil()),
            evt_send(e, 1, nil()),
            evt_recv(e, 1, nil()),
            tau(1, Some(e), nil()),
            tau(1, None, nil()),
            choice([act([(cpu(), 1)], nil()), nil()]),
            par([act([(cpu(), 1)], nil()), nil()]),
            guard(BExpr::lt(Expr::c(1), Expr::c(2)), nil()),
            scope(nil(), TimeBound::Finite(Expr::c(3)), None, None, None),
            scope(nil(), TimeBound::Infinite, Some((e, nil())), Some(nil()), Some(nil())),
            restrict(evt_send(e, 1, nil()), [e]),
            close(act([(cpu(), 1)], nil()), [cpu()]),
            invoke(d, [Expr::c(4)]),
            invoke(d, [Expr::c(5)]),
        ];
        let ids: Vec<TermId> = terms.iter().map(|t| store.intern(t).id()).collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert_ne!(ids[i], ids[j], "terms {i} and {j} wrongly shared an id");
            }
        }
        // Re-interning structural copies reproduces every id.
        let again: Vec<TermId> = terms.iter().map(|t| store.intern(t).id()).collect();
        assert_eq!(ids, again);
    }

    #[test]
    fn digest_mask_collisions_never_merge_distinct_terms() {
        // Mask 0 threads every term onto one digest chain, far longer than
        // any real collision: the chain scan alone must tell them apart.
        const N: i64 = 1_000;
        let store = TermStore::with_digest_mask(0);
        let mut ids = std::collections::HashSet::new();
        let firsts: Vec<Interned> = (0..N)
            .map(|i| {
                let t = store.intern(&act([(cpu(), i)], nil()));
                assert_eq!(t.digest(), 0);
                assert!(ids.insert(t.id()));
                t
            })
            .collect();
        // Structural copies still find their entries through the chain scan,
        // and every id resolves to its canonical term.
        for (i, first) in (0..N).zip(&firsts) {
            let t = store.intern(&act([(cpu(), i)], nil()));
            assert_eq!(t.id(), first.id());
            let r = store.resolve(first.id());
            assert_eq!(r.id(), first.id());
            assert_eq!(r.digest(), 0);
            assert!(Arc::ptr_eq(r.term(), first.term()));
        }
        assert_eq!(store.len(), N as usize + 1);
    }

    #[test]
    fn concurrent_interning_converges_to_one_id_per_structure() {
        // Mask 0 makes the racing inserts meet on one shard and one chain.
        for mask in [u64::MAX, 0] {
            let store = TermStore::with_digest_mask(mask);
            let ids: Vec<Vec<TermId>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let store = &store;
                        s.spawn(move || {
                            (0..32)
                                .map(|i| store.intern(&act([(cpu(), i)], nil())).id())
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for other in &ids[1..] {
                assert_eq!(&ids[0], other, "mask={mask:#x}");
            }
            assert_eq!(store.len(), 33, "mask={mask:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn resolve_foreign_id_panics() {
        let store = TermStore::new();
        let other = TermStore::new();
        // Intern enough terms that the foreign id's slot is out of range.
        let id = other.intern(&act([(cpu(), 1)], act([(cpu(), 2)], nil()))).id();
        let _ = store.resolve(id);
    }
}
