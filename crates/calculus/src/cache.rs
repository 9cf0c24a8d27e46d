//! The demand-built cache set every long-lived catalog keeps.
//!
//! A catalog that outlives one evaluator — the database, a serving
//! session, a published snapshot, a fixpoint solve — amortises four
//! kinds of derived state across evaluations:
//!
//! * hash indexes over base relations, keyed by (name, positions) and
//!   served through [`Catalog::index`](crate::Catalog::index);
//! * relation statistics, keyed by name
//!   ([`Catalog::stats`](crate::Catalog::stats));
//! * decorrelation entries, keyed by the correlated range's syntax
//!   ([`Catalog::decorr_entry`](crate::Catalog::decorr_entry));
//! * solved constructor applications, keyed by their content-addressed
//!   [`AppKey`].
//!
//! [`CacheSet`] holds all four behind one mechanism. Locks are taken
//! only for the map probe or insert — never across a build — and every
//! acquisition tolerates poisoning, so a panicking reader cannot wedge
//! the others. Donation is first-writer-wins (`entry().or_insert`):
//! two builders racing on one key converge to one stored value. The
//! owner decides the lifecycle: [`CacheSet::clear`] on mutation,
//! [`CacheSet::successor`] to carry entries across a commit, and
//! [`CacheSet::clear_decorr`] when only derived query state goes stale.

use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::{Arc, PoisonError, RwLock};

use dc_index::{HashIndex, RelationStats};
use dc_relation::Relation;
use dc_value::{FxHashMap, FxHashSet, Value};

use crate::ast::{Name, RangeExpr};
use crate::env::DecorrCached;

/// Content identity of one relation argument of an application:
/// cardinality plus the storage-memoised 128-bit digest
/// ([`Relation::digest`]). Equality is content equality (order- and
/// storage-independent) up to the ~2⁻¹²⁸ digest collision probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RelKey {
    len: usize,
    digest: u128,
}

impl RelKey {
    fn of(rel: &Relation) -> RelKey {
        RelKey {
            len: rel.len(),
            digest: rel.digest(),
        }
    }
}

/// Identity of an instantiated application: §3.2's `applyⱼ`, keyed by
/// actual values so that textually different but semantically identical
/// applications share one equation.
///
/// Relation actuals are identified by their [`Relation::digest`]
/// content digest rather than a sorted tuple vector: the digest is
/// memoised on the COW storage, so registering an application over a
/// relation whose storage was seen before (every repeated solve, every
/// shared handle) is O(1) instead of the former O(n log n)
/// sort-and-clone per registration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AppKey {
    constructor: Name,
    base: RelKey,
    args: Vec<RelKey>,
    scalar_args: Vec<Value>,
}

impl AppKey {
    /// Build a key from actual values (canonicalised by content
    /// digest).
    pub fn new(
        constructor: &str,
        base: &Relation,
        args: &[Relation],
        scalar_args: &[Value],
    ) -> AppKey {
        AppKey {
            constructor: constructor.to_string(),
            base: RelKey::of(base),
            args: args.iter().map(RelKey::of).collect(),
            scalar_args: scalar_args.to_vec(),
        }
    }

    /// The constructor name.
    pub fn constructor(&self) -> &str {
        &self.constructor
    }
}

/// One lock-guarded map of the set. Every update is a single map
/// operation, so a guard poisoned by a panicking holder still guards a
/// valid map and is recovered with `PoisonError::into_inner`.
struct Shelf<K, V>(RwLock<FxHashMap<K, V>>);

impl<K: Eq + Hash + Clone, V: Clone> Shelf<K, V> {
    fn new(map: FxHashMap<K, V>) -> Self {
        Shelf(RwLock::new(map))
    }

    fn get<Q: Eq + Hash + ?Sized>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.0
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned()
    }

    /// First writer wins; returns the stored value.
    fn donate(&self, key: K, value: V) -> V {
        self.0
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(value)
            .clone()
    }

    fn clear(&self) {
        self.0
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    fn len(&self) -> usize {
        self.0.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    fn filtered(&self, keep: impl Fn(&K) -> bool) -> Self {
        let map = self.0.read().unwrap_or_else(PoisonError::into_inner);
        Shelf::new(
            map.iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        )
    }
}

impl<K, V> Default for Shelf<K, V> {
    fn default() -> Self {
        Shelf(RwLock::new(FxHashMap::default()))
    }
}

/// Demand-built indexes, statistics, decorrelation entries and solved
/// applications — see the [module docs](self). `Sync`: snapshots share
/// one across sessions, and a solve shares one with its worker tasks.
#[derive(Default)]
pub struct CacheSet {
    indexes: Shelf<(Name, Vec<usize>), Arc<HashIndex>>,
    stats: Shelf<Name, Arc<RelationStats>>,
    decorr: Shelf<RangeExpr, DecorrCached>,
    solved: Shelf<AppKey, Relation>,
}

impl CacheSet {
    /// The cached index over `name` on `positions`.
    pub fn index(&self, name: &str, positions: &[usize]) -> Option<Arc<HashIndex>> {
        self.indexes.get(&(name.to_string(), positions.to_vec()))
    }

    /// Store an index over `name` (keyed by its own positions) unless
    /// one is already there; returns the stored index.
    pub fn donate_index(&self, name: &str, index: Arc<HashIndex>) -> Arc<HashIndex> {
        let key = (name.to_string(), index.positions().to_vec());
        self.indexes.donate(key, index)
    }

    /// The cached index, or one built from `rel()` and donated. `None`
    /// when `rel()` is (the name is unknown).
    pub fn index_or_build(
        &self,
        name: &str,
        positions: &[usize],
        rel: impl FnOnce() -> Option<Relation>,
    ) -> Option<Arc<HashIndex>> {
        if let Some(idx) = self.index(name, positions) {
            return Some(idx);
        }
        let idx = Arc::new(HashIndex::build(&rel()?, positions.to_vec()));
        Some(self.donate_index(name, idx))
    }

    /// The cached statistics of `name`.
    pub fn stats(&self, name: &str) -> Option<Arc<RelationStats>> {
        self.stats.get(name)
    }

    /// Store statistics of `name` unless some are already there;
    /// returns the stored statistics.
    pub fn donate_stats(&self, name: &str, stats: Arc<RelationStats>) -> Arc<RelationStats> {
        self.stats.donate(name.to_string(), stats)
    }

    /// The cached statistics, or statistics collected from `rel()` and
    /// donated. `None` when `rel()` is.
    pub fn stats_or_collect(
        &self,
        name: &str,
        rel: impl FnOnce() -> Option<Relation>,
    ) -> Option<Arc<RelationStats>> {
        if let Some(s) = self.stats(name) {
            return Some(s);
        }
        let s = Arc::new(RelationStats::collect(&rel()?));
        Some(self.donate_stats(name, s))
    }

    /// The cached decorrelation decision for `range`.
    pub fn decorr(&self, range: &RangeExpr) -> Option<DecorrCached> {
        self.decorr.get(range)
    }

    /// Store a decorrelation decision for `range` unless one is
    /// already there; returns the stored decision.
    pub fn donate_decorr(&self, range: &RangeExpr, entry: DecorrCached) -> DecorrCached {
        self.decorr.donate(range.clone(), entry)
    }

    /// The memoised value of a solved application.
    pub fn solved(&self, key: &AppKey) -> Option<Relation> {
        self.solved.get(key)
    }

    /// Memoise a solved application unless it is already there;
    /// returns the stored value.
    pub fn donate_solved(&self, key: AppKey, value: Relation) -> Relation {
        self.solved.donate(key, value)
    }

    /// Drop every entry of all four maps.
    pub fn clear(&self) {
        self.indexes.clear();
        self.stats.clear();
        self.decorr.clear();
        self.solved.clear();
    }

    /// Drop every decorrelation entry, keeping the rest: the entries
    /// embed query results over data that just moved, while indexes and
    /// statistics over unchanged base relations stay exact.
    pub fn clear_decorr(&self) {
        self.decorr.clear();
    }

    /// The cache set for the state after a commit that wrote `touched`:
    /// index and statistics entries over untouched names carry over,
    /// decorrelation entries carry over iff `keep_range` accepts their
    /// range, and the solved memo — keyed by content digests, so it can
    /// never serve stale data — carries over whole.
    pub fn successor(
        &self,
        touched: &FxHashSet<Name>,
        keep_range: impl Fn(&RangeExpr) -> bool,
    ) -> CacheSet {
        CacheSet {
            indexes: self.indexes.filtered(|(name, _)| !touched.contains(name)),
            stats: self.stats.filtered(|name| !touched.contains(name)),
            decorr: self.decorr.filtered(keep_range),
            solved: self.solved.filtered(|_| true),
        }
    }

    /// Number of cached indexes.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Whether all four maps are empty.
    pub fn is_empty(&self) -> bool {
        self.indexes.len() + self.stats.len() + self.decorr.len() + self.solved.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Branch, Formula};
    use crate::builder::*;
    use crate::joinplan::{self, DefLookup};
    use dc_value::{tuple, Domain, Schema};
    use std::sync::Barrier;

    fn rel_of(name: &str) -> Relation {
        Relation::from_tuples(
            Schema::of(&[("x", Domain::Str)]),
            vec![tuple![name], tuple!["shared"]],
        )
        .unwrap()
    }

    fn index_over(r: &Relation) -> Arc<HashIndex> {
        Arc::new(HashIndex::build(r, vec![0]))
    }

    fn stats_over(r: &Relation) -> Arc<RelationStats> {
        Arc::new(RelationStats::collect(r))
    }

    /// A set with one entry in each map: indexes and statistics over
    /// `A` and `B`, and the solved memo of `c(A)`.
    fn filled() -> (CacheSet, AppKey) {
        let caches = CacheSet::default();
        for name in ["A", "B"] {
            let r = rel_of(name);
            caches.donate_index(name, index_over(&r));
            caches.donate_stats(name, stats_over(&r));
        }
        let key = AppKey::new("c", &rel_of("A"), &[], &[]);
        caches.donate_solved(key.clone(), rel_of("A"));
        (caches, key)
    }

    #[test]
    fn first_writer_wins_under_two_threads() {
        let caches = CacheSet::default();
        let r = rel_of("A");
        let built = [index_over(&r), index_over(&r)];
        let barrier = Barrier::new(2);
        let stored: Vec<Arc<HashIndex>> = std::thread::scope(|s| {
            let handles: Vec<_> = built
                .iter()
                .map(|idx| {
                    let (caches, barrier) = (&caches, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        caches.donate_index("A", idx.clone())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Both donors get the one stored index back, and it is one of
        // the two donated — whichever wrote first.
        assert!(Arc::ptr_eq(&stored[0], &stored[1]));
        assert!(built.iter().any(|b| Arc::ptr_eq(b, &stored[0])));
        let served = caches.index("A", &[0]).unwrap();
        assert!(Arc::ptr_eq(&served, &stored[0]));
        assert_eq!(caches.index_count(), 1);
        // A later donation never replaces it.
        let late = caches.donate_index("A", index_over(&r));
        assert!(Arc::ptr_eq(&late, &served));
    }

    #[test]
    fn successor_keeps_untouched_index_and_stats_entries() {
        let (caches, _) = filled();
        let touched: FxHashSet<Name> = ["B".to_string()].into_iter().collect();
        let next = caches.successor(&touched, |_| true);
        let (a_idx, a_stats) = (caches.index("A", &[0]), caches.stats("A"));
        assert!(Arc::ptr_eq(
            &next.index("A", &[0]).unwrap(),
            &a_idx.unwrap()
        ));
        assert!(Arc::ptr_eq(&next.stats("A").unwrap(), &a_stats.unwrap()));
        assert!(next.index("B", &[0]).is_none());
        assert!(next.stats("B").is_none());
        // The predecessor is left as it was.
        assert!(caches.index("B", &[0]).is_some());
        assert!(caches.stats("B").is_some());
    }

    /// Selector definitions for read-profile analysis: `refs_b` reaches
    /// `B` only through its predicate.
    struct Defs(Formula);

    impl DefLookup for Defs {
        fn selector_body(&self, name: &str) -> Option<&Formula> {
            (name == "refs_b").then_some(&self.0)
        }
        fn constructor_parts(&self, _: &str) -> Option<(&crate::SetFormer, Vec<Name>)> {
            None
        }
    }

    #[test]
    fn successor_keeps_decorr_entries_only_when_keep_range_accepts() {
        let defs = Defs(some("b", rel("B"), eq(attr("b", "x"), attr("r", "x"))));
        let over_a = set_former(vec![Branch::each("r", rel("A"), tru())]);
        let over_b = set_former(vec![Branch::each("r", rel("B"), tru())]);
        let via_selector = rel("A").select("refs_b", vec![]);
        let caches = CacheSet::default();
        for range in [&over_a, &over_b, &via_selector] {
            caches.donate_decorr(range, DecorrCached::Refused);
        }
        let touched: FxHashSet<Name> = ["B".to_string()].into_iter().collect();
        let next = caches.successor(&touched, |range| {
            joinplan::base_relations(range, &defs).disjoint_from(touched.iter())
        });
        assert!(next.decorr(&over_a).is_some());
        assert!(next.decorr(&over_b).is_none());
        assert!(
            next.decorr(&via_selector).is_none(),
            "a range reading B through a selector predicate is dropped"
        );
        // Nothing touched: every entry the predicate accepts survives.
        let all = caches.successor(&FxHashSet::default(), |_| true);
        for range in [&over_a, &over_b, &via_selector] {
            assert!(all.decorr(range).is_some());
        }
    }

    #[test]
    fn clear_empties_all_four_maps() {
        let (caches, key) = filled();
        caches.donate_decorr(&rel("A"), DecorrCached::Refused);
        assert!(!caches.is_empty());
        caches.clear();
        assert!(caches.is_empty());
        assert!(caches.index("A", &[0]).is_none());
        assert!(caches.stats("A").is_none());
        assert!(caches.decorr(&rel("A")).is_none());
        assert!(caches.solved(&key).is_none());
    }

    #[test]
    fn clear_decorr_keeps_the_other_maps() {
        let (caches, key) = filled();
        caches.donate_decorr(&rel("A"), DecorrCached::Refused);
        caches.clear_decorr();
        assert!(caches.decorr(&rel("A")).is_none());
        assert_eq!(caches.index_count(), 2);
        assert!(caches.stats("A").is_some());
        assert!(caches.solved(&key).is_some());
    }

    #[test]
    fn solved_memo_survives_successor_unchanged() {
        let (caches, key) = filled();
        // `A` is touched — its indexes go, but the content-addressed
        // memo entry over A's old value stays.
        let touched: FxHashSet<Name> = ["A".to_string(), "B".to_string()].into_iter().collect();
        let next = caches.successor(&touched, |_| false);
        assert_eq!(next.index_count(), 0);
        assert_eq!(next.solved(&key), caches.solved(&key));
        assert_eq!(next.solved(&key), Some(rel_of("A")));
    }
}
