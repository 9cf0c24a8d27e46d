//! The evaluation environment: how expressions resolve names.
//!
//! Evaluation is parameterised over a [`Catalog`], which supplies
//! relation values, selector definitions, and — crucially — the meaning
//! of constructor applications. The reference evaluator knows nothing
//! about fixpoints: when it meets `base{c(args)}` it evaluates `base`
//! and `args` to relations and delegates to
//! [`Catalog::apply_constructor`]. `dc-core` implements that hook with
//! the §3.2 least-fixpoint machinery; during fixpoint iteration it
//! implements it by looking up the current iterate, which is exactly the
//! paper's reading of `applyᵢᵏ⁺¹ = gᵢ(apply₀ᵏ, …, applyₗᵏ)`.

use std::cell::RefCell;
use std::sync::Arc;

use dc_index::{HashIndex, RelationStats};
use dc_relation::Relation;
use dc_trace::metrics::{Counter, MetricsRegistry};
use dc_value::{FxHashMap, FxHashSet, Value};

use crate::ast::{Name, RangeExpr, SelectorDef};
use crate::error::EvalError;
use crate::eval::DecorrEntry;
use crate::rewrite;

/// A cached decorrelation decision for one correlated quantified range,
/// served through [`Catalog::decorr_entry`]. Catalogs that hold state
/// across evaluator lifetimes (the fixpoint solver, the database) store
/// both outcomes, so a refused rewrite is not re-analysed per evaluator
/// any more than a built one is re-materialised.
#[derive(Clone)]
pub enum DecorrCached {
    /// The range decorrelated; the entry holds the materialised join
    /// bucketed on the joint key.
    Built(Arc<DecorrEntry>),
    /// Decorrelation was refused (unsupported shape, unsplittable
    /// predicate, profitability gate, build error) — the evaluator
    /// falls back to the reference scan without re-running the
    /// analysis.
    Refused,
}

/// Name-resolution interface for evaluation.
pub trait Catalog {
    /// Resolve a relation name to its current value. Formal relation
    /// parameters of selectors/constructors are resolved here too: the
    /// caller installs them under their formal names.
    ///
    /// Returned by value: `Relation` is copy-on-write, so handing out
    /// an owned handle is a pointer bump, never a tuple-set copy.
    fn relation(&self, name: &str) -> Result<Relation, EvalError>;

    /// Resolve a selector definition.
    fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        Err(EvalError::UnknownSelector(name.to_string()))
    }

    /// Give meaning to a constructor application `base{name(args)}`.
    fn apply_constructor(
        &self,
        _base: Relation,
        name: &str,
        _args: Vec<Relation>,
        _scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        Err(EvalError::UnknownConstructor(name.to_string()))
    }

    /// Resolve a free scalar parameter (one not bound by an enclosing
    /// selector application frame). Used by logical access paths, which
    /// are compiled plans "with dummy constants" (§4) filled in at run
    /// time.
    fn scalar_param(&self, name: &str) -> Result<Value, EvalError> {
        Err(EvalError::UnknownParam(name.to_string()))
    }

    /// A hash index over the relation `name` resolves to, keyed on
    /// `positions` — if the catalog maintains (or is willing to build)
    /// one. The evaluator's join executor consults this before building
    /// a throwaway index, so catalogs that keep relations across many
    /// evaluations (the fixpoint solver, most prominently) can amortise
    /// index construction. Implementations must return an index that is
    /// exactly consistent with [`Catalog::relation`] for `name`.
    fn index(&self, _name: &str, _positions: &[usize]) -> Option<Arc<HashIndex>> {
        None
    }

    /// Is an index over the relation `name` *throwaway* — built for
    /// one evaluation and discarded afterwards, so the join order that
    /// probes it must also pay its O(|relation|) build? The join planner
    /// charges that build to the orders that need it (and so prefers
    /// scanning such a range over probing it). Default: no — base,
    /// maintained and cached relations keep their indexes, and their
    /// plans ignore build cost.
    fn throwaway_index(&self, _name: &str) -> bool {
        false
    }

    /// Statistics of the relation `name` resolves to — if the catalog
    /// maintains (or is willing to compute and cache) them. The join
    /// planner consults this before paying an O(|relation|) collection
    /// pass per branch evaluation, so catalogs that keep relations
    /// across many evaluations (the fixpoint solver, the database) can
    /// maintain statistics incrementally next to their indexes.
    /// Implementations must return statistics exactly consistent with
    /// [`Catalog::relation`] for `name`.
    fn stats(&self, _name: &str) -> Option<Arc<RelationStats>> {
        None
    }

    /// A cached decorrelation decision for the correlated quantified
    /// range `range` — if the catalog maintains a decorrelation cache.
    /// Mirrors [`Catalog::index`]/[`Catalog::stats`]: the evaluator
    /// consults this before building a decorrelated entry of its own,
    /// so catalogs that live across many evaluator lifetimes (the
    /// fixpoint solver across branch evaluations and semi-naive rounds,
    /// the database across queries) amortise the materialised join.
    /// Implementations must serve entries that are exactly consistent
    /// with the current [`Catalog::version`]: a served entry must have
    /// been built against the catalog's *current* data snapshot
    /// (solver: drop the cache when the epoch moves; database:
    /// invalidate on mutation).
    fn decorr_entry(&self, _range: &RangeExpr) -> Option<DecorrCached> {
        None
    }

    /// Store a decorrelation decision the evaluator just computed for
    /// `range` — the write half of [`Catalog::decorr_entry`]. Default:
    /// discard (catalogs without solver state keep nothing).
    fn cache_decorr_entry(&self, _range: &RangeExpr, _entry: DecorrCached) {}

    /// Monotone data version of the catalog. Implementations that can
    /// change a relation's value *while an evaluator is alive* (the
    /// fixpoint solver commits peer deltas between rounds, mid-solve)
    /// must bump this on every such commit. Evaluators compare it
    /// against the version their syntax-keyed caches (range values,
    /// indexes, statistics, decorrelated ranges) were filled under and
    /// drop every stale entry on mismatch — scoping transient-index
    /// lifetime to one consistent snapshot of the catalog. Catalogs
    /// whose mutation requires `&mut self` (so no evaluator can be
    /// alive across a change) may keep the default constant `0`.
    fn version(&self) -> u64 {
        0
    }
}

/// Closure type for pluggable constructor semantics in [`MapCatalog`].
pub type ConstructorFn =
    Box<dyn Fn(Relation, Vec<Relation>) -> Result<Relation, EvalError> + Send + Sync>;

/// A simple in-memory catalog for tests and small programs.
#[derive(Default)]
pub struct MapCatalog {
    relations: Vec<(String, Relation)>,
    selectors: Vec<(String, SelectorDef)>,
    constructors: Vec<(String, ConstructorFn)>,
    params: Vec<(String, Value)>,
}

impl MapCatalog {
    /// An empty catalog.
    pub fn new() -> MapCatalog {
        MapCatalog::default()
    }

    /// Register (or replace) a relation under `name`.
    pub fn with_relation(mut self, name: impl Into<String>, rel: Relation) -> MapCatalog {
        self.insert_relation(name, rel);
        self
    }

    /// Register (or replace) a relation under `name` (mutating form).
    pub fn insert_relation(&mut self, name: impl Into<String>, rel: Relation) {
        let name = name.into();
        if let Some(slot) = self.relations.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = rel;
        } else {
            self.relations.push((name, rel));
        }
    }

    /// Register a selector definition.
    pub fn with_selector(mut self, def: SelectorDef) -> MapCatalog {
        self.selectors.push((def.name.clone(), def));
        self
    }

    /// Register constructor semantics as a closure (tests only; real
    /// constructor semantics live in `dc-core`).
    pub fn with_constructor_fn(mut self, name: impl Into<String>, f: ConstructorFn) -> MapCatalog {
        self.constructors.push((name.into(), f));
        self
    }

    /// Register a free scalar parameter value.
    pub fn with_param(mut self, name: impl Into<String>, value: Value) -> MapCatalog {
        self.params.push((name.into(), value));
        self
    }
}

impl Catalog for MapCatalog {
    fn relation(&self, name: &str) -> Result<Relation, EvalError> {
        self.relations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.clone())
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))
    }

    fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.selectors
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
            .ok_or_else(|| EvalError::UnknownSelector(name.to_string()))
    }

    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        _scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        let f = self
            .constructors
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f)
            .ok_or_else(|| EvalError::UnknownConstructor(name.to_string()))?;
        f(base, args)
    }

    fn scalar_param(&self, name: &str) -> Result<Value, EvalError> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| EvalError::UnknownParam(name.to_string()))
    }
}

/// Cache key for an index: (relation name, indexed positions).
type IndexKey = (String, Vec<usize>);

/// A catalog layered over another, overriding some relation names.
/// Used to bind formal relation parameters (`FOR Rel: …(Ontop: …)`)
/// without copying the base catalog.
pub struct Overlay<'a> {
    base: &'a dyn Catalog,
    overrides: Vec<(String, Relation)>,
    /// Indexes over override relations, built lazily on executor demand
    /// (or preloaded by a caller that maintains them incrementally, see
    /// `dc-core`'s fixpoint solver) and harvestable afterwards.
    indexes: RefCell<FxHashMap<IndexKey, Arc<HashIndex>>>,
    /// Statistics over override relations, same lifecycle as `indexes`:
    /// preloaded by callers that maintain them incrementally, computed
    /// lazily on planner demand otherwise, harvestable afterwards.
    stats: RefCell<FxHashMap<String, Arc<RelationStats>>>,
    /// Override names whose indexes the caller will not keep (see
    /// [`Catalog::throwaway_index`]).
    throwaway: Vec<String>,
    /// Where demand-built indexes are counted ([`Counter::IndexBuilds`]).
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<'a> Overlay<'a> {
    /// Layer `overrides` over `base`.
    pub fn new(base: &'a dyn Catalog, overrides: Vec<(String, Relation)>) -> Overlay<'a> {
        Overlay {
            base,
            overrides,
            indexes: RefCell::new(FxHashMap::default()),
            stats: RefCell::new(FxHashMap::default()),
            throwaway: Vec::new(),
            metrics: None,
        }
    }

    /// Count every index this overlay builds on demand into `metrics`.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Overlay<'a> {
        self.metrics = Some(metrics);
        self
    }

    /// Flag the override relation `name` as one whose indexes the
    /// caller discards after this evaluation, so the planner charges
    /// their build to the join orders that probe it.
    pub fn mark_throwaway(&mut self, name: impl Into<String>) {
        self.throwaway.push(name.into());
    }

    /// Install a prebuilt index for an override relation. The index must
    /// describe exactly the relation registered under `name`.
    pub fn preload_index(&mut self, name: impl Into<String>, idx: Arc<HashIndex>) {
        let key = (name.into(), idx.positions().to_vec());
        self.indexes.borrow_mut().insert(key, idx);
    }

    /// Install precomputed statistics for an override relation. The
    /// snapshot must describe exactly the relation registered under
    /// `name`.
    pub fn preload_stats(&mut self, name: impl Into<String>, stats: Arc<RelationStats>) {
        self.stats.borrow_mut().insert(name.into(), stats);
    }

    /// All indexes currently cached (preloaded or demand-built), so a
    /// long-lived caller can carry them into the next evaluation round.
    pub fn harvest_indexes(&self) -> Vec<(String, Arc<HashIndex>)> {
        self.indexes
            .borrow()
            .iter()
            .map(|((n, _), idx)| (n.clone(), idx.clone()))
            .collect()
    }

    /// All statistics currently cached (preloaded or demand-computed),
    /// the statistics counterpart of [`Overlay::harvest_indexes`].
    pub fn harvest_stats(&self) -> Vec<(String, Arc<RelationStats>)> {
        self.stats
            .borrow()
            .iter()
            .map(|(n, s)| (n.clone(), s.clone()))
            .collect()
    }

    /// May a decorrelation entry for `range` be shared through the base
    /// catalog's solver-scoped cache? Only if the range resolves no
    /// name this overlay overrides: two overlays over the same base can
    /// bind different relations to one formal name (fixpoint equations
    /// do exactly that), so an entry built under one overlay must not
    /// be served under another. The check expands selector predicates
    /// transitively — a selector body may reference relations by name
    /// too — and refuses on any unresolvable selector.
    fn decorr_shareable(&self, range: &RangeExpr) -> bool {
        if self.overrides.is_empty() {
            return true;
        }
        let mut rels = rewrite::relation_names(range);
        let mut pending: Vec<Name> = rewrite::selector_names(range).into_iter().collect();
        let mut seen: FxHashSet<Name> = FxHashSet::default();
        while let Some(s) = pending.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            let Ok(def) = self.selector(&s) else {
                return false;
            };
            rels.extend(rewrite::relation_names_formula(&def.predicate));
            pending.extend(rewrite::selector_names_formula(&def.predicate));
        }
        !self.overrides.iter().any(|(n, _)| rels.contains(n))
    }
}

impl Catalog for Overlay<'_> {
    fn relation(&self, name: &str) -> Result<Relation, EvalError> {
        if let Some((_, r)) = self.overrides.iter().find(|(n, _)| n == name) {
            return Ok(r.clone());
        }
        self.base.relation(name)
    }

    fn index(&self, name: &str, positions: &[usize]) -> Option<Arc<HashIndex>> {
        match self.overrides.iter().find(|(n, _)| n == name) {
            Some((_, rel)) => {
                let key = (name.to_string(), positions.to_vec());
                let mut cache = self.indexes.borrow_mut();
                Some(
                    cache
                        .entry(key)
                        .or_insert_with(|| {
                            if let Some(m) = &self.metrics {
                                m.inc(Counter::IndexBuilds);
                            }
                            Arc::new(HashIndex::build(rel, positions.to_vec()))
                        })
                        .clone(),
                )
            }
            None => self.base.index(name, positions),
        }
    }

    fn throwaway_index(&self, name: &str) -> bool {
        if self.overrides.iter().any(|(n, _)| n == name) {
            return self.throwaway.iter().any(|n| n == name);
        }
        self.base.throwaway_index(name)
    }

    fn stats(&self, name: &str) -> Option<Arc<RelationStats>> {
        match self.overrides.iter().find(|(n, _)| n == name) {
            Some((_, rel)) => {
                let mut cache = self.stats.borrow_mut();
                Some(
                    cache
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(RelationStats::collect(rel)))
                        .clone(),
                )
            }
            None => self.base.stats(name),
        }
    }

    fn selector(&self, name: &str) -> Result<&SelectorDef, EvalError> {
        self.base.selector(name)
    }

    fn decorr_entry(&self, range: &RangeExpr) -> Option<DecorrCached> {
        if !self.decorr_shareable(range) {
            return None;
        }
        self.base.decorr_entry(range)
    }

    fn cache_decorr_entry(&self, range: &RangeExpr, entry: DecorrCached) {
        if self.decorr_shareable(range) {
            self.base.cache_decorr_entry(range, entry);
        }
    }

    fn apply_constructor(
        &self,
        base: Relation,
        name: &str,
        args: Vec<Relation>,
        scalar_args: Vec<Value>,
    ) -> Result<Relation, EvalError> {
        self.base.apply_constructor(base, name, args, scalar_args)
    }

    fn scalar_param(&self, name: &str) -> Result<Value, EvalError> {
        self.base.scalar_param(name)
    }

    fn version(&self) -> u64 {
        // Overrides are immutable for the overlay's lifetime; only the
        // base can change underneath an evaluator.
        self.base.version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_value::{tuple, Domain, Schema};

    fn rel() -> Relation {
        Relation::from_tuples(
            Schema::of(&[("x", Domain::Int)]),
            vec![tuple![1i64], tuple![2i64]],
        )
        .unwrap()
    }

    #[test]
    fn map_catalog_resolution() {
        let cat = MapCatalog::new()
            .with_relation("R", rel())
            .with_param("P", Value::Int(9));
        assert_eq!(cat.relation("R").unwrap().len(), 2);
        assert!(matches!(
            cat.relation("S"),
            Err(EvalError::UnknownRelation(_))
        ));
        assert_eq!(cat.scalar_param("P").unwrap(), Value::Int(9));
        assert!(cat.selector("s").is_err());
        assert!(cat.apply_constructor(rel(), "c", vec![], vec![]).is_err());
    }

    #[test]
    fn insert_relation_replaces() {
        let mut cat = MapCatalog::new().with_relation("R", rel());
        let empty = Relation::new(Schema::of(&[("x", Domain::Int)]));
        cat.insert_relation("R", empty);
        assert!(cat.relation("R").unwrap().is_empty());
    }

    #[test]
    fn overlay_shadows_base() {
        let cat = MapCatalog::new().with_relation("R", rel());
        let empty = Relation::new(Schema::of(&[("x", Domain::Int)]));
        let ov = Overlay::new(&cat, vec![("R".into(), empty)]);
        assert!(ov.relation("R").unwrap().is_empty());
        // Non-overridden names fall through.
        assert!(matches!(
            ov.relation("S"),
            Err(EvalError::UnknownRelation(_))
        ));
    }

    #[test]
    fn overlay_flags_throwaway_overrides_and_counts_builds() {
        let cat = MapCatalog::new().with_relation("R", rel());
        let metrics = Arc::new(MetricsRegistry::default());
        let mut ov = Overlay::new(&cat, vec![("D".into(), rel()), ("K".into(), rel())])
            .with_metrics(metrics.clone());
        ov.mark_throwaway("D");
        assert!(ov.throwaway_index("D"));
        assert!(!ov.throwaway_index("K"));
        assert!(!ov.throwaway_index("R"), "base names answer for themselves");
        // One build per (name, positions); repeats are served cached.
        assert!(ov.index("D", &[0]).is_some());
        assert!(ov.index("D", &[0]).is_some());
        assert!(ov.index("K", &[0]).is_some());
        assert!(ov.index("R", &[0]).is_none());
        assert_eq!(metrics.snapshot().index_builds, 2);
    }

    #[test]
    fn constructor_fn_hook() {
        let cat =
            MapCatalog::new().with_constructor_fn("identity", Box::new(|base, _args| Ok(base)));
        let out = cat
            .apply_constructor(rel(), "identity", vec![], vec![])
            .unwrap();
        assert_eq!(out.len(), 2);
    }
}
