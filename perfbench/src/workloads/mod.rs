//! The three workloads and the helpers they share.

pub mod quantifier_reads;
pub mod recursive_solve;
pub mod standing_rw;

use std::collections::HashSet;

use dc_core::Database;
use dc_relation::Relation;
use dc_server::{PreparedQuery, Server, WriteBatch};
use dc_value::{Schema, Tuple, Value};

use crate::oracle::Pair;
use crate::rng::Rng;
use crate::spans;

/// Seed of every generated database. The workload seed drives the
/// operation stream only: a scene's few random cross-row edges (or a
/// staffing instance's random assignments) change the cost of every
/// solve and read by more than the benchmark's bounds, so varying them
/// per seed would measure the data, not the program.
pub const DATA_SEED: u64 = 1;

/// A query builder from `dc_bench`.
pub type Query = fn() -> dc_calculus::RangeExpr;

/// `Server::begin` plus one prepared `Session::query`, inside the
/// benchmark's own spans.
pub fn read(server: &Server, query: &PreparedQuery) -> Result<Relation, String> {
    let session = {
        let _s = spans::client("client.begin");
        server.begin()
    };
    let _s = spans::client("client.query");
    session.query(query).map_err(|e| e.to_string())
}

/// `Server::commit` inside the benchmark's own span.
pub fn commit(server: &Server, batch: &WriteBatch) -> Result<u64, String> {
    let _s = spans::client("client.commit");
    server.commit(batch).map_err(|e| e.to_string())
}

/// Declare `name` with `schema` and load `tuples` into it.
pub fn load<'a>(
    db: &mut Database,
    name: &str,
    schema: Schema,
    tuples: impl IntoIterator<Item = &'a Tuple>,
) -> Result<(), String> {
    db.create_relation(name, schema)
        .map_err(|e| e.to_string())?;
    for t in tuples {
        db.insert(name, t.clone()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A binary relation of strings as a set of pairs.
pub fn pairs(rel: &Relation) -> Result<HashSet<Pair>, String> {
    rel.iter().map(pair_of).collect()
}

/// The pairs of a binary relation of strings, sorted.
pub fn pair_list(rel: &Relation) -> Result<Vec<Pair>, String> {
    let mut v = rel.iter().map(pair_of).collect::<Result<Vec<_>, _>>()?;
    v.sort();
    Ok(v)
}

fn pair_of(t: &Tuple) -> Result<Pair, String> {
    match t.fields() {
        [a, b] => Ok((text(a)?, text(b)?)),
        _ => Err(format!("expected a binary tuple, got {t:?}")),
    }
}

fn text(v: &Value) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("expected a string, got {v:?}"))
}

/// A pair as an engine tuple.
pub fn tuple(p: &Pair) -> Tuple {
    Tuple::new(vec![Value::str(&p.0), Value::str(&p.1)])
}

/// Compare an engine answer with the oracle's.
pub fn same(what: &str, engine: &Relation, expected: &HashSet<Pair>) -> Result<(), String> {
    let got = pairs(engine)?;
    if &got == expected {
        return Ok(());
    }
    let missing = expected.difference(&got).count();
    let extra = got.difference(expected).count();
    Err(format!(
        "{what}: engine has {} rows, oracle {} ({missing} missing, {extra} extra)",
        got.len(),
        expected.len()
    ))
}

/// The object named by a scene position.
fn obj(row: usize, depth: usize) -> String {
    format!("obj_{row}_{depth}")
}

/// Draws new cross-row `Infront` edges `(r, d) → (r2, d + 1)` for a
/// scene of `rows` × `depth` objects. Like the scene generator's own
/// cross-row edges they keep the graph a DAG.
///
/// An edge's cost to the engine depends on its rows (how much of the
/// graph reaches row `r` up to depth `d`, and how much row `r2` reaches
/// from `d + 1`) and on `d`. So draws are stratified: source rows come
/// round-robin in a seeded order, each source cycles through its target
/// rows from a seeded offset, and `d` stays within `band` depths around
/// the middle, where every edge adds about the same number of `ahead`
/// pairs ((d + 1)(depth − d − 1), within 5% for a band of a quarter of
/// the depth). Every seed then inserts nearly the same mix of edges, in
/// its own order.
pub struct EdgeSource {
    rows: usize,
    /// The first depth of the band.
    from: usize,
    band: usize,
    /// Source rows in the seed's order.
    order: Vec<usize>,
    /// Per source row, the next target-row offset.
    offset: Vec<usize>,
    draws: usize,
    /// Edges of the scene and edges drawn before: never drawn (again).
    taken: HashSet<Pair>,
}

impl EdgeSource {
    pub fn new(
        rows: usize,
        depth: usize,
        band: usize,
        scene: &[Pair],
        rng: &mut Rng,
    ) -> EdgeSource {
        let mut order: Vec<usize> = (0..rows).collect();
        rng.shuffle(&mut order);
        EdgeSource {
            rows,
            from: depth / 2 - band / 2,
            band,
            order,
            offset: (0..rows).map(|_| rng.below(rows - 1)).collect(),
            draws: 0,
            taken: scene.iter().cloned().collect(),
        }
    }

    /// A new edge. Panics once every edge of the band has been drawn,
    /// which takes a run far longer than the benchmark's.
    pub fn draw(&mut self, rng: &mut Rng) -> Pair {
        let r = self.order[self.draws % self.rows];
        self.draws += 1;
        for _ in 0..self.rows * self.band * 8 {
            let r2 = (r + 1 + self.offset[r] % (self.rows - 1)) % self.rows;
            self.offset[r] += 1;
            let d = self.from + rng.below(self.band);
            let e = (obj(r, d), obj(r2, d + 1));
            if self.taken.insert(e.clone()) {
                return e;
            }
        }
        panic!("no undrawn edge left in the scene: run fewer operations");
    }
}
