//! `standing_rw`: reads beside writes on a 16×48 scene with two
//! standing subscriptions, a solve-kind mutual `ahead` and a query-kind
//! visibility query.
//!
//! The seeded mix per 1000 operations: [`READS`] prepared reads,
//! [`INSERTS`] `Infront` insert commits (the `ahead` subscription
//! refreshes warm), [`DELETES`] commits deleting the edges inserted
//! since the last delete (cold re-solve and diff), and [`OBJECTS`] `Objects`-only
//! commits (both subscriptions skip). Commits drop the warm index,
//! statistics and decorrelation entries that `quantifier_reads` always
//! hits, so a change that speeds reads by making publication costlier,
//! or the reverse, shows here.

use std::collections::HashSet;

use dc_core::{paper, Database};
use dc_relation::{algebra, Relation};
use dc_server::{PreparedQuery, Server, Subscription, SubscriptionUpdate, WriteBatch};
use dc_value::Value;

use super::{commit, load, pair_list, pairs, read, same, tuple, EdgeSource, Query};
use crate::harness::{stopwatch, timed, Kind, SetupParts, Timed, Workload};
use crate::oracle::{self, Pair};
use crate::rng::Rng;

const ROWS: usize = 16;
const DEPTH: usize = 48;

/// The op mix per 1000 operations. A delete removes every edge
/// inserted since the previous delete, so the scene stays the same size
/// and a cold re-solve costs about the same all run long.
///
/// Commits fall into four latency modes: skipped (`OBJECTS`, 30% of
/// commits), warm after a warm refresh (40%), the first warm refresh
/// after a cold one (15%; it rebuilds what the cold solve left, and
/// takes about twice as long), and cold (`DELETES`, 15%). The shares put
/// the commit p50 in the middle of the second mode and the p95 well
/// inside the last.
const READS: usize = 610;
const INSERTS: usize = 215;
const DELETES: usize = 58;
const OBJECTS: usize = 117;
/// Inserted edges start at one of this many middle depths: a warm
/// refresh runs about as many rounds as the edge's front row is deep,
/// so a narrow band keeps warm commits in one tight latency mode.
const EDGE_BAND: usize = 2;
const _: () = assert!(READS + INSERTS + DELETES + OBJECTS == 1000);

/// The prepared reads (the scene's quantifier queries).
const QUERIES: [(&str, Query); 4] = [
    ("visibility", dc_bench::visibility_query),
    ("front_row", dc_bench::front_row_query),
    ("stacked_back", dc_bench::stacked_back_query),
    ("unburdened_front", dc_bench::unburdened_front_query),
];

pub struct StandingRw;

pub struct Data {
    scene: dc_workload::Scene,
    infront: Vec<Pair>,
    ontop: Vec<Pair>,
}

/// A standing query with its updates folded so far.
struct Standing {
    sub: Subscription,
    folded: Relation,
    epoch: u64,
}

impl Standing {
    fn open(server: &Server, q: &PreparedQuery) -> Result<Standing, String> {
        let sub = server.subscribe(q).map_err(|e| e.to_string())?;
        let first = next_update(&sub)?;
        Ok(Standing {
            sub,
            folded: first.added,
            epoch: first.epoch,
        })
    }

    fn fold(&mut self, u: &SubscriptionUpdate) -> Result<(), String> {
        if u.epoch != self.epoch + 1 {
            return Err(format!("update for epoch {} after {}", u.epoch, self.epoch));
        }
        self.epoch = u.epoch;
        let kept = algebra::difference(&self.folded, &u.removed).map_err(|e| e.to_string())?;
        self.folded = algebra::union(&kept, &u.added).map_err(|e| e.to_string())?;
        Ok(())
    }
}

fn next_update(sub: &Subscription) -> Result<SubscriptionUpdate, String> {
    let _s = crate::spans::client("client.recv");
    match sub.recv() {
        Some(Ok(u)) => Ok(u),
        Some(Err(e)) => Err(format!("subscription failed: {e}")),
        None => Err("subscription closed".into()),
    }
}

pub struct Env {
    server: Server,
    queries: Vec<PreparedQuery>,
    ahead: Standing,
    visibility: Standing,
    /// `Infront` as the benchmark's own bookkeeping has it.
    infront: HashSet<Pair>,
    ontop: Vec<Pair>,
    /// No insert has refreshed `ahead` warm since its last cold solve.
    after_cold: bool,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Read(usize),
    Insert(Pair),
    Delete(Vec<Pair>),
    Object(String),
}

pub enum Outcome {
    Read(Relation),
    Commit([SubscriptionUpdate; 2]),
}

impl Workload for StandingRw {
    type Data = Data;
    type Env = Env;
    type Op = Op;
    type Outcome = Outcome;

    const PRIMARY: Kind = Kind::Commit;
    const SETUPS: usize = 15;
    const OPS_PER_SECOND: usize = 90;
    const MIN_OPS: usize = 600;

    fn generate() -> Data {
        let scene = dc_workload::scene(ROWS, DEPTH, 2, super::DATA_SEED);
        Data {
            infront: pair_list(&scene.infront).expect("scene edges are string pairs"),
            ontop: pair_list(&scene.ontop).expect("scene stacks are string pairs"),
            scene,
        }
    }

    fn setup(data: &Data, parts: &mut SetupParts) -> Result<Env, String> {
        let mut db = dc_bench::scene_db(&data.scene);
        db.define_constructors(vec![paper::ahead_mutual(), paper::above()])
            .map_err(|e| e.to_string())?;
        db.set_threads(1);
        let server = Server::new(db);
        let (prepared, ms) = stopwatch(|| {
            let solve = server.prepare_solve("Infront", "ahead", &["Ontop"], vec![])?;
            let reads = QUERIES
                .iter()
                .map(|(_, q)| server.prepare(&q()))
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, dc_server::ServerError>((solve, reads))
        });
        parts.prepare_ms += ms;
        let (solve, queries) = prepared.map_err(|e| e.to_string())?;
        let (subs, ms) = stopwatch(|| {
            Ok::<_, String>((
                Standing::open(&server, &solve)?,
                Standing::open(&server, &queries[0])?,
            ))
        });
        parts.initial_delivery_ms += ms;
        let (ahead, visibility) = subs?;
        for q in &queries {
            read(&server, q)?;
        }
        Ok(Env {
            server,
            queries,
            ahead,
            visibility,
            infront: data.infront.iter().cloned().collect(),
            ontop: data.ontop.clone(),
            after_cold: true,
        })
    }

    fn schedule(data: &Data, seed: u64, n: usize) -> Vec<Op> {
        let mut rng = Rng::new(seed, 3);
        let share = |per_mille: usize| n * per_mille / 1000;
        let (inserts, deletes, objects) = (share(INSERTS), share(DELETES), share(OBJECTS));
        let mut kinds: Vec<u8> = [(1u8, inserts), (2, deletes), (3, objects)]
            .iter()
            .flat_map(|&(k, c)| std::iter::repeat_n(k, c))
            .collect();
        kinds.resize(n, 0);
        rng.shuffle(&mut kinds);
        let mut edges = EdgeSource::new(ROWS, DEPTH, EDGE_BAND, &data.infront, &mut rng);
        let mut live: Vec<Pair> = Vec::new();
        let mut ops = Vec::with_capacity(n);
        for i in 0..n {
            // A delete with nothing to delete trades places with the
            // next insert, or at the very end becomes an `Objects` commit.
            if kinds[i] == 2 && live.is_empty() {
                match (i + 1..n).find(|&j| kinds[j] == 1) {
                    Some(j) => kinds.swap(i, j),
                    None => kinds[i] = 3,
                }
            }
            ops.push(match kinds[i] {
                1 => {
                    let e = edges.draw(&mut rng);
                    live.push(e.clone());
                    Op::Insert(e)
                }
                2 => Op::Delete(std::mem::take(&mut live)),
                3 => Op::Object(format!("extra_{i}")),
                _ => Op::Read(rng.below(QUERIES.len())),
            });
        }
        ops
    }

    fn run(env: &mut Env, op: &Op, out: &mut Vec<Timed>) -> Result<Outcome, String> {
        let (batch, class) = match op {
            Op::Read(q) => {
                return timed(out, Kind::Read, QUERIES[*q].0, || {
                    read(&env.server, &env.queries[*q]).map(Outcome::Read)
                });
            }
            Op::Insert(e) => {
                let class = if env.after_cold {
                    "warm_after_cold"
                } else {
                    "warm"
                };
                env.after_cold = false;
                (WriteBatch::new().insert("Infront", tuple(e)), class)
            }
            Op::Delete(es) => {
                let mut b = WriteBatch::new();
                for e in es {
                    b.push_delete("Infront", tuple(e));
                }
                env.after_cold = true;
                (b, "cold")
            }
            Op::Object(name) => (
                WriteBatch::new().insert("Objects", dc_value::Tuple::new(vec![Value::str(name)])),
                "skipped",
            ),
        };
        timed(out, Kind::Commit, class, || {
            commit(&env.server, &batch)?;
            Ok(Outcome::Commit([
                next_update(&env.ahead.sub)?,
                next_update(&env.visibility.sub)?,
            ]))
        })
    }

    fn check(env: &mut Env, op: &Op, outcome: Outcome) -> Result<(), String> {
        match (op, outcome) {
            (Op::Read(q), Outcome::Read(rows)) => {
                // The visibility read must equal the folded standing
                // visibility query at the same epoch.
                if *q == 0 && rows != env.visibility.folded {
                    return Err(format!(
                        "visibility read has {} rows, its subscription {}",
                        rows.len(),
                        env.visibility.folded.len()
                    ));
                }
                Ok(())
            }
            (_, Outcome::Commit([ahead, visibility])) => {
                let expect_warm = match op {
                    Op::Insert(e) => {
                        env.infront.insert(e.clone());
                        true
                    }
                    Op::Delete(es) => {
                        for e in es {
                            env.infront.remove(e);
                        }
                        false
                    }
                    _ => true,
                };
                if ahead.warm != expect_warm {
                    return Err(format!("ahead refresh warm={} after {op:?}", ahead.warm));
                }
                env.ahead.fold(&ahead)?;
                env.visibility.fold(&visibility)
            }
            _ => Err("outcome does not match the operation".into()),
        }
    }

    fn finish(env: &mut Env) -> Result<(), String> {
        let infront: Vec<Pair> = env.infront.iter().cloned().collect();
        let stored = pairs(
            &env.server
                .begin()
                .read("Infront")
                .map_err(|e| e.to_string())?,
        )?;
        if stored != env.infront {
            return Err("the server's Infront differs from the committed edges".into());
        }
        // Folded deltas against a cold solve on a fresh database …
        let mut db = Database::new();
        db.set_threads(1);
        let edges: Vec<_> = infront.iter().map(tuple).collect();
        let stacks: Vec<_> = env.ontop.iter().map(tuple).collect();
        load(&mut db, "Infront", paper::infrontrel(), &edges)?;
        load(&mut db, "Ontop", paper::ontoprel(), &stacks)?;
        db.define_constructors(vec![paper::ahead_mutual(), paper::above()])
            .map_err(|e| e.to_string())?;
        let cold = db
            .eval(
                &dc_calculus::builder::rel("Infront")
                    .construct("ahead", vec![dc_calculus::builder::rel("Ontop")]),
            )
            .map_err(|e| e.to_string())?;
        if cold != env.ahead.folded {
            return Err(format!(
                "folded ahead has {} rows, a cold solve {}",
                env.ahead.folded.len(),
                cold.len()
            ));
        }
        // … and against the hand-written oracles.
        same(
            "folded ahead",
            &env.ahead.folded,
            &oracle::ahead_mutual(&infront, &env.ontop),
        )?;
        same(
            "folded visibility",
            &env.visibility.folded,
            &oracle::visibility(&infront, &env.ontop),
        )
    }

    fn server(env: &Env) -> &Server {
        &env.server
    }
}
