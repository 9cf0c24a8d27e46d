//! `recursive_solve`: the paper's §3.1 mutual `ahead`/`above` system,
//! solved cold after every one-edge commit.
//!
//! Each operation commits one new `Infront` edge, keeping a rolling
//! window of [`WINDOW`] inserted edges, then runs the prepared solve
//! through `Session::query`. Every inserted edge is new, so every
//! catalog state is new and every solve misses the solved memo (which
//! keeps every result resident: see `server.rss_growth_mb_per_100_ops`),
//! and every solve does about the same work. Nearly
//! all the work is `dc-core` fixpoint rounds and the `dc-calculus` join
//! planner and evaluator. Quantifier probes, decorrelation and
//! subscriptions are bypassed.

use std::collections::{HashSet, VecDeque};

use dc_core::{paper, Database};
use dc_relation::Relation;
use dc_server::{PreparedQuery, Server, WriteBatch};

use super::{load, pairs, read, same, tuple, EdgeSource};
use crate::harness::{timed, Kind, SetupParts, Timed, Workload};
use crate::oracle::{self, Pair};
use crate::rng::Rng;

/// Scene shape: rows × depth objects, one stacked item every 2nd.
const ROWS: usize = 8;
const DEPTH: usize = 32;
const STACK_EVERY: usize = 2;
/// Inserted edges kept before the oldest is deleted again.
const WINDOW: usize = 2;
/// One operation in this many (and always the last) is checked against
/// the hand-written closure.
const CHECK_EVERY: usize = 8;

pub struct RecursiveSolve;

pub struct Data {
    infront: Vec<Pair>,
    ontop: Vec<Pair>,
}

pub struct Env {
    server: Server,
    solve: PreparedQuery,
    /// `Infront` as the benchmark's own bookkeeping has it.
    infront: HashSet<Pair>,
    ontop: Vec<Pair>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    insert: Pair,
    delete: Option<Pair>,
    check: bool,
}

impl Workload for RecursiveSolve {
    type Data = Data;
    type Env = Env;
    type Op = Op;
    type Outcome = Relation;

    const PRIMARY: Kind = Kind::Solve;
    const SETUPS: usize = 15;
    const OPS_PER_SECOND: usize = 44;
    const MIN_OPS: usize = 440;

    fn generate() -> Data {
        let scene = dc_workload::scene(ROWS, DEPTH, STACK_EVERY, super::DATA_SEED);
        Data {
            infront: super::pair_list(&scene.infront).expect("scene edges are string pairs"),
            ontop: super::pair_list(&scene.ontop).expect("scene stacks are string pairs"),
        }
    }

    fn setup(data: &Data, parts: &mut SetupParts) -> Result<Env, String> {
        let mut db = Database::new();
        db.set_threads(1);
        let infront: Vec<_> = data.infront.iter().map(tuple).collect();
        let ontop: Vec<_> = data.ontop.iter().map(tuple).collect();
        load(&mut db, "Infront", paper::infrontrel(), &infront)?;
        load(&mut db, "Ontop", paper::ontoprel(), &ontop)?;
        db.define_constructors(vec![paper::ahead_mutual(), paper::above()])
            .map_err(|e| e.to_string())?;
        let server = Server::new(db);
        let (solve, ms) = crate::harness::stopwatch(|| {
            server.prepare_solve("Infront", "ahead", &["Ontop"], vec![])
        });
        parts.prepare_ms += ms;
        let solve = solve.map_err(|e| e.to_string())?;
        // Warm-up: one untimed solve of the initial state.
        read(&server, &solve)?;
        Ok(Env {
            server,
            solve,
            infront: data.infront.iter().cloned().collect(),
            ontop: data.ontop.clone(),
        })
    }

    fn schedule(data: &Data, seed: u64, n: usize) -> Vec<Op> {
        let mut rng = Rng::new(seed, 1);
        let mut edges = EdgeSource::new(ROWS, DEPTH, DEPTH / 4, &data.infront, &mut rng);
        let mut window: VecDeque<Pair> = VecDeque::new();
        (0..n)
            .map(|i| {
                let insert = edges.draw(&mut rng);
                window.push_back(insert.clone());
                let delete = (window.len() > WINDOW)
                    .then(|| window.pop_front())
                    .flatten();
                Op {
                    insert,
                    delete,
                    check: i + 1 == n || rng.below(CHECK_EVERY) == 0,
                }
            })
            .collect()
    }

    fn run(env: &mut Env, op: &Op, out: &mut Vec<Timed>) -> Result<Relation, String> {
        let mut batch = WriteBatch::new().insert("Infront", tuple(&op.insert));
        if let Some(d) = &op.delete {
            batch.push_delete("Infront", tuple(d));
        }
        timed(out, Kind::Commit, "publish", || {
            super::commit(&env.server, &batch)
        })?;
        let session = {
            let _s = crate::spans::client("client.begin");
            env.server.begin()
        };
        timed(out, Kind::Solve, "cold", || {
            let _s = crate::spans::client("client.query");
            session.query(&env.solve).map_err(|e| e.to_string())
        })
    }

    fn check(env: &mut Env, op: &Op, ahead: Relation) -> Result<(), String> {
        env.infront.insert(op.insert.clone());
        if let Some(d) = &op.delete {
            env.infront.remove(d);
        }
        if !op.check {
            return Ok(());
        }
        let infront: Vec<Pair> = env.infront.iter().cloned().collect();
        same("ahead", &ahead, &oracle::ahead_mutual(&infront, &env.ontop))
    }

    fn finish(env: &mut Env) -> Result<(), String> {
        let stored = pairs(
            &env.server
                .begin()
                .read("Infront")
                .map_err(|e| e.to_string())?,
        )?;
        if stored != env.infront {
            return Err("the server's Infront differs from the committed edges".into());
        }
        Ok(())
    }

    fn server(env: &Env) -> &Server {
        &env.server
    }
}
