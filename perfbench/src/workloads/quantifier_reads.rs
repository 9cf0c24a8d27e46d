//! `quantifier_reads`: read-only traffic of the six prepared quantifier
//! queries against one server holding a 60×60 scene and a staffing
//! instance.
//!
//! Each operation is `Server::begin` plus one prepared `Session::query`,
//! the query drawn from a seeded mix. After warm-up every index,
//! statistics and decorrelation entry is cached, so the run isolates
//! the planner, index-probe and decorrelated-probe read path and the
//! opening of a session; it runs no fixpoint solve and no commit.

use dc_core::Database;
use dc_relation::Relation;
use dc_server::{PreparedQuery, Server};

use super::{load, read, Query};
use crate::harness::{stopwatch, timed, Kind, SetupParts, Timed, Workload};
use crate::rng::Rng;

/// Every this many reads (on average) also compares the full digest.
const DIGEST_EVERY: usize = 8;

/// The six queries and their shares of the mix (per 100 reads). The
/// weights place the p50 inside one query's latency mode and the p95
/// inside another's (see `harness::placement`).
const QUERIES: [(&str, Query, usize); 6] = [
    ("visibility", dc_bench::visibility_query, 6),
    ("front_row", dc_bench::front_row_query, 15),
    ("stacked_back", dc_bench::stacked_back_query, 8),
    ("unburdened_front", dc_bench::unburdened_front_query, 6),
    ("servable", dc_bench::servable_request_query, 25),
    ("avoids_w0", dc_bench::avoids_w0_request_query, 40),
];

/// The query whose latency mode holds the mix's median (it takes any
/// rounding remainder of the counts).
const P50_QUERY: usize = 5;
const _: () = assert!(
    QUERIES[0].2 + QUERIES[1].2 + QUERIES[2].2 + QUERIES[3].2 + QUERIES[4].2 + QUERIES[5].2 == 100
);

pub struct QuantifierReads;

pub struct Data {
    scene: dc_workload::Scene,
    staffing: dc_workload::Staffing,
    /// Per query: row count and digest from the reference nested-loop
    /// path.
    expected: Vec<(usize, u128)>,
}

pub struct Env {
    server: Server,
    queries: Vec<PreparedQuery>,
    expected: Vec<(usize, u128)>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    query: usize,
    digest: bool,
}

/// The scene and staffing data in one database, served by one thread.
fn database(
    scene: &dc_workload::Scene,
    staffing: &dc_workload::Staffing,
) -> Result<Database, String> {
    let mut db = dc_bench::scene_db(scene);
    for (name, rel) in [
        ("Assign", &staffing.assign),
        ("Skill", &staffing.skill),
        ("Requests", &staffing.requests),
    ] {
        load(&mut db, name, rel.schema().clone(), rel.iter())?;
    }
    db.set_threads(1);
    Ok(db)
}

impl Workload for QuantifierReads {
    type Data = Data;
    type Env = Env;
    type Op = Op;
    type Outcome = Relation;

    const PRIMARY: Kind = Kind::Read;
    const SETUPS: usize = 15;
    const OPS_PER_SECOND: usize = 300;
    const MIN_OPS: usize = 400;

    fn generate() -> Data {
        let scene = dc_workload::scene(60, 60, 2, super::DATA_SEED);
        let staffing = dc_workload::staffing(200, 80, 40, 2, 3, 200, super::DATA_SEED);
        let mut reference = database(&scene, &staffing).expect("generated data loads");
        reference.set_use_indexes(false);
        let expected = QUERIES
            .iter()
            .map(|(name, q, _)| {
                let r = reference
                    .eval(&q())
                    .unwrap_or_else(|e| panic!("reference evaluation of {name} failed: {e}"));
                (r.len(), r.digest())
            })
            .collect();
        Data {
            scene,
            staffing,
            expected,
        }
    }

    fn setup(data: &Data, parts: &mut SetupParts) -> Result<Env, String> {
        let server = Server::new(database(&data.scene, &data.staffing)?);
        let (queries, ms) = stopwatch(|| {
            QUERIES
                .iter()
                .map(|(_, q, _)| server.prepare(&q()))
                .collect::<Result<Vec<_>, _>>()
        });
        parts.prepare_ms += ms;
        let queries = queries.map_err(|e| e.to_string())?;
        // Warm-up: one untimed read per query fills the epoch's caches.
        for q in &queries {
            read(&server, q)?;
        }
        Ok(Env {
            server,
            queries,
            expected: data.expected.clone(),
        })
    }

    fn schedule(_data: &Data, seed: u64, n: usize) -> Vec<Op> {
        let mut rng = Rng::new(seed, 2);
        // Exact counts per query, shuffled: the mix, and with it the
        // percentile placement, is the same for every seed.
        let mut picks: Vec<usize> = QUERIES
            .iter()
            .enumerate()
            .flat_map(|(i, q)| std::iter::repeat_n(i, n * q.2 / 100))
            .collect();
        picks.resize(n, P50_QUERY);
        rng.shuffle(&mut picks);
        picks
            .into_iter()
            .map(|query| Op {
                query,
                digest: rng.below(DIGEST_EVERY) == 0,
            })
            .collect()
    }

    fn run(env: &mut Env, op: &Op, out: &mut Vec<Timed>) -> Result<Relation, String> {
        timed(out, Kind::Read, QUERIES[op.query].0, || {
            read(&env.server, &env.queries[op.query])
        })
    }

    fn check(env: &mut Env, op: &Op, rows: Relation) -> Result<(), String> {
        let (len, digest) = env.expected[op.query];
        let name = QUERIES[op.query].0;
        if rows.len() != len {
            return Err(format!("{name}: {} rows, reference {len}", rows.len()));
        }
        if op.digest && rows.digest() != digest {
            return Err(format!("{name}: digest differs from the reference"));
        }
        Ok(())
    }

    fn finish(env: &mut Env) -> Result<(), String> {
        let c = env.server.metrics().snapshot();
        if c.commits != 0 || c.solve_runs != 0 {
            return Err(format!(
                "a read-only workload ran {} commits and {} solves",
                c.commits, c.solve_runs
            ));
        }
        Ok(())
    }

    fn server(env: &Env) -> &Server {
        &env.server
    }
}
