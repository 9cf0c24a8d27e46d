//! The concurrent serving layer: snapshot-isolated sessions over an
//! MVCC commit path.
//!
//! This crate promotes the engine from a library with an internal
//! solver to a concurrently *served* system — the ROADMAP's
//! "millions of users" story. The design leans on invariants the lower
//! layers already guarantee:
//!
//! * **COW relations** ([`dc_relation::Relation`]): cloning a relation
//!   map is O(handles), so building a snapshot — or a writer's private
//!   overlay — never copies tuple sets.
//! * **Memoised content digests**: snapshot publication forces each
//!   relation's digest memo once and shares it with every pinned
//!   handle ([`Relation::snapshot_handle`]), so sessions read digests
//!   and build content-addressed solve keys at O(1).
//! * **Snapshot-evaluated solves**: a session's fixpoint runs reuse the
//!   solver's frozen-snapshot rounds unchanged — the catalog a session
//!   exposes simply never changes underneath them.
//!
//! # Shape
//!
//! [`Server::new`] takes over a fully defined [`dc_core::Database`]
//! and publishes it as epoch 0. [`Server::begin`] pins the current
//! [`Snapshot`] into a [`Session`] serving `query`/`solve` with zero
//! coordination between readers. A single writer applies a
//! [`WriteBatch`] on a private overlay and publishes the successor
//! snapshot atomically; [`Server::commit_or_conflict`] adds read-set
//! validation, completing the begin-snapshot / read / batched-write /
//! commit-or-conflict transaction API.
//!
//! [`Server::prepare`] / [`Server::prepare_solve`] compile a query once
//! into a reusable [`PreparedQuery`] (type-checked, read-profile
//! analysed), accepted by [`Session::query`] on any session and by
//! [`Server::subscribe`] — the **standing query** entry point: one
//! epoch-stamped output delta per commit, maintained incrementally
//! (warm semi-naive re-entry) when sound and by cold re-solve
//! otherwise. See [`subscribe`] for the delivery contract.
//!
//! [`Relation::snapshot_handle`]: dc_relation::Relation::snapshot_handle

// The serving layer sits directly under user-shaped traffic: failures
// must be structured `ServerError`s, never panics. Escalate, allowing
// tests (and justified per-site opt-ins).
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod error;
pub mod prepare;
pub mod server;
pub mod session;
pub mod snapshot;
pub mod subscribe;

pub use batch::{WriteBatch, WriteOp};
pub use error::ServerError;
pub use prepare::PreparedQuery;
pub use server::Server;
pub use session::{Queryable, Session};
pub use snapshot::Snapshot;
pub use subscribe::{Subscription, SubscriptionUpdate};

// The whole point of the crate: the server and its snapshots cross
// thread boundaries freely. Sessions are Send (begin on one thread,
// serve on another) but deliberately not Sync — one session, one
// isolation scope. Subscriptions are Send (consume updates on a worker
// thread) but not Sync — one subscriber, one stream.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Server>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<WriteBatch>();
    assert_send_sync::<ServerError>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<SubscriptionUpdate>();
    assert_send::<Session>();
    assert_send::<Subscription>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dc_calculus::ast::{Branch, SetFormer};
    use dc_calculus::builder::*;
    use dc_core::{Constructor, Database};
    use dc_governor::{Budget, SolveError};
    use dc_relation::Relation;
    use dc_value::{tuple, Domain, Schema};

    fn infrontrel() -> Schema {
        Schema::of(&[("front", Domain::Str), ("back", Domain::Str)])
    }

    fn aheadrel() -> Schema {
        Schema::of(&[("head", Domain::Str), ("tail", Domain::Str)])
    }

    fn ahead_ctor() -> Constructor {
        Constructor {
            name: "ahead".into(),
            base_param: ("Rel".into(), infrontrel()),
            rel_params: vec![],
            scalar_params: vec![],
            result: aheadrel(),
            body: SetFormer {
                branches: vec![
                    Branch::each("r", rel("Rel"), tru()),
                    Branch::projecting(
                        vec![attr("f", "front"), attr("b", "tail")],
                        vec![
                            ("f".into(), rel("Rel")),
                            ("b".into(), rel("Rel").construct("ahead", vec![])),
                        ],
                        eq(attr("f", "back"), attr("b", "head")),
                    ),
                ],
            },
        }
    }

    fn scene_db() -> Database {
        let mut db = Database::new();
        db.create_relation("Infront", infrontrel()).unwrap();
        db.insert_all(
            "Infront",
            vec![
                tuple!["vase", "table"],
                tuple!["table", "chair"],
                tuple!["chair", "wall"],
            ],
        )
        .unwrap();
        db.define_constructor(ahead_ctor()).unwrap();
        db
    }

    #[test]
    fn epoch_zero_serves_queries_and_solves() {
        let server = Server::new(scene_db());
        assert_eq!(server.current_epoch(), 0);
        let s = server.begin();
        assert_eq!(s.epoch(), 0);
        let out = s.query(&rel("Infront").construct("ahead", vec![])).unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.contains(&tuple!["vase", "wall"]));
        // The convenience solve takes the same path.
        let out2 = s.solve("Infront", "ahead", &[], vec![]).unwrap();
        assert_eq!(out, out2);
        assert!(s.last_fixpoint_stats().is_some());
        assert_eq!(s.read_set(), vec!["Infront".to_string()]);
    }

    #[test]
    fn commit_publishes_new_epoch_and_pinned_sessions_keep_theirs() {
        let server = Server::new(scene_db());
        let pinned = server.begin();
        let before = pinned.read("Infront").unwrap();
        let epoch = server
            .commit(&WriteBatch::new().insert("Infront", tuple!["wall", "window"]))
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(server.current_epoch(), 1);
        // The pinned session still sees the old value…
        assert_eq!(pinned.read("Infront").unwrap(), before);
        assert!(!pinned
            .contains("Infront", &tuple!["wall", "window"])
            .unwrap());
        // …while a fresh session sees the new one.
        let fresh = server.begin();
        assert_eq!(fresh.epoch(), 1);
        assert!(fresh
            .contains("Infront", &tuple!["wall", "window"])
            .unwrap());
        assert_eq!(server.commit_count(), 1);
    }

    #[test]
    fn commit_is_atomic_on_mid_batch_failure() {
        let server = Server::new(scene_db());
        let digest = server.begin().relation_digest("Infront").unwrap();
        // Second op hits an unknown relation: the first op must not
        // land either.
        let batch = WriteBatch::new()
            .insert("Infront", tuple!["wall", "window"])
            .insert("NoSuch", tuple!["x", "y"]);
        let err = server.commit(&batch).unwrap_err();
        assert!(matches!(err, ServerError::Unknown { .. }));
        assert_eq!(server.current_epoch(), 0);
        assert_eq!(server.begin().relation_digest("Infront").unwrap(), digest);
        assert_eq!(server.commit_count(), 0);
    }

    #[test]
    fn replace_and_delete_ops_apply_in_order() {
        let server = Server::new(scene_db());
        let batch = WriteBatch::new()
            .replace(
                "Infront",
                vec![tuple!["a", "b"], tuple!["b", "c"], tuple!["c", "d"]],
            )
            .delete("Infront", tuple!["c", "d"])
            .insert("Infront", tuple!["x", "y"]);
        server.commit(&batch).unwrap();
        let s = server.begin();
        let r = s.read("Infront").unwrap();
        assert_eq!(
            r.sorted_tuples(),
            vec![tuple!["a", "b"], tuple!["b", "c"], tuple!["x", "y"]]
        );
    }

    #[test]
    fn commit_or_conflict_rejects_stale_read_sets() {
        let server = Server::new(scene_db());
        // Transaction A reads Infront at epoch 0.
        let a = server.begin();
        let _ = a.read("Infront").unwrap();
        // A concurrent commit modifies Infront (epoch 1).
        server
            .commit(&WriteBatch::new().insert("Infront", tuple!["wall", "window"]))
            .unwrap();
        // A's write now conflicts…
        let err = server
            .commit_or_conflict(&a, &WriteBatch::new().insert("Infront", tuple!["p", "q"]))
            .unwrap_err();
        assert!(
            matches!(err, ServerError::Conflict { ref relation, read_epoch: 0, committed_epoch: 1 } if relation == "Infront")
        );
        assert_eq!(server.conflict_count(), 1);
        assert_eq!(server.current_epoch(), 1, "rejected batch not applied");
        // …and the retry on a fresh session succeeds.
        let retry = server.begin();
        let _ = retry.read("Infront").unwrap();
        server
            .commit_or_conflict(
                &retry,
                &WriteBatch::new().insert("Infront", tuple!["p", "q"]),
            )
            .unwrap();
        assert_eq!(server.current_epoch(), 2);
    }

    #[test]
    fn commit_or_conflict_allows_disjoint_reads() {
        let mut db = scene_db();
        db.create_relation("Other", infrontrel()).unwrap();
        let server = Server::new(db);
        let a = server.begin();
        let _ = a.read("Other").unwrap();
        // A commit touching only Infront does not invalidate A.
        server
            .commit(&WriteBatch::new().insert("Infront", tuple!["wall", "window"]))
            .unwrap();
        server
            .commit_or_conflict(&a, &WriteBatch::new().insert("Other", tuple!["u", "v"]))
            .unwrap();
        assert_eq!(server.conflict_count(), 0);
    }

    #[test]
    fn snapshot_relations_carry_digest_memo() {
        let server = Server::new(scene_db());
        let snap = server.current_snapshot();
        // Publication pre-populated the memo: the pinned handle knows
        // its digest without recomputing.
        assert!(snap.relation("Infront").unwrap().cached_digest().is_some());
        // After a commit, the touched relation's new storage is
        // re-digested at publish, and untouched handles share storage
        // with the previous snapshot.
        let mut db2 = scene_db();
        db2.create_relation("Other", infrontrel()).unwrap();
        let server2 = Server::new(db2);
        let before = server2.current_snapshot();
        server2
            .commit(&WriteBatch::new().insert("Infront", tuple!["wall", "window"]))
            .unwrap();
        let after = server2.current_snapshot();
        assert!(after.relation("Infront").unwrap().cached_digest().is_some());
        assert!(Relation::shares_storage(
            before.relation("Other").unwrap(),
            after.relation("Other").unwrap()
        ));
    }

    #[test]
    fn catalog_digest_tracks_content_not_history() {
        let server = Server::new(scene_db());
        let d0 = server.current_snapshot().catalog_digest();
        server
            .commit(&WriteBatch::new().insert("Infront", tuple!["wall", "window"]))
            .unwrap();
        let d1 = server.current_snapshot().catalog_digest();
        assert_ne!(d0, d1);
        // Deleting the tuple restores the exact catalog content, and
        // with it the digest — epochs differ, content digests agree.
        server
            .commit(&WriteBatch::new().delete("Infront", tuple!["wall", "window"]))
            .unwrap();
        let d2 = server.current_snapshot().catalog_digest();
        assert_eq!(d0, d2);
        assert_eq!(server.current_epoch(), 2);
    }

    #[test]
    fn warm_solved_memo_survives_unrelated_commits() {
        let mut db = scene_db();
        db.create_relation("Other", infrontrel()).unwrap();
        let server = Server::new(db);
        let q = rel("Infront").construct("ahead", vec![]);
        let a = server.begin().query(&q).unwrap();
        // A commit on Other leaves Infront's content — and therefore
        // the content-addressed solve key — unchanged: the carried-over
        // memo serves the hit, which the solver-stats probe makes
        // visible (a memo hit records no fixpoint run).
        server
            .commit(&WriteBatch::new().insert("Other", tuple!["u", "v"]))
            .unwrap();
        let s = server.begin();
        let b = s.query(&q).unwrap();
        assert_eq!(a, b);
        assert!(
            s.last_fixpoint_stats().is_none(),
            "expected a warm-memo hit, not a fresh solve"
        );
    }

    /// The scene database plus a small staffing instance (assignments,
    /// skills, tool requests) whose joint-key join view decorrelates,
    /// and an `Other` relation no query reads.
    fn warm_counter_db() -> Database {
        let mut db = scene_db();
        let pairs = |a: &str, b: &str| Schema::of(&[(a, Domain::Str), (b, Domain::Str)]);
        db.create_relation("Assign", pairs("task", "worker"))
            .unwrap();
        db.insert_all(
            "Assign",
            vec![
                tuple!["t1", "w1"],
                tuple!["t1", "w2"],
                tuple!["t2", "w2"],
                tuple!["t3", "w3"],
            ],
        )
        .unwrap();
        db.create_relation("Skill", pairs("worker", "tool"))
            .unwrap();
        db.insert_all(
            "Skill",
            vec![
                tuple!["w1", "hammer"],
                tuple!["w2", "saw"],
                tuple!["w3", "hammer"],
            ],
        )
        .unwrap();
        db.create_relation("Requests", pairs("task", "tool"))
            .unwrap();
        db.insert_all(
            "Requests",
            vec![
                tuple!["t1", "hammer"],
                tuple!["t1", "saw"],
                tuple!["t2", "hammer"],
                tuple!["t3", "hammer"],
            ],
        )
        .unwrap();
        db.create_relation("Other", infrontrel()).unwrap();
        db
    }

    #[test]
    fn warm_counters_count_each_tier_exactly() {
        use dc_trace::metrics::Counter;
        let server = Server::new(warm_counter_db());
        // An index-probed self-join of Infront.
        let indexed = set_former(vec![Branch::projecting(
            vec![attr("f", "front"), attr("b", "back")],
            vec![("f".into(), rel("Infront")), ("b".into(), rel("Infront"))],
            eq(attr("f", "back"), attr("b", "front")),
        )]);
        // A correlated SOME over a joint-key join view: decorrelated.
        let qualified = set_former(vec![Branch::projecting(
            vec![attr("a", "worker")],
            vec![("a".into(), rel("Assign")), ("s".into(), rel("Skill"))],
            eq(attr("a", "worker"), attr("s", "worker"))
                .and(eq(attr("a", "task"), attr("r", "task")))
                .and(eq(attr("s", "tool"), attr("r", "tool"))),
        )]);
        let decorrelated = set_former(vec![Branch::each(
            "r",
            rel("Requests"),
            some("x", qualified, tru()),
        )]);
        let solve = rel("Infront").construct("ahead", vec![]);
        let m = server.metrics();
        let counts = || {
            [
                Counter::WarmIndexHits,
                Counter::WarmIndexMisses,
                Counter::WarmStatsHits,
                Counter::WarmStatsMisses,
                Counter::WarmDecorrHits,
                Counter::WarmDecorrMisses,
                Counter::WarmSolvedHits,
                Counter::WarmSolvedMisses,
            ]
            .map(|c| m.get(c))
        };
        let run = |s: &Session| {
            for _ in 0..2 {
                assert_eq!(s.query(&indexed).unwrap().len(), 2);
                assert_eq!(s.query(&decorrelated).unwrap().len(), 3);
                assert_eq!(s.query(&solve).unwrap().len(), 6);
            }
        };
        // Layout: [index hit, miss, stats hit, miss, decorr hit, miss,
        // solved hit, miss]. The first session pays every build on
        // epoch 0: the Infront index and statistics, the decorrelated
        // entry (whose join build also indexes one side and collects
        // statistics over Assign and Skill) and the solve. Its repeats
        // are served by its private tier, which counts nothing.
        run(&server.begin());
        assert_eq!(counts(), [0, 2, 0, 3, 0, 1, 0, 1], "first session");
        // A sibling on the same epoch hits the shared tier once per
        // entry it asks for — the decorrelated entry hit spares it the
        // join build's index and statistics — then its private tier.
        run(&server.begin());
        assert_eq!(counts(), [1, 2, 1, 3, 1, 1, 1, 1], "sibling session");
        // A commit on Other carries every entry over: a session on the
        // next epoch hits the shared tier again.
        server
            .commit(&WriteBatch::new().insert("Other", tuple!["u", "v"]))
            .unwrap();
        run(&server.begin());
        assert_eq!(counts(), [2, 2, 2, 3, 2, 1, 2, 1], "next epoch");
    }

    #[test]
    fn shutdown_cancels_sessions_and_rejects_commits() {
        let server = Server::new(scene_db()).with_session_budget(Budget::unlimited());
        let s = server.begin();
        server.shutdown();
        assert!(server.is_shut_down());
        let err = server
            .commit(&WriteBatch::new().insert("Infront", tuple!["wall", "window"]))
            .unwrap_err();
        assert!(matches!(err, ServerError::ShuttingDown));
        // The in-flight session's next governed evaluation trips.
        let err = s
            .query(&rel("Infront").construct("ahead", vec![]))
            .unwrap_err();
        match err {
            ServerError::Eval(dc_calculus::EvalError::Solve(SolveError::Cancelled { .. })) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn cancelling_one_session_leaves_siblings_alive() {
        let server = Server::new(scene_db());
        let doomed = server.begin();
        let alive = server.begin();
        doomed.cancel_token().cancel();
        assert!(doomed
            .query(&rel("Infront").construct("ahead", vec![]))
            .is_err());
        assert!(alive
            .query(&rel("Infront").construct("ahead", vec![]))
            .is_ok());
        assert!(!server.is_shut_down());
    }

    #[test]
    fn unknown_names_are_structured_errors() {
        let server = Server::new(scene_db());
        let s = server.begin();
        assert!(matches!(
            s.read("NoSuch").unwrap_err(),
            ServerError::Eval(dc_calculus::EvalError::UnknownRelation(_))
        ));
        assert!(s.solve("Infront", "nosuch", &[], vec![]).is_err());
    }
}
