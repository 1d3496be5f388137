//! Property tests at the outermost boundary: random DML streams against
//! a shadow 1NF model, exercising parser, executor, storage and the §4
//! maintenance together.

use std::collections::BTreeSet;

use proptest::prelude::*;

use nf2::core::nest::canonical_of_flat;
use nf2::core::schema::NestOrder;
use nf2::query::{Engine, Output, Session};

/// One random DML operation over a tiny value universe.
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u8),
    Delete(u8, u8),
    DeleteByA(u8),
    SelectByA(u8),
    ShowFlat,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, 0u8..5).prop_map(|(a, b)| Op::Insert(a, b)),
        (0u8..5, 0u8..5).prop_map(|(a, b)| Op::Delete(a, b)),
        (0u8..5).prop_map(Op::DeleteByA),
        (0u8..5).prop_map(Op::SelectByA),
        Just(Op::ShowFlat),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The DML engine tracks a shadow set-of-pairs model exactly, and its
    /// stored relation is always the canonical form of that shadow.
    #[test]
    fn dml_stream_matches_shadow_model(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let engine = Engine::default();
        let mut s = engine.session();
        s.run("CREATE TABLE t (A, B) NEST ORDER (A, B)").unwrap();
        let mut shadow: BTreeSet<(u8, u8)> = BTreeSet::new();

        for op in ops {
            match op {
                Op::Insert(a, b) => {
                    let out = s
                        .run(&format!("INSERT INTO t VALUES ('a{a}','b{b}')"))
                        .unwrap();
                    let affected = match out {
                        Output::Affected(n) => n,
                        other => panic!("unexpected {other:?}"),
                    };
                    prop_assert_eq!(affected, usize::from(shadow.insert((a, b))));
                }
                Op::Delete(a, b) => {
                    let out = s
                        .run(&format!("DELETE FROM t WHERE A='a{a}' AND B='b{b}'"))
                        .unwrap();
                    let affected = match out {
                        Output::Affected(n) => n,
                        other => panic!("unexpected {other:?}"),
                    };
                    prop_assert_eq!(affected, usize::from(shadow.remove(&(a, b))));
                }
                Op::DeleteByA(a) => {
                    let out = s.run(&format!("DELETE FROM t WHERE A='a{a}'")).unwrap();
                    let affected = match out {
                        Output::Affected(n) => n,
                        other => panic!("unexpected {other:?}"),
                    };
                    let before = shadow.len();
                    shadow.retain(|(x, _)| *x != a);
                    prop_assert_eq!(affected, before - shadow.len());
                }
                Op::SelectByA(a) => {
                    let out = s
                        .run(&format!("SELECT B FROM t WHERE A='a{a}'"))
                        .unwrap();
                    let rel = match out {
                        Output::Relation { relation, .. } => relation,
                        other => panic!("unexpected {other:?}"),
                    };
                    let expected: BTreeSet<u8> = shadow
                        .iter()
                        .filter(|(x, _)| *x == a)
                        .map(|(_, y)| *y)
                        .collect();
                    prop_assert_eq!(rel.expand().len(), expected.len());
                }
                Op::ShowFlat => {
                    let out = s.run("SHOW FLAT t").unwrap();
                    let rel = match out {
                        Output::Relation { relation, .. } => relation,
                        other => panic!("unexpected {other:?}"),
                    };
                    prop_assert_eq!(rel.expand().len(), shadow.len());
                }
            }
            // Global invariant: stored relation == canonical(shadow).
            let table = engine.table("t").unwrap();
            prop_assert_eq!(table.flat_count(), shadow.len() as u128);
        }

        // Final strong check: rebuild the canonical form of the shadow
        // through the dictionary and compare relations exactly.
        let dict = engine.dict().clone();
        let schema = engine.table("t").unwrap().schema().clone();
        let flat = nf2::core::relation::FlatRelation::from_rows(
            schema,
            shadow.iter().map(|(a, b)| {
                vec![
                    dict.lookup(&format!("a{a}")).expect("interned by INSERT"),
                    dict.lookup(&format!("b{b}")).expect("interned by INSERT"),
                ]
            }),
        )
        .unwrap();
        let oracle = canonical_of_flat(&flat, &NestOrder::identity(2));
        prop_assert_eq!(*engine.table("t").unwrap().relation(), oracle);
    }

    /// Transactions: any mutation stream inside BEGIN … ROLLBACK leaves
    /// the database exactly as it was; the same stream inside
    /// BEGIN … COMMIT matches running it in autocommit.
    #[test]
    fn rollback_is_identity_and_commit_is_transparent(
        seed_rows in proptest::collection::vec((0u8..4, 0u8..4), 0..8),
        ops in proptest::collection::vec(arb_op(), 0..25),
    ) {
        let script_of = |ops: &[Op]| -> Vec<String> {
            ops.iter()
                .filter_map(|op| match op {
                    Op::Insert(a, b) => {
                        Some(format!("INSERT INTO t VALUES ('a{a}','b{b}')"))
                    }
                    Op::Delete(a, b) => {
                        Some(format!("DELETE FROM t WHERE A='a{a}' AND B='b{b}'"))
                    }
                    Op::DeleteByA(a) => Some(format!("DELETE FROM t WHERE A='a{a}'")),
                    // Queries are irrelevant to transactional state.
                    Op::SelectByA(_) | Op::ShowFlat => None,
                })
                .collect()
        };

        let setup = |s: &mut Session<'_>| {
            s.run("CREATE TABLE t (A, B) NEST ORDER (B, A)").unwrap();
            for (a, b) in &seed_rows {
                s.run(&format!("INSERT INTO t VALUES ('a{a}','b{b}')")).unwrap();
            }
        };

        // Rollback: identity.
        let engine = Engine::default();
        let mut s = engine.session();
        setup(&mut s);
        let before = engine.table("t").unwrap().relation().clone();
        s.run("BEGIN").unwrap();
        for stmt in script_of(&ops) {
            s.run(&stmt).unwrap();
        }
        s.run("ROLLBACK").unwrap();
        prop_assert_eq!(engine.table("t").unwrap().relation(), before.clone());

        // Commit: same final state as autocommit.
        let committed = Engine::default();
        let mut cs = committed.session();
        setup(&mut cs);
        cs.run("BEGIN").unwrap();
        for stmt in script_of(&ops) {
            cs.run(&stmt).unwrap();
        }
        cs.run("COMMIT").unwrap();

        let autocommit = Engine::default();
        let mut auto = autocommit.session();
        setup(&mut auto);
        for stmt in script_of(&ops) {
            auto.run(&stmt).unwrap();
        }
        prop_assert_eq!(
            committed.table("t").unwrap().relation().expand().into_rows(),
            autocommit.table("t").unwrap().relation().expand().into_rows()
        );
    }

    /// Parser round-trip: every generated statement parses, and malformed
    /// mutations never corrupt the table.
    #[test]
    fn malformed_statements_never_corrupt_state(
        a in 0u8..5,
        junk in "[a-z ]{0,20}",
    ) {
        let engine = Engine::default();
        let mut s = engine.session();
        s.run("CREATE TABLE t (A, B)").unwrap();
        s.run(&format!("INSERT INTO t VALUES ('a{a}','b0')")).unwrap();
        let before = engine.table("t").unwrap().relation().clone();
        // Fire junk at the parser; errors must not touch the table.
        let _ = s.run(&format!("INSERT INTO t VALUES ({junk})"));
        let _ = s.run(&junk);
        let _ = s.run("DELETE FROM missing WHERE A='a0'");
        prop_assert_eq!(engine.table("t").unwrap().relation(), before.clone());
    }
}
