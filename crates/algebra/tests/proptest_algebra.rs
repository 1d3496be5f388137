//! Property tests: every algebra operator agrees with its 1NF (flat)
//! semantics on random relations, and rectangle-level fast paths preserve
//! the partition invariant.

use std::collections::BTreeSet;

use proptest::prelude::*;

use nf2_algebra::{difference, intersect, natural_join, project, select_box, union, unnest};
use nf2_core::nest::{canonical_of_flat, nest};
use nf2_core::relation::{FlatRelation, NfRelation};
use nf2_core::schema::{NestOrder, Schema};
use nf2_core::tuple::{FlatTuple, ValueSet};
use nf2_core::value::Atom;

/// Random flat relation over a fixed 3-attribute schema with small
/// domains (so operators hit overlapping values often).
fn arb_flat(name: &'static str) -> impl Strategy<Value = FlatRelation> {
    proptest::collection::vec(proptest::collection::vec(0u32..4, 3), 0..20).prop_map(move |rows| {
        let schema = Schema::new(name, &["A", "B", "C"]).unwrap();
        FlatRelation::from_rows(
            schema,
            rows.into_iter().map(|r| {
                r.into_iter()
                    .enumerate()
                    .map(|(i, v)| Atom(v + 10 * i as u32))
                    .collect::<FlatTuple>()
            }),
        )
        .unwrap()
    })
}

fn nested(flat: &FlatRelation, seed: u64) -> NfRelation {
    let orders = NestOrder::all(3);
    canonical_of_flat(flat, &orders[(seed as usize) % orders.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// σ by value box == flat filter.
    #[test]
    fn select_box_matches_flat_filter(flat in arb_flat("R"), seed in any::<u64>(), v in 0u32..4) {
        let rel = nested(&flat, seed);
        let value = Atom(v + 10); // attribute B's domain
        let selected = select_box(&rel, &[(1, ValueSet::singleton(value))]).unwrap();
        let expected: BTreeSet<FlatTuple> =
            flat.rows().filter(|r| r[1] == value).cloned().collect();
        prop_assert_eq!(selected.expand().into_rows(), expected);
        prop_assert!(selected.validate().is_ok());
    }

    /// π == flat projection with duplicate elimination, whichever path
    /// (fixed fast path or expansion) was taken.
    #[test]
    fn project_matches_flat_projection(flat in arb_flat("R"), seed in any::<u64>(), keep in 0usize..3) {
        let rel = nested(&flat, seed);
        let p = project(&rel, &[keep], &NestOrder::identity(1)).unwrap();
        let expected: BTreeSet<FlatTuple> = flat.rows().map(|r| vec![r[keep]]).collect();
        prop_assert_eq!(p.expand().into_rows(), expected);
        prop_assert!(p.validate().is_ok());
    }

    /// ∪, −, ∩ == flat set algebra.
    #[test]
    fn set_ops_match_flat_semantics(
        a in arb_flat("R"),
        b in arb_flat("S"),
        seed in any::<u64>(),
    ) {
        let (ra, rb) = (nested(&a, seed), nested(&b, seed.wrapping_add(1)));
        let order = NestOrder::identity(3);

        let u = union(&ra, &rb, &order).unwrap();
        let mut expected = a.clone().into_rows();
        expected.extend(b.clone().into_rows());
        prop_assert_eq!(u.expand().into_rows(), expected);

        let d = difference(&ra, &rb, &order).unwrap();
        let b_rows = b.clone().into_rows();
        let expected: BTreeSet<FlatTuple> =
            a.rows().filter(|r| !b_rows.contains(*r)).cloned().collect();
        prop_assert_eq!(d.expand().into_rows(), expected);

        let i = intersect(&ra, &rb).unwrap();
        let expected: BTreeSet<FlatTuple> =
            a.rows().filter(|r| b_rows.contains(*r)).cloned().collect();
        prop_assert_eq!(i.expand().into_rows(), expected);
        prop_assert!(i.validate().is_ok());
    }

    /// ⋈ == flat natural join, and the rectangle-level output is a valid
    /// partition without re-nesting.
    #[test]
    fn join_matches_flat_join(a in arb_flat("R"), seed in any::<u64>()) {
        // Join R(A,B,C) with S(C,D): build S from R's C values.
        let ra = nested(&a, seed);
        let schema = Schema::new("S", &["C", "D"]).unwrap();
        let s_flat = FlatRelation::from_rows(
            schema,
            a.rows()
                .map(|r| r[2])
                .collect::<BTreeSet<_>>()
                .into_iter()
                .enumerate()
                .map(|(i, c)| vec![c, Atom(100 + (i as u32 % 2))]),
        )
        .unwrap();
        let rs = canonical_of_flat(&s_flat, &NestOrder::identity(2));

        let joined = natural_join(&ra, &rs).unwrap();
        let mut expected = BTreeSet::new();
        for l in a.rows() {
            for r in s_flat.rows() {
                if l[2] == r[0] {
                    expected.insert(vec![l[0], l[1], l[2], r[1]]);
                }
            }
        }
        prop_assert_eq!(joined.expand().into_rows(), expected);
        prop_assert!(joined.validate().is_ok());
    }

    /// NEST then UNNEST on the same attribute is identity on R*, and
    /// UNNEST of a nested relation has one tuple per (attr value, rest)
    /// combination.
    #[test]
    fn nest_unnest_laws(flat in arb_flat("R"), seed in any::<u64>(), attr in 0usize..3) {
        let rel = nested(&flat, seed);
        let nested_rel = nest(&rel, attr);
        let unnested = unnest(&nested_rel, attr);
        prop_assert_eq!(unnested.expand(), flat);
        // Every unnested tuple has a singleton attr component.
        prop_assert!(unnested
            .tuples()
            .iter()
            .all(|t| t.component(attr).is_singleton()));
    }

    /// The pipeline pieces the compiled plans run equal the strict
    /// operators, tuple for tuple: `filter_box` applied to every tuple is
    /// `select_box` (two conjuncts on one attribute included), and
    /// `JoinLayout::probe` of every left tuple is `natural_join`.
    #[test]
    fn pipeline_operators_match_strict_ops(
        a in arb_flat("R"),
        b in arb_flat("S"),
        seed in any::<u64>(),
        v in 0u32..4,
    ) {
        use nf2_algebra::stream::filter_box;
        use nf2_algebra::{JoinLayout, RelStream};
        use nf2_core::tuple::TupleView;

        let (ra, rb) = (nested(&a, seed), nested(&b, seed / 3));
        let set = |vals: &[u32]| ValueSet::new(vals.iter().map(|&x| Atom(x)).collect()).unwrap();
        for constraints in [
            vec![(1, set(&[v + 10, 10]))],
            vec![(1, set(&[v + 10, 10, 11])), (1, set(&[10, 12]))],
        ] {
            let strict = select_box(&ra, &constraints).unwrap();
            let iter = ra
                .tuples()
                .iter()
                .map(TupleView::Borrowed)
                .filter_map(|t| filter_box(t, &constraints));
            let piped = RelStream::new(ra.schema().clone(), Box::new(iter))
                .into_relation()
                .unwrap();
            prop_assert_eq!(&strict, &piped, "constraints {:?}", constraints);
            prop_assert!(piped.validate().is_ok());
        }

        // S shares every attribute with R; T = (C, D) shares only C, so
        // the join also appends a right-only component.
        let t_flat = FlatRelation::from_rows(
            Schema::new("T", &["C", "D"]).unwrap(),
            b.rows().map(|r| vec![r[2], Atom(r[0].0 + 30)]),
        )
        .unwrap();
        let rt = canonical_of_flat(&t_flat, &NestOrder::all(2)[(seed as usize) % 2]);
        for right in [&rb, &rt] {
            let layout = JoinLayout::of(ra.schema(), right.schema()).unwrap();
            let build: Vec<TupleView<'_>> =
                right.tuples().iter().map(TupleView::Borrowed).collect();
            let mut out = Vec::new();
            for l in ra.tuples() {
                layout.probe(&TupleView::Borrowed(l), &build, &mut out);
            }
            let joined = RelStream::new(layout.schema.clone(), Box::new(out.into_iter()))
                .into_relation()
                .unwrap();
            prop_assert_eq!(&natural_join(&ra, right).unwrap(), &joined);
            prop_assert!(joined.validate().is_ok(), "probe preserved the invariant");
        }
    }
}
