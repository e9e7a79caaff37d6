//! Property tests for the Datalog substrate: relational algebra laws,
//! parser round-trips and robustness, unfolding invariants, and evaluator
//! consistency.

use proptest::prelude::*;
use recurs_datalog::algebra::{join, product, project, select_eq};
use recurs_datalog::parser::{parse, parse_rule};
use recurs_datalog::relation::Relation;
use recurs_datalog::unfold::{expansion, Unfolder};
use recurs_datalog::Value;

fn arb_relation(max_tuples: usize, domain: u64) -> impl Strategy<Value = Relation> {
    prop::collection::vec((1..=domain, 1..=domain), 0..max_tuples).prop_map(Relation::from_pairs)
}

/// A ∪ B, by the in-place union the evaluators merge with.
fn union(a: &Relation, b: &Relation) -> Relation {
    let mut out = a.clone();
    out.union_in_place(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---------- relational algebra laws ----------

    /// Union is commutative, associative, idempotent.
    #[test]
    fn union_laws(a in arb_relation(24, 8), b in arb_relation(24, 8), c in arb_relation(24, 8)) {
        prop_assert_eq!(union(&a, &b), union(&b, &a));
        prop_assert_eq!(union(&union(&a, &b), &c), union(&a, &union(&b, &c)));
        prop_assert_eq!(union(&a, &a), a);
    }

    /// |A × B| = |A|·|B| and the join on no columns is the product.
    #[test]
    fn product_law(a in arb_relation(16, 8), b in arb_relation(16, 8)) {
        let p = product(&a, &b);
        prop_assert_eq!(p.len(), a.len() * b.len());
        prop_assert_eq!(join(&a, &b, &[]), p);
    }

    /// Join is the selection of the product: A ⋈₁₌₀ B = σ(col1=col2)(A × B).
    #[test]
    fn join_is_selected_product(a in arb_relation(16, 6), b in arb_relation(16, 6)) {
        let j = join(&a, &b, &[(1, 0)]);
        let p = recurs_datalog::algebra::select_col_eq(&product(&a, &b), 1, 2);
        prop_assert_eq!(j, p);
    }

    /// Selection distributes over union.
    #[test]
    fn selection_distributes(a in arb_relation(16, 6), b in arb_relation(16, 6), v in 1u64..=6) {
        let val = Value::from_u64(v);
        prop_assert_eq!(
            select_eq(&union(&a, &b), 0, val),
            union(&select_eq(&a, 0, val), &select_eq(&b, 0, val))
        );
    }

    /// Join is monotone in both arguments.
    #[test]
    fn join_monotone(a in arb_relation(12, 6), b in arb_relation(12, 6), extra in arb_relation(6, 6)) {
        let j1 = join(&a, &b, &[(0, 0)]);
        let bigger = union(&a, &extra);
        let j2 = join(&bigger, &b, &[(0, 0)]);
        for t in j1.iter() {
            prop_assert!(j2.contains(t), "join lost a tuple under growth");
        }
    }

    // ---------- parser ----------

    /// Display ∘ parse is the identity on parsed rules (round-trip).
    #[test]
    fn parser_round_trip(seed in 0u64..100_000) {
        let rule = recurs_workload::random_rule(seed, recurs_workload::RuleConfig::default());
        let printed = rule.to_string();
        let reparsed = parse_rule(&printed).unwrap();
        prop_assert_eq!(rule, reparsed);
    }

    /// The parser never panics on arbitrary input (errors are values).
    #[test]
    fn parser_never_panics(input in "\\PC*") {
        let _ = parse(&input);
    }

    /// The parser never panics on atom-shaped garbage either.
    #[test]
    fn parser_never_panics_structured(input in "[A-Za-z0-9_(),.:? '\\-]{0,120}") {
        let _ = parse(&input);
    }

    // ---------- unfolding ----------

    /// The k-th expansion has exactly k copies of each non-recursive atom
    /// and stays linear recursive; its head never changes.
    #[test]
    fn expansion_shape(seed in 0u64..50_000, k in 1usize..6) {
        let rule = recurs_workload::random_rule(seed, recurs_workload::RuleConfig {
            min_dim: 1, max_dim: 3, max_extra_atoms: 2,
        });
        let nonrec = rule.body.len() - 1;
        let e = expansion(&rule, k);
        prop_assert!(e.is_linear_recursive());
        prop_assert_eq!(e.head.clone(), rule.head.clone());
        prop_assert_eq!(e.body.len(), k * nonrec + 1);
    }

    /// Unfolding is associative: expanding the 2nd expansion once equals the
    /// 3rd expansion up to variable renaming (checked structurally through
    /// the I-graph's condensed shape).
    #[test]
    fn unfolder_streams_consistently(seed in 0u64..50_000) {
        let rule = recurs_workload::random_rule(seed, recurs_workload::RuleConfig {
            min_dim: 1, max_dim: 3, max_extra_atoms: 2,
        });
        let from_iter: Vec<_> = Unfolder::new(&rule).take(4).collect();
        for (i, e) in from_iter.iter().enumerate() {
            prop_assert_eq!(e.body.len(), expansion(&rule, i + 1).body.len());
        }
    }

    // ---------- relations ----------

    /// Sorted iteration is a permutation of the tuple set and is sorted.
    #[test]
    fn sorted_iteration(r in arb_relation(24, 9)) {
        let sorted = r.iter_sorted();
        prop_assert_eq!(sorted.len(), r.len());
        for w in sorted.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        for t in &sorted {
            prop_assert!(r.contains(t));
        }
    }

    /// Difference and union satisfy (A − B) ∪ (A ∩ B …) — here the simpler
    /// identity A ⊆ (A − B) ∪ B.
    #[test]
    fn difference_union_cover(a in arb_relation(24, 8), b in arb_relation(24, 8)) {
        let d = a.difference(&b);
        let cover = union(&d, &b);
        for t in a.iter() {
            prop_assert!(cover.contains(t));
        }
        // And the difference is disjoint from b.
        for t in d.iter() {
            prop_assert!(!b.contains(t));
        }
    }
}

// ---------- deterministic (non-proptest) substrate checks ----------

#[test]
fn eval_order_does_not_change_results() {
    // The selection-first join order must be semantically invisible:
    // evaluate a body whose source order forces a product and compare with
    // the naive accumulated result computed by hand.
    use recurs_datalog::eval::eval_body;
    use recurs_datalog::parser::parse_rule as pr;
    use recurs_datalog::Database;
    use std::collections::HashMap;

    let rule = pr("Q(x, v) :- A(x, y), C(u, v), B(y, u).").unwrap();
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (3, 4)]));
    db.insert_relation("B", Relation::from_pairs([(2, 5), (4, 6)]));
    db.insert_relation("C", Relation::from_pairs([(5, 7), (6, 8), (9, 9)]));
    let bindings = eval_body(&db, &rule.body, &HashMap::new()).unwrap();
    let cols = ["x", "v"].map(|v| bindings.column_of(v.into()).unwrap());
    let q = project(&bindings.rel, &cols);
    let expected = Relation::from_pairs([(1, 7), (3, 8)]);
    assert_eq!(q, expected);
}

#[test]
fn large_chain_fixpoint_is_exact() {
    // A mid-sized stress check with an exactly known answer:
    // closure of a 200-chain has 200·199/2 pairs... (199·200/2 = 19900).
    use recurs_datalog::eval::semi_naive;
    use recurs_datalog::parser::parse_program;
    use recurs_datalog::Database;

    let program = parse_program("P(x, y) :- E(x, y).\nP(x, y) :- A(x, z), P(z, y).").unwrap();
    let mut db = Database::new();
    db.insert_relation("A", recurs_workload::chain(200));
    db.insert_relation("E", recurs_workload::chain(200));
    semi_naive(&mut db, &program, None).unwrap();
    assert_eq!(db.get("P").unwrap().len(), 199 * 200 / 2);
}

#[test]
fn counting_equals_magic_equals_fixpoint_on_shared_case() {
    // Tri-modal agreement on one workload: on a cycle every node reaches and
    // is reached by every node, so the frontier walk from 3, the magic
    // rewrite into 3 and the raw fixpoint all name the same twelve nodes.
    use recurs_core::plan::StrategyKind;
    use recurs_datalog::parser::{parse_atom, parse_program};
    use recurs_datalog::validate::validate_with_generic_exit;
    use recurs_datalog::Database;
    use recurs_engine::oracle::Planned;

    let lr = validate_with_generic_exit(
        &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
    )
    .unwrap();
    let mut db = Database::new();
    db.insert_relation("A", recurs_workload::cycle(12));
    db.insert_relation("E", recurs_workload::cycle(12));
    let q = parse_atom("P('3', y)").unwrap();

    let walk = Planned::new(&lr, &db, &q).unwrap();
    assert_eq!(walk.plan.strategy, StrategyKind::Frontier);
    let a1 = walk.run().unwrap().answers.to_relation();

    let into = parse_atom("P(x, '3')").unwrap();
    let magic = Planned::new(&lr, &db, &into).unwrap();
    assert_eq!(magic.plan.strategy, StrategyKind::Magic);
    let a2 = magic.run().unwrap().answers.to_relation();
    let (into_oracle, _) = recurs_core::oracle::ground_truth(&lr, &db, &into).unwrap();
    assert_eq!(a2, into_oracle);

    let (a3, _) = recurs_core::oracle::ground_truth(&lr, &db, &q).unwrap();

    assert_eq!(a1, a2);
    assert_eq!(a2, a3);
    assert_eq!(a3.len(), 12); // every node reachable on a cycle
}
