//! Deterministic hard cases for each lowering — the situations most likely
//! to break the frontier walk's level semantics (branching, dead, periodic
//! and rho-shaped frontiers), magic's adornment machinery, and the bounded
//! unions. Every plan here runs on the engine's executor.

use recurs_core::classify::Classification;
use recurs_core::plan::StrategyKind;
use recurs_datalog::eval::{naive, semi_naive};
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Database, LinearRecursion, Relation};
use recurs_engine::oracle::assert_equivalent;
use recurs_engine::oracle::Planned;

fn lr(src: &str) -> LinearRecursion {
    validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
}

fn tc() -> LinearRecursion {
    lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
}

#[test]
fn counting_with_branching_chains() {
    // The step relation is a DAG: one bottom value has several tops, one top
    // several bottoms — exercises the up-walk's fan-out.
    let f = tc();
    let mut db = Database::new();
    db.insert_relation(
        "A",
        Relation::from_pairs([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6)]),
    );
    db.insert_relation("E", Relation::from_pairs([(4, 9), (5, 9), (6, 9)]));
    for q in ["P('1', y)", "P(x, '9')", "P(x, y)", "P('1', '9')"] {
        assert_equivalent(&f, &db, &parse_atom(q).unwrap());
    }
}

#[test]
fn counting_with_dead_frontier() {
    // The query constant is outside the active domain: the frontier dies at
    // level 0 after contributing nothing.
    let f = tc();
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2)]));
    db.insert_relation("E", Relation::from_pairs([(1, 2)]));
    let q = parse_atom("P('777', y)").unwrap();
    let planned = Planned::new(&f, &db, &q).unwrap();
    assert_eq!(planned.plan.strategy, StrategyKind::Frontier);
    assert!(planned.run().unwrap().answers.is_empty());
    assert_equivalent(&f, &db, &q);
}

#[test]
fn counting_with_period_two_frontier() {
    // A strictly bipartite step relation: the frontier alternates between
    // two sets forever — the periodic-tail fixpoint must handle period 2.
    let f = tc();
    let mut db = Database::new();
    // 1↔2 and 3↔4 alternations.
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 1), (3, 4), (4, 3)]));
    db.insert_relation("E", Relation::from_pairs([(1, 9), (2, 8), (4, 7)]));
    for q in [
        "P('1', y)",
        "P('2', y)",
        "P('3', y)",
        "P(x, '9')",
        "P(x, y)",
    ] {
        assert_equivalent(&f, &db, &parse_atom(q).unwrap());
    }
}

#[test]
fn counting_with_long_preperiod_then_cycle() {
    // A "rho"-shaped graph: a tail 1→2→3→4 entering a cycle 4→5→6→4. The
    // frontier has pre-period 3 and period 3.
    let f = tc();
    let mut db = Database::new();
    db.insert_relation(
        "A",
        Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]),
    );
    db.insert_relation("E", Relation::from_pairs([(5, 50), (2, 20)]));
    for q in ["P('1', y)", "P('4', y)", "P(x, '50')", "P(x, y)"] {
        assert_equivalent(&f, &db, &parse_atom(q).unwrap());
    }
}

#[test]
fn one_dimensional_rotational_formula() {
    // Dimension 1, unit rotational cycle: P(x) :- A(x, y), P(y).
    let f = lr("P(x) :- A(x, y), P(y).\nP(x) :- E(x).");
    let c = Classification::of(&f.recursive_rule);
    assert!(c.is_strongly_stable());
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 1), (4, 1)]));
    db.insert_relation(
        "E",
        Relation::from_tuples(1, [recurs_datalog::relation::tuple_u64([3])]),
    );
    for q in ["P('4')", "P('1')", "P('9')", "P(x)"] {
        assert_equivalent(&f, &db, &parse_atom(q).unwrap());
    }
}

#[test]
fn one_dimensional_self_loop_is_bounded() {
    // P(x) :- B(x), P(x): the recursive rule can never add tuples (rank 0).
    let f = lr("P(x) :- B(x), P(x).\nP(x) :- E(x).");
    let c = Classification::of(&f.recursive_rule);
    assert!(c.is_bounded());
    assert_eq!(c.rank_bound(), Some(0));
    let mut db = Database::new();
    db.insert_relation(
        "B",
        Relation::from_tuples(1, [recurs_datalog::relation::tuple_u64([1])]),
    );
    db.insert_relation(
        "E",
        Relation::from_tuples(
            1,
            [
                recurs_datalog::relation::tuple_u64([1]),
                recurs_datalog::relation::tuple_u64([2]),
            ],
        ),
    );
    let q = parse_atom("P(x)").unwrap();
    let planned = Planned::new(&f, &db, &q).unwrap();
    assert_eq!(planned.plan.strategy, StrategyKind::Bounded);
    assert_eq!(planned.run().unwrap().answers.len(), 2); // exactly E
    assert_equivalent(&f, &db, &q);
}

#[test]
fn magic_with_three_form_rotation() {
    // s5's rotation makes the adornment cycle dvv → vvd → vdv → dvv; all
    // three adorned predicates and magic rules must be generated. The
    // planner picks Bounded for s5 itself, so the rotation rides beside an
    // unbounded chain on a fourth position, which keeps the formula class A
    // (stable after 3 unfoldings) and — `w` free and ascending — on magic.
    use recurs_core::magic;
    use recurs_datalog::adornment::QueryForm;
    let s5 = lr("P(x, y, z) :- P(y, z, x).");
    assert_eq!(
        magic::build_plan(&s5, &QueryForm::parse("dvv"))
            .reachable_forms
            .len(),
        3
    );
    let f = lr("P(x, y, z, w) :- A(w, w1), P(y, z, x, w1).\nP(x, y, z, w) :- E(x, y, z, w).");
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
    db.insert_relation(
        "E",
        Relation::from_tuples(
            4,
            [
                recurs_datalog::relation::tuple_u64([1, 2, 3, 4]),
                recurs_datalog::relation::tuple_u64([2, 3, 1, 3]),
            ],
        ),
    );
    let q = parse_atom("P('1', y, z, w)").unwrap();
    let planned = Planned::new(&f, &db, &q).unwrap();
    assert_eq!(planned.plan.strategy, StrategyKind::Magic);
    let adorned = |r: &recurs_datalog::Rule| r.head.predicate.as_str().starts_with("P__");
    let forms: std::collections::BTreeSet<_> = planned
        .plan
        .program()
        .rules
        .iter()
        .filter(|r| adorned(r))
        .map(|r| r.head.predicate)
        .collect();
    assert_eq!(forms.len(), 3, "{forms:?}");
    let answers = planned.run().unwrap().answers.to_relation();
    let (oracle, _) = recurs_core::oracle::ground_truth(&f, &db, &q).unwrap();
    assert_eq!(answers, oracle);
    // Each turn rotates the tuple and walks one `A` step up: (1,2,3,4)
    // itself; (2,3,1,3) one turn up is (1,2,3,2); and (1,2,3,4) comes back
    // round after three turns as (1,2,3,1).
    assert_eq!(answers.len(), 3);
}

#[test]
fn bounded_with_out_of_domain_constants() {
    let f = lr("P(x, y, z) :- P(y, z, x).");
    let mut db = Database::new();
    db.insert_relation(
        "E",
        Relation::from_tuples(3, [recurs_datalog::relation::tuple_u64([1, 2, 3])]),
    );
    let q = parse_atom("P('99', y, z)").unwrap();
    let run = Planned::new(&f, &db, &q).unwrap().run().unwrap();
    assert!(run.answers.is_empty());
    assert_equivalent(&f, &db, &q);
}

#[test]
fn empty_exit_relation_everywhere() {
    // With an empty exit, every class must answer ∅ without errors.
    for src in [
        "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).",
        "P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).\nP(x, y, z) :- E(x, y, z).",
        "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).\nP(x, y) :- E(x, y).",
    ] {
        let f = lr(src);
        let mut db = Database::new();
        for pred in f.to_program().edb_predicates() {
            let arity = f
                .to_program()
                .rules
                .iter()
                .flat_map(|r| r.body.iter())
                .find(|a| a.predicate == pred)
                .unwrap()
                .arity();
            db.declare(pred, arity).unwrap();
        }
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        let n = f.dimension();
        let q_src = format!(
            "P({})",
            (0..n)
                .map(|i| format!("v{i}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let q = parse_atom(&q_src).unwrap();
        let run = Planned::new(&f, &db, &q).unwrap().run().unwrap();
        assert!(run.answers.is_empty(), "{src}");
        assert_equivalent(&f, &db, &q);
    }
}

/// The oracle's two fixpoints agree on random recursions as written, and on
/// the program each one's bound query `P(1, y, …)` lowers to, seed planted.
/// A magic lowering's rule bodies hold the magic atom beside the recursive
/// atom — two IDB atoms in one body, which `semi_naive` joins with one of
/// them reading the delta and the other the whole relation.
#[test]
fn naive_and_semi_naive_agree_on_random_programs() {
    use recurs_core::plan::plan_query;
    use recurs_workload::{all_query_atoms, random_database, random_linear_recursion, RuleConfig};
    for seed in 0..40 {
        let f = random_linear_recursion(seed, RuleConfig::default());
        let db = random_database(&f, 20, 5, seed);
        let mut db1 = db.clone();
        let mut db2 = db.clone();
        naive(&mut db1, &f.to_program(), None).unwrap();
        semi_naive(&mut db2, &f.to_program(), None).unwrap();
        assert_eq!(
            db1.get(f.predicate).unwrap(),
            db2.get(f.predicate).unwrap(),
            "naive ≠ semi-naive for seed {seed}: {}",
            f.recursive_rule
        );

        let q = all_query_atoms(&f, &[1]).swap_remove(1);
        let plan = plan_query(&f, &q).unwrap();
        let lowered = plan.lower(&q).unwrap();
        let mut planted = db;
        if let Some((pred, tuple)) = &lowered.seed {
            planted.insert_relation(*pred, Relation::from_tuples(tuple.len(), [tuple.clone()]));
        }
        let (mut db1, mut db2) = (planted.clone(), planted);
        let naive_stats = naive(&mut db1, lowered.program, None).unwrap();
        let semi_stats = semi_naive(&mut db2, lowered.program, None).unwrap();
        let context = format!("seed {seed}, {} lowering of {q}", plan.strategy.label());
        for pred in lowered.program.idb_predicates() {
            assert_eq!(db1.get(pred), db2.get(pred), "{pred}: {context}");
        }
        assert_eq!(
            naive_stats.tuples_derived, semi_stats.tuples_derived,
            "{context}"
        );
    }
}

#[test]
fn transform_then_compress_composes() {
    // Unfold s4 to stable, then compress its chains; classification and
    // answers must survive both rewrites.
    use recurs_core::compress::compress;
    use recurs_core::transform::unfold_to_stable;
    let f = lr(
        "P(x1, x2, x3) :- A(x1, y3), B(x2, y1), C(y2, x3), P(y1, y2, y3).\n\
                P(x1, x2, x3) :- E(x1, x2, x3).",
    );
    let t = unfold_to_stable(&f).unwrap();
    let stable = t.to_linear_recursion();
    let c = compress(&stable);
    assert!(Classification::of(&c.lr.recursive_rule).is_strongly_stable());
    assert!(!c.combined.is_empty());

    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 5)]));
    db.insert_relation("B", Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 5)]));
    db.insert_relation("C", Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 5)]));
    db.insert_relation(
        "E",
        Relation::from_tuples(3, [recurs_datalog::relation::tuple_u64([2, 2, 2])]),
    );
    let mut db2 = db.clone();
    semi_naive(&mut db, &f.to_program(), None).unwrap();
    semi_naive(&mut db2, &c.to_program(), None).unwrap();
    assert_eq!(db.get("P").unwrap(), db2.get("P").unwrap());
}
