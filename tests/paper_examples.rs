//! End-to-end reproduction of every worked example of the paper (s1–s12):
//! classification, bounds, transformations, plans, and execution checked
//! against the semi-naive oracle for every query form.

use recurs_core::classify::{Classification, FormulaClass, OneDirectionalSubclass};
use recurs_core::plan::{plan_query, StrategyKind};
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::Database;
use recurs_engine::oracle::{assert_equivalent, compare};
use recurs_workload::all_query_atoms;
use recurs_workload::graphs::{chain, random_digraph, random_relation};

fn lr(src: &str) -> LinearRecursion {
    validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
}

/// Checks every query form (with constants drawn from the database's domain)
/// against the oracle.
fn check_all_forms(f: &LinearRecursion, db: &Database, constants: &[u64]) {
    for q in all_query_atoms(f, constants) {
        assert_equivalent(f, db, &q);
    }
}

#[test]
fn s1a_transitive_closure() {
    let f = lr("P(x, y) :- A(x, z), P(z, y).");
    let c = Classification::of(&f.recursive_rule);
    assert_eq!(
        c.class,
        FormulaClass::OneDirectional(OneDirectionalSubclass::A5)
    );
    assert!(c.is_strongly_stable());

    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4), (2, 5)]));
    db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3), (3, 4), (2, 5)]));
    check_all_forms(&f, &db, &[1, 3]);
}

#[test]
fn s1b_example_1() {
    let f = lr("P(x, y, z) :- A(x, y), P(u, z, v), B(u, v).");
    let c = Classification::of(&f.recursive_rule);
    // Same topology as s9: a single independent multi-directional cycle of
    // non-zero weight — class C.
    assert_eq!(c.class, FormulaClass::Unbounded);

    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (3, 4)]));
    db.insert_relation("B", Relation::from_pairs([(5, 6), (6, 5)]));
    db.insert_relation(
        "E",
        Relation::from_tuples(3, [tuple_u64([5, 7, 6]), tuple_u64([6, 1, 5])]),
    );
    check_all_forms(&f, &db, &[1, 7]);
}

#[test]
fn s2a_example_2_expansion() {
    // The graph-construction example; also execute it (it is stable: two
    // disjoint unit rotational cycles).
    let f = lr("P(x, y) :- A(x, z), P(z, u), B(u, y).");
    let c = Classification::of(&f.recursive_rule);
    assert!(c.is_strongly_stable());
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
    db.insert_relation("B", Relation::from_pairs([(11, 12), (12, 13)]));
    db.insert_relation("E", Relation::from_pairs([(3, 11), (2, 12)]));
    check_all_forms(&f, &db, &[1, 13]);
}

#[test]
fn s3_example_3_stable() {
    let f = lr("P(x, y, z) :- A(x, u), B(y, v), P(u, v, w), C(w, z).");
    let c = Classification::of(&f.recursive_rule);
    assert_eq!(
        c.class,
        FormulaClass::OneDirectional(OneDirectionalSubclass::A1)
    );
    assert!(c.is_strongly_stable());

    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 1)]));
    db.insert_relation("B", Relation::from_pairs([(4, 5), (5, 6), (6, 4)]));
    db.insert_relation("C", Relation::from_pairs([(7, 8), (8, 9), (9, 7)]));
    db.insert_relation(
        "E",
        Relation::from_tuples(3, [tuple_u64([3, 6, 7]), tuple_u64([1, 4, 8])]),
    );
    // The paper's representative query P(a, b, Z) compiles to the counting
    // formula; its `C^k` ascend factor makes the magic rewrite execute it,
    // while the fully bound form is the plain walk.
    let q = recurs_datalog::parser::parse_atom("P('1', '4', z)").unwrap();
    let plan = plan_query(&f, &q).unwrap();
    assert_eq!(plan.compiled.to_string(), "σE,  ∪k[{σA^k ‖ σB^k}-E-C^k]");
    assert_eq!(plan.strategy, StrategyKind::Magic);
    let q = recurs_datalog::parser::parse_atom("P('1', '4', '8')").unwrap();
    assert_eq!(plan_query(&f, &q).unwrap().strategy, StrategyKind::Frontier);
    check_all_forms(&f, &db, &[1, 4]);
}

#[test]
fn s4_example_4_nonunit_rotational() {
    let f = lr("P(x1, x2, x3) :- A(x1, y3), B(x2, y1), C(y2, x3), P(y1, y2, y3).");
    let c = Classification::of(&f.recursive_rule);
    assert_eq!(
        c.class,
        FormulaClass::OneDirectional(OneDirectionalSubclass::A3)
    );
    assert_eq!(c.stabilization_period(), Some(3));

    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 1)]));
    db.insert_relation("B", Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 2)]));
    db.insert_relation("C", Relation::from_pairs([(1, 2), (2, 3), (3, 4), (2, 1)]));
    db.insert_relation(
        "E",
        Relation::from_tuples(3, [tuple_u64([2, 3, 1]), tuple_u64([4, 4, 4])]),
    );
    check_all_forms(&f, &db, &[2, 3]);
}

#[test]
fn s5_example_5_permutational() {
    let f = lr("P(x, y, z) :- P(y, z, x).");
    let c = Classification::of(&f.recursive_rule);
    assert!(c.is_bounded());
    assert_eq!(c.rank_bound(), Some(2));

    let mut db = Database::new();
    db.insert_relation(
        "E",
        Relation::from_tuples(3, [tuple_u64([1, 2, 3]), tuple_u64([4, 4, 5])]),
    );
    check_all_forms(&f, &db, &[1, 4]);
}

#[test]
fn s6_example_6_three_permutational_cycles() {
    let f = lr("P(x, y, z, u, v, w) :- P(z, y, u, x, w, v).");
    let c = Classification::of(&f.recursive_rule);
    assert_eq!(c.stabilization_period(), Some(6));
    assert_eq!(c.rank_bound(), Some(5));

    let mut db = Database::new();
    db.insert_relation(
        "E",
        Relation::from_tuples(
            6,
            [tuple_u64([1, 2, 3, 4, 5, 6]), tuple_u64([2, 2, 2, 3, 3, 3])],
        ),
    );
    // 2^6 forms is 64 oracle runs — keep constants small.
    check_all_forms(&f, &db, &[1, 2]);
}

#[test]
fn s7_example_7_disjoint_combination() {
    let f = lr("P(x, y, z, u, w, s, v) :- A(x, t), P(t, z, y, w, s, r, v), B(u, r).");
    let c = Classification::of(&f.recursive_rule);
    assert_eq!(
        c.class,
        FormulaClass::OneDirectional(OneDirectionalSubclass::A5)
    );
    assert_eq!(c.stabilization_period(), Some(6));

    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 1)]));
    db.insert_relation("B", Relation::from_pairs([(1, 2), (2, 1)]));
    db.insert_relation(
        "E",
        Relation::from_tuples(7, [tuple_u64([1, 2, 1, 2, 1, 2, 1])]),
    );
    // 2^7 forms is large; check a representative selection instead.
    use recurs_datalog::parser::parse_atom;
    for q in [
        "P(x, y, z, u, w, s, v)",
        "P('1', y, z, u, w, s, v)",
        "P(x, '1', z, u, w, s, v)",
        "P('2', '1', '2', u, w, s, v)",
        "P('1', '2', '1', '2', '1', '2', '1')",
    ] {
        assert_equivalent(&f, &db, &parse_atom(q).unwrap());
    }
}

#[test]
fn s8_example_8_bounded() {
    let f = lr("P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1).");
    let c = Classification::of(&f.recursive_rule);
    assert_eq!(c.class, FormulaClass::Bounded);
    assert_eq!(c.rank_bound(), Some(2));

    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
    db.insert_relation("B", Relation::from_pairs([(2, 5), (3, 6), (4, 7)]));
    db.insert_relation("C", Relation::from_pairs([(8, 9), (9, 8), (2, 3)]));
    db.insert_relation(
        "E",
        Relation::from_tuples(4, [tuple_u64([2, 2, 8, 9]), tuple_u64([3, 3, 9, 8])]),
    );
    check_all_forms(&f, &db, &[2, 8]);
}

#[test]
fn s9_example_9_unbounded() {
    let f = lr("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).");
    let c = Classification::of(&f.recursive_rule);
    assert_eq!(c.class, FormulaClass::Unbounded);
    assert!(!c.is_transformable_to_stable(), "Thm 5");

    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (5, 5)]));
    db.insert_relation("B", Relation::from_pairs([(6, 7), (7, 6)]));
    db.insert_relation(
        "E",
        Relation::from_tuples(3, [tuple_u64([6, 9, 7]), tuple_u64([1, 8, 2])]),
    );
    check_all_forms(&f, &db, &[1, 9]);
}

#[test]
fn s10_example_10_no_nontrivial_cycle() {
    let f = lr("P(x, y) :- B(y), C(x, y1), P(x1, y1).");
    let c = Classification::of(&f.recursive_rule);
    assert_eq!(c.class, FormulaClass::NoNontrivialCycles);
    assert_eq!(c.rank_bound(), Some(2));

    let mut db = Database::new();
    db.insert_relation(
        "B",
        Relation::from_tuples(1, [tuple_u64([5]), tuple_u64([6])]),
    );
    db.insert_relation("C", Relation::from_pairs([(1, 7), (2, 8), (3, 7)]));
    db.insert_relation("E", Relation::from_pairs([(9, 7), (4, 8), (2, 5)]));
    check_all_forms(&f, &db, &[1, 5]);
}

#[test]
fn s11_example_11_dependent() {
    let f = lr("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).");
    let c = Classification::of(&f.recursive_rule);
    assert_eq!(c.class, FormulaClass::Dependent);
    assert!(!c.is_transformable_to_stable(), "Thm 8");

    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 1)]));
    db.insert_relation("B", Relation::from_pairs([(11, 12), (12, 13), (13, 11)]));
    db.insert_relation("C", Relation::from_pairs([(2, 12), (3, 13), (1, 11)]));
    db.insert_relation("E", Relation::from_pairs([(2, 12), (1, 11), (9, 9)]));
    // The paper's query form P(d, v) plus every other form.
    check_all_forms(&f, &db, &[1, 12]);
}

#[test]
fn s12_example_14_mixed() {
    let f = lr("P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), P(u, v, w).");
    let c = Classification::of(&f.recursive_rule);
    assert_eq!(c.class, FormulaClass::Mixed);
    // Example 14's query-form table: dvv, then ddv from the first expansion on.
    let dvv = recurs_datalog::QueryForm::parse("dvv");
    let (trace, _) = recurs_datalog::adornment::propagation_trace(&f.recursive_rule, &dvv, 4);
    let trace: Vec<String> = trace.iter().map(ToString::to_string).collect();
    assert_eq!(trace[..3], ["dvv", "ddv", "ddv"]);

    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 1)]));
    db.insert_relation("B", Relation::from_pairs([(11, 12), (12, 13), (13, 11)]));
    db.insert_relation("C", Relation::from_pairs([(2, 12), (3, 13), (1, 11)]));
    db.insert_relation("D", Relation::from_pairs([(21, 22), (22, 23), (23, 21)]));
    db.insert_relation(
        "E",
        Relation::from_tuples(3, [tuple_u64([2, 12, 21]), tuple_u64([3, 13, 22])]),
    );
    check_all_forms(&f, &db, &[1, 21]);
}

#[test]
fn remark_compression_formula() {
    // The Remark's example: P(x,y) :- A(x,u), B(x,z), C(z,u), P(u,y) —
    // compresses to ABC(x,u), stable.
    let f = lr("P(x, y) :- A(x, u), B(x, z), C(z, u), P(u, y).");
    assert!(Classification::of(&f.recursive_rule).is_strongly_stable());
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
    db.insert_relation("B", Relation::from_pairs([(1, 5), (2, 6)]));
    db.insert_relation("C", Relation::from_pairs([(5, 2), (6, 3)]));
    db.insert_relation("E", Relation::from_pairs([(2, 9), (3, 8)]));
    check_all_forms(&f, &db, &[1, 9]);
}

#[test]
fn theorem1_counterexample_formula() {
    // P(x,y) :- A(x,z), P(y,z): the uniform length-two cycle from Theorem
    // 1's proof — unstable but transformable (A3, period 2).
    let f = lr("P(x, y) :- A(x, z), P(y, z).");
    let c = Classification::of(&f.recursive_rule);
    assert!(!c.is_strongly_stable());
    assert_eq!(c.stabilization_period(), Some(2));
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 2)]));
    db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3), (3, 2)]));
    check_all_forms(&f, &db, &[1, 2]);
}

/// The compilation approach's performance claims, as tuples derived by the
/// compiled plan against the semi-naive fixpoint on the same query: P1 a
/// frontier walk from near a chain's end (class A5), P2 the rank-2 union of
/// s8 with the selection pushed into each level (class B), P3 magic on the
/// dependent s11 (class E). Each answer set agrees with the fixpoint's.
#[test]
fn compiled_plans_derive_a_fraction_of_the_fixpoint() {
    let tc = lr("P(x, y) :- A(x, z), P(z, y).");
    let mut chains = Database::new();
    chains.insert_relation("A", chain(200));
    chains.insert_relation("E", chain(200));

    let s8 = lr("P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1).");
    let mut random = Database::new();
    for (rel, seed) in [("A", 1), ("B", 2), ("C", 3)] {
        random.insert_relation(rel, random_digraph(40, 80, seed));
    }
    random.insert_relation("E", random_relation(4, 80, 40, 4));

    let s11 = lr("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).");
    let mut diagonal = Database::new();
    diagonal.insert_relation("A", chain(150));
    diagonal.insert_relation("B", chain(150));
    for rel in ["C", "E"] {
        diagonal.insert_relation(rel, Relation::from_pairs((1..=150).map(|i| (i, i))));
    }

    use StrategyKind::{Bounded, Frontier, Magic};
    let claims = [
        ("P1", &tc, &chains, "P('190', y)", Frontier, 100),
        ("P2", &s8, &random, "P('3', y, z, u)", Bounded, 20),
        ("P3", &s11, &diagonal, "P('140', y)", Magic, 5),
    ];
    for (id, f, db, query, strategy, fewer) in claims {
        let report = compare(f, db, &parse_atom(query).unwrap()).unwrap();
        assert!(report.agrees(), "{id}: the plan disagrees");
        assert_eq!(report.strategy, strategy, "{id}");
        let (plan, fixpoint) = (report.plan_tuples_derived, report.oracle_tuples_derived);
        let claim = format!("{id}: the plan derived {plan}, the fixpoint {fixpoint}");
        assert!(plan * fewer <= fixpoint, "{claim}: not {fewer}x fewer");
    }
}
