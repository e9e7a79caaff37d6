//! A deductive-database scenario: querying an organizational hierarchy with
//! three recursive formulas of *different classes*, showing how the
//! classifier picks a different evaluation strategy for each.
//!
//! 1. `Reports(x, y)` — transitive reporting chain (stable, class A5:
//!    unit rotational + unit permutational cycles).
//! 2. `Peer(x, y, l)` — "peers at the same level reachable in one
//!    reorganization", a bounded formula (class B shape): no fixpoint is
//!    ever run, the plan is a finite union.
//! 3. `Handoff(x, y, z)` — a weight-3 rotational cycle among three roles
//!    (class A3): the planner unfolds it three times into a stable formula.
//!
//! Run with: `cargo run --example org_hierarchy`

use recurs_core::classify::Classification;
use recurs_core::plan::StrategyKind;
use recurs_core::report::plan_report;
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::tuple_u64;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Database, Relation};
use recurs_engine::oracle::Planned;

fn main() {
    // ---- shared EDB: a management tree of ~120 employees -----------------
    let mut db = Database::new();
    // Boss(m, e): m manages e. Ternary tree, ids 1..=121.
    let boss = Relation::from_pairs((2..=121u64).map(|e| ((e - 2) / 3 + 1, e)));
    db.insert_relation("Boss", boss.clone());
    db.insert_relation("BossE", boss);

    // ---- 1. transitive reporting (stable) ---------------------------------
    let reports = validate_with_generic_exit(
        &parse_program(
            "Reports(m, e) :- Boss(m, x), Reports(x, e).\n\
             Reports(m, e) :- BossE(m, e).",
        )
        .unwrap(),
    )
    .unwrap();
    let c = Classification::of(&reports.recursive_rule);
    println!(
        "Reports/2: class {} — strongly stable: {}",
        c.class,
        c.is_strongly_stable()
    );
    let q = parse_atom("Reports('2', e)").unwrap();
    let planned = Planned::new(&reports, &db, &q).unwrap();
    assert_eq!(planned.plan.strategy, StrategyKind::Frontier);
    let everyone_under_2 = planned.run().unwrap().answers;
    println!("  employees under manager 2: {}", everyone_under_2.len());
    print!("{}", plan_report(&reports, &QueryForm::parse("dv")));

    // ---- 2. a bounded (pseudo-recursive) formula ---------------------------
    // Peer(x, y, w, z): the s8-shaped bounded pattern over org relations.
    let peer = validate_with_generic_exit(
        &parse_program(
            "Peer(x, y, z, u) :- Boss(x, y), Mentor(y1, u), Moved(z1, u1), Peer(z, y1, z1, u1).\n\
             Peer(x, y, z, u) :- Seed(x, y, z, u).",
        )
        .unwrap(),
    )
    .unwrap();
    let c = Classification::of(&peer.recursive_rule);
    println!(
        "\nPeer/4: class {} — bounded with rank {:?}",
        c.class,
        c.rank_bound()
    );
    db.insert_relation("Mentor", Relation::from_pairs([(2, 7), (3, 8), (4, 9)]));
    db.insert_relation("Moved", Relation::from_pairs([(5, 2), (6, 3)]));
    db.insert_relation(
        "Seed",
        Relation::from_tuples(4, [tuple_u64([2, 2, 5, 2]), tuple_u64([3, 3, 6, 3])]),
    );
    let q = parse_atom("Peer(x, y, z, u)").unwrap();
    let planned = Planned::new(&peer, &db, &q).unwrap();
    assert_eq!(planned.plan.strategy, StrategyKind::Bounded);
    let peers = planned.run().unwrap().answers;
    println!("  peer tuples (no fixpoint executed): {}", peers.len());

    // ---- 3. a rotating three-role formula (class A3) ----------------------
    // Handoff(a, b, c): role a hands to the holder 3 steps around the cycle.
    let handoff = validate_with_generic_exit(
        &parse_program(
            "Handoff(x1, x2, x3) :- Deputy(x1, y3), Cover(x2, y1), Backup(y2, x3), Handoff(y1, y2, y3).\n\
             Handoff(x1, x2, x3) :- Initial(x1, x2, x3).",
        )
        .unwrap(),
    )
    .unwrap();
    let c = Classification::of(&handoff.recursive_rule);
    println!(
        "\nHandoff/3: class {} — transformable to stable by unfolding {}×",
        c.class,
        c.stabilization_period().unwrap()
    );
    db.insert_relation("Deputy", Relation::from_pairs([(1, 2), (2, 3), (3, 1)]));
    db.insert_relation("Cover", Relation::from_pairs([(4, 5), (5, 6), (6, 4)]));
    db.insert_relation("Backup", Relation::from_pairs([(7, 8), (8, 9), (9, 7)]));
    db.insert_relation(
        "Initial",
        Relation::from_tuples(3, [tuple_u64([2, 5, 7]), tuple_u64([3, 6, 8])]),
    );
    let q = parse_atom("Handoff('2', '5', z)").unwrap();
    let planned = Planned::new(&handoff, &db, &q).unwrap();
    // Stable after 3 unfoldings; the free role ascends its chain, so the
    // compiled formula runs as the magic rewrite.
    assert_eq!(planned.plan.strategy, StrategyKind::Magic);
    assert_eq!(planned.plan.transform.as_ref().unwrap().period, 3);
    let answers = planned.run().unwrap().answers.to_relation();
    println!("  handoff answers for (2, 5, Z): {}", answers);
    assert!(!answers.is_empty());

    // Every plan above is certified against the fixpoint oracle in the test
    // suite; spot-check one here too.
    recurs_engine::oracle::assert_equivalent(&handoff, &db, &q);
    println!("\nall strategies verified against the fixpoint oracle");
}
