//! The classic *same-generation* query — the workload that motivated much of
//! the 1980s recursive-query-processing literature.
//!
//!     sg(x, y) :- flat(x, y).
//!     sg(x, y) :- up(x, u), sg(u, v), down(v, y).
//!
//! Its I-graph has two disjoint unit rotational cycles (x→u over `up`, y→v
//! over `down`), so it is **strongly stable** (class A1) and the paper's
//! counting plan `σE, ∪k[σUp^k-E-Down^k]` applies directly.
//!
//! Run with: `cargo run --example same_generation`

use recurs_core::classify::Classification;
use recurs_core::plan::StrategyKind;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Database, Relation};
use recurs_engine::oracle::Planned;

fn main() {
    let program = parse_program(
        "SG(x, y) :- Up(x, u), SG(u, v), Down(v, y).\n\
         SG(x, y) :- Flat(x, y).",
    )
    .unwrap();
    let lr = validate_with_generic_exit(&program).unwrap();

    let c = Classification::of(&lr.recursive_rule);
    println!(
        "same-generation class: {} (strongly stable: {})",
        c.class,
        c.is_strongly_stable()
    );

    // A little family tree: a full binary tree of depth 4.
    // `up` = child → parent; `down` = parent → child; `flat` = sibling-ish
    // base pairs (here: each node is in the same generation as itself at the
    // top — use the root pair).
    let depth = 4u32;
    let nodes: u64 = (1 << (depth + 1)) - 1;
    let up = Relation::from_pairs((2..=nodes).map(|c| (c, c / 2)));
    let down = Relation::from_pairs((2..=nodes).map(|c| (c / 2, c)));
    let flat = Relation::from_pairs([(1, 1)]);

    let mut db = Database::new();
    db.insert_relation("Up", up);
    db.insert_relation("Down", down);
    db.insert_relation("Flat", flat);

    // Who is in the same generation as node 9 (a depth-3 node)?
    let query = parse_atom("SG('9', y)").unwrap();
    let planned = Planned::new(&lr, &db, &query).unwrap();
    // `y` ascends through `Down`, so the formula is not a plain walk: it is
    // executed by the magic rewrite, seeded with node 9.
    assert_eq!(planned.plan.strategy, StrategyKind::Magic);
    println!("compiled formula: {}", planned.plan.compiled);

    let answers = planned.run().unwrap().answers;
    let mut generation: Vec<u64> = answers
        .iter()
        .map(|t| t[0].as_str().parse().unwrap())
        .collect();
    generation.sort_unstable();
    println!("same generation as 9: {generation:?}");

    // Node 9 is at depth 3; the same generation is exactly all 8 depth-3
    // nodes (ids 8..=15).
    assert_eq!(generation, (8..=15).collect::<Vec<u64>>());
    println!(
        "verified: exactly the {} nodes at depth 3",
        generation.len()
    );
}
