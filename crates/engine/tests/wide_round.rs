//! Same-generation over complete binary trees: the program whose widest
//! round (the `4^(d-1)` pairs of depth `d - 1` into the `4^d` of depth `d`)
//! the bulk merge's look-ahead is for. The delta rows of a round share
//! their first column in pairs, and each row probes `Down(v, y)` once per
//! child `x` of `u`, with the same `v`: every other probe repeats the one
//! before it. The look-ahead may change no answer and no count — the
//! fixpoint is the oracle's, and `probes` / `probe_hits` count each probe
//! and every tuple it returns.

use recurs_datalog::database::Database;
use recurs_datalog::eval::semi_naive;
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::Relation;
use recurs_engine::{saturate, CompiledProgram, EngineConfig, EngineDb};

const SG: &str = "SG(x, y) :- Up(x, u), SG(u, v), Down(v, y).\nSG(x, y) :- Flat(x, y).";

/// The complete binary tree of depth `depth` in heap order: node `c`'s
/// parent is `c / 2`.
fn tree(depth: u32) -> Database {
    let nodes = (2u64 << depth) - 1;
    let mut db = Database::new();
    db.insert_relation("Up", Relation::from_pairs((2..=nodes).map(|c| (c, c / 2))));
    db.insert_relation(
        "Down",
        Relation::from_pairs((2..=nodes).map(|c| (c / 2, c))),
    );
    db.insert_relation("Flat", Relation::from_pairs([(1, 1)]));
    db
}

#[test]
fn same_generation_over_a_tree_is_the_oracles_fixpoint_with_every_probe_counted() {
    let program = parse_program(SG).unwrap();
    // Each pair above the leaves probes `Up` once and `Down` once per child
    // of its first node, finding 2 + 2 * 2 tuples; each pair of leaves
    // probes `Up` once, in vain: 2 * 4^d - 1 probes, 2 * 4^d - 2 hits —
    // at depth 9 (1023 nodes) what `--stats-json` reports for SG/1023.
    for (depth, probes, hits) in [(1, 7, 6), (4, 511, 510), (9, 524_287, 524_286)] {
        let facts = tree(depth);
        let mut store = EngineDb::from(&facts);
        let compiled = CompiledProgram::compile(&program, &store).unwrap();
        let sat = saturate(&mut store, &compiled, None, &EngineConfig::default()).unwrap();
        let sg = store.get("SG".into()).unwrap();

        // Level k holds 4^k pairs.
        assert_eq!(sg.len(), (4usize.pow(depth + 1) - 1) / 3, "depth {depth}");
        let mut oracle = facts.clone();
        semi_naive(&mut oracle, &program, None).unwrap();
        assert_eq!(
            sg.to_relation(),
            *oracle.get("SG").unwrap(),
            "depth {depth}"
        );
        let counted = (sat.stats.probes, sat.stats.probe_hits);
        assert_eq!(counted, (probes, hits), "depth {depth}");
    }
}
