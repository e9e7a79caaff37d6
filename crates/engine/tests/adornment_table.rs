//! The differential table for the plan rewrite: for each formula below, on an
//! acyclic and a cyclic EDB, **every** adornment — all 2ⁿ bound / free
//! patterns, each also with its first two free positions sharing a variable —
//! is planned, lowered and run by [`recurs_engine::evaluate`], and must equal
//! the `naive` fixpoint of the recursion as written, filtered by the query.
//!
//! The rewrite (selection pushed through the fixpoint: bounded levels, the
//! counting formula as a frontier walk, the magic transformation) replaced
//! four interpreters; this table is the verification it was accepted on, and
//! each behaviour their unit tests pinned is a row here — named where it is.

use recurs_core::plan::{plan_for_form, StrategyKind};
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::eval::{answer_query, naive};
use recurs_datalog::parser::parse_program;
use recurs_datalog::term::{Atom, Term};
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Database, LinearRecursion, Relation};
use recurs_engine::{evaluate, EngineConfig, EngineDb};
use recurs_workload::{all_query_atoms, chain, cycle, random_relation};

use StrategyKind::{Bounded, Frontier, Magic, Saturate};

/// One row: a formula, and the lowering the one dispatch table must pick
/// for the forms listed (every form is *run*; these pin the table itself).
struct Row {
    name: &'static str,
    program: &'static str,
    lowerings: &'static [(&'static str, StrategyKind)],
}

const TABLE: &[Row] = &[
    Row {
        // `transitive_closure_bound_first`, `second_position_bound`,
        // `free_queries_compute_full_closure`, `fully_bound_existence_query`
        // and, on the cyclic EDB, `transitive_closure_on_cyclic_data_terminates`.
        name: "TC (right-linear)",
        program: "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).",
        lowerings: &[
            ("dv", Frontier),
            ("vd", Magic),
            ("dd", Frontier),
            ("vv", Saturate),
        ],
    },
    Row {
        name: "TC (left-linear)",
        program: "P(x, y) :- P(x, z), A(z, y).\nP(x, y) :- E(x, y).",
        lowerings: &[("vd", Frontier), ("dv", Magic), ("dd", Frontier)],
    },
    Row {
        name: "same generation",
        program: "SG(x, y) :- Up(x, u), SG(u, v), Down(v, y).\nSG(x, y) :- Flat(x, y).",
        lowerings: &[
            ("dv", Magic),
            ("vd", Magic),
            ("dd", Frontier),
            ("vv", Saturate),
        ],
    },
    Row {
        // `s3_three_dimensional_query`: two bound chains walk in step.
        name: "s3 (A1)",
        program: "P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).\nP(x,y,z) :- E(x,y,z).",
        lowerings: &[
            ("ddv", Magic),
            ("ddd", Frontier),
            ("vvd", Magic),
            ("vvv", Saturate),
        ],
    },
    Row {
        // Stable only after three unfoldings: the walk runs on the unfolded
        // rule with its three exits, magic on the original.
        name: "s4a (A3)",
        program: "P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).\n\
                  P(x1,x2,x3) :- E(x1,x2,x3).",
        lowerings: &[("ddv", Magic), ("ddd", Frontier)],
    },
    Row {
        name: "s6 (pure permutation, rank 5)",
        program: "P(x,y,z,u,v,w) :- P(z,y,u,x,w,v).",
        lowerings: &[
            ("dvvvvv", Bounded),
            ("vvvvvv", Bounded),
            ("dddddd", Bounded),
        ],
    },
    Row {
        // Four disjoint cycles of weights 1, 2, 3, 1, stable after 6
        // unfoldings: then y, z and v are identities, so binding x and the
        // B-cycle (u, w, s) leaves nothing to ascend.
        name: "s7 (A5)",
        program: "P(x,y,z,u,w,s,v) :- A(x,t), P(t,z,y,w,s,r,v), B(u,r).\n\
                  P(x,y,z,u,w,s,v) :- E(x,y,z,u,w,s,v).",
        lowerings: &[
            ("dvvdddv", Frontier),
            ("dvvvvvv", Magic),
            ("vdvvvvv", Magic),
        ],
    },
    Row {
        // `repeated_query_variable` (bounded levels unify the repeats).
        name: "s8 (B, rank 2)",
        program: "P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).\n\
                  P(x,y,z,u) :- E(x,y,z,u).",
        lowerings: &[("dvvv", Bounded), ("vvvv", Bounded)],
    },
    Row {
        // `guards_gate_recursive_levels`: D is a trivial component; run with
        // D empty (cyclic EDB below) and non-empty.
        name: "TC with a guard",
        program: "P(x, y) :- A(x, z), D(a, b), P(z, y).\nP(x, y) :- E(x, y).",
        lowerings: &[("dv", Frontier), ("dd", Frontier)],
    },
    Row {
        // `identity_chain_with_filter`: a filter-only free chain is *not*
        // the identity — it drops tuples level by level — and takes magic;
        // bound, the filter rides on the frontier rule.
        name: "TC with a filtered identity position",
        program: "P(x, y) :- A(x, z), B(y), P(z, y).\nP(x, y) :- E(x, y).",
        lowerings: &[("dv", Magic), ("dd", Frontier), ("vd", Magic)],
    },
    Row {
        // `multiple_exit_rules`: one answer rule per exit.
        name: "TC with two exits",
        program: "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).\nP(x, y) :- F(y, x).",
        lowerings: &[("dv", Frontier), ("vd", Magic)],
    },
    Row {
        name: "s11 (E)",
        program: "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).\nP(x, y) :- E(x, y).",
        lowerings: &[("dv", Magic), ("vv", Saturate)],
    },
];

/// Facts for every EDB predicate of `lr` over the domain `1..=5`: binary
/// relations are a chain (acyclic) or a cycle with a chord (cyclic), the
/// rest random. In the cyclic variant the guard `D` is left empty.
fn edb(lr: &LinearRecursion, cyclic: bool) -> Database {
    let mut db = Database::new();
    let program = lr.to_program();
    for (i, pred) in program.edb_predicates().into_iter().enumerate() {
        let body = program.rules.iter().flat_map(|r| r.body.iter());
        let arity = body.filter(|a| a.predicate == pred).map(Atom::arity).next();
        let arity = arity.expect("EDB predicates occur in some body");
        let seed = 7 + i as u64 + u64::from(cyclic);
        let rel = match (arity, cyclic) {
            (2, true) if pred.as_str() == "D" => Relation::new(2),
            (2, false) => chain(5),
            (2, true) => {
                let mut rel = cycle(4);
                rel.union_in_place(&Relation::from_pairs([(2, 5), (5, 2)]));
                rel
            }
            _ => random_relation(arity, 14, 5, seed),
        };
        db.insert_relation(pred, rel);
    }
    db
}

/// `query` with its first two free positions sharing one variable, if it
/// has two.
fn with_repeat(query: &Atom) -> Option<Atom> {
    let free: Vec<usize> = (0..query.arity())
        .filter(|&i| query.terms[i].is_var())
        .collect();
    let (&first, &second) = (free.first()?, free.get(1)?);
    let mut terms = query.terms.clone();
    terms[second] = terms[first];
    Some(Atom::new(query.predicate, terms))
}

#[test]
fn every_adornment_of_every_row_equals_the_naive_fixpoint() {
    for row in TABLE {
        let lr = validate_with_generic_exit(&parse_program(row.program).unwrap()).unwrap();
        for (form, lowering) in row.lowerings {
            let plan = plan_for_form(&lr, &QueryForm::parse(form));
            assert_eq!(plan.strategy, *lowering, "{}: form {form}", row.name);
        }
        for cyclic in [false, true] {
            let facts = edb(&lr, cyclic);
            let mut fixpoint = facts.clone();
            naive(&mut fixpoint, &lr.to_program(), None).unwrap();
            let store = EngineDb::from(&facts);
            // Constants that hit the data, then one that is in no relation.
            let mut queries = all_query_atoms(&lr, &[1, 2, 3, 5, 4]);
            queries.extend(all_query_atoms(&lr, &[2, 99]));
            let repeats: Vec<Atom> = queries.iter().filter_map(with_repeat).collect();
            let mut bound_hits = 0;
            for query in queries.iter().chain(&repeats) {
                let plan = plan_for_form(&lr, &QueryForm::of_atom(query));
                let run = evaluate(&plan, query, &store, &EngineConfig::default(), |_| None)
                    .unwrap_or_else(|e| panic!("{}: {query} failed: {e}", row.name));
                assert!(run.saturation.outcome.is_complete());
                let want = answer_query(&fixpoint, query).unwrap();
                assert_eq!(
                    run.answers.to_relation(),
                    want,
                    "{} ({}): {:?} ≠ naive for {query}",
                    row.name,
                    if cyclic { "cyclic" } else { "acyclic" },
                    plan.strategy
                );
                bound_hits += usize::from(plan.strategy != Saturate && !want.is_empty());
            }
            // The table is not vacuous: bound queries do have answers.
            assert!(
                bound_hits >= 4,
                "{}: only {bound_hits} bound hits",
                row.name
            );
        }
    }
}

/// A walk derives the frontier and the answers, nothing else: on a chain of
/// `n` edges from the source, `n` reached vertices + `n` answers — where the
/// magic rewrite of the same query derives `P(z, y)` for every reachable `z`.
#[test]
fn a_walk_is_linear_in_what_it_reaches() {
    let lr = validate_with_generic_exit(&parse_program(TABLE[0].program).unwrap()).unwrap();
    let mut db = Database::new();
    db.insert_relation("A", chain(800));
    db.insert_relation("E", chain(800));
    let query = Atom::new(lr.predicate, vec![Term::constant("1"), Term::var("y")]);
    let plan = plan_for_form(&lr, &QueryForm::of_atom(&query));
    let store = EngineDb::from(&db);
    let run = evaluate(&plan, &query, &store, &EngineConfig::default(), |_| None).unwrap();
    assert_eq!(plan.strategy, Frontier);
    assert_eq!(run.answers.len(), 799);
    assert_eq!(run.saturation.stats.tuples_derived, 1598);
}
