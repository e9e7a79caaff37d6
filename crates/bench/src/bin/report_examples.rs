//! Regenerates every worked example of the paper (s1–s12): classification,
//! theorems' quantities (stability, unfold period, rank bound), compiled
//! formula, and an executed, oracle-checked representative query.
//!
//! Run with: `cargo run -p recurs-bench --bin report_examples`

use recurs_core::classify::Classification;
use recurs_core::report::{classification_report, plan_report};
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Database, Relation};
use recurs_engine::oracle::compare;
use recurs_workload::queries::random_database;

struct Example {
    id: &'static str,
    src: &'static str,
    /// Paper's expected class label.
    expected_class: &'static str,
    /// A representative concrete query (constants must be in the random DB's
    /// domain 1..=6).
    query: &'static str,
    note: &'static str,
}

const EXAMPLES: &[Example] = &[
    Example {
        id: "s1a (Ex.1)",
        src: "P(x, y) :- A(x, z), P(z, y).",
        expected_class: "A5",
        query: "P('1', y)",
        note: "transitive closure; unit rotational + unit permutational",
    },
    Example {
        id: "s1b (Ex.1)",
        src: "P(x, y, z) :- A(x, y), P(u, z, v), B(u, v).",
        expected_class: "C",
        query: "P('1', y, z)",
        note: "same topology as s9",
    },
    Example {
        id: "s2a (Ex.2)",
        src: "P(x, y) :- A(x, z), P(z, u), B(u, y).",
        expected_class: "A1",
        query: "P('1', y)",
        note: "the resolution-graph construction example; stable",
    },
    Example {
        id: "s3 (Ex.3)",
        src: "P(x, y, z) :- A(x, u), B(y, v), P(u, v, w), C(w, z).",
        expected_class: "A1",
        query: "P('1', '2', z)",
        note: "paper's compiled formula σE, ∪k (σA^k ‖ σB^k)-C^k-E",
    },
    Example {
        id: "s4a (Ex.4)",
        src: "P(x1, x2, x3) :- A(x1, y3), B(x2, y1), C(y2, x3), P(y1, y2, y3).",
        expected_class: "A3",
        query: "P('1', '2', z)",
        note: "weight-3 rotational; unfolds 3× into s4d with 3 exits",
    },
    Example {
        id: "s5 (Ex.5)",
        src: "P(x, y, z) :- P(y, z, x).",
        expected_class: "A4",
        query: "P(x, y, z)",
        note: "pure rotation; bounded, rank 2",
    },
    Example {
        id: "s6 (Ex.6)",
        src: "P(x, y, z, u, v, w) :- P(z, y, u, x, w, v).",
        expected_class: "A5",
        query: "P(x, y, z, u, v, w)",
        note: "permutational cycles of weights 3, 1, 2 — stable after lcm = 6",
    },
    Example {
        id: "s7 (Ex.7)",
        src: "P(x, y, z, u, w, s, v) :- A(x, t), P(t, z, y, w, s, r, v), B(u, r).",
        expected_class: "A5",
        query: "P('1', y, z, u, w, s, v)",
        note: "4 disjoint one-directional cycles, weights 1, 2, 3, 1 — lcm 6",
    },
    Example {
        id: "s8 (Ex.8)",
        src: "P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1).",
        expected_class: "B",
        query: "P(x, y, z, u)",
        note: "bounded cycle; rank 2; equivalent to s8a′ ∪ s8b′",
    },
    Example {
        id: "s9 (Ex.9)",
        src: "P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).",
        expected_class: "C",
        query: "P('1', y, z)",
        note: "unbounded cycle; paper's plan uses × and ∃",
    },
    Example {
        id: "s10 (Ex.10)",
        src: "P(x, y) :- B(y), C(x, y1), P(x1, y1).",
        expected_class: "D",
        query: "P(x, y)",
        note: "no non-trivial cycle; bounded with rank 2",
    },
    Example {
        id: "s11 (Ex.11)",
        src: "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).",
        expected_class: "E",
        query: "P('1', y)",
        note: "dependent cycles; plan σA-C-B-[{A‖B}-C]^k-…-E",
    },
    Example {
        id: "s12 (Ex.14)",
        src: "P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), P(u, v, w).",
        expected_class: "F",
        query: "P('1', y, z)",
        note: "mixed E⊕A1 (the paper prints D⊕A1; its derivation matches E) — \
               determined pattern dvv → ddv → ddv …",
    },
];

fn main() {
    let mut all_agree = true;
    for ex in EXAMPLES {
        println!("{}", "=".repeat(72));
        println!("{} — {}", ex.id, ex.note);
        println!("{}", "=".repeat(72));
        let lr = validate_with_generic_exit(&parse_program(ex.src).unwrap()).unwrap();
        print!("{}", classification_report(&lr));

        let c = Classification::of(&lr.recursive_rule);
        let status = if c.class.label() == ex.expected_class {
            "matches the paper"
        } else {
            all_agree = false;
            "** DIFFERS from the paper **"
        };
        println!("paper's class: {} — {status}", ex.expected_class);

        let query = parse_atom(ex.query).unwrap();
        print!("{}", plan_report(&lr, &QueryForm::of_atom(&query)));

        // Execute on a seeded random database and cross-check the oracle.
        let db: Database = random_database(&lr, 30, 6, 0xFEED);
        // Give 2-ary EDBs a chain backbone so selective queries connect.
        let db = with_backbones(db);
        match compare(&lr, &db, &query) {
            Ok(report) => {
                println!(
                    "execution       : {} answers via {:?}; oracle agreement: {}",
                    report.plan_answers.len(),
                    report.strategy,
                    report.agrees()
                );
                all_agree &= report.agrees();
            }
            Err(e) => {
                println!("execution       : failed — {e}");
                all_agree = false;
            }
        }
        println!();
    }
    println!("{}", "=".repeat(72));
    println!(
        "overall: {}",
        if all_agree {
            "every example classified as in the paper and every plan agreed with the fixpoint oracle"
        } else {
            "DIVERGENCES FOUND — see above"
        }
    );
}

fn with_backbones(mut db: Database) -> Database {
    let names: Vec<_> = db.names().collect();
    for name in names {
        let rel = db.get(name).unwrap().clone();
        if rel.arity() == 2 {
            let mut merged = rel;
            merged.union_in_place(&Relation::from_pairs((1..6).map(|i| (i, i + 1))));
            db.insert_relation(name, merged);
        }
    }
    db
}
