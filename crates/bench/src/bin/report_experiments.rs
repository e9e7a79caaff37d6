//! Regenerates the experiment index of EXPERIMENTS.md: for every
//! figure/example of the paper, the paper's claim versus our measured
//! result, plus coarse wall-clock comparisons of the compiled plans — run
//! on the engine, as `recurs run` and `serve` run them — against the
//! fixpoint baselines (the performance claims the compilation approach
//! implies).
//!
//! Run with: `cargo run --release -p recurs-bench --bin report_experiments`

use recurs_core::classify::Classification;
use recurs_core::plan::StrategyKind;
use recurs_datalog::eval::naive;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Database, LinearRecursion, Relation};
use recurs_engine::oracle::compare;
use recurs_engine::oracle::Planned;
use recurs_workload::graphs::{chain, random_digraph, random_relation};
use std::time::{Duration, Instant};

fn lr(src: &str) -> LinearRecursion {
    validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
}

fn time<R>(f: impl Fn() -> R, reps: u32) -> Duration {
    // One warm-up, then best-of-`reps` to damp noise.
    let _ = f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        })
        .min()
        .expect("reps >= 1")
}

struct Row {
    id: String,
    claim: String,
    measured: String,
    ok: bool,
}

fn check_claim(rows: &mut Vec<Row>, id: &str, claim: &str, measured: String, ok: bool) {
    rows.push(Row {
        id: id.into(),
        claim: claim.into(),
        measured,
        ok,
    });
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();

    // ---- structural claims (classification / bounds / periods) -----------
    type Check = fn(&Classification) -> (String, bool);
    let structural: &[(&str, &str, &str, Check)] = &[
        (
            "E3/s3",
            "class A1, strongly stable",
            "P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).",
            |c| {
                (
                    format!("class {}, stable={}", c.class, c.is_strongly_stable()),
                    c.class.label() == "A1" && c.is_strongly_stable(),
                )
            },
        ),
        (
            "E4/s4a",
            "class A3, stable after 3 unfoldings",
            "P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).",
            |c| {
                (
                    format!("class {}, period {:?}", c.class, c.stabilization_period()),
                    c.class.label() == "A3" && c.stabilization_period() == Some(3),
                )
            },
        ),
        ("E5/s5", "class A4, bounded", "P(x,y,z) :- P(y,z,x).", |c| {
            (
                format!(
                    "class {}, bounded={}, rank {:?}",
                    c.class,
                    c.is_bounded(),
                    c.rank_bound()
                ),
                c.class.label() == "A4" && c.rank_bound() == Some(2),
            )
        }),
        (
            "E6/s6",
            "stable after lcm(3,1,2)=6; bound lcm−1=5 (Thm 10)",
            "P(x,y,z,u,v,w) :- P(z,y,u,x,w,v).",
            |c| {
                (
                    format!(
                        "period {:?}, rank {:?}",
                        c.stabilization_period(),
                        c.rank_bound()
                    ),
                    c.stabilization_period() == Some(6) && c.rank_bound() == Some(5),
                )
            },
        ),
        (
            "E7/s7",
            "4 disjoint cycles w=1,2,3,1; stable after 6",
            "P(x,y,z,u,w,s,v) :- A(x,t), P(t,z,y,w,s,r,v), B(u,r).",
            |c| {
                (
                    format!("class {}, period {:?}", c.class, c.stabilization_period()),
                    c.class.label() == "A5" && c.stabilization_period() == Some(6),
                )
            },
        ),
        (
            "E8/s8",
            "class B, rank bound 2 (Ioannidis)",
            "P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).",
            |c| {
                (
                    format!("class {}, rank {:?}", c.class, c.rank_bound()),
                    c.class.label() == "B" && c.rank_bound() == Some(2),
                )
            },
        ),
        (
            "E9/s9",
            "class C (unbounded), not transformable (Thm 5)",
            "P(x,y,z) :- A(x,y), B(u,v), P(u,z,v).",
            |c| {
                (
                    format!(
                        "class {}, transformable={}",
                        c.class,
                        c.is_transformable_to_stable()
                    ),
                    c.class.label() == "C" && !c.is_transformable_to_stable(),
                )
            },
        ),
        (
            "E10/s10",
            "class D, bounded with rank 2 (Cor 2)",
            "P(x,y) :- B(y), C(x,y1), P(x1,y1).",
            |c| {
                (
                    format!("class {}, rank {:?}", c.class, c.rank_bound()),
                    c.class.label() == "D" && c.rank_bound() == Some(2),
                )
            },
        ),
        (
            "E11/s11",
            "class E (dependent), not transformable (Thm 8)",
            "P(x,y) :- A(x,x1), B(y,y1), C(x1,y1), P(x1,y1).",
            |c| {
                (
                    format!(
                        "class {}, transformable={}",
                        c.class,
                        c.is_transformable_to_stable()
                    ),
                    c.class.label() == "E" && !c.is_transformable_to_stable(),
                )
            },
        ),
        (
            "E12/s12",
            "mixed; pattern dvv → ddv → ddv (Ex. 14)",
            "P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).",
            |c| (format!("class {}", c.class), c.class.label() == "F"),
        ),
    ];
    for (id, claim, src, check) in structural {
        let c = Classification::of(&lr(src).recursive_rule);
        let (measured, ok) = check(&c);
        check_claim(&mut rows, id, claim, measured, ok);
    }

    // s12 propagation trace (Ex. 14's query-form table).
    {
        let f = lr("P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).");
        let (trace, _) = recurs_datalog::adornment::propagation_trace(
            &f.recursive_rule,
            &recurs_datalog::QueryForm::parse("dvv"),
            4,
        );
        let rendered: Vec<String> = trace.iter().map(|t| t.to_string()).collect();
        check_claim(
            &mut rows,
            "E12/trace",
            "incoming dvv; 1st expansion ddv; thereafter ddv",
            rendered.join(" → "),
            rendered.starts_with(&["dvv".into(), "ddv".into(), "ddv".into()]),
        );
    }

    // ---- performance claims (implied by the compilation approach) --------
    // P1: selection-first on a stable formula (chain, selective query).
    {
        let f = lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
        let n = 2000u64;
        let mut db = Database::new();
        db.insert_relation("A", chain(n));
        db.insert_relation("E", chain(n));
        let q = parse_atom("P('1900', y)").unwrap();
        let report = compare(&f, &db, &q).unwrap();
        assert!(report.agrees());
        let planned = Planned::new(&f, &db, &q).unwrap();
        assert_eq!(planned.plan.strategy, StrategyKind::Frontier);
        let t_plan = time(|| planned.run().unwrap().answers, 3);
        let t_semi = time(
            || recurs_core::oracle::ground_truth(&f, &db, &q).unwrap(),
            3,
        );
        let speedup = t_semi.as_secs_f64() / t_plan.as_secs_f64().max(1e-9);
        check_claim(
            &mut rows,
            "P1/selection-first",
            "compiled plan ≫ fixpoint on selective queries (chain n=2000, source at 1900)",
            format!("plan {t_plan:?} vs semi-naive {t_semi:?} ({speedup:.0}× faster)"),
            speedup >= 200.0,
        );
    }
    // P2: bounded truncation + selection pushdown (s8, selective query).
    {
        let f = lr("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).\n\
                    P(x,y,z,u) :- E(x,y,z,u).");
        let n = 800u64;
        let mut db = Database::new();
        db.insert_relation("A", random_digraph(n, n as usize, 1));
        db.insert_relation("B", random_digraph(n, n as usize, 2));
        db.insert_relation("C", random_digraph(n, n as usize, 3));
        db.insert_relation("E", random_relation(4, n as usize, n, 4));
        let q = parse_atom("P('3', y, z, u)").unwrap();
        let report = compare(&f, &db, &q).unwrap();
        assert!(report.agrees());
        let planned = Planned::new(&f, &db, &q).unwrap();
        assert_eq!(planned.plan.strategy, StrategyKind::Bounded);
        let t_plan = time(|| planned.run().unwrap().answers, 3);
        let t_naive = time(
            || {
                let mut db = db.clone();
                naive(&mut db, &f.to_program(), None).unwrap();
                recurs_datalog::eval::answer_query(&db, &q).unwrap()
            },
            3,
        );
        let speedup = t_naive.as_secs_f64() / t_plan.as_secs_f64().max(1e-9);
        check_claim(
            &mut rows,
            "P2/bounded",
            "bounded plan (rank-2 union, σ pushed into each level, no fixpoint) beats naive \
             evaluation on a selective query",
            format!("plan {t_plan:?} vs naive {t_naive:?} ({speedup:.0}× faster)"),
            speedup > 5.0,
        );
    }
    // P3: magic information passing restricts *derivation* on class E. The
    // paper's point is that the σ-first plan only touches tuples connected
    // to the query constant; we measure tuples derived by each approach.
    {
        let f = lr("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).\n\
                    P(x, y) :- E(x, y).");
        let n = 1200u64;
        let mut db = Database::new();
        db.insert_relation("A", chain(n));
        db.insert_relation("B", chain(n));
        db.insert_relation("C", Relation::from_pairs((1..=n).map(|i| (i, i))));
        db.insert_relation("E", Relation::from_pairs((1..=n).map(|i| (i, i))));
        let q = parse_atom("P('1100', y)").unwrap();
        let report = compare(&f, &db, &q).unwrap();
        assert!(report.agrees());
        assert_eq!(report.strategy, StrategyKind::Magic);
        let (magic_derived, fixpoint_derived) =
            (report.plan_tuples_derived, report.oracle_tuples_derived);
        let ratio = fixpoint_derived as f64 / magic_derived.max(1) as f64;
        check_claim(
            &mut rows,
            "P3/dependent",
            "the σ-first plan derives only tuples connected to the query constant (class E)",
            format!(
                "magic derived {magic_derived} tuples vs fixpoint {fixpoint_derived} \
                 ({ratio:.1}× fewer)"
            ),
            magic_derived < fixpoint_derived,
        );
    }

    // ---- print the table ---------------------------------------------------
    println!("| id | paper claim | measured | status |");
    println!("|----|-------------|----------|--------|");
    for r in &rows {
        println!(
            "| {} | {} | {} | {} |",
            r.id,
            r.claim,
            r.measured,
            if r.ok { "✓" } else { "✗ MISMATCH" }
        );
    }
    let bad = rows.iter().filter(|r| !r.ok).count();
    println!();
    println!(
        "{} claims checked, {} matched, {} mismatched",
        rows.len(),
        rows.len() - bad,
        bad
    );
    std::process::exit(if bad == 0 { 0 } else { 1 });
}
