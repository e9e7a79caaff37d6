//! The general executable strategy: adorned magic-sets specialization.
//!
//! For classes C, E, and F the paper derives evaluation plans per individual
//! case from the resolution graph and states that "a general method … is not
//! known at this time". As the executable general method, this module
//! implements the magic-sets transformation specialized to the paper's
//! single-linear-recursion setting. It performs exactly the information
//! passing the paper's plans describe — the determined-variable closure per
//! expansion level becomes a *magic* predicate per reachable query form, and
//! evaluation derives only tuples connected to the query constants — while
//! always terminating (it is ordinary Datalog: the planner hands the
//! rewritten program to the engine, seeded with the query constants).
//!
//! The correspondence with the paper's plan notation:
//! * the magic seed is the initial `σ` on the query constants;
//! * each magic rule is one `σ…-…` chain segment over the determined
//!   closure (the "down" part of the plan);
//! * the adorned rules perform the `…-E` exit join and the "up" chains;
//! * a reachable all-free form (information passing stops, e.g. s9's
//!   `P(d,v,v)`) yields an unconstrained adorned predicate — the paper's
//!   "retrieve the exit relation and take the Cartesian product".

use recurs_datalog::adornment::{propagate, QueryForm};
use recurs_datalog::rule::{LinearRecursion, Program, Rule};
use recurs_datalog::term::Atom;
use recurs_datalog::Symbol;
use std::collections::BTreeSet;

/// The magic-sets rewrite of a linear recursion for one query form.
#[derive(Debug, Clone)]
pub struct MagicPlan {
    /// All query forms reachable by propagation (including `form`).
    pub reachable_forms: Vec<QueryForm>,
    /// The rewritten program (magic + adorned rules).
    pub program: Program,
    /// The adorned predicate holding the query's answers.
    pub answer_predicate: Symbol,
    /// The magic predicate to seed (if the query form has bound positions).
    pub seed_predicate: Option<Symbol>,
}

fn adorned_name(p: Symbol, form: &QueryForm) -> Symbol {
    Symbol::intern(&format!("{p}__{form}"))
}

fn magic_name(p: Symbol, form: &QueryForm) -> Symbol {
    Symbol::intern(&format!("magic__{p}__{form}"))
}

/// Builds the magic-sets plan for a query form. Works for every class.
///
/// ```
/// use recurs_core::magic::build_plan;
/// use recurs_datalog::parser::parse_program;
/// use recurs_datalog::validate::validate_with_generic_exit;
/// use recurs_datalog::QueryForm;
///
/// // The paper's s12 (Example 14): the dvv form propagates to ddv.
/// let lr = validate_with_generic_exit(&parse_program(
///     "P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), P(u, v, w).",
/// ).unwrap()).unwrap();
/// let plan = build_plan(&lr, &QueryForm::parse("dvv"));
/// assert_eq!(plan.reachable_forms.len(), 2); // dvv and ddv
/// assert!(plan.seed_predicate.is_some());
/// ```
pub fn build_plan(lr: &LinearRecursion, form: &QueryForm) -> MagicPlan {
    assert_eq!(form.arity(), lr.dimension(), "query form arity mismatch");
    let p = lr.predicate;
    let rule = &lr.recursive_rule;

    // Reachable forms: iterate propagation until it cycles.
    let mut reachable: Vec<QueryForm> = vec![form.clone()];
    loop {
        let next = propagate(rule, reachable.last().expect("non-empty"));
        if reachable.contains(&next) {
            break;
        }
        reachable.push(next);
    }

    let mut rules: Vec<Rule> = Vec::new();
    for a in &reachable {
        let pa = adorned_name(p, a);
        let bound: Vec<usize> = a.determined_positions().collect();
        let magic_atom: Option<Atom> = if bound.is_empty() {
            None
        } else {
            Some(Atom::new(
                magic_name(p, a),
                bound.iter().map(|&i| rule.head.terms[i]).collect(),
            ))
        };

        // Adorned exit rules: P_a(head) :- Magic_a(bound head vars), exit body.
        for exit in &lr.exit_rules {
            // The exit rule's own head variables differ from the recursive
            // rule's; build its magic guard from its head terms.
            let exit_magic: Option<Atom> = if bound.is_empty() {
                None
            } else {
                Some(Atom::new(
                    magic_name(p, a),
                    bound.iter().map(|&i| exit.head.terms[i]).collect(),
                ))
            };
            let mut body = Vec::new();
            body.extend(exit_magic);
            body.extend(exit.body.iter().cloned());
            rules.push(Rule::new(Atom::new(pa, exit.head.terms.clone()), body));
        }

        // Adorned recursive rule:
        // P_a(head) :- Magic_a(..), nonrec body, P_a'(rec vars).
        let a_next = propagate(rule, a);
        let pa_next = adorned_name(p, &a_next);
        let rec_atom = lr.recursive_body_atom();
        let mut body = Vec::new();
        body.extend(magic_atom.clone());
        for atom in lr.nonrecursive_body_atoms() {
            body.push(atom.clone());
        }
        body.push(Atom::new(pa_next, rec_atom.terms.clone()));
        rules.push(Rule::new(Atom::new(pa, rule.head.terms.clone()), body));

        // Magic rule: Magic_a'(bound rec vars) :- Magic_a(..), closure atoms.
        let next_bound: Vec<usize> = a_next.determined_positions().collect();
        if !next_bound.is_empty() {
            // Atoms of the determined closure: those whose variables become
            // determined from the bound head variables.
            let seed: BTreeSet<Symbol> = bound
                .iter()
                .filter_map(|&i| rule.head.terms[i].as_var())
                .collect();
            let closure = recurs_datalog::adornment::determined_closure(rule, p, &seed);
            let mut body: Vec<Atom> = Vec::new();
            body.extend(magic_atom);
            for atom in lr.nonrecursive_body_atoms() {
                if atom.variables().any(|v| closure.contains(&v)) {
                    body.push(atom.clone());
                }
            }
            let head = Atom::new(
                magic_name(p, &a_next),
                next_bound.iter().map(|&i| rec_atom.terms[i]).collect(),
            );
            // `m(y) :- m(y).` (a binding the recursion passes down unchanged,
            // as TC's `vd`) derives nothing: left out, the magic predicate
            // is a base relation the seed alone fills.
            if body != [head.clone()] {
                rules.push(Rule::new(head, body));
            }
        }
    }

    let seed_predicate = if form.determined_positions().next().is_some() {
        Some(magic_name(p, form))
    } else {
        None
    };
    MagicPlan {
        reachable_forms: reachable,
        program: Program::new(rules),
        answer_predicate: adorned_name(p, form),
        seed_predicate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::database::Database;
    use recurs_datalog::eval::{answer_query, semi_naive, EvalStats};
    use recurs_datalog::parser::{parse_atom, parse_program};
    use recurs_datalog::relation::{tuple_u64, Relation, Tuple};
    use recurs_datalog::term::Term;
    use recurs_datalog::validate::validate_with_generic_exit;

    fn lr(src: &str) -> LinearRecursion {
        validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
    }

    /// The rewrite under the reference evaluator: seed the magic predicate
    /// with the query constants, take the fixpoint of the rewritten program,
    /// select the adorned answer predicate.
    fn run_rewrite(plan: &MagicPlan, db: &Database, query: &Atom) -> (Relation, EvalStats) {
        let mut db = db.clone();
        let rules = plan.program.rules.iter();
        for atom in rules.flat_map(|r| std::iter::once(&r.head).chain(&r.body)) {
            db.declare(atom.predicate, atom.arity()).unwrap();
        }
        if let Some(seed) = plan.seed_predicate {
            let constants: Tuple = query.terms.iter().filter_map(Term::as_const).collect();
            db.insert(seed, constants).unwrap();
        }
        let stats = semi_naive(&mut db, &plan.program, None).unwrap();
        let adorned_query = Atom::new(plan.answer_predicate, query.terms.clone());
        (answer_query(&db, &adorned_query).unwrap(), stats)
    }

    /// Magic works for every class and form, so it is checked directly
    /// rather than through the planner (which prefers it only as a fallback).
    fn check(f: &LinearRecursion, db: &Database, query: &str) {
        let q = parse_atom(query).unwrap();
        let plan = build_plan(f, &QueryForm::of_atom(&q));
        let (got, _) = run_rewrite(&plan, db, &q);
        let want = crate::oracle::ground_truth(f, db, &q).unwrap().0;
        assert_eq!(got, want, "magic ≠ oracle for {query}");
    }

    fn tc() -> LinearRecursion {
        lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
    }

    #[test]
    fn plan_structure_for_tc_bound_free() {
        let f = tc();
        let plan = build_plan(&f, &QueryForm::parse("dv"));
        // dv propagates to dv: one reachable form.
        assert_eq!(plan.reachable_forms.len(), 1);
        assert!(plan.seed_predicate.is_some());
        // exit + recursive + magic rule.
        assert_eq!(plan.program.rules.len(), 3);
    }

    #[test]
    fn a_binding_passed_down_unchanged_needs_no_magic_rule() {
        // vd: the bound y is the recursive atom's y, so the magic rule would
        // be `magic__P__vd(y) :- magic__P__vd(y).` — left out, the magic
        // predicate is a base relation only the seed fills.
        let plan = build_plan(&tc(), &QueryForm::parse("vd"));
        assert_eq!(plan.program.rules.len(), 2, "{}", plan.program);
        let seed = plan.seed_predicate.unwrap();
        assert!(!plan.program.idb_predicates().contains(&seed));
    }

    #[test]
    fn tc_queries() {
        let f = tc();
        let mut db = Database::new();
        db.insert_relation(
            "A",
            Relation::from_pairs([(1, 2), (2, 3), (3, 4), (10, 11)]),
        );
        db.insert_relation(
            "E",
            Relation::from_pairs([(1, 2), (2, 3), (3, 4), (10, 11)]),
        );
        check(&f, &db, "P('1', y)");
        check(&f, &db, "P(x, '4')");
        check(&f, &db, "P(x, y)");
        check(&f, &db, "P('1', '4')");
        check(&f, &db, "P('4', '1')");
    }

    #[test]
    fn tc_on_cyclic_data() {
        let f = tc();
        let mut db = Database::new();
        let cyc = Relation::from_pairs([(1, 2), (2, 3), (3, 1)]);
        db.insert_relation("A", cyc.clone());
        db.insert_relation("E", cyc);
        check(&f, &db, "P('1', y)");
        check(&f, &db, "P(x, x)");
    }

    #[test]
    fn magic_restricts_derivation() {
        // On a long chain with a bound source, magic should derive far fewer
        // tuples than the full closure.
        let f = tc();
        let n = 60u64;
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db.insert_relation("E", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        // A source near the end of the chain only reaches a short suffix;
        // magic must confine derivation to it. (A source at the head reaches
        // everything — no restriction is possible there.)
        let q = parse_atom("P('55', y)").unwrap();
        let plan = build_plan(&f, &QueryForm::of_atom(&q));
        let (answers, stats) = run_rewrite(&plan, &db, &q);
        assert_eq!(answers.len(), (n - 55) as usize);
        // Full closure has n·(n−1)/2 = 1770 tuples; the suffix needs ~20.
        assert!(
            stats.tuples_derived < 60,
            "derived {} tuples — magic is not restricting",
            stats.tuples_derived
        );
    }

    #[test]
    fn s9_class_c_queries() {
        // s9: P(x,y,z) :- A(x,y), B(u,v), P(u,z,v).
        let f = lr("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).\n\
                    P(x, y, z) :- E(x, y, z).");
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (3, 4)]));
        db.insert_relation("B", Relation::from_pairs([(5, 6), (7, 8)]));
        db.insert_relation(
            "E",
            Relation::from_tuples(3, [tuple_u64([5, 9, 6]), tuple_u64([1, 9, 9])]),
        );
        // The paper's two representative query forms:
        check(&f, &db, "P('1', y, z)"); // P(d, v, v)
        check(&f, &db, "P(x, y, '9')"); // P(v, v, d)
        check(&f, &db, "P(x, y, z)");
    }

    #[test]
    fn s9_dvv_reaches_all_free_form() {
        let f = lr("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).\n\
                    P(x, y, z) :- E(x, y, z).");
        let plan = build_plan(&f, &QueryForm::parse("dvv"));
        // dvv → vvv (information passing stops — the Cartesian-product case).
        assert!(plan
            .reachable_forms
            .iter()
            .any(recurs_datalog::QueryForm::all_free));
    }

    #[test]
    fn s11_class_e_queries() {
        let f = lr("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).\n\
                    P(x, y) :- E(x, y).");
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
        db.insert_relation("B", Relation::from_pairs([(11, 12), (12, 13)]));
        db.insert_relation("C", Relation::from_pairs([(2, 12), (3, 13)]));
        db.insert_relation("E", Relation::from_pairs([(2, 12), (3, 13), (1, 11)]));
        check(&f, &db, "P('1', y)"); // the paper's P(d, v)
        check(&f, &db, "P(x, y)");
        check(&f, &db, "P(x, '13')");
    }

    #[test]
    fn s12_mixed_class_queries() {
        let f = lr("P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).\n\
                    P(x,y,z) :- E(x,y,z).");
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("B", Relation::from_pairs([(11, 12), (12, 13)]));
        db.insert_relation("C", Relation::from_pairs([(2, 12), (3, 13)]));
        db.insert_relation("D", Relation::from_pairs([(21, 22), (23, 24)]));
        db.insert_relation(
            "E",
            Relation::from_tuples(3, [tuple_u64([2, 12, 21]), tuple_u64([3, 13, 23])]),
        );
        check(&f, &db, "P('1', y, z)"); // P(d, v, v): Example 14
        check(&f, &db, "P(x, y, '22')"); // P(v, v, d)
        check(&f, &db, "P(x, y, z)");
    }

    #[test]
    fn s12_dvv_propagation_in_plan() {
        let f = lr("P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).\n\
                    P(x,y,z) :- E(x,y,z).");
        let plan = build_plan(&f, &QueryForm::parse("dvv"));
        // dvv → ddv → ddv: two reachable forms.
        assert_eq!(plan.reachable_forms.len(), 2);
        assert_eq!(plan.reachable_forms[1], QueryForm::parse("ddv"));
    }

    #[test]
    fn rotation_a4_queries() {
        // Magic also works on permutational formulas (bounded data shapes).
        let f = lr("P(x, y, z) :- P(y, z, x).");
        let mut db = Database::new();
        db.insert_relation(
            "E",
            Relation::from_tuples(3, [tuple_u64([1, 2, 3]), tuple_u64([4, 5, 6])]),
        );
        check(&f, &db, "P('2', y, z)");
        check(&f, &db, "P(x, y, z)");
    }
}
