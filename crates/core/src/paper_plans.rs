//! The paper's hand-derived per-case query evaluation plans, written down as
//! rules and verified against the fixpoint oracle.
//!
//! Section 6 derives two plans for s9 — `P(x,y,z) :- A(x,y), B(u,v),
//! P(u,z,v)` — directly from its resolution graphs:
//!
//! * for `P(d, v, v)`:  `σE,  (σA) × (∪k [(E ⋈ B)(BA)^k])`
//! * for `P(v, v, d)`:  `σE,  (∃ ∪k [(AB)^k (E ⋈ B)]) A`
//!
//! The information passing stops after the selection on A, so the remainder
//! of the answer is assembled by a Cartesian product (first form) or an
//! existence check over the whole chain (second form). Each plan is a
//! program: the chain term `∪k` is a unary recursive relation ([`CHAIN`]),
//! and the answer relation ([`ANSWER`]) is an exit rule — the selection on
//! `E` — plus one rule joining the chain: a product with `σA` for `dvv`, a
//! ground chain atom guarding all of `A` for `vvd`. The tests hold both to
//! the semi-naive fixpoint; `benches/paper_plans.rs` runs them on the engine.

use recurs_datalog::rule::{Program, Rule};
use recurs_datalog::term::{Atom, Term};
use recurs_datalog::Value;

/// The relation a plan's answers land in.
pub const ANSWER: &str = "ans";

/// The chain term's relation.
pub const CHAIN: &str = "chain";

fn atom(predicate: &str, terms: &[Term]) -> Atom {
    Atom::new(predicate, terms.to_vec())
}

/// The chain term `∪k [(E ⋈ B)(BA)^k]` shared by both s9 plans: the values
/// that can sit in `P`'s middle position when the first/third positions are
/// generated through `B`.
///
/// * level 0, `E ⋈ B` on both columns: `chain(z) :- E(u, z, v), B(u, v).`
/// * one more `(B, A)` layer: `chain(z) :- chain(v), B(u, v), A(u, z).`
pub fn s9_middle_chain() -> Vec<Rule> {
    let [u, v, z] = ["u", "v", "z"].map(Term::var);
    let level0 = vec![atom("E", &[u, z, v]), atom("B", &[u, v])];
    let layer = vec![atom(CHAIN, &[v]), atom("B", &[u, v]), atom("A", &[u, z])];
    vec![
        Rule::new(atom(CHAIN, &[z]), level0),
        Rule::new(atom(CHAIN, &[z]), layer),
    ]
}

/// The paper's plan for `P(a, Y, Z)` (query form `dvv`):
/// `σE,  (σ_a A) × (∪k [(E ⋈ B)(BA)^k])` — the exit's direct answers,
/// `ans(y, z) :- E(a, y, z).`, unioned with the product of the selected `A`
/// side and the middle chain, `ans(y, z) :- A(a, y), chain(z).`
pub fn s9_plan_dvv(a: Value) -> Program {
    let ([y, z], a) = (["y", "z"].map(Term::var), Term::Const(a));
    let mut rules = s9_middle_chain();
    let exit = vec![atom("E", &[a, y, z])];
    let product = vec![atom("A", &[a, y]), atom(CHAIN, &[z])];
    rules.push(Rule::new(atom(ANSWER, &[y, z]), exit));
    rules.push(Rule::new(atom(ANSWER, &[y, z]), product));
    Program::new(rules)
}

/// The paper's plan for `P(X, Y, c)` (query form `vvd`):
/// `σE,  (∃ ∪k [(AB)^k (E ⋈ B)]) A` — the exit's direct answers,
/// `ans(x, y) :- E(x, y, c).`, plus every `A` tuple if `c` is derivable as a
/// middle value, `ans(x, y) :- chain(c), A(x, y).`
pub fn s9_plan_vvd(c: Value) -> Program {
    let ([x, y], c) = (["x", "y"].map(Term::var), Term::Const(c));
    let mut rules = s9_middle_chain();
    let exit = vec![atom("E", &[x, y, c])];
    let exists = vec![atom(CHAIN, &[c]), atom("A", &[x, y])];
    rules.push(Rule::new(atom(ANSWER, &[x, y]), exit));
    rules.push(Rule::new(atom(ANSWER, &[x, y]), exists));
    Program::new(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::eval::{answer_query, semi_naive};
    use recurs_datalog::parser::{parse_atom, parse_program};
    use recurs_datalog::relation::tuple_u64;
    use recurs_datalog::validate::validate_with_generic_exit;
    use recurs_datalog::{Database, Relation};

    fn s9_db() -> Database {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (5, 5)]));
        db.insert_relation("B", Relation::from_pairs([(6, 7), (7, 6), (2, 9)]));
        let e = [[6, 100, 7], [2, 200, 9], [1, 300, 1]].map(tuple_u64);
        db.insert_relation("E", Relation::from_tuples(3, e));
        db
    }

    /// `relation` after the reference evaluator saturates `program` over
    /// `db`.
    fn saturated(db: &Database, program: &Program, relation: &str) -> Relation {
        let mut db = db.clone();
        semi_naive(&mut db, program, None).unwrap();
        db.get(relation).unwrap().clone()
    }

    /// `query`'s answers over the fixpoint of s9 itself.
    fn fixpoint_answers(db: &Database, query: &str) -> Relation {
        let s9 = validate_with_generic_exit(
            &parse_program(
                "P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).\n\
                 P(x, y, z) :- E(x, y, z).",
            )
            .unwrap(),
        )
        .unwrap();
        let mut db = db.clone();
        semi_naive(&mut db, &s9.to_program(), None).unwrap();
        answer_query(&db, &parse_atom(query).unwrap()).unwrap()
    }

    #[test]
    fn dvv_plan_matches_fixpoint() {
        let db = s9_db();
        for a in [1u64, 2, 5, 99] {
            let got = saturated(&db, &s9_plan_dvv(Value::from_u64(a)), ANSWER);
            let want = fixpoint_answers(&db, &format!("P('{a}', y, z)"));
            assert_eq!(got, want, "s9 dvv plan diverged for a = {a}");
        }
    }

    #[test]
    fn vvd_plan_matches_fixpoint() {
        let db = s9_db();
        for c in [100u64, 200, 300, 12345] {
            let got = saturated(&db, &s9_plan_vvd(Value::from_u64(c)), ANSWER);
            let want = fixpoint_answers(&db, &format!("P(x, y, '{c}')"));
            assert_eq!(got, want, "s9 vvd plan diverged for c = {c}");
        }
    }

    #[test]
    fn middle_chain_grows_through_levels() {
        // E(6,100,7) with B(6,7) and E(2,200,9) with B(2,9) seed 100 and 200
        // at level 0; the fixpoint terminates on this cyclic B.
        let chain = saturated(&s9_db(), &Program::new(s9_middle_chain()), CHAIN);
        assert!(chain.contains(&[Value::from_u64(100)]));
        assert!(chain.contains(&[Value::from_u64(200)]));
    }

    #[test]
    fn vvd_existence_is_all_or_nothing() {
        let db = s9_db();
        let yes = saturated(&db, &s9_plan_vvd(Value::from_u64(100)), ANSWER);
        assert_eq!(yes.len(), db.get("A").unwrap().len());
        let no = saturated(&db, &s9_plan_vvd(Value::from_u64(4242)), ANSWER);
        assert!(no.is_empty());
    }
}
