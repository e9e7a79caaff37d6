//! The bounded strategy (section 6 — "pseudo recursion").
//!
//! A bounded formula is equivalent to the finite union of its exit-closed
//! expansions `0 ..= rank`, so a query is answered by evaluating each level
//! as a non-recursive conjunctive query with the query constants pushed in
//! first (the paper's selection-before-join discipline, [`specialize`]), and
//! unioning the results. No fixpoint is ever run: the planner lowers the
//! levels to a program the engine finishes in its seeding round.

use crate::classify::Classification;
use crate::transform::to_nonrecursive_with_rank;
use recurs_datalog::rule::{LinearRecursion, Program, Rule};
use recurs_datalog::subst::{unify_atoms, Subst};
use recurs_datalog::term::{Atom, Term};
use recurs_datalog::Symbol;

/// A compiled bounded plan: the non-recursive levels.
#[derive(Debug, Clone)]
pub struct BoundedPlan {
    /// The rank bound used (number of recursive levels materialized).
    pub rank: u64,
    /// The equivalent non-recursive program (exit level + levels 1..=rank).
    pub levels: Program,
}

/// Builds a bounded plan. Returns `None` if the formula is not bounded.
pub fn build_plan(lr: &LinearRecursion) -> Option<BoundedPlan> {
    let rank = Classification::of(&lr.recursive_rule).rank_bound()?;
    Some(BoundedPlan {
        rank,
        levels: to_nonrecursive_with_rank(lr, rank),
    })
}

/// Specializes a non-recursive rule against a query atom — selection before
/// join: the query's constants (and the equalities of its repeated
/// variables) are pushed into the body by unifying the rule's head with the
/// query. The specialized rule derives the unified head under the `answer`
/// predicate, so selecting `answer(query terms)` over what the levels derive
/// is the query's answer. `None` when the head's constants clash with the
/// query's: the level contributes nothing.
pub fn specialize(rule: &Rule, query: &Atom, answer: Symbol) -> Option<Rule> {
    debug_assert!(!rule.is_recursive(), "bounded levels are non-recursive");
    // Rename the query's variables apart from the rule's.
    let mut fresh_counter = 0u32;
    let mut renaming = Subst::new();
    for v in query.distinct_variables() {
        renaming.bind(v, Term::Var(Symbol::fresh("q", &mut fresh_counter)));
    }
    let mgu = unify_atoms(&rule.head, &renaming.apply_atom(query))?;
    let level = mgu.apply_rule(rule);
    Some(Rule::new(Atom::new(answer, level.head.terms), level.body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StrategyKind;
    use recurs_datalog::database::Database;
    use recurs_datalog::parser::parse_program;
    use recurs_datalog::relation::{tuple_u64, Relation};
    use recurs_datalog::validate::validate_with_generic_exit;

    fn lr(src: &str) -> LinearRecursion {
        validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
    }

    /// The specialized levels, run by the reference evaluator, against the
    /// recursion's fixpoint.
    fn check(lr: &LinearRecursion, db: &Database, query: &str) {
        crate::plan::tests::check(lr, db, query, StrategyKind::Bounded);
    }

    fn s8() -> LinearRecursion {
        lr("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).\n\
            P(x,y,z,u) :- E(x,y,z,u).")
    }

    fn s8_db() -> Database {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (3, 4), (5, 6)]));
        db.insert_relation("B", Relation::from_pairs([(2, 9), (4, 8), (6, 7)]));
        db.insert_relation("C", Relation::from_pairs([(7, 2), (6, 4), (5, 5)]));
        db.insert_relation(
            "E",
            Relation::from_tuples(
                4,
                [
                    tuple_u64([3, 2, 7, 2]),
                    tuple_u64([5, 4, 6, 4]),
                    tuple_u64([1, 6, 5, 5]),
                ],
            ),
        );
        db
    }

    #[test]
    fn s8_plan_has_rank_two() {
        let plan = build_plan(&s8()).unwrap();
        assert_eq!(plan.rank, 2);
        assert_eq!(plan.levels.rules.len(), 3);
    }

    #[test]
    fn s8_queries_match_oracle() {
        let f = s8();
        let db = s8_db();
        check(&f, &db, "P(x, y, z, u)");
        check(&f, &db, "P('1', y, z, u)");
        check(&f, &db, "P(x, y, '5', u)");
        check(&f, &db, "P('3', '2', '7', '2')");
        check(&f, &db, "P('9', y, z, u)");
    }

    #[test]
    fn s5_rotation_queries() {
        let f = lr("P(x, y, z) :- P(y, z, x).");
        let mut db = Database::new();
        db.insert_relation(
            "E",
            Relation::from_tuples(3, [tuple_u64([1, 2, 3]), tuple_u64([4, 5, 6])]),
        );
        check(&f, &db, "P(x, y, z)");
        check(&f, &db, "P('2', y, z)");
        check(&f, &db, "P('3', '1', '2')");
    }

    #[test]
    fn s10_acyclic_queries() {
        let f = lr("P(x, y) :- B(y), C(x, y1), P(x1, y1).\nP(x, y) :- E(x, y).");
        let mut db = Database::new();
        db.insert_relation(
            "B",
            Relation::from_tuples(1, [tuple_u64([5]), tuple_u64([6])]),
        );
        db.insert_relation("C", Relation::from_pairs([(1, 7), (2, 8)]));
        db.insert_relation("E", Relation::from_pairs([(9, 7), (9, 8), (3, 5)]));
        check(&f, &db, "P(x, y)");
        check(&f, &db, "P('1', y)");
        check(&f, &db, "P(x, '5')");
    }

    #[test]
    fn repeated_query_variable() {
        let f = s8();
        let db = s8_db();
        check(&f, &db, "P(x, x, z, u)");
        check(&f, &db, "P(x, y, y, y)");
    }

    #[test]
    fn unbounded_formula_has_no_plan() {
        let f = lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
        assert!(build_plan(&f).is_none());
    }
}
