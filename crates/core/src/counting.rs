//! The counting formula of a **stable** recursion (the paper's classes
//! A1/A2, and A3–A5 after the unfold-to-stable transformation), as data.
//!
//! A stable formula has one disjoint unit cycle per argument position, so
//! the recursive rule factors into independent per-position *chains*:
//!
//! ```text
//! P(x₁, …, xₙ) :- Step₁(x₁, y₁), …, Stepₙ(xₙ, yₙ), P(y₁, …, yₙ)
//! ```
//!
//! where `Stepᵢ` is the join of the non-recursive atoms in position *i*'s
//! component (for a self-loop, the identity, possibly filtered). The
//! paper's plan is `σE, ∪k (σA^k ‖ σB^k)-E-C^k`: descend the bound
//! positions' chains from the query constants, semijoin the exit, ascend
//! the free positions' chains. When no free position has anything to ascend
//! (every free chain is the identity) the answer relation needs no fixpoint
//! at all — the formula is a walk, and `CountingPlan::frontier_program`
//! writes it down as two rules for the engine. Otherwise the planner runs
//! the magic rewrite; the chains still render the symbolic formula.

use recurs_datalog::adornment::QueryForm;
use recurs_datalog::rule::{LinearRecursion, Program, Rule};
use recurs_datalog::term::Atom;
use recurs_datalog::Symbol;
use recurs_igraph::condense::condense;
use recurs_igraph::igraph_of;
use std::collections::HashMap;

/// One argument position's chain.
#[derive(Debug, Clone)]
pub struct PositionChain {
    /// The head variable (top of the chain).
    pub top: Symbol,
    /// The recursive-atom variable (bottom of the chain).
    pub bottom: Symbol,
    /// The non-recursive atoms of this position's component. Empty together
    /// with `top == bottom` means the chain is the identity (class A2).
    pub atoms: Vec<Atom>,
}

impl PositionChain {
    /// True if the chain is a pure identity (no step relation needed).
    pub(crate) fn is_identity(&self) -> bool {
        self.atoms.is_empty() && self.top == self.bottom
    }
}

/// A compiled counting plan for a stable formula.
#[derive(Debug, Clone)]
pub struct CountingPlan {
    /// The stable formula (already transformed if the original was A3–A5).
    pub lr: LinearRecursion,
    /// One chain per argument position.
    pub chains: Vec<PositionChain>,
    /// Atoms in trivial components (no argument position touches them);
    /// they gate levels ≥ 1 by non-emptiness, one conjunction per component.
    pub guards: Vec<Vec<Atom>>,
}

/// The formula `σA^k-E` as a program: what [`CountingPlan::frontier_program`]
/// returns for a separable query form.
#[derive(Debug, Clone)]
pub(crate) struct FrontierProgram {
    /// `reach(bottoms_B) :- reach(tops_B), <bound chains>, <guards>.` plus,
    /// per exit rule, `ans(head_F) :- reach(head_B), <exit body>.`
    pub program: Program,
    /// The frontier predicate, seeded with the query's constants in
    /// position order.
    pub reach: Symbol,
    /// The answer predicate, over the form's free positions in order.
    pub answer: Symbol,
}

impl CountingPlan {
    /// The compiled formula as a walk from the query constants, when `form`
    /// is *separable*: at least one bound argument, and no ascend factor —
    /// every free position's chain is the identity, so a level's answers are
    /// the exit tuples the level's frontier reaches, unchanged. The frontier
    /// advances all bound positions one step per round (levels stay
    /// synchronised because `reach` holds the joint tuple), guards gate
    /// levels ≥ 1, and `reach` being a set is what terminates the walk on
    /// cyclic data. `None` for any other form.
    pub(crate) fn frontier_program(&self, form: &QueryForm) -> Option<FrontierProgram> {
        let bound: Vec<usize> = form.determined_positions().collect();
        let free: Vec<usize> = (0..form.arity()).filter(|i| !bound.contains(i)).collect();
        if bound.is_empty() || free.iter().any(|&i| !self.chains[i].is_identity()) {
            return None;
        }
        let p = self.lr.predicate;
        let reach = Symbol::intern(&format!("reach__{p}__{form}"));
        let answer = Symbol::intern(&format!("ans__{p}__{form}"));
        let at = |pred: Symbol, atom: &Atom, positions: &[usize]| -> Atom {
            Atom::new(pred, positions.iter().map(|&i| atom.terms[i]).collect())
        };
        let rule = &self.lr.recursive_rule;
        let mut body = vec![at(reach, &rule.head, &bound)];
        for &i in &bound {
            body.extend(self.chains[i].atoms.iter().cloned());
        }
        body.extend(self.guards.iter().flatten().cloned());
        let step = at(reach, self.lr.recursive_body_atom(), &bound);
        let mut rules = vec![Rule::new(step, body)];
        for exit in &self.lr.exit_rules {
            let mut body = vec![at(reach, &exit.head, &bound)];
            body.extend(exit.body.iter().cloned());
            rules.push(Rule::new(at(answer, &exit.head, &free), body));
        }
        Some(FrontierProgram {
            program: Program::new(rules),
            reach,
            answer,
        })
    }
}

/// Builds the counting plan. The formula must be strongly stable
/// (`Classification::is_strongly_stable`); returns `None` otherwise.
pub fn build_plan(lr: &LinearRecursion) -> Option<CountingPlan> {
    let classification = crate::classify::Classification::of(&lr.recursive_rule);
    if !classification.is_strongly_stable() {
        return None;
    }
    let rule = &lr.recursive_rule;
    let condensed = condense(&igraph_of(rule));
    let rec_atom = lr.recursive_body_atom().clone();
    let n = lr.dimension();
    // Map: group id → position (each group hosts at most one directed edge
    // in a stable formula).
    let mut group_position: HashMap<usize, usize> = HashMap::new();
    for e in &condensed.edges {
        debug_assert_eq!(e.from, e.to, "stable formulas have only self-loops");
        let prior = group_position.insert(e.from, e.position);
        debug_assert!(prior.is_none(), "stable formulas have disjoint cycles");
    }
    // Assign each non-recursive atom to its group (all its variables share
    // one group by construction of the condensation).
    let mut group_atoms: HashMap<usize, Vec<Atom>> = HashMap::new();
    for atom in lr.nonrecursive_body_atoms() {
        let var = atom
            .variables()
            .next()
            .expect("atoms in the fragment have at least one variable");
        group_atoms
            .entry(condensed.group(var))
            .or_default()
            .push(atom.clone());
    }
    let mut chains = Vec::with_capacity(n);
    for i in 0..n {
        let top = rule.head.terms[i].as_var().expect("validated variable");
        let bottom = rec_atom.terms[i].as_var().expect("validated variable");
        let group = condensed.group(top);
        let atoms = group_atoms.remove(&group).unwrap_or_default();
        chains.push(PositionChain { top, bottom, atoms });
    }
    // Whatever atoms remain live in trivial components.
    let guards: Vec<Vec<Atom>> = group_atoms.into_values().collect();
    Some(CountingPlan {
        lr: lr.clone(),
        chains,
        guards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_query, tests::lowered_answers};
    use recurs_datalog::database::Database;
    use recurs_datalog::parser::{parse_atom, parse_program};
    use recurs_datalog::relation::{tuple_u64, Relation};
    use recurs_datalog::validate::validate_with_generic_exit;

    fn stable_lr(src: &str) -> LinearRecursion {
        validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
    }

    /// Whatever the planner lowers a query on a stable formula to — the
    /// walk when the form is separable, magic or saturation otherwise — run
    /// by the reference evaluator, equals the recursion's fixpoint.
    fn check(lr: &LinearRecursion, db: &Database, query: &str) {
        assert!(build_plan(lr).is_some(), "formula must be stable");
        let q = parse_atom(query).unwrap();
        let got = lowered_answers(&plan_query(lr, &q).unwrap(), db, &q);
        let want = crate::oracle::ground_truth(lr, db, &q).unwrap().0;
        assert_eq!(got, want, "lowered plan ≠ oracle for {query}");
    }

    fn walks(lr: &LinearRecursion, form: &str) -> bool {
        let plan = build_plan(lr).unwrap();
        plan.frontier_program(&QueryForm::parse(form)).is_some()
    }

    fn tc() -> LinearRecursion {
        stable_lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
    }

    #[test]
    fn plan_structure_for_s3() {
        let lr = stable_lr("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).\nP(x,y,z) :- E(x,y,z).");
        let plan = build_plan(&lr).unwrap();
        assert_eq!(plan.chains.len(), 3);
        assert!(plan.guards.is_empty());
        assert_eq!(plan.chains[0].atoms[0].predicate, Symbol::intern("A"));
        assert_eq!(plan.chains[1].atoms[0].predicate, Symbol::intern("B"));
        assert_eq!(plan.chains[2].atoms[0].predicate, Symbol::intern("C"));
        assert!(!plan.chains[0].is_identity());
    }

    #[test]
    fn transitive_closure_bound_first() {
        let lr = tc();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
        db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
        check(&lr, &db, "P('1', y)");
        check(&lr, &db, "P('2', y)");
        check(&lr, &db, "P('9', y)"); // no such source
    }

    #[test]
    fn transitive_closure_on_cyclic_data_terminates() {
        let lr = tc();
        let mut db = Database::new();
        let cyc = Relation::from_pairs([(1, 2), (2, 3), (3, 1), (3, 4)]);
        db.insert_relation("A", cyc.clone());
        db.insert_relation("E", cyc);
        check(&lr, &db, "P('1', y)");
        check(&lr, &db, "P('4', y)");
    }

    #[test]
    fn free_queries_compute_full_closure() {
        let lr = tc();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 1)]));
        db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3), (3, 1)]));
        check(&lr, &db, "P(x, y)");
    }

    #[test]
    fn second_position_bound() {
        let lr = tc();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
        db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
        // y bound, x free: x's chain ascends through A, so this is no walk.
        assert!(!walks(&lr, "vd"));
        check(&lr, &db, "P(x, '4')");
        check(&lr, &db, "P(x, '1')");
    }

    #[test]
    fn fully_bound_existence_query() {
        let lr = tc();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3)]));
        assert!(walks(&lr, "dd"));
        let answers = |q: &str| {
            let q = parse_atom(q).unwrap();
            lowered_answers(&plan_query(&lr, &q).unwrap(), &db, &q)
        };
        assert!(!answers("P('1', '3')").is_empty());
        assert!(answers("P('3', '1')").is_empty());
    }

    #[test]
    fn s3_three_dimensional_query() {
        let lr = stable_lr("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).\nP(x,y,z) :- E(x,y,z).");
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("B", Relation::from_pairs([(4, 5), (5, 6)]));
        db.insert_relation("C", Relation::from_pairs([(7, 8), (8, 9)]));
        db.insert_relation("E", Relation::from_tuples(3, [tuple_u64([3, 6, 7])]));
        // Paper's representative query P(a, b, Z):
        check(&lr, &db, "P('1', '4', z)");
        check(&lr, &db, "P('2', '5', z)");
        check(&lr, &db, "P(x, y, z)");
        check(&lr, &db, "P(x, '4', '9')");
    }

    #[test]
    fn guards_gate_recursive_levels() {
        // D(a,b) is a trivial component: if D is empty, only the exit level
        // contributes.
        let lr = stable_lr("P(x, y) :- A(x, z), D(a, b), P(z, y).\nP(x, y) :- E(x, y).");
        let plan = build_plan(&lr).unwrap();
        assert_eq!(plan.guards.len(), 1);
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("D", Relation::new(2));
        check(&lr, &db, "P('1', y)");
        // Non-empty guard: full recursion.
        db.insert_relation("D", Relation::from_pairs([(7, 7)]));
        check(&lr, &db, "P('1', y)");
    }

    #[test]
    fn identity_chain_with_filter() {
        // B(y) filters the identity position each level.
        let lr = stable_lr("P(x, y) :- A(x, z), B(y), P(z, y).\nP(x, y) :- E(x, y).");
        let plan = build_plan(&lr).unwrap();
        // The B filter: a filter-only free chain still ascends (it drops
        // tuples per level), so that form is not a walk. Bound, the filter
        // rides on the frontier rule.
        assert!(!plan.chains[1].is_identity());
        assert!(!walks(&lr, "dv"));
        assert!(walks(&lr, "dd"));
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("E", Relation::from_pairs([(1, 5), (2, 6), (3, 5)]));
        db.insert_relation("B", Relation::from_tuples(1, [tuple_u64([5])]));
        check(&lr, &db, "P('1', y)");
        check(&lr, &db, "P('1', '5')");
        check(&lr, &db, "P(x, y)");
    }

    #[test]
    fn multiple_exit_rules() {
        let lr =
            stable_lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).\nP(x, y) :- F(y, x).");
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("E", Relation::from_pairs([(2, 9)]));
        db.insert_relation("F", Relation::from_pairs([(8, 3)]));
        check(&lr, &db, "P('1', y)");
        check(&lr, &db, "P(x, y)");
    }

    #[test]
    fn non_stable_formula_has_no_plan() {
        let lr =
            stable_lr("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).\nP(x, y, z) :- E(x, y, z).");
        assert!(build_plan(&lr).is_none());
    }
}
