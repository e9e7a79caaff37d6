//! Query planning: one table from (class, query form) to the program the
//! engine runs, plus the compiled formula in the paper's notation.
//!
//! [`plan_for_form`] classifies the recursion and picks the **lowering** —
//! this is the only dispatch table in the workspace; `recurs run`, `serve`,
//! `batch`, benches and tests all execute what it returns through
//! `recurs_engine::evaluate`:
//!
//! | condition, first match wins | [`StrategyKind`] | lowered program | round cap |
//! |---|---|---|---|
//! | proven rank bound (A2/A4, bounded B, acyclic D) | `Bounded` | the `rank + 1` non-recursive levels (`to_nonrecursive_with_rank`), each `ans(head) :- seed(head at the bound positions), level body.` — the guard of magic's exit rules — seeded with the query constants | 0 — the seeding round is the whole run |
//! | class A (stable after `unfold_by` its stabilization period), ≥ 1 bound argument, every free position's chain the identity | `Frontier` | the compiled formula `σA^k-E` itself: `reach(bottoms) :- reach(tops), chains, guards.` seeded with the query constants, and `ans(free) :- reach(bound), exit.` per exit rule (`CountingPlan::frontier_program`) | none — `reach` saturating is the walk ending |
//! | any other query with a bound argument (a stable form with an ascend factor such as s3 `ddv` or same-generation; classes C/E/F; a bounded Theorem 11 mixture, which has no proven rank) | `Magic` | the adorned magic-sets rewrite ([`crate::magic`]), seeded with the query constants | none |
//! | all-free query | `Saturate` | the recursion itself | none |
//!
//! A [`QueryPlan`] is pure data: its program is fixed per form, and
//! [`QueryPlan::lower`] hands it out with a query's seed tuple, answer atom
//! and round cap as a [`Lowered`]; nothing in this crate evaluates one.
//! `compiled` stays the paper's symbolic [`CompiledFormula`] for the class
//! whichever lowering runs.

use crate::classify::Classification;
use crate::counting::{self, CountingPlan};
use crate::formula::{CompiledFormula, FExpr, Power};
use crate::magic;
use crate::transform::{to_nonrecursive_with_rank, unfold_by, StableTransform};
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::error::DatalogError;
use recurs_datalog::relation::Tuple;
use recurs_datalog::rule::{LinearRecursion, Program, Rule};
use recurs_datalog::term::{Atom, Term};
use recurs_datalog::Symbol;
use std::collections::BTreeSet;

/// Which lowering a plan executes (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Finite union of exit-closed expansions (pseudo recursion).
    Bounded,
    /// The counting formula as a frontier walk from the query constants.
    Frontier,
    /// Adorned magic-sets rewrite (the general method).
    Magic,
    /// The recursion itself, saturated (no binding to push).
    Saturate,
}

impl StrategyKind {
    /// Every lowering, in the order of the module table.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::Bounded,
        StrategyKind::Frontier,
        StrategyKind::Magic,
        StrategyKind::Saturate,
    ];

    /// Lower-case label for reports: `bounded`, `frontier`, `magic`,
    /// `saturate`.
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::Bounded => "bounded",
            StrategyKind::Frontier => "frontier",
            StrategyKind::Magic => "magic",
            StrategyKind::Saturate => "saturate",
        }
    }
}

/// A fully prepared query plan for one query form.
#[derive(Debug)]
pub struct QueryPlan {
    /// The classification that drove the choice.
    pub classification: Classification,
    /// The lowering chosen.
    pub strategy: StrategyKind,
    /// The unfold-to-stable transformation, when one was applied (A3–A5).
    pub transform: Option<StableTransform>,
    /// The compiled formula in the paper's notation.
    pub compiled: CompiledFormula,
    /// The query form the plan serves.
    pub form: QueryForm,
    predicate: Symbol,
    chains: Option<CountingPlan>,
    /// The program every query of the form runs; the predicate seeded with
    /// the query's constants (in position order); the predicate holding the
    /// answers — over the query's free positions for a walk, over all of
    /// them otherwise.
    program: Program,
    seed: Option<Symbol>,
    answer: Symbol,
}

/// What [`QueryPlan::lower`] hands the executor.
#[derive(Debug, Clone)]
pub struct Lowered<'p> {
    /// The rules to saturate: the plan's own, the same for every query of
    /// its form.
    pub program: &'p Program,
    /// A tuple to insert before the first round (the query's constants).
    pub seed: Option<(Symbol, Tuple)>,
    /// The atom to select from the saturated store: constants and repeated
    /// variables filter, distinct variables are the answer columns.
    pub answer: Atom,
    /// Recursive rounds after which the run is complete by construction.
    pub round_cap: Option<u64>,
}

impl QueryPlan {
    /// Lowers the plan for one query of its form. The query must target the
    /// planned predicate at its arity — a typed error otherwise, since
    /// queries are outside input.
    ///
    /// # Panics
    /// If the query's form is not the plan's (a caller bug: both entry
    /// points derive the form from the query).
    pub fn lower(&self, query: &Atom) -> Result<Lowered<'_>, DatalogError> {
        check_query(self.predicate, self.form.arity(), query)?;
        assert_eq!(
            QueryForm::of_atom(query),
            self.form,
            "plan built for another query form"
        );
        let constants: Tuple = query.terms.iter().filter_map(Term::as_const).collect();
        let walk = self.strategy == StrategyKind::Frontier;
        let asked = query.terms.iter().filter(|t| !walk || t.is_var()).copied();
        Ok(Lowered {
            program: &self.program,
            seed: self.seed.map(|pred| (pred, constants)),
            answer: Atom::new(self.answer, asked.collect()),
            round_cap: (self.strategy == StrategyKind::Bounded).then_some(0),
        })
    }

    /// The program every query of the form runs, exactly what is saturated
    /// (for `Bounded`, the paper's s8a′/s8b′-style levels under the seed
    /// guard).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// For a class-A plan: the per-position chains of the (unfolded) stable
    /// formula as `(top, bottom, predicate labels)` triples — what the
    /// compiled formula is rendered from and separability is read off.
    pub(crate) fn counting_chains(&self) -> Option<Vec<(Symbol, Symbol, Vec<Symbol>)>> {
        let chains = &self.chains.as_ref()?.chains;
        let labels = |c: &counting::PositionChain| c.atoms.iter().map(|a| a.predicate).collect();
        Some(
            chains
                .iter()
                .map(|c| (c.top, c.bottom, labels(c)))
                .collect(),
        )
    }
}

/// The typed errors for a query that does not fit the recursion.
fn check_query(predicate: Symbol, arity: usize, query: &Atom) -> Result<(), DatalogError> {
    if query.predicate != predicate {
        return Err(DatalogError::UnknownRelation(query.predicate));
    }
    if query.arity() != arity {
        return Err(DatalogError::ArityMismatch {
            predicate,
            expected: arity,
            found: query.arity(),
        });
    }
    Ok(())
}

/// Plans a query against a linear recursion.
pub fn plan_query(lr: &LinearRecursion, query: &Atom) -> Result<QueryPlan, DatalogError> {
    check_query(lr.predicate, lr.dimension(), query)?;
    Ok(plan_for_form(lr, &QueryForm::of_atom(query)))
}

/// Plans for a query form (the shape `P(d, v, …)` without the constants),
/// which must have the recursion's arity.
pub fn plan_for_form(lr: &LinearRecursion, form: &QueryForm) -> QueryPlan {
    assert_eq!(form.arity(), lr.dimension(), "query form arity mismatch");
    let classification = Classification::of(&lr.recursive_rule);
    let p = lr.predicate;
    let mut transform = None;
    let mut chains = None;
    let mut compiled;
    // (strategy, program, seed predicate, answer predicate)
    let lowering = if let Some(rank) = classification.rank_bound() {
        // 1. A *proven* rank bound: the finite union always wins. (Bounded
        //    mixtures without one — Theorem 11's rotating-permutational +
        //    B/D case — fall through to the lowerings below.)
        let levels = to_nonrecursive_with_rank(lr, rank);
        compiled = compiled_bounded(&levels, rank);
        // Every query of the form runs the same levels, each under the guard
        // magic's exit rules carry: `ans(head) :- seed(head terms at the
        // bound positions), body.` A head constant or repeated variable
        // meets the query's constants in the join; an all-free form has no
        // seed and no guard.
        let seed = (!form.all_free()).then(|| Symbol::intern(&format!("seed__{p}__{form}")));
        let answer = Symbol::intern(&format!("ans__{p}"));
        let guarded = levels.rules.iter().map(|level| {
            let bound = form.determined_positions().map(|i| level.head.terms[i]);
            let guard = seed.map(|seed| Atom::new(seed, bound.collect()));
            let body = guard.into_iter().chain(level.body.iter().cloned());
            Rule::new(Atom::new(answer, level.head.terms.clone()), body.collect())
        });
        let program = Program::new(guarded.collect());
        (StrategyKind::Bounded, program, seed, answer)
    } else {
        // 2. Class A: the chains of the stable form render the formula and
        //    say whether it is a walk.
        let mut walk = None;
        if let Some(period) = classification.stabilization_period() {
            let unfolded = unfold_by(lr, period);
            let stable = counting::build_plan(&unfolded.to_linear_recursion())
                .expect("the unfolded formula is strongly stable");
            walk = stable.frontier_program(form);
            compiled = compiled_counting(&stable, form);
            transform = Some(unfolded);
            chains = Some(stable);
        } else {
            compiled = compiled_magic(lr, form);
        }
        if let Some(walk) = walk {
            compiled.strategy = "the counting formula as a frontier walk from the query \
                                 constants; no fixpoint over the answer relation"
                .into();
            let reach = Some(walk.reach);
            (StrategyKind::Frontier, walk.program, reach, walk.answer)
        } else if form.all_free() {
            // 4. Nothing to push: the recursion itself.
            compiled.strategy = "no bound argument: the recursion itself is saturated".into();
            (StrategyKind::Saturate, lr.to_program(), None, p)
        } else {
            // 3. A binding but no walk: magic sets, on the original recursion.
            if chains.is_some() {
                compiled.strategy = "the counting formula has an ascend factor (a free \
                                     position's chain is not the identity): run as the \
                                     magic-sets rewrite"
                    .into();
            } else if classification.is_bounded() {
                // Theorem 11's mixtures: bounded, but no rank formula to unroll.
                compiled.strategy =
                    "bounded (Theorem 11) but no proven rank: run as the magic-sets rewrite".into();
            }
            let m = magic::build_plan(lr, form);
            (
                StrategyKind::Magic,
                m.program,
                m.seed_predicate,
                m.answer_predicate,
            )
        }
    };
    let (strategy, program, seed, answer) = lowering;
    QueryPlan {
        classification,
        strategy,
        transform,
        compiled,
        form: form.clone(),
        predicate: p,
        chains,
        program,
        seed,
        answer,
    }
}

/// Renders a bounded plan: `σ<level0>, σ<level1>, …` — one selection-pushed
/// conjunction per materialized level.
fn compiled_bounded(levels: &Program, rank: u64) -> CompiledFormula {
    let parts = levels
        .rules
        .iter()
        .map(|rule| FExpr::Sigma(Box::new(chain_of_rule(rule))))
        .collect();
    CompiledFormula {
        strategy: format!(
            "bounded: finite union of {} levels (rank {rank})",
            levels.rules.len()
        ),
        parts,
    }
}

fn chain_of_rule(rule: &Rule) -> FExpr {
    let mut parts: Vec<FExpr> = rule
        .body
        .iter()
        .map(|a| FExpr::rel(a.predicate.as_str()))
        .collect();
    if parts.len() == 1 {
        parts.pop().expect("non-empty")
    } else {
        FExpr::Seq(parts)
    }
}

/// Renders a counting plan in the paper's style for a query form:
/// `σE, ∪k[{σA^k ‖ σB^k}-E-C^k]`.
fn compiled_counting(plan: &CountingPlan, form: &QueryForm) -> CompiledFormula {
    let bound: BTreeSet<usize> = form.determined_positions().collect();
    let mut down: Vec<FExpr> = Vec::new();
    let mut up: Vec<FExpr> = Vec::new();
    for (i, chain) in plan.chains.iter().enumerate() {
        if chain.is_identity() {
            continue;
        }
        let label: String = chain
            .atoms
            .iter()
            .map(|a| a.predicate.as_str())
            .collect::<Vec<_>>()
            .join("");
        if bound.contains(&i) {
            down.push(FExpr::Sigma(Box::new(FExpr::rel(label))).pow(Power::K));
        } else {
            up.push(FExpr::rel(label).pow(Power::K));
        }
    }
    let mut level = match down.len() {
        0 => None,
        1 => Some(down.pop().expect("one element")),
        _ => Some(FExpr::Par(down)),
    };
    let exit = FExpr::rel("E");
    let mut seq = match level.take() {
        Some(d) => d.then(exit),
        None => exit,
    };
    for u in up {
        seq = seq.then(u);
    }
    CompiledFormula {
        strategy: "counting over per-position chains (stable formula)".into(),
        parts: vec![FExpr::sigma("E"), FExpr::UnionK(Box::new(seq))],
    }
}

/// Renders a best-effort compiled formula for the magic strategy from the
/// propagation trace: the σ-chains of the pre-periodic forms, the periodic
/// segment raised to `^k`, the exit, and any chains outside every closure
/// rendered as the up-phase. For the paper's dependent/mixed examples this
/// reproduces the published plans (σA-C-B-[{A‖B}-C]^k-…-E); for class C the
/// disconnected part shows up as a trailing product/existence note in the
/// strategy string.
fn compiled_magic(lr: &LinearRecursion, form: &QueryForm) -> CompiledFormula {
    let rule = &lr.recursive_rule;
    let p = lr.predicate;
    // Propagation trace with cycle detection.
    let mut trace = vec![form.clone()];
    let cycle_start = loop {
        let next = recurs_datalog::adornment::propagate(rule, trace.last().expect("non-empty"));
        if let Some(idx) = trace.iter().position(|f| *f == next) {
            break idx;
        }
        trace.push(next);
    };
    let bound_head_vars = |f: &QueryForm| -> BTreeSet<Symbol> {
        let bound = f.determined_positions();
        bound.filter_map(|i| rule.head.terms[i].as_var()).collect()
    };
    let chain_for = |f: &QueryForm| closure_chain(lr, &bound_head_vars(f));
    let mut seq: Option<FExpr> = None;
    let push = |part: FExpr, seq: &mut Option<FExpr>| {
        *seq = Some(match seq.take() {
            None => part,
            Some(s) => s.then(part),
        });
    };
    for f in &trace[..cycle_start] {
        if let Some(c) = chain_for(f) {
            push(c, &mut seq);
        }
    }
    // Periodic segment.
    let cyclic: Vec<FExpr> = trace[cycle_start..].iter().filter_map(chain_for).collect();
    if !cyclic.is_empty() {
        let inner = if cyclic.len() == 1 {
            cyclic.into_iter().next().expect("one element")
        } else {
            FExpr::Seq(cyclic)
        };
        push(inner.pow(Power::K), &mut seq);
    }
    push(FExpr::rel("E"), &mut seq);
    // Atoms outside every closure: the up-phase / disconnected part.
    let closure_of =
        |f| recurs_datalog::adornment::determined_closure(rule, p, &bound_head_vars(f));
    let all_closure: BTreeSet<Symbol> = trace.iter().flat_map(closure_of).collect();
    let mut outside: Vec<&str> = Vec::new();
    for atom in lr.nonrecursive_body_atoms() {
        if !atom.variables().any(|v| all_closure.contains(&v)) {
            outside.push(atom.predicate.as_str());
        }
    }
    for name in &outside {
        push(FExpr::rel(*name).pow(Power::KPlus1), &mut seq);
    }
    let body = FExpr::Sigma(Box::new(seq.expect("at least the exit")));
    CompiledFormula {
        strategy: if outside.is_empty() {
            "magic-sets information passing (general method)".into()
        } else {
            format!(
                "magic-sets information passing; {} disconnected from the query constants \
                 (Cartesian product / existence check at evaluation)",
                outside.join(", ")
            )
        },
        parts: vec![FExpr::sigma("E"), FExpr::UnionK(Box::new(body))],
    }
}

/// Orders the atoms of the determined closure by evaluability rounds
/// (selection-first): round 1 holds atoms touching the seed, round 2 atoms
/// touching round 1's variables, … Atoms sharing a round render as parallel
/// branches. Returns `None` if the closure is empty.
fn closure_chain(lr: &LinearRecursion, seed: &BTreeSet<Symbol>) -> Option<FExpr> {
    let mut determined = seed.clone();
    let mut remaining: Vec<&Atom> = lr.nonrecursive_body_atoms().collect();
    let mut rounds: Vec<Vec<&Atom>> = Vec::new();
    loop {
        let (this_round, rest): (Vec<&Atom>, Vec<&Atom>) = remaining
            .iter()
            .partition(|a| a.variables().any(|v| determined.contains(&v)));
        if this_round.is_empty() {
            break;
        }
        for a in &this_round {
            for v in a.variables() {
                determined.insert(v);
            }
        }
        rounds.push(this_round);
        remaining = rest;
    }
    if rounds.is_empty() {
        return None;
    }
    let mut seq: Option<FExpr> = None;
    for round in rounds {
        let part = if round.len() == 1 {
            FExpr::rel(round[0].predicate.as_str())
        } else {
            FExpr::Par(
                round
                    .iter()
                    .map(|a| FExpr::rel(a.predicate.as_str()))
                    .collect(),
            )
        };
        seq = Some(match seq {
            None => part,
            Some(s) => s.then(part),
        });
    }
    seq
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use recurs_datalog::database::Database;
    use recurs_datalog::eval::{answer_query, semi_naive};
    use recurs_datalog::parser::{parse_atom, parse_program};
    use recurs_datalog::relation::{tuple_u64, Relation};
    use recurs_datalog::validate::validate_with_generic_exit;

    fn lr(src: &str) -> LinearRecursion {
        validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
    }

    /// The lowered program run by the *reference* evaluator: declare what it
    /// mentions, insert the seed, take the fixpoint, select the answer atom.
    /// This crate's unit tests certify the rewrite this way; the engine's
    /// differential suites certify the executor.
    pub(crate) fn lowered_answers(plan: &QueryPlan, db: &Database, query: &Atom) -> Relation {
        let lowered = plan.lower(query).unwrap();
        let mut db = db.clone();
        let rules = lowered.program.rules.iter();
        let atoms = rules.flat_map(|r| std::iter::once(&r.head).chain(&r.body));
        for atom in atoms.chain([&lowered.answer]) {
            db.declare(atom.predicate, atom.arity()).unwrap();
        }
        if let Some((pred, constants)) = lowered.seed {
            db.insert(pred, constants).unwrap();
        }
        semi_naive(&mut db, lowered.program, None).unwrap();
        answer_query(&db, &lowered.answer).unwrap()
    }

    /// Plans `query`, asserts the lowering chosen, and checks the lowered
    /// program against the recursion's own fixpoint.
    pub(crate) fn check(f: &LinearRecursion, db: &Database, query: &str, expect: StrategyKind) {
        let q = parse_atom(query).unwrap();
        let plan = plan_query(f, &q).unwrap();
        assert_eq!(plan.strategy, expect, "strategy for {query}");
        let want = crate::oracle::ground_truth(f, db, &q).unwrap().0;
        assert_eq!(
            lowered_answers(&plan, db, &q),
            want,
            "plan ≠ oracle for {query}"
        );
    }

    #[test]
    fn stable_formula_uses_counting() {
        let f = lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
        db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
        check(&f, &db, "P('1', y)", StrategyKind::Frontier);
        check(&f, &db, "P(x, '4')", StrategyKind::Magic);
        check(&f, &db, "P(x, y)", StrategyKind::Saturate);
    }

    #[test]
    fn a3_formula_transforms_then_counts() {
        let f = lr(
            "P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).\n\
                    P(x1,x2,x3) :- E(x1,x2,x3).",
        );
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 5)]));
        db.insert_relation("B", Relation::from_pairs([(11, 12), (12, 13), (13, 14)]));
        db.insert_relation("C", Relation::from_pairs([(21, 22), (22, 23), (23, 24)]));
        db.insert_relation(
            "E",
            Relation::from_tuples(3, [tuple_u64([2, 12, 22]), tuple_u64([4, 11, 23])]),
        );
        let q = parse_atom("P('1', '11', z)").unwrap();
        let plan = plan_query(&f, &q).unwrap();
        assert_eq!(plan.transform.as_ref().unwrap().period, 3);
        // Every position of the unfolded rule walks a chain, so a free one
        // ascends: only the fully bound form is a pure walk.
        check(&f, &db, "P('1', '11', z)", StrategyKind::Magic);
        check(&f, &db, "P('1', '11', '24')", StrategyKind::Frontier);
        check(&f, &db, "P(x, y, z)", StrategyKind::Saturate);
    }

    #[test]
    fn bounded_formula_uses_bounded() {
        let f = lr("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).\n\
                    P(x,y,z,u) :- E(x,y,z,u).");
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2)]));
        db.insert_relation("B", Relation::from_pairs([(2, 9)]));
        db.insert_relation("C", Relation::from_pairs([(7, 2)]));
        db.insert_relation("E", Relation::from_tuples(4, [tuple_u64([3, 2, 7, 2])]));
        check(&f, &db, "P(x, y, z, u)", StrategyKind::Bounded);
        check(&f, &db, "P('1', y, z, u)", StrategyKind::Bounded);
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
        let plan = plan_for_form(&s8(), &QueryForm::parse("vvvv"));
        assert_eq!(plan.strategy, StrategyKind::Bounded);
        assert_eq!(plan.classification.rank_bound(), Some(2));
        assert_eq!(plan.program().rules.len(), 3);
    }

    #[test]
    fn s8_queries_match_oracle() {
        let f = s8();
        let db = s8_db();
        check(&f, &db, "P(x, y, z, u)", StrategyKind::Bounded);
        check(&f, &db, "P('1', y, z, u)", StrategyKind::Bounded);
        check(&f, &db, "P(x, y, '5', u)", StrategyKind::Bounded);
        check(&f, &db, "P('3', '2', '7', '2')", StrategyKind::Bounded);
        check(&f, &db, "P('9', y, z, u)", StrategyKind::Bounded);
    }

    #[test]
    fn s5_rotation_queries() {
        let f = lr("P(x, y, z) :- P(y, z, x).");
        let mut db = Database::new();
        db.insert_relation(
            "E",
            Relation::from_tuples(3, [tuple_u64([1, 2, 3]), tuple_u64([4, 5, 6])]),
        );
        check(&f, &db, "P(x, y, z)", StrategyKind::Bounded);
        check(&f, &db, "P('2', y, z)", StrategyKind::Bounded);
        check(&f, &db, "P('3', '1', '2')", StrategyKind::Bounded);
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
        check(&f, &db, "P(x, y)", StrategyKind::Bounded);
        check(&f, &db, "P('1', y)", StrategyKind::Bounded);
        check(&f, &db, "P(x, '5')", StrategyKind::Bounded);
    }

    #[test]
    fn repeated_query_variable() {
        let f = s8();
        let db = s8_db();
        check(&f, &db, "P(x, x, z, u)", StrategyKind::Bounded);
        check(&f, &db, "P(x, y, y, y)", StrategyKind::Bounded);
    }

    #[test]
    fn unbounded_formula_has_no_bounded_plan() {
        let f = lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
        for form in ["vv", "dv", "vd", "dd"] {
            let plan = plan_for_form(&f, &QueryForm::parse(form));
            assert_ne!(plan.strategy, StrategyKind::Bounded, "{form}");
        }
    }

    /// A bounded form's program is built once: every query of the form is
    /// handed that program, and only its seed tuple differs.
    #[test]
    fn a_bounded_form_lowers_every_query_to_the_plans_program() {
        let plan = plan_for_form(&s8(), &QueryForm::parse("dvvv"));
        let one = plan.lower(&parse_atom("P('1', y, z, u)").unwrap()).unwrap();
        let other = plan.lower(&parse_atom("P('3', y, y, u)").unwrap()).unwrap();
        assert!(std::ptr::eq(one.program, other.program));
        assert!(std::ptr::eq(one.program, plan.program()));
        assert_ne!(one.seed, other.seed);
        assert_eq!(one.round_cap, Some(0));
    }

    /// The seed guard does what unifying each level with the query did: a
    /// head constant meets the query's through the guard (a clash joins
    /// nothing), a repeated head variable asks for equal seed constants, and
    /// the answer atom's select filters a repeated query variable.
    #[test]
    fn head_constants_and_repeated_head_variables_meet_the_seed() {
        let src = "P(x, y) :- P(y, x).\n\
                   P(x, 'a') :- E(x).\n\
                   P(x, x) :- F(x).\n\
                   E('b'). E('c'). F('a'). F('d').";
        let mut db = Database::new();
        let rules = db.load_facts(&parse_program(src).unwrap()).unwrap();
        let f = validate_with_generic_exit(&rules).unwrap();
        let all = crate::oracle::ground_truth(&f, &db, &parse_atom("P(x, y)").unwrap());
        assert_eq!(all.unwrap().0.len(), 6, "(b|c, a), (a, b|c), (a|d, a|d)");
        for query in [
            "P(x, 'a')",
            "P('a', y)",
            "P(x, 'b')",
            "P('b', 'a')",
            "P('e', 'a')",
            "P('d', 'd')",
            "P(x, x)",
            "P(x, y)",
        ] {
            check(&f, &db, query, StrategyKind::Bounded);
        }
    }

    #[test]
    fn class_c_uses_magic() {
        let f = lr("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).\n\
                    P(x, y, z) :- E(x, y, z).");
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2)]));
        db.insert_relation("B", Relation::from_pairs([(5, 6)]));
        db.insert_relation("E", Relation::from_tuples(3, [tuple_u64([5, 9, 6])]));
        check(&f, &db, "P('1', y, z)", StrategyKind::Magic);
    }

    #[test]
    fn class_e_uses_magic() {
        let f = lr("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).\n\
                    P(x, y) :- E(x, y).");
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("B", Relation::from_pairs([(11, 12)]));
        db.insert_relation("C", Relation::from_pairs([(2, 12)]));
        db.insert_relation("E", Relation::from_pairs([(2, 12), (1, 11)]));
        check(&f, &db, "P('1', y)", StrategyKind::Magic);
        check(&f, &db, "P(x, y)", StrategyKind::Saturate);
    }

    #[test]
    fn compiled_formula_for_s3() {
        let f = lr("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).\n\
                    P(x,y,z) :- E(x,y,z).");
        let plan = plan_for_form(&f, &QueryForm::parse("ddv"));
        assert_eq!(plan.compiled.to_string(), "σE,  ∪k[{σA^k ‖ σB^k}-E-C^k]");
        // The formula is the paper's whichever lowering runs: `C^k` is an
        // ascend factor, so this form executes as magic.
        assert_eq!(plan.strategy, StrategyKind::Magic);
        assert!(plan.compiled.strategy.contains("ascend"));
    }

    #[test]
    fn compiled_formula_for_s11_matches_paper() {
        // Paper (Example 11): σE, σA-C-B-E, ∪k σA-C-B-[{A‖B}-C]^k-C-E …
        // Our renderer folds the pre-period into the same ∪k term:
        let f = lr("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).\n\
                    P(x, y) :- E(x, y).");
        let plan = plan_for_form(&f, &QueryForm::parse("dv"));
        let s = plan.compiled.to_string();
        assert!(s.starts_with("σE,"), "{s}");
        assert!(s.contains("A-C-B"), "paper's σA-C-B chain missing: {s}");
        assert!(s.contains("^k"), "{s}");
    }

    #[test]
    fn compiled_formula_for_s12_matches_paper() {
        // Paper (Example 14): ∪k σA-C-B-[{A‖B}-C]^k-E-D^(k+1).
        let f = lr("P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).\n\
                    P(x,y,z) :- E(x,y,z).");
        let plan = plan_for_form(&f, &QueryForm::parse("dvv"));
        let s = plan.compiled.to_string();
        assert!(s.contains("A-C-B"), "{s}");
        assert!(s.contains("{A ‖ B}-C"), "{s}");
        assert!(s.contains("D^(k+1)"), "{s}");
    }

    #[test]
    fn bounded_compiled_formula_lists_levels() {
        let f = lr("P(x, y, z) :- P(y, z, x).");
        let plan = plan_for_form(&f, &QueryForm::parse("vvv"));
        assert_eq!(plan.strategy, StrategyKind::Bounded);
        // Exit + 2 rotations: three σ-terms.
        assert_eq!(plan.compiled.parts.len(), 3);
    }

    #[test]
    fn plan_introspection_matches_strategy() {
        let stable = lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
        let p = plan_for_form(&stable, &QueryForm::parse("dv"));
        // The walk: one frontier rule, one answer rule per exit.
        assert_eq!(p.strategy, StrategyKind::Frontier);
        let rules: Vec<String> = p.program().rules.iter().map(|r| r.to_string()).collect();
        assert_eq!(
            rules,
            [
                "reach__P__dv(z) :- reach__P__dv(x), A(x, z).",
                "ans__P__dv(y) :- reach__P__dv(x), E(x, y)."
            ]
        );
        let chains = p.counting_chains().expect("class A plan");
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].2, vec![Symbol::intern("A")]);
        assert!(chains[1].2.is_empty()); // identity position

        let bounded = lr("P(x, y, z) :- P(y, z, x).");
        let p = plan_for_form(&bounded, &QueryForm::parse("vvv"));
        assert_eq!(p.program().rules.len(), 3);
        assert!(p.counting_chains().is_none());

        let dependent = lr("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).\n\
                            P(x, y) :- E(x, y).");
        let p = plan_for_form(&dependent, &QueryForm::parse("dv"));
        assert_eq!(p.strategy, StrategyKind::Magic);
        // Adorned exit + adorned recursive + magic rule for the dv form,
        // plus the same for the reachable dd form.
        assert!(p.program().rules.len() >= 4);
        assert!(p
            .program()
            .rules
            .iter()
            .any(|r| r.head.predicate.as_str().starts_with("magic__")));
    }

    #[test]
    fn fully_bound_queries_all_strategies() {
        let stable = lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3)]));
        check(&stable, &db, "P('1', '3')", StrategyKind::Frontier);
        check(&stable, &db, "P('3', '1')", StrategyKind::Frontier);
    }

    #[test]
    fn queries_that_do_not_fit_the_recursion_are_typed_errors() {
        let f = lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
        let wrong_predicate = parse_atom("Q('1', y)").unwrap();
        let wrong_arity = parse_atom("P('1', y, z)").unwrap();
        assert!(matches!(
            plan_query(&f, &wrong_predicate),
            Err(DatalogError::UnknownRelation(_))
        ));
        assert!(matches!(
            plan_query(&f, &wrong_arity),
            Err(DatalogError::ArityMismatch { .. })
        ));
        let plan = plan_for_form(&f, &QueryForm::parse("dv"));
        assert!(plan.lower(&wrong_predicate).is_err());
        assert!(plan.lower(&wrong_arity).is_err());
    }
}
