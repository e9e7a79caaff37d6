//! Bottom-up evaluation: conjunctive bodies, naive and semi-naive fixpoints.
//!
//! The evaluator is the ground-truth oracle: compiled query plans (crate
//! `recurs-core`) and the indexed engine (crate `recurs-engine`) are checked
//! against it. It is the reference, never the fast path — it has no budget
//! beyond an optional round cap, emits no events, and knows nothing of the
//! engine's storage.
//!
//! It has one join path. Every rule evaluation — each rule of a [`naive`]
//! round, [`semi_naive`]'s seeding round, and each of its differentiated
//! variants, which is the rule with one IDB atom reading the delta — is
//! [`eval_rule`]: a fold of the algebra's join and product over the body
//! atoms in [`crate::order`]'s order. Nothing is prepared, indexed or kept
//! between rounds.

use crate::algebra::{join, product, select_col_eq, select_eq};
use crate::database::Database;
use crate::error::DatalogError;
use crate::relation::{Relation, Tuple};
use crate::rule::{Program, Rule};
use crate::symbol::Symbol;
use crate::term::{Atom, Term, Value};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

/// Statistics of a fixpoint run, for reports and benchmark assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of iterations executed, counting the seeding round (and, on a
    /// complete run, the last unproductive fixpoint-detection round).
    pub iterations: usize,
    /// Total tuples derived into IDB relations (including exit tuples).
    pub tuples_derived: usize,
    /// True if the run stopped at the round cap rather than at a genuine
    /// fixpoint.
    pub truncated: bool,
}

/// An intermediate result: a relation whose columns carry the listed
/// variables (positional algebra with a variable header).
#[derive(Debug, Clone)]
pub struct Bindings {
    /// Variable carried by each column.
    pub vars: Vec<Symbol>,
    /// The tuples.
    pub rel: Relation,
}

impl Bindings {
    /// The unit bindings: one empty tuple over no variables. Joining with it
    /// is the identity, which makes it the natural fold seed.
    pub fn unit() -> Bindings {
        Bindings {
            vars: Vec::new(),
            rel: Relation::from_tuples(0, [Tuple::from([])]),
        }
    }

    /// Column of a variable, if bound.
    pub fn column_of(&self, v: Symbol) -> Option<usize> {
        self.vars.iter().position(|&x| x == v)
    }
}

/// Normalizes one atom's relation: applies constant selections and repeated-
/// variable selections, then projects onto the first occurrence of each
/// variable. Returns the distinct variables (in first-occurrence order) and
/// the normalized relation.
fn normalize_atom<'a>(
    atom: &Atom,
    rel: &'a Relation,
) -> Result<(Vec<Symbol>, Cow<'a, Relation>), DatalogError> {
    if atom.arity() != rel.arity() {
        // Reachable from user input: a fact file can load a relation at an
        // arity that disagrees with the rules, so this is an error, not an
        // assert.
        return Err(DatalogError::ArityMismatch {
            predicate: atom.predicate,
            expected: rel.arity(),
            found: atom.arity(),
        });
    }
    // Fast path: all arguments are distinct variables — the relation is used
    // as-is, with no selection or projection (and no clone; this runs once
    // per atom per fixpoint iteration, so copies here are the hot path).
    if atom.has_distinct_variables() {
        let vars: Vec<Symbol> = atom.terms.iter().filter_map(Term::as_var).collect();
        return Ok((vars, Cow::Borrowed(rel)));
    }
    let mut current = rel.clone();
    // Constant selections.
    for (i, t) in atom.terms.iter().enumerate() {
        if let Term::Const(c) = t {
            current = select_eq(&current, i, *c);
        }
    }
    // Repeated-variable selections.
    let mut first_col: HashMap<Symbol, usize> = HashMap::new();
    let mut keep: Vec<usize> = Vec::new();
    let mut vars: Vec<Symbol> = Vec::new();
    for (i, t) in atom.terms.iter().enumerate() {
        if let Term::Var(v) = t {
            if let Some(&j) = first_col.get(v) {
                current = select_col_eq(&current, j, i);
            } else {
                first_col.insert(*v, i);
                keep.push(i);
                vars.push(*v);
            }
        }
    }
    Ok((vars, Cow::Owned(crate::algebra::project(&current, &keep))))
}

/// Joins `next` (an atom's normalized relation) into accumulated bindings.
fn extend_bindings(acc: &Bindings, vars: &[Symbol], rel: &Relation) -> Bindings {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut new_vars: Vec<Symbol> = Vec::new();
    let mut new_cols: Vec<usize> = Vec::new();
    for (i, &v) in vars.iter().enumerate() {
        match acc.column_of(v) {
            Some(j) => pairs.push((j, i)),
            None => {
                new_vars.push(v);
                new_cols.push(i);
            }
        }
    }
    let joined = if pairs.is_empty() {
        product(&acc.rel, rel)
    } else {
        join(&acc.rel, rel, &pairs)
    };
    // Keep all accumulator columns plus the first occurrence of new vars.
    let keep: Vec<usize> = (0..acc.vars.len())
        .chain(new_cols.iter().map(|&c| acc.vars.len() + c))
        .collect();
    let mut vars_out = acc.vars.clone();
    vars_out.extend(new_vars);
    Bindings {
        vars: vars_out,
        rel: crate::algebra::project(&joined, &keep),
    }
}

/// Evaluates a conjunctive body against `db`, with per-position relation
/// overrides (used by semi-naive deltas). Returns bindings over the body's
/// variables.
///
/// Atoms are joined in the selection-first order of [`crate::order`]
/// (constants and small relations early, products deferred); when overrides
/// are present, the smallest overridden position (the delta atom) leads.
pub fn eval_body(
    db: &Database,
    body: &[Atom],
    overrides: &HashMap<usize, &Relation>,
) -> Result<Bindings, DatalogError> {
    let pinned = overrides.keys().min().copied();
    let order = crate::order::order_atoms(body, |p| db.get(p).map(Relation::len), pinned);
    let mut acc = Bindings::unit();
    for i in order {
        let atom = &body[i];
        let rel: &Relation = match overrides.get(&i) {
            Some(r) => r,
            None => db.require(atom.predicate)?,
        };
        let (vars, normalized) = normalize_atom(atom, rel)?;
        acc = extend_bindings(&acc, &vars, &normalized);
        if acc.rel.is_empty() {
            // Short-circuit: the conjunction is already unsatisfiable.
            return Ok(Bindings {
                vars: body
                    .iter()
                    .flat_map(|a| a.variables())
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect(),
                rel: Relation::new(
                    body.iter()
                        .flat_map(|a| a.variables())
                        .collect::<BTreeSet<_>>()
                        .len(),
                ),
            });
        }
    }
    Ok(acc)
}

/// Evaluates one rule, returning the derived head tuples.
pub fn eval_rule(
    db: &Database,
    rule: &Rule,
    overrides: &HashMap<usize, &Relation>,
) -> Result<Relation, DatalogError> {
    let bindings = eval_body(db, &rule.body, overrides)?;
    head_tuples(&rule.head, &bindings)
}

/// Instantiates the head over the bindings (head constants are copied,
/// head variables looked up).
fn head_tuples(head: &Atom, bindings: &Bindings) -> Result<Relation, DatalogError> {
    enum Col {
        Bound(usize),
        Fixed(Value),
    }
    let cols: Vec<Col> = head
        .terms
        .iter()
        .map(|t| match t {
            Term::Var(v) => bindings
                .column_of(*v)
                .map(Col::Bound)
                .ok_or(DatalogError::UnboundVariable(*v)),
            Term::Const(c) => Ok(Col::Fixed(*c)),
        })
        .collect::<Result<_, _>>()?;
    let mut out = Relation::new(head.arity());
    for t in bindings.rel.iter() {
        out.insert(
            cols.iter()
                .map(|c| match c {
                    Col::Bound(i) => t[*i],
                    Col::Fixed(v) => *v,
                })
                .collect(),
        );
    }
    Ok(out)
}

fn declare_idb(db: &mut Database, program: &Program) -> Result<(), DatalogError> {
    for rule in &program.rules {
        db.declare(rule.head.predicate, rule.head.arity())?;
    }
    Ok(())
}

/// Naive bottom-up fixpoint: every iteration re-evaluates every rule against
/// the full database. `max_iterations = None` runs to fixpoint.
///
/// Iteration/cap semantics are shared with [`semi_naive`] and with
/// `recurs-engine`: the cap is checked at the *start* of each round, so a
/// cap of `k` executes at most `k` rounds (the first of which derives the
/// non-recursive seed tuples). A capped-out run returns `Ok` with
/// [`EvalStats::truncated`] set; the database holds a sound
/// under-approximation of the fixpoint.
pub fn naive(
    db: &mut Database,
    program: &Program,
    max_iterations: Option<usize>,
) -> Result<EvalStats, DatalogError> {
    declare_idb(db, program)?;
    let mut stats = EvalStats::default();
    loop {
        if cap_reached(max_iterations, &stats) {
            stats.truncated = true;
            return Ok(stats);
        }
        stats.iterations += 1;
        let mut derived: Vec<(Symbol, Relation)> = Vec::new();
        for rule in &program.rules {
            derived.push((rule.head.predicate, eval_rule(db, rule, &HashMap::new())?));
        }
        let new_tuples = merge(db, derived);
        stats.tuples_derived += new_tuples;
        if new_tuples == 0 {
            return Ok(stats);
        }
    }
}

/// The round cap, checked before a round starts.
fn cap_reached(max_iterations: Option<usize>, stats: &EvalStats) -> bool {
    max_iterations.is_some_and(|cap| stats.iterations >= cap)
}

/// Unions derived relations into the database, returning how many tuples
/// were genuinely new.
fn merge(db: &mut Database, derived: impl IntoIterator<Item = (Symbol, Relation)>) -> usize {
    let mut added = 0usize;
    for (pred, rel) in derived {
        match db.get_mut(pred) {
            Some(target) => added += target.union_in_place(&rel),
            None => {
                added += rel.len();
                db.insert_relation(pred, rel);
            }
        }
    }
    added
}

/// Semi-naive bottom-up fixpoint: recursive rules are differentiated so each
/// iteration only joins against the newly derived delta.
///
/// Iteration/cap semantics are shared with [`naive`] and with
/// `recurs-engine`: iteration 1 is the seeding round (non-recursive rules
/// plus caller-preloaded IDB tuples), and the cap is checked at the *start*
/// of each recursive round — so a cap of `k` runs the seeding round plus at
/// most `k - 1` recursive rounds. A capped run that still has a pending
/// non-empty delta reports [`EvalStats::truncated`]; every tuple it derived
/// is a true consequence of the program (early exit only omits tuples).
pub fn semi_naive(
    db: &mut Database,
    program: &Program,
    max_iterations: Option<usize>,
) -> Result<EvalStats, DatalogError> {
    declare_idb(db, program)?;
    let idb: BTreeSet<Symbol> = program.idb_predicates();
    let mut stats = EvalStats::default();

    // A zero cap stops before any work.
    if cap_reached(max_iterations, &stats) {
        stats.truncated = true;
        return Ok(stats);
    }

    // Iteration 0: non-recursive rules (no IDB atom in the body) seed the
    // deltas. Recursive rules contribute from iteration 1 on.
    let mut delta: HashMap<Symbol, Relation> = HashMap::new();
    for rule in &program.rules {
        if rule.body.iter().any(|a| idb.contains(&a.predicate)) {
            continue;
        }
        let derived = eval_rule(db, rule, &HashMap::new())?;
        delta
            .entry(rule.head.predicate)
            .or_insert_with(|| Relation::new(rule.head.arity()))
            .union_in_place(&derived);
    }
    stats.iterations += 1;
    stats.tuples_derived += merge(db, delta);
    // The delta for the first recursive round is everything present after
    // iteration 0 — including tuples pre-seeded into IDB relations by the
    // caller (e.g. magic-set seeds), which recursive rules must see.
    let mut true_delta: HashMap<Symbol, Relation> = HashMap::new();
    for &pred in &idb {
        if let Some(rel) = db.get(pred) {
            if !rel.is_empty() {
                true_delta.insert(pred, rel.clone());
            }
        }
    }

    loop {
        if true_delta.values().all(Relation::is_empty) {
            return Ok(stats);
        }
        if cap_reached(max_iterations, &stats) {
            stats.truncated = true;
            return Ok(stats);
        }
        stats.iterations += 1;
        let mut derived: HashMap<Symbol, Relation> = HashMap::new();
        for rule in &program.rules {
            // One differentiated variant per IDB body occurrence: the rule
            // with that atom reading the delta, joined like any other body.
            for pos in (0..rule.body.len()).filter(|&i| idb.contains(&rule.body[i].predicate)) {
                let Some(d) = true_delta.get(&rule.body[pos].predicate) else {
                    continue;
                };
                if d.is_empty() {
                    continue;
                }
                let out = eval_rule(db, rule, &HashMap::from([(pos, d)]))?;
                derived
                    .entry(rule.head.predicate)
                    .or_insert_with(|| Relation::new(rule.head.arity()))
                    .union_in_place(&out);
            }
        }
        // New-tuple deltas for the next round.
        let mut next_delta: HashMap<Symbol, Relation> = HashMap::new();
        for (pred, rel) in &derived {
            let fresh = match db.get(*pred) {
                Some(e) => rel.difference(e),
                None => rel.clone(),
            };
            next_delta.insert(*pred, fresh);
        }
        let added = merge(db, derived);
        stats.tuples_derived += added;
        true_delta = next_delta;
        if added == 0 {
            return Ok(stats);
        }
    }
}

/// Evaluates a ground-or-open query atom against an already-saturated
/// database: applies the query's constant selections and projects onto the
/// query's variables (in first-occurrence order).
pub fn answer_query(db: &Database, query: &Atom) -> Result<Relation, DatalogError> {
    let rel = db.require(query.predicate)?;
    let (_, normalized) = normalize_atom(query, rel)?;
    Ok(normalized.into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_atom, parse_program};
    use crate::relation::tuple_u64;

    fn chain_db(n: u64) -> Database {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db.insert_relation("E", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db
    }

    fn tc_program() -> Program {
        parse_program("P(x, y) :- E(x, y).\nP(x, y) :- A(x, z), P(z, y).").unwrap()
    }

    #[test]
    fn naive_transitive_closure_on_chain() {
        let mut db = chain_db(6);
        let stats = naive(&mut db, &tc_program(), None).unwrap();
        // Chain 1→2→…→6 has C(5+1,2)=15 closure pairs.
        assert_eq!(db.require("P").unwrap().len(), 15);
        assert!(stats.iterations >= 5);
        assert!(!stats.truncated);
    }

    #[test]
    fn semi_naive_matches_naive() {
        let mut db1 = chain_db(8);
        let mut db2 = chain_db(8);
        naive(&mut db1, &tc_program(), None).unwrap();
        semi_naive(&mut db2, &tc_program(), None).unwrap();
        assert_eq!(db1.require("P").unwrap(), db2.require("P").unwrap());
    }

    #[test]
    fn semi_naive_on_cyclic_data_terminates() {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 1)]));
        db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3), (3, 1)]));
        semi_naive(&mut db, &tc_program(), None).unwrap();
        // All 9 pairs are reachable on a 3-cycle.
        assert_eq!(db.require("P").unwrap().len(), 9);
    }

    #[test]
    fn truncation_caps_iterations() {
        let mut db = chain_db(50);
        let stats = semi_naive(&mut db, &tc_program(), Some(3)).unwrap();
        assert!(stats.truncated);
        assert_eq!(stats.iterations, 3);
        assert!(db.require("P").unwrap().len() < 49 * 50 / 2);
    }

    #[test]
    fn cap_counts_seeding_round() {
        // Unified semantics: cap 1 = seeding round only, no recursive round.
        let mut db = chain_db(10);
        let stats = semi_naive(&mut db, &tc_program(), Some(1)).unwrap();
        assert_eq!(stats.iterations, 1);
        assert!(stats.truncated);
        assert_eq!(db.require("P").unwrap().len(), 9); // E edges only

        let mut db = chain_db(10);
        let stats = naive(&mut db, &tc_program(), Some(1)).unwrap();
        assert_eq!(stats.iterations, 1);
        assert!(stats.truncated);
        assert_eq!(db.require("P").unwrap().len(), 9);
    }

    #[test]
    fn unlimited_budget_runs_to_fixpoint() {
        let mut db = chain_db(8);
        let stats = semi_naive(&mut db, &tc_program(), None).unwrap();
        assert!(!stats.truncated);
        assert_eq!(db.require("P").unwrap().len(), 7 * 8 / 2);
    }

    #[test]
    fn answer_query_selects_and_projects() {
        let mut db = chain_db(5);
        semi_naive(&mut db, &tc_program(), None).unwrap();
        let q = parse_atom("P('1', y)").unwrap();
        let ans = answer_query(&db, &q).unwrap();
        assert_eq!(ans.arity(), 1);
        assert_eq!(ans.len(), 4); // 1 reaches 2,3,4,5
    }

    #[test]
    fn repeated_variables_in_query() {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 1)]));
        db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 1)]));
        semi_naive(&mut db, &tc_program(), None).unwrap();
        // P(x, x): nodes on a cycle reach themselves.
        let q = parse_atom("P(x, x)").unwrap();
        let ans = answer_query(&db, &q).unwrap();
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn body_with_repeated_variable() {
        // Q(x) :- A(x, x): diagonal selection inside an atom.
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 1), (1, 2), (3, 3)]));
        let program = parse_program("Q(x) :- A(x, x).").unwrap();
        naive(&mut db, &program, None).unwrap();
        assert_eq!(db.require("Q").unwrap().len(), 2);
    }

    #[test]
    fn cartesian_body() {
        // R(x, y) :- A(x, u), B(y, v): disconnected body is a product.
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 10), (2, 20)]));
        db.insert_relation("B", Relation::from_pairs([(7, 70)]));
        let program = parse_program("R(x, y) :- A(x, u), B(y, v).").unwrap();
        naive(&mut db, &program, None).unwrap();
        let r = db.require("R").unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[Value::from_u64(1), Value::from_u64(7)]));
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let mut db = Database::new();
        let program = parse_program("Q(x) :- Missing(x, x).").unwrap();
        assert!(naive(&mut db, &program, None).is_err());
    }

    #[test]
    fn constants_in_rule_bodies() {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (3, 4)]));
        let program = parse_program("Q(y) :- A('1', y).").unwrap();
        naive(&mut db, &program, None).unwrap();
        let q = db.require("Q").unwrap();
        assert_eq!(q.len(), 1);
        assert!(q.contains(&[Value::from_u64(2)]));
    }

    #[test]
    fn head_constant_is_materialized() {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2)]));
        let program = parse_program("Q('tag', y) :- A(x, y).").unwrap();
        naive(&mut db, &program, None).unwrap();
        let q = db.require("Q").unwrap();
        assert!(q.contains(&[Value::named("tag"), Value::from_u64(2)]));
    }

    #[test]
    fn empty_edb_yields_empty_idb() {
        let mut db = Database::new();
        db.declare("A", 2).unwrap();
        db.declare("E", 2).unwrap();
        let stats = semi_naive(&mut db, &tc_program(), None).unwrap();
        assert!(db.require("P").unwrap().is_empty());
        assert_eq!(stats.tuples_derived, 0);
    }

    #[test]
    fn three_dimensional_recursion() {
        // s3 from the paper: P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("B", Relation::from_pairs([(4, 5), (5, 6)]));
        db.insert_relation("C", Relation::from_pairs([(7, 8), (8, 9)]));
        db.insert_relation("E3", Relation::from_tuples(3, [tuple_u64([3, 6, 7])]));
        let program =
            parse_program("P(x,y,z) :- E3(x,y,z).\nP(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).")
                .unwrap();
        semi_naive(&mut db, &program, None).unwrap();
        let p = db.require("P").unwrap();
        // E3(3,6,7); expansion 1: A(2,3),B(5,6),P(3,6,7),C(7,8) → P(2,5,8);
        // expansion 2: A(1,2),B(4,5),P(2,5,8),C(8,9) → P(1,4,9).
        assert_eq!(p.len(), 3);
        assert!(p.contains(&[Value::from_u64(1), Value::from_u64(4), Value::from_u64(9)]));
    }
}
