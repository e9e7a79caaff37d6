//! Query forms (the paper's `d`/`v` patterns) and determined-variable
//! propagation.
//!
//! A query such as `P(a, b, Z)` fixes constants in some argument positions.
//! The paper writes the resulting *query form* as `P(d, v, v)`-style patterns:
//! `d` for a determined position, `v` for a non-determined one. A variable of
//! the (expanded) formula is **determined** when its value is derivable from a
//! query constant by selections and joins over non-recursive predicates only —
//! i.e. by closure over the undirected edges of the (resolution) graph.

use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::{Atom, Term};
use std::collections::BTreeSet;
use std::fmt;

/// One argument position of a query form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArgBinding {
    /// `d` — the value is given by the query or derivable from it.
    Determined,
    /// `v` — unknown.
    Free,
}

/// A query form: one [`ArgBinding`] per argument of the recursive predicate.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryForm(pub Vec<ArgBinding>);

impl QueryForm {
    /// Parses a pattern such as `"dvv"`.
    ///
    /// # Panics
    /// Panics on characters other than `d`/`b`/`v`/`f` (patterns are
    /// programmer input here; use [`QueryForm::try_parse`] for user data).
    pub fn parse(pattern: &str) -> QueryForm {
        match QueryForm::try_parse(pattern) {
            Ok(form) => form,
            Err(e) => panic!("{e}"),
        }
    }

    /// Parses a pattern such as `"dvv"`, rejecting any character other than
    /// `d`/`b` (determined) and `v`/`f` (free).
    pub fn try_parse(pattern: &str) -> Result<QueryForm, String> {
        pattern
            .chars()
            .map(|c| match c {
                'd' | 'b' => Ok(ArgBinding::Determined),
                'v' | 'f' => Ok(ArgBinding::Free),
                other => Err(format!(
                    "invalid query-form character `{other}` (expected d/b/v/f)"
                )),
            })
            .collect::<Result<_, _>>()
            .map(QueryForm)
    }

    /// Derives the query form of a query atom: constant positions are
    /// determined, variable positions free. Repeated variables are treated
    /// as free (the paper does not consider sideways bindings inside the
    /// query atom itself).
    pub fn of_atom(query: &Atom) -> QueryForm {
        QueryForm(
            query
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(_) => ArgBinding::Determined,
                    Term::Var(_) => ArgBinding::Free,
                })
                .collect(),
        )
    }

    /// Number of argument positions.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Positions (0-based) that are determined.
    pub fn determined_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == ArgBinding::Determined)
            .map(|(i, _)| i)
    }

    /// True if no position is determined.
    pub fn all_free(&self) -> bool {
        self.0.iter().all(|b| *b == ArgBinding::Free)
    }

    /// The fully-free form of a given arity.
    pub fn free(arity: usize) -> QueryForm {
        QueryForm(vec![ArgBinding::Free; arity])
    }
}

impl fmt::Debug for QueryForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(
                f,
                "{}",
                match b {
                    ArgBinding::Determined => 'd',
                    ArgBinding::Free => 'v',
                }
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for QueryForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Closes a set of determined variables over the non-recursive atoms of a
/// rule body: if any variable of a non-recursive atom is determined, all of
/// that atom's variables become determined (selections and joins over the
/// non-recursive predicate propagate values both ways). Runs to fixpoint.
pub fn determined_closure(
    rule: &Rule,
    recursive_predicate: Symbol,
    seed: &BTreeSet<Symbol>,
) -> BTreeSet<Symbol> {
    let mut determined = seed.clone();
    loop {
        let mut changed = false;
        for atom in &rule.body {
            if atom.predicate == recursive_predicate {
                continue;
            }
            let vars: Vec<Symbol> = atom.variables().collect();
            if vars.iter().any(|v| determined.contains(v)) {
                for v in vars {
                    changed |= determined.insert(v);
                }
            }
        }
        if !changed {
            return determined;
        }
    }
}

/// Propagates a query form through one application of the recursive rule:
/// determined head positions seed the closure; the result is the determined
/// pattern of the recursive body atom — the query form faced by the next
/// expansion.
///
/// ```
/// use recurs_datalog::adornment::{propagate, QueryForm};
/// use recurs_datalog::parser::parse_rule;
///
/// // The paper's Example 14 (s12): P(d,v,v) → P(d,d,v).
/// let rule = parse_rule(
///     "P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), P(u, v, w).",
/// ).unwrap();
/// assert_eq!(
///     propagate(&rule, &QueryForm::parse("dvv")),
///     QueryForm::parse("ddv"),
/// );
/// ```
pub fn propagate(rule: &Rule, form: &QueryForm) -> QueryForm {
    let p = rule.head.predicate;
    assert_eq!(
        form.arity(),
        rule.head.arity(),
        "query form arity must match the recursive predicate"
    );
    let seed: BTreeSet<Symbol> = form
        .determined_positions()
        .filter_map(|i| rule.head.terms[i].as_var())
        .collect();
    let closure = determined_closure(rule, p, &seed);
    let Some(rec_atom) = rule.body_atoms_of(p).next() else {
        panic!("propagate requires a linear recursive rule, got {rule}")
    };
    QueryForm(
        rec_atom
            .terms
            .iter()
            .map(|t| match t.as_var() {
                Some(v) if closure.contains(&v) => ArgBinding::Determined,
                _ => ArgBinding::Free,
            })
            .collect(),
    )
}

/// The sequence of query forms met at expansions 0, 1, 2, … (index 0 is the
/// incoming form), cut off at `max_steps` or at the first repetition.
/// Returns the trace and, if a repetition occurred, the index the last form
/// repeats (the start of the cycle).
pub fn propagation_trace(
    rule: &Rule,
    form: &QueryForm,
    max_steps: usize,
) -> (Vec<QueryForm>, Option<usize>) {
    let mut trace = vec![form.clone()];
    let mut last = form.clone();
    for _ in 0..max_steps {
        let next = propagate(rule, &last);
        if let Some(idx) = trace.iter().position(|f| *f == next) {
            trace.push(next);
            return (trace, Some(idx));
        }
        last = next.clone();
        trace.push(next);
    }
    (trace, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_atom, parse_rule};

    #[test]
    fn parse_and_display() {
        let f = QueryForm::parse("dvv");
        assert_eq!(f.to_string(), "dvv");
        assert_eq!(f.arity(), 3);
        assert_eq!(f.determined_positions().collect::<Vec<_>>(), vec![0]);
        assert_eq!(QueryForm::parse("bff"), f); // magic-sets notation accepted
    }

    #[test]
    fn of_atom_reads_constants() {
        let q = parse_atom("P('a', 'b', z)").unwrap();
        assert_eq!(QueryForm::of_atom(&q), QueryForm::parse("ddv"));
    }

    #[test]
    fn closure_spreads_over_nonrecursive_atoms() {
        // s12: P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).
        let r = parse_rule("P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).").unwrap();
        let seed: BTreeSet<Symbol> = [Symbol::intern("x")].into();
        let closure = determined_closure(&r, Symbol::intern("P"), &seed);
        // x →A→ u →C→ v →B→ y; w and z are out of reach.
        for v in ["x", "u", "v", "y"] {
            assert!(
                closure.contains(&Symbol::intern(v)),
                "{v} should be determined"
            );
        }
        for v in ["w", "z"] {
            assert!(!closure.contains(&Symbol::intern(v)), "{v} should be free");
        }
    }

    #[test]
    fn s12_propagation_matches_paper() {
        // Paper, Example 14: P(d,v,v) → P(d,d,v) → P(d,d,v) → …
        let r = parse_rule("P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).").unwrap();
        let f0 = QueryForm::parse("dvv");
        let f1 = propagate(&r, &f0);
        assert_eq!(f1, QueryForm::parse("ddv"));
        let f2 = propagate(&r, &f1);
        assert_eq!(f2, QueryForm::parse("ddv"));
        let (trace, cycle_start) = propagation_trace(&r, &f0, 10);
        assert_eq!(trace[0], QueryForm::parse("dvv"));
        assert_eq!(trace[1], QueryForm::parse("ddv"));
        assert_eq!(cycle_start, Some(1));
    }

    #[test]
    fn s12_vvd_is_stable_from_the_start() {
        // Paper: "for a query P(v,v,d), the formula is stable from the
        // beginning" — the determined pattern repeats immediately.
        let r = parse_rule("P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).").unwrap();
        let f = propagate(&r, &QueryForm::parse("vvd"));
        // z is determined; closure z →D→ w; recursive atom P(u,v,w) → vvd.
        assert_eq!(f, QueryForm::parse("vvd"));
    }

    #[test]
    fn stable_formula_preserves_position() {
        // s3: P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z). Three disjoint
        // unit cycles — any form maps to itself.
        let r = parse_rule("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).").unwrap();
        for pattern in ["dvv", "vdv", "vvd", "ddv", "dvd", "vdd", "ddd", "vvv"] {
            let f = QueryForm::parse(pattern);
            assert_eq!(propagate(&r, &f), f, "pattern {pattern} should be stable");
        }
    }

    #[test]
    fn unstable_formula_shifts_position() {
        // Thm 1's counterexample: P(x,y) :- A(x,z), P(y,z).
        // Query dv: x determined → z determined via A; P(y,z) gets pattern vd.
        let r = parse_rule("P(x,y) :- A(x,z), P(y,z).").unwrap();
        assert_eq!(
            propagate(&r, &QueryForm::parse("dv")),
            QueryForm::parse("vd")
        );
    }

    #[test]
    fn trace_detects_longer_cycles() {
        // s4a: weight-3 rotational cycle; a single-d form rotates with period 3.
        let r = parse_rule("P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).").unwrap();
        let (trace, cycle_start) = propagation_trace(&r, &QueryForm::parse("dvv"), 10);
        assert_eq!(cycle_start, Some(0), "rotation returns to the initial form");
        // dvv → (x1 det → y3 det via A) P(y1,y2,y3)=vvd → y2? Let's just check
        // period 3: trace[3] == trace[0].
        assert_eq!(trace[3], trace[0]);
        assert_ne!(trace[1], trace[0]);
        assert_ne!(trace[2], trace[0]);
    }

    #[test]
    fn all_free_stays_free_without_constants() {
        let r = parse_rule("P(x,y) :- A(x,z), P(z,y).").unwrap();
        assert!(propagate(&r, &QueryForm::free(2)).all_free());
    }
}
