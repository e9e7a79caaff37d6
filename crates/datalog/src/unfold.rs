//! Rule unfolding — the paper's k-th *expansion* of a recursive formula.
//!
//! The k-th expansion is produced by resolution: rename the recursive rule
//! apart, unify its head with the recursive body atom of the (k−1)-st
//! expansion, and splice the renamed body in. Because the recursive
//! predicate's arguments are distinct variables, unification always succeeds
//! and is a pure renaming.

use crate::rule::Rule;
use crate::subst::{rename_apart, unify_atoms};
use crate::symbol::Symbol;
use crate::term::Atom;

/// An iterator of successive expansions of a linear recursive rule.
///
/// `next()` yields expansion 1 (the rule itself), then expansion 2, 3, …
/// Fresh variables are suffixed `_1`, `_2`, … per round, mirroring the
/// paper's renumbering.
pub struct Unfolder {
    original: Rule,
    predicate: Symbol,
    current: Option<Rule>,
    counter: u32,
    round: u32,
}

impl Unfolder {
    /// Starts unfolding `rule`, which must be linear recursive.
    pub fn new(rule: &Rule) -> Unfolder {
        assert!(
            rule.is_linear_recursive(),
            "Unfolder requires a linear recursive rule, got {rule}"
        );
        Unfolder {
            original: rule.clone(),
            predicate: rule.head.predicate,
            current: None,
            counter: 0,
            round: 0,
        }
    }

    /// The expansion index of the most recently returned rule (1-based).
    pub fn round(&self) -> u32 {
        self.round
    }
}

impl Iterator for Unfolder {
    type Item = Rule;

    fn next(&mut self) -> Option<Rule> {
        let next = match &self.current {
            None => self.original.clone(),
            Some(prev) => unfold_once(prev, &self.original, self.predicate, &mut self.counter),
        };
        self.round += 1;
        self.current = Some(next.clone());
        Some(next)
    }
}

/// Performs one resolution step: replaces the recursive body atom of `prev`
/// with the (renamed-apart) body of `original`.
pub(crate) fn unfold_once(
    prev: &Rule,
    original: &Rule,
    predicate: Symbol,
    counter: &mut u32,
) -> Rule {
    unfold_once_traced(prev, original, predicate, counter).result
}

/// The outcome of one traced resolution step.
///
/// `spliced` is the renamed copy of the original rule *after* applying the
/// unifier — its head equals the recursive body atom of the previous
/// expansion. Resolution-graph construction appends `spliced`'s I-graph to
/// the previous resolution graph (the paper's "append the k-th I-graph to
/// the (k−1)-st resolution graph using common variables").
#[derive(Debug, Clone)]
pub struct UnfoldStep {
    /// The new expansion.
    pub result: Rule,
    /// The unified copy of the original rule that was spliced in.
    pub spliced: Rule,
}

/// `unfold_once` but also returns the spliced copy (for resolution graphs).
pub fn unfold_once_traced(
    prev: &Rule,
    original: &Rule,
    predicate: Symbol,
    counter: &mut u32,
) -> UnfoldStep {
    let (renamed, _) = rename_apart(original, counter);
    let Some(target) = prev.body.iter().find(|a| a.predicate == predicate) else {
        panic!("prev must contain the recursive atom {predicate}")
    };
    let Some(mgu) = unify_atoms(&renamed.head, target) else {
        // Unreachable: the head's arguments are renamed-apart variables, so
        // unification is a pure renaming and always succeeds.
        panic!("recursive head must unify with the recursive body atom")
    };
    let spliced = mgu.apply_rule(&renamed);
    let result = resolve_recursive_atom(prev, &renamed, predicate);
    UnfoldStep { result, spliced }
}

/// Resolves the single `predicate` atom in `prev`'s body against `clause`
/// (whose head must unify with it), splicing in `clause`'s body. `clause`
/// must already be variable-disjoint from `prev`.
pub(crate) fn resolve_recursive_atom(prev: &Rule, clause: &Rule, predicate: Symbol) -> Rule {
    let Some(pos) = prev.body.iter().position(|a| a.predicate == predicate) else {
        panic!("prev must contain the recursive atom {predicate}")
    };
    let target: &Atom = &prev.body[pos];
    let Some(mgu) = unify_atoms(&clause.head, target) else {
        // Unreachable for rules produced by the unfolder (see above), but a
        // caller-supplied clause with a constant-bearing head could fail.
        panic!("head of {clause} must unify with the recursive body atom")
    };
    let mut body: Vec<Atom> = Vec::with_capacity(prev.body.len() + clause.body.len() - 1);
    for (i, atom) in prev.body.iter().enumerate() {
        if i == pos {
            for b in &clause.body {
                body.push(mgu.apply_atom(b));
            }
        } else {
            body.push(mgu.apply_atom(atom));
        }
    }
    Rule {
        head: mgu.apply_atom(&prev.head),
        body,
    }
}

/// The k-th expansion (k ≥ 1; expansion 1 is the rule itself).
///
/// ```
/// use recurs_datalog::parser::parse_rule;
/// use recurs_datalog::unfold::expansion;
///
/// let rule = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
/// let e3 = expansion(&rule, 3);
/// assert_eq!(e3.body.len(), 4); // three A-copies and the recursive atom
/// assert!(e3.is_linear_recursive());
/// ```
pub fn expansion(rule: &Rule, k: usize) -> Rule {
    assert!(k >= 1, "expansions are 1-based");
    match Unfolder::new(rule).nth(k - 1) {
        Some(expanded) => expanded,
        // Unreachable: the unfolder's `next` never returns `None`.
        None => unreachable!("unfolder is infinite"),
    }
}

/// Replaces the recursive body atom of `expanded` with the body of the exit
/// rule (renamed apart), producing a non-recursive rule. This is the paper's
/// "replace the recursive predicate in the antecedent by the exit relation".
pub fn close_with_exit(expanded: &Rule, exit: &Rule, counter: &mut u32) -> Rule {
    let predicate = exit.head.predicate;
    let (renamed_exit, _) = rename_apart(exit, counter);
    resolve_recursive_atom(expanded, &renamed_exit, predicate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;
    use crate::rule::Program;

    #[test]
    fn first_expansion_is_the_rule() {
        let r = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        let e1 = expansion(&r, 1);
        assert_eq!(e1, r);
    }

    #[test]
    fn second_expansion_of_transitive_closure() {
        let r = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        let e2 = expansion(&r, 2);
        // Shape: P(x,y) :- A(x,z), A(z,z'), P(z',y).
        assert_eq!(e2.body.len(), 3);
        assert!(e2.is_linear_recursive());
        let a_atoms: Vec<_> = e2.body_atoms_of(Symbol::intern("A")).collect();
        assert_eq!(a_atoms.len(), 2);
        // Chain: head x flows into first A; first A's z into second A.
        assert_eq!(a_atoms[0].terms[0], e2.head.terms[0]);
        assert_eq!(a_atoms[0].terms[1], a_atoms[1].terms[0]);
        // Recursive atom carries the second A's fresh output and the head's y.
        let p = e2.body_atoms_of(Symbol::intern("P")).next().unwrap();
        assert_eq!(p.terms[0], a_atoms[1].terms[1]);
        assert_eq!(p.terms[1], e2.head.terms[1]);
    }

    #[test]
    fn expansion_s2a_matches_paper() {
        // s2a: P(x,y) :- A(x,z), P(z,u), B(u,y).
        // Paper's s2c: P(x,y) :- A(x,z), A(z,z1), P(z1,u1), B(u1,u), B(u,y).
        let r = parse_rule("P(x, y) :- A(x, z), P(z, u), B(u, y).").unwrap();
        let e2 = expansion(&r, 2);
        assert_eq!(e2.body.len(), 5);
        let a: Vec<_> = e2.body_atoms_of(Symbol::intern("A")).collect();
        let b: Vec<_> = e2.body_atoms_of(Symbol::intern("B")).collect();
        let p: Vec<_> = e2.body_atoms_of(Symbol::intern("P")).collect();
        assert_eq!((a.len(), b.len(), p.len()), (2, 2, 1));
        // A-chain into P, P into B-chain, B-chain ends at head y.
        assert_eq!(a[0].terms[1], a[1].terms[0]); // z
        assert_eq!(a[1].terms[1], p[0].terms[0]); // z1
        assert_eq!(p[0].terms[1], b[0].terms[0]); // u1
        assert_eq!(b[0].terms[1], b[1].terms[0]); // u
        assert_eq!(b[1].terms[1], e2.head.terms[1]); // y
    }

    #[test]
    fn expansions_grow_linearly() {
        let r = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        for (i, e) in Unfolder::new(&r).take(6).enumerate() {
            assert_eq!(e.body.len(), i + 2); // i+1 copies of A plus one P
            assert!(e.is_linear_recursive());
            assert_eq!(e.head, r.head, "the head never changes");
        }
    }

    #[test]
    fn permutational_expansion_cycles() {
        // s5: P(x,y,z) :- P(y,z,x). After 3 expansions the recursive atom is
        // back to the head's variable order.
        let r = parse_rule("P(x, y, z) :- P(y, z, x).").unwrap();
        let e3 = expansion(&r, 3);
        let p = e3.body_atoms_of(Symbol::intern("P")).next().unwrap();
        assert_eq!(p.terms, e3.head.terms);
    }

    #[test]
    fn close_with_exit_removes_recursion() {
        let r = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        let exit = parse_rule("P(x, y) :- E(x, y).").unwrap();
        let mut counter = 0;
        let closed = close_with_exit(&r, &exit, &mut counter);
        assert!(!closed.is_recursive());
        assert_eq!(closed.body.len(), 2);
        assert_eq!(closed.to_string(), "P(x, y) :- A(x, z), E(z, y).");
    }

    #[test]
    fn unfolded_semantics_match_direct_evaluation() {
        // The 2nd expansion plus level-1 exit closure is logically equivalent
        // to the original program; check on data.
        use crate::database::Database;
        use crate::eval::semi_naive;
        use crate::relation::Relation;

        let rec = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        let exit = parse_rule("P(x, y) :- E(x, y).").unwrap();
        let original = Program::new(vec![rec.clone(), exit.clone()]);

        let mut counter = 0;
        let e2 = expansion(&rec, 2);
        let level1 = close_with_exit(&rec, &exit, &mut counter);
        let transformed = Program::new(vec![e2, exit.clone(), level1]);

        let edb = Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 5), (2, 7)]);
        let mut db1 = Database::new();
        db1.insert_relation("A", edb.clone());
        db1.insert_relation("E", edb.clone());
        let mut db2 = db1.clone();

        semi_naive(&mut db1, &original, None).unwrap();
        semi_naive(&mut db2, &transformed, None).unwrap();
        assert_eq!(db1.require("P").unwrap(), db2.require("P").unwrap());
    }
}
