//! Join ordering — the paper's evaluation principle that "join operations
//! will be performed only after selection operations".
//!
//! A conjunctive body evaluated in source order can hit needless Cartesian
//! products (an atom sharing no variable with what has been joined so far).
//! [`order_atoms`] produces a greedy selection-first order:
//!
//! 1. atoms carrying constants come as early as possible (selections first);
//! 2. each next atom must share a variable with the already-bound set when
//!    any such atom exists (joins over products);
//! 3. ties break toward the smaller relation (cheap inputs first), then
//!    source order (determinism).
//!
//! The order is a permutation of body positions, so callers that key
//! per-position overrides (semi-naive deltas) can remap them.

use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::{Atom, Term};
use std::collections::BTreeSet;

/// Returns a permutation of `0..body.len()`: the order in which to join the
/// body's atoms. If `pinned_first` is given, that position is forced to the
/// front (semi-naive evaluation starts from the delta atom). `len_of` is the
/// current size of a relation (`None` when it does not exist) in the store
/// the pipeline will run on.
pub(crate) fn order_atoms(
    body: &[Atom],
    len_of: impl Fn(Symbol) -> Option<usize>,
    pinned_first: Option<usize>,
) -> Vec<usize> {
    let n = body.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut bound: BTreeSet<Symbol> = BTreeSet::new();

    let size_of = |i: usize| -> usize { len_of(body[i].predicate).unwrap_or(usize::MAX) };
    let constants_in = |i: usize| -> usize {
        body[i]
            .terms
            .iter()
            .filter(|t| matches!(t, Term::Const(_)))
            .count()
    };
    let shared_with = |i: usize, bound: &BTreeSet<Symbol>| -> usize {
        body[i].variables().filter(|v| bound.contains(v)).count()
    };

    // Removes `remaining[pos]`, appending it to the order and binding its
    // variables.
    let take = |pos: usize,
                order: &mut Vec<usize>,
                remaining: &mut Vec<usize>,
                bound: &mut BTreeSet<Symbol>| {
        let i = remaining.remove(pos);
        order.push(i);
        bound.extend(body[i].variables());
    };

    if let Some(p) = pinned_first {
        if let Some(pos) = remaining.iter().position(|&x| x == p) {
            take(pos, &mut order, &mut remaining, &mut bound);
        }
    }

    while !remaining.is_empty() {
        // Prefer: connected to the bound set (or constant-bearing when
        // nothing is bound yet), most selective first.
        let best_pos = (0..remaining.len())
            .max_by(|&a, &b| {
                let key = |pos: usize| {
                    let i = remaining[pos];
                    (
                        shared_with(i, &bound) > 0 || constants_in(i) > 0,
                        shared_with(i, &bound),
                        constants_in(i),
                        std::cmp::Reverse(size_of(i)),
                        std::cmp::Reverse(i), // stable: earlier source first
                    )
                };
                key(a).cmp(&key(b))
            })
            .unwrap_or(0); // unreachable: the loop guard ensures non-empty
        take(best_pos, &mut order, &mut remaining, &mut bound);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::parser::parse_rule;

    /// A size lookup over the named relations.
    fn db_with(sizes: &[(&str, usize)]) -> impl Fn(Symbol) -> Option<usize> {
        let sizes: Vec<(Symbol, usize)> = sizes
            .iter()
            .map(|&(n, len)| (Symbol::intern(n), len))
            .collect();
        move |p| sizes.iter().find(|(n, _)| *n == p).map(|&(_, len)| len)
    }

    #[test]
    fn constants_come_first() {
        let r = parse_rule("Q(y) :- A(x, y), B('7', x).").unwrap();
        let db = db_with(&[("A", 100), ("B", 100)]);
        let order = order_atoms(&r.body, &db, None);
        assert_eq!(order[0], 1, "the σ-bearing atom B('7', x) leads");
    }

    #[test]
    fn connectivity_beats_source_order() {
        // Source order A(x,y), C(u,v), B(y,u): evaluating C second forces a
        // product; the optimizer defers it until B connects u.
        let r = parse_rule("Q(x, v) :- A(x, y), C(u, v), B(y, u).").unwrap();
        let db = db_with(&[("A", 10), ("B", 10), ("C", 10)]);
        let order = order_atoms(&r.body, &db, None);
        let pos_c = order.iter().position(|&i| i == 1).unwrap();
        let pos_b = order.iter().position(|&i| i == 2).unwrap();
        assert!(pos_b < pos_c, "B must join before C: {order:?}");
    }

    #[test]
    fn smaller_relations_break_ties() {
        let r = parse_rule("Q(x) :- A(x, y), B(x, z).").unwrap();
        let db = db_with(&[("A", 1000), ("B", 3)]);
        let order = order_atoms(&r.body, &db, None);
        assert_eq!(order[0], 1, "the tiny B leads");
    }

    #[test]
    fn pinned_delta_atom_leads() {
        let r = parse_rule("Q(x) :- A(x, y), B(y, z), C(z, w).").unwrap();
        let db = db_with(&[("A", 10), ("B", 10), ("C", 10)]);
        let order = order_atoms(&r.body, &db, Some(2));
        assert_eq!(order[0], 2);
        // And the rest chains back through connectivity: C(z,w) → B(y,z) → A.
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn order_is_always_a_permutation() {
        for src in [
            "Q(x) :- A(x, y).",
            "Q(x) :- A(x, y), B(y, z), C(z, x), D(q, r).",
            "Q(x) :- A(x, x), B(x, y), C('1', y).",
        ] {
            let r = parse_rule(src).unwrap();
            let db = db_with(&[("A", 5), ("B", 5), ("C", 5), ("D", 5)]);
            let mut order = order_atoms(&r.body, &db, None);
            order.sort_unstable();
            assert_eq!(order, (0..r.body.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn missing_relations_are_tolerated() {
        // Ordering must not fail just because a relation is absent (the
        // evaluator will report the error); absent relations sort last.
        let r = parse_rule("Q(x) :- Zzz(x, y), A(y, z).").unwrap();
        let db = db_with(&[("A", 5)]);
        let order = order_atoms(&r.body, &db, None);
        assert_eq!(order.len(), 2);
        assert_eq!(order[0], 1, "the present relation leads");
    }
}
