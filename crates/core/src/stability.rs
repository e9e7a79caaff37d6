//! Strong stability (section 4.1, Theorem 1).
//!
//! A recursive formula is *strongly stable* if, for **any** query, the
//! determined variables of the recursive predicate in the consequent and in
//! the antecedent occur in the same positions. Theorem 1 proves this
//! semantic property equivalent to the syntactic one: the I-graph consists
//! of disjoint unit cycles only.
//!
//! Both characterizations are implemented here — the syntactic one via the
//! classification, the semantic one by checking determined-variable
//! propagation over the singleton query forms — so the equivalence can be
//! tested rather than assumed.

use crate::classify::Classification;
use recurs_datalog::adornment::{propagate, ArgBinding, QueryForm};
use recurs_datalog::rule::Rule;

/// Semantic strong stability: every query form maps to itself under
/// determined-variable propagation.
///
/// The n singleton forms suffice. Propagation's closure is reachability
/// ([`determined_closure`](recurs_datalog::adornment::determined_closure)):
/// one determined variable of a non-recursive atom determines all of its
/// variables, so the closure of a union of seeds is the union of their
/// closures, and a form is mapped to itself when each of its determined
/// positions is. `tests/theorems_prop.rs` checks that against all 2ⁿ forms.
pub(crate) fn is_strongly_stable_semantic(rule: &Rule) -> bool {
    let n = rule.head.arity();
    (0..n).all(|i| {
        let form = QueryForm(
            (0..n)
                .map(|j| {
                    if i == j {
                        ArgBinding::Determined
                    } else {
                        ArgBinding::Free
                    }
                })
                .collect(),
        );
        propagate(rule, &form) == form
    })
}

/// Syntactic strong stability (Theorem 1): only disjoint unit cycles.
pub(crate) fn is_strongly_stable_syntactic(rule: &Rule) -> bool {
    Classification::of(rule).is_strongly_stable()
}

/// Checks Theorem 1 on a rule: the two characterizations must agree.
/// Returns the common verdict.
///
/// # Panics
/// Panics if the characterizations disagree — that would falsify Theorem 1
/// (or reveal an implementation bug); the property-test suite drives this
/// over randomly generated rules.
pub fn check_theorem_1(rule: &Rule) -> bool {
    let semantic = is_strongly_stable_semantic(rule);
    let syntactic = is_strongly_stable_syntactic(rule);
    assert_eq!(
        semantic, syntactic,
        "Theorem 1 violated for {rule}: semantic={semantic}, syntactic={syntactic}"
    );
    semantic
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::parser::parse_rule;

    fn rule(src: &str) -> Rule {
        parse_rule(src).unwrap()
    }

    #[test]
    fn theorem_1_on_paper_examples() {
        // Stable formulas.
        for src in [
            "P(x, y) :- A(x, z), P(z, y).",
            "P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).",
            "P(x, y) :- A(x, u), B(x, z), C(z, u), P(u, y).",
        ] {
            assert!(check_theorem_1(&rule(src)), "{src} should be stable");
        }
        // Unstable formulas.
        for src in [
            "P(x, y) :- A(x, z), P(y, z).",
            "P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).",
            "P(x, y, z) :- P(y, z, x).",
            "P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).",
            "P(x, y) :- B(y), C(x, y1), P(x1, y1).",
            "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).",
            "P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).",
        ] {
            assert!(!check_theorem_1(&rule(src)), "{src} should be unstable");
        }
    }
}
