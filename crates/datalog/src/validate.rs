//! Validation of the paper's structural restrictions (section 2).
//!
//! The classification applies to programs with: a single, linear recursive
//! rule; function-free Horn clauses (guaranteed by the term language); no
//! equality; no constants in the recursive statement; no repeated variable
//! under the recursive predicate; range restriction; and at least one
//! non-recursive exit rule.

use crate::error::ValidationError;
use crate::rule::{LinearRecursion, Program};
use crate::symbol::Symbol;

/// True for a relation name outside input may not use. The planner's lowered
/// programs and view maintenance keep their relations (`ans__P__dv`,
/// `reach__P__dv`, `magic__P__fb`, `P__bf`, `__ivm_cand`) in the same store
/// as the loaded facts; every such name contains `__`, so a name that does is
/// refused wherever text becomes facts, rules or queries.
pub fn is_reserved(name: Symbol) -> bool {
    name.as_str().contains("__")
}

/// Validates a program against the paper's restrictions and extracts the
/// [`LinearRecursion`] view on success.
pub fn validate(program: &Program) -> Result<LinearRecursion, ValidationError> {
    let recursive: Vec<_> = program.rules.iter().filter(|r| r.is_recursive()).collect();
    let rec = match recursive.as_slice() {
        [] => return Err(ValidationError::NoRecursiveRule),
        [r] => *r,
        many => return Err(ValidationError::MultipleRecursiveRules(many.len())),
    };
    let p = rec.head.predicate;
    let occurrences = rec.occurrences_of(p);
    if occurrences != 1 {
        return Err(ValidationError::NonLinear {
            predicate: p,
            occurrences,
        });
    }
    if !rec.is_constant_free() {
        return Err(ValidationError::ConstantInRecursiveRule);
    }
    if !rec.head.has_distinct_variables() {
        return Err(ValidationError::RepeatedVariableUnderRecursivePredicate {
            atom: rec.head.to_string(),
        });
    }
    let Some(body_occurrence) = rec.body_atoms_of(p).next() else {
        // Unreachable: occurrences == 1 was checked above.
        return Err(ValidationError::NoRecursiveRule);
    };
    if !body_occurrence.has_distinct_variables() {
        return Err(ValidationError::RepeatedVariableUnderRecursivePredicate {
            atom: body_occurrence.to_string(),
        });
    }
    if body_occurrence.arity() != rec.head.arity() {
        return Err(ValidationError::RecursiveArityMismatch {
            head: rec.head.arity(),
            body: body_occurrence.arity(),
        });
    }
    for rule in &program.rules {
        if let Some(variable) = rule.unrestricted_variable() {
            return Err(ValidationError::NotRangeRestricted { variable });
        }
    }
    // Every predicate must be used at one arity throughout the program.
    let mut arities: std::collections::BTreeMap<crate::symbol::Symbol, usize> =
        std::collections::BTreeMap::new();
    for rule in &program.rules {
        for atom in std::iter::once(&rule.head).chain(rule.body.iter()) {
            match arities.insert(atom.predicate, atom.arity()) {
                Some(prev) if prev != atom.arity() => {
                    return Err(ValidationError::InconsistentArity {
                        predicate: atom.predicate,
                        first: prev,
                        second: atom.arity(),
                    });
                }
                _ => {}
            }
        }
    }
    // Exit rules: non-recursive rules for P. Rules for other predicates are
    // outside the single-recursion setting.
    let mut exits = Vec::new();
    for rule in &program.rules {
        if std::ptr::eq(rule, rec) {
            continue;
        }
        if rule.head.predicate != p || rule.is_recursive() {
            return Err(ValidationError::MalformedExitRule {
                rule: rule.to_string(),
            });
        }
        exits.push(rule.clone());
    }
    if exits.is_empty() {
        return Err(ValidationError::NoExitRule);
    }
    Ok(LinearRecursion {
        predicate: p,
        recursive_rule: rec.clone(),
        exit_rules: exits,
    })
}

/// Validates only the recursive rule's shape, tolerating a missing exit rule.
/// The paper frequently writes formulas without their exit rule ("we will use
/// `E` as a generic exit expression"); graph analyses need only the recursive
/// rule, so this entry point synthesizes a generic exit `P(...) :- E(...)`
/// when none is given.
pub fn validate_with_generic_exit(program: &Program) -> Result<LinearRecursion, ValidationError> {
    match validate(program) {
        Ok(lr) => Ok(lr),
        Err(ValidationError::NoExitRule) => {
            let mut with_exit = program.clone();
            let Some(rec) = with_exit.rules.iter().find(|r| r.is_recursive()).cloned() else {
                // Unreachable: NoExitRule implies validate saw a recursive rule.
                return Err(ValidationError::NoRecursiveRule);
            };
            with_exit.rules.push(generic_exit_rule(&rec));
            validate(&with_exit)
        }
        Err(e) => Err(e),
    }
}

/// Builds the generic exit rule `P(x1,...,xn) :- E(x1,...,xn).` for the head
/// of the given recursive rule. The exit predicate is named `E` unless that
/// name is already used by a body predicate, in which case `Exit`, `ExitRel`,
/// `Exit1`, `Exit2`, … are tried until a free name is found.
pub fn generic_exit_rule(recursive_rule: &crate::rule::Rule) -> crate::rule::Rule {
    use crate::symbol::Symbol;
    use crate::term::Atom;
    let taken: std::collections::BTreeSet<Symbol> =
        recursive_rule.body.iter().map(|a| a.predicate).collect();
    let fixed = ["E", "Exit", "ExitRel"].into_iter().map(Symbol::intern);
    let numbered = (1u32..).map(|n| Symbol::intern(&format!("Exit{n}")));
    let mut candidates = fixed.chain(numbered).filter(|s| !taken.contains(s));
    let e = match candidates.next() {
        Some(s) => s,
        // Unreachable: `taken` is finite, the candidate stream is not.
        None => unreachable!("exit-name candidates are inexhaustible"),
    };
    crate::rule::Rule::new(
        recursive_rule.head.clone(),
        vec![Atom::new(e, recursive_rule.head.terms.clone())],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Result<LinearRecursion, ValidationError> {
        validate(&parse_program(src).unwrap())
    }

    #[test]
    fn accepts_s1a_with_exit() {
        let lr = check("P(x,y) :- A(x,z), P(z,y).\nP(x,y) :- E(x,y).").unwrap();
        assert_eq!(lr.dimension(), 2);
        assert_eq!(lr.exit_rules.len(), 1);
    }

    #[test]
    fn rejects_no_recursion() {
        assert_eq!(
            check("P(x,y) :- E(x,y)."),
            Err(ValidationError::NoRecursiveRule)
        );
    }

    #[test]
    fn rejects_multiple_recursive_rules() {
        let e = check("P(x,y) :- A(x,z), P(z,y).\nP(x,y) :- B(x,z), P(z,y).\nP(x,y) :- E(x,y).");
        assert_eq!(e, Err(ValidationError::MultipleRecursiveRules(2)));
    }

    #[test]
    fn rejects_nonlinear() {
        let e = check("P(x,y) :- P(x,z), P(z,y).\nP(x,y) :- E(x,y).");
        assert!(matches!(e, Err(ValidationError::NonLinear { .. })));
    }

    #[test]
    fn rejects_constants_in_recursive_rule() {
        let e = check("P(x,y) :- A(x, '3'), P(x, y).\nP(x,y) :- E(x,y).");
        assert_eq!(e, Err(ValidationError::ConstantInRecursiveRule));
    }

    #[test]
    fn rejects_repeated_variable_under_recursive_predicate() {
        let e = check("P(x,y) :- A(x,y), P(y,y).\nP(x,y) :- E(x,y).");
        assert!(matches!(
            e,
            Err(ValidationError::RepeatedVariableUnderRecursivePredicate { .. })
        ));
        let e2 = check("P(x,x) :- A(x,z), P(z,x).\nP(x,y) :- E(x,y).");
        assert!(matches!(
            e2,
            Err(ValidationError::RepeatedVariableUnderRecursivePredicate { .. })
        ));
    }

    #[test]
    fn rejects_non_range_restricted() {
        let e = check("P(x,y) :- A(x,z), P(z,x).\nP(x,y) :- E(x,y).");
        assert!(matches!(e, Err(ValidationError::NotRangeRestricted { .. })));
    }

    #[test]
    fn rejects_an_exit_rule_that_is_not_range_restricted() {
        // `y` would reach the store unbound: every query would fail at
        // evaluation instead of the program at load.
        let e = check("P(x,y) :- A(x,z), P(z,y).\nP(x,y) :- E(x,w).");
        assert_eq!(
            e,
            Err(ValidationError::NotRangeRestricted {
                variable: Symbol::intern("y")
            })
        );
    }

    #[test]
    fn rejects_recursive_arity_mismatch() {
        let e = check("P(x,y) :- A(x,z), P(z).\nP(x,y) :- E(x,y).");
        // Note P(z) with one argument: head arity 2, body occurrence 1.
        assert!(matches!(
            e,
            Err(ValidationError::RecursiveArityMismatch { head: 2, body: 1 })
        ));
    }

    #[test]
    fn rejects_foreign_idb_rule() {
        let e = check("P(x,y) :- A(x,z), P(z,y).\nQ(x) :- A(x,x).\nP(x,y) :- E(x,y).");
        assert!(matches!(e, Err(ValidationError::MalformedExitRule { .. })));
    }

    #[test]
    fn rejects_missing_exit() {
        let e = check("P(x,y) :- A(x,z), P(z,y).");
        assert_eq!(e, Err(ValidationError::NoExitRule));
    }

    #[test]
    fn generic_exit_is_synthesized() {
        let program = parse_program("P(x,y) :- A(x,z), P(z,y).").unwrap();
        let lr = validate_with_generic_exit(&program).unwrap();
        assert_eq!(lr.exit_rules.len(), 1);
        assert_eq!(lr.exit_rules[0].to_string(), "P(x, y) :- E(x, y).");
    }

    #[test]
    fn generic_exit_avoids_name_clash() {
        let program = parse_program("P(x,y) :- E(x,z), P(z,y).").unwrap();
        let lr = validate_with_generic_exit(&program).unwrap();
        assert_eq!(lr.exit_rules[0].body[0].predicate.as_str(), "Exit");
    }

    #[test]
    fn pure_permutational_rule_validates() {
        // s5: P(x,y,z) :- P(y,z,x). — no non-recursive predicate at all.
        let program = parse_program("P(x,y,z) :- P(y,z,x).").unwrap();
        let lr = validate_with_generic_exit(&program).unwrap();
        assert_eq!(lr.dimension(), 3);
        assert_eq!(lr.nonrecursive_body_atoms().count(), 0);
    }
}
