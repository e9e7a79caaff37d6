//! Class-aware kernel selection for saturating *the recursion itself*.
//!
//! The classification tells the engine how many rounds a formula needs
//! before any tuple is touched: a proven rank bound (pure permutational
//! A2/A4, bounded B, acyclic D) runs exactly `rank` recursive rounds and
//! skips fixpoint detection ([`KernelKind::BoundedUnroll`], checked first).
//! Every other formula runs the same semi-naive loop until its delta is
//! empty; one-directional A1/A3/A5 report it as [`KernelKind::Frontier`],
//! everything else as [`KernelKind::Generic`], and the two differ in that
//! label only. A *query* is not saturated this way: its plan
//! (`recurs_core::plan`'s table) lowers to a program of its own, and
//! [`crate::evaluate`] runs that — labelled `Frontier` when the program is
//! the compiled formula's walk from the query constants.

use crate::stats::KernelKind;
use recurs_core::Classification;

/// Selects the kernel for a classified linear recursive rule.
pub fn select_kernel(classification: &Classification) -> KernelKind {
    if let Some(rank) = classification.rank_bound() {
        return KernelKind::BoundedUnroll { rank };
    }
    if classification.is_transformable_to_stable() {
        return KernelKind::Frontier;
    }
    KernelKind::Generic
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_linear, EngineConfig};
    use recurs_core::FormulaClass;
    use recurs_core::OneDirectionalSubclass as Sub;
    use recurs_datalog::database::Database;
    use recurs_datalog::eval::semi_naive;
    use recurs_datalog::parser::{parse_program, parse_rule};
    use recurs_datalog::relation::{tuple_u64, Relation};
    use recurs_datalog::rule::LinearRecursion;
    use recurs_datalog::validate::validate_with_generic_exit;

    fn classify(src: &str) -> Classification {
        Classification::of(&parse_rule(src).unwrap())
    }

    /// The paper's s3 — class A1 (all unit rotational): frontier kernel.
    #[test]
    fn a1_selects_frontier() {
        let c = classify("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).");
        assert_eq!(c.class, FormulaClass::OneDirectional(Sub::A1));
        assert_eq!(select_kernel(&c), KernelKind::Frontier);
    }

    /// The paper's s4a — class A3 (non-unit rotational): frontier kernel.
    #[test]
    fn a3_selects_frontier() {
        let c = classify("P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).");
        assert_eq!(c.class, FormulaClass::OneDirectional(Sub::A3));
        assert_eq!(select_kernel(&c), KernelKind::Frontier);
    }

    /// Transitive closure — class A5 (A1 + A2 mix), one-directional:
    /// frontier kernel.
    #[test]
    fn transitive_closure_selects_frontier() {
        let c = classify("P(x, y) :- A(x, z), P(z, y).");
        assert_eq!(c.class, FormulaClass::OneDirectional(Sub::A5));
        assert_eq!(select_kernel(&c), KernelKind::Frontier);
    }

    /// A pure A2 formula has rank bound 0: bounded unrolling, zero
    /// recursive rounds.
    #[test]
    fn a2_selects_bounded_unroll() {
        let c = classify("P(x, y) :- A(x), B(y), P(x, y).");
        assert_eq!(c.class, FormulaClass::OneDirectional(Sub::A2));
        assert_eq!(select_kernel(&c), KernelKind::BoundedUnroll { rank: 0 });
    }

    /// The paper's s5 — class A4 (pure rotation permutation), rank bound
    /// lcm(3) − 1 = 2: bounded unrolling.
    #[test]
    fn a4_selects_bounded_unroll() {
        let c = classify("P(x, y, z) :- P(y, z, x).");
        assert_eq!(c.class, FormulaClass::OneDirectional(Sub::A4));
        assert_eq!(select_kernel(&c), KernelKind::BoundedUnroll { rank: 2 });
    }

    /// The paper's s8 — class B, proven rank bound 2: bounded unrolling.
    #[test]
    fn class_b_selects_bounded_unroll() {
        let c = classify("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).");
        assert_eq!(c.class, FormulaClass::Bounded);
        assert_eq!(select_kernel(&c), KernelKind::BoundedUnroll { rank: 2 });
    }

    /// The paper's s9 — class C (unbounded): generic fallback.
    #[test]
    fn class_c_selects_generic() {
        let c = classify("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).");
        assert_eq!(c.class, FormulaClass::Unbounded);
        assert_eq!(select_kernel(&c), KernelKind::Generic);
    }

    /// The bounded-unroll kernel must stop at the rank *and* still agree
    /// with the oracle fixpoint (completeness is the theorems' claim; this
    /// checks we honor it end to end, without a fixpoint-detection round).
    #[test]
    fn bounded_unroll_agrees_with_oracle_and_skips_detection() {
        let lr: LinearRecursion =
            validate_with_generic_exit(&parse_program("P(x, y, z) :- P(y, z, x).").unwrap())
                .unwrap();
        let exit_pred = lr.exit_rules[0].body[0].predicate;
        let mut db1 = Database::new();
        db1.insert_relation(
            exit_pred,
            Relation::from_tuples(3, [tuple_u64([1, 2, 3]), tuple_u64([4, 4, 5])]),
        );
        let mut db2 = db1.clone();
        semi_naive(&mut db1, &lr.to_program(), None).unwrap();
        let sat = run_linear(&mut db2, &lr, &EngineConfig::default()).unwrap();
        assert_eq!(
            sat.stats.kernel,
            Some(KernelKind::BoundedUnroll { rank: 2 })
        );
        assert_eq!(db1.get("P").unwrap(), db2.get("P").unwrap());
        assert_eq!(db2.get("P").unwrap().len(), 6); // all three rotations of each
                                                    // A rank-bound stop is completeness, not truncation.
        assert!(sat.outcome.is_complete());
        // Seed round + exactly rank recursive rounds, no trailing
        // fixpoint-detection iteration (the oracle needs one more).
        assert_eq!(sat.stats.iteration_count(), 3);
    }
}
