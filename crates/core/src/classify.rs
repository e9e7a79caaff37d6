//! The classification of linear recursive formulas (section 3 of the paper).
//!
//! Components of the condensed I-graph are classified first; the formula's
//! class is then determined by the (multi)set of component classes:
//!
//! * **A1** unit rotational, **A2** unit permutational, **A3** non-unit
//!   rotational, **A4** non-unit permutational one-directional cycles,
//!   **A5** disjoint combinations of different Ai's;
//! * **B** bounded cycles (independent multi-directional, weight 0);
//! * **C** unbounded cycles (independent multi-directional, weight ≠ 0);
//! * **D** non-trivial components with no non-trivial cycle;
//! * **E** dependent cycles;
//! * **F** mixed: disjoint combinations of different classes.
//!
//! Theorem 12 (completeness): every valid formula falls in exactly one class;
//! this is enforced by construction here and property-tested in the suite.

use recurs_datalog::rule::Rule;
use recurs_igraph::build::igraph_of;
use recurs_igraph::component::{analyze_components, Component, ComponentKind};
use recurs_igraph::condense::{condense, Condensed};
use recurs_igraph::graph::IGraph;
use recurs_igraph::paths::max_path_weight;
use std::fmt;

/// The class of one non-trivial component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentClass {
    /// A1 — independent unit rotational cycle.
    UnitRotational,
    /// A2 — independent unit permutational cycle (directed self-loop).
    UnitPermutational,
    /// A3 — independent non-unit rotational one-directional cycle.
    NonUnitRotational,
    /// A4 — independent non-unit permutational cycle.
    NonUnitPermutational,
    /// B — independent multi-directional cycle of weight 0.
    BoundedCycle,
    /// C — independent multi-directional cycle of non-zero weight.
    UnboundedCycle,
    /// D — directed edges but no non-trivial cycle.
    NoNontrivialCycle,
    /// E — dependent cycles.
    Dependent,
}

impl ComponentClass {
    /// True for the one-directional classes A1–A4.
    pub fn is_one_directional(self) -> bool {
        matches!(
            self,
            ComponentClass::UnitRotational
                | ComponentClass::UnitPermutational
                | ComponentClass::NonUnitRotational
                | ComponentClass::NonUnitPermutational
        )
    }

    /// True for the unit classes A1–A2.
    pub fn is_unit(self) -> bool {
        matches!(
            self,
            ComponentClass::UnitRotational | ComponentClass::UnitPermutational
        )
    }

    /// True if expansions of this component alone can never produce new
    /// values forever: permutational cycles (A2/A4), bounded cycles (B) and
    /// acyclic components (D).
    pub fn is_bounded(self) -> bool {
        matches!(
            self,
            ComponentClass::UnitPermutational
                | ComponentClass::NonUnitPermutational
                | ComponentClass::BoundedCycle
                | ComponentClass::NoNontrivialCycle
        )
    }

    /// The paper's letter for the component, e.g. `"A1"`.
    pub fn label(self) -> &'static str {
        match self {
            ComponentClass::UnitRotational => "A1",
            ComponentClass::UnitPermutational => "A2",
            ComponentClass::NonUnitRotational => "A3",
            ComponentClass::NonUnitPermutational => "A4",
            ComponentClass::BoundedCycle => "B",
            ComponentClass::UnboundedCycle => "C",
            ComponentClass::NoNontrivialCycle => "D",
            ComponentClass::Dependent => "E",
        }
    }
}

impl fmt::Display for ComponentClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The class of a whole formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormulaClass {
    /// A1–A5: only one-directional cycles. The payload distinguishes the
    /// subclass.
    OneDirectional(OneDirectionalSubclass),
    /// B: only bounded cycles.
    Bounded,
    /// C: only unbounded cycles.
    Unbounded,
    /// D: only components with no non-trivial cycle.
    NoNontrivialCycles,
    /// E: only dependent-cycle components.
    Dependent,
    /// F: a disjoint combination of different classes.
    Mixed,
}

/// Which of A1–A5 a purely one-directional formula is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OneDirectionalSubclass {
    /// All components are unit rotational.
    A1,
    /// All components are unit permutational.
    A2,
    /// All components are non-unit rotational.
    A3,
    /// All components are non-unit permutational.
    A4,
    /// A disjoint combination of different Ai's.
    A5,
}

impl FormulaClass {
    /// The paper's label, e.g. `"A3"`, `"F"`.
    pub fn label(self) -> &'static str {
        match self {
            FormulaClass::OneDirectional(sub) => match sub {
                OneDirectionalSubclass::A1 => "A1",
                OneDirectionalSubclass::A2 => "A2",
                OneDirectionalSubclass::A3 => "A3",
                OneDirectionalSubclass::A4 => "A4",
                OneDirectionalSubclass::A5 => "A5",
            },
            FormulaClass::Bounded => "B",
            FormulaClass::Unbounded => "C",
            FormulaClass::NoNontrivialCycles => "D",
            FormulaClass::Dependent => "E",
            FormulaClass::Mixed => "F",
        }
    }
}

impl fmt::Display for FormulaClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The full result of classifying a linear recursive rule.
#[derive(Debug, Clone)]
pub struct Classification {
    /// The rule that was classified.
    pub rule: Rule,
    /// Its I-graph.
    pub igraph: IGraph,
    /// The condensed graph.
    pub condensed: Condensed,
    /// All components (including trivial ones) with their raw analysis.
    pub components: Vec<Component>,
    /// The class of each non-trivial component, aligned with the non-trivial
    /// entries of `components`.
    pub component_classes: Vec<ComponentClass>,
    /// The formula's class.
    pub class: FormulaClass,
    /// [`Classification::stabilization_period`], computed once.
    stabilization_period: Option<u64>,
    /// [`Classification::rank_bound`], computed once.
    rank_bound: Option<u64>,
}

impl Classification {
    /// Classifies a linear recursive rule.
    ///
    /// # Panics
    /// Panics if the rule is not linear recursive (validate first).
    pub fn of(rule: &Rule) -> Classification {
        let igraph = igraph_of(rule);
        let condensed = condense(&igraph);
        let components = analyze_components(&condensed);
        let component_classes: Vec<ComponentClass> = components
            .iter()
            .filter(|c| c.is_nontrivial())
            .map(classify_component)
            .collect();
        let class = formula_class(&component_classes);
        let mut c = Classification {
            rule: rule.clone(),
            igraph,
            condensed,
            components,
            component_classes,
            class,
            stabilization_period: None,
            rank_bound: None,
        };
        c.stabilization_period = c.period_of_cycles();
        c.rank_bound = c.proven_rank_bound();
        c
    }

    /// The non-trivial components, aligned with `component_classes`.
    pub(crate) fn nontrivial_components(&self) -> impl Iterator<Item = &Component> {
        self.components.iter().filter(|c| c.is_nontrivial())
    }

    /// Theorem 1: strongly stable iff only disjoint unit cycles.
    pub fn is_strongly_stable(&self) -> bool {
        !self.component_classes.is_empty() && self.component_classes.iter().all(|c| c.is_unit())
    }

    /// Corollary 3: transformable to an equivalent unit-cycle (stable)
    /// formula iff all cycles are one-directional (classes A1–A5).
    pub fn is_transformable_to_stable(&self) -> bool {
        !self.component_classes.is_empty()
            && self
                .component_classes
                .iter()
                .all(|c| c.is_one_directional())
    }

    /// Theorem 4: the number of unfoldings after which a class-A formula is
    /// stable — the least common multiple of its cycle weights. `None` for
    /// formulas that are not transformable.
    pub fn stabilization_period(&self) -> Option<u64> {
        self.stabilization_period
    }

    fn period_of_cycles(&self) -> Option<u64> {
        if !self.is_transformable_to_stable() {
            return None;
        }
        let mut l = 1u64;
        for comp in self.nontrivial_components() {
            if let ComponentKind::IndependentCycle(cy) = &comp.kind {
                l = lcm(l, cy.magnitude().max(1));
            }
        }
        Some(l)
    }

    /// Is the formula *bounded* (pseudo-recursive)? Per Ioannidis's theorem
    /// and Theorems 10/11: every component must be bounded on its own
    /// (permutational A2/A4, bounded cycle B, or acyclic D).
    pub fn is_bounded(&self) -> bool {
        !self.component_classes.is_empty() && self.component_classes.iter().all(|c| c.is_bounded())
    }

    /// A *proven* upper bound on the rank of a bounded formula:
    ///
    /// * pure permutational combination ({A2, A4}): lcm of weights − 1
    ///   (Theorem 10, tight);
    /// * no permutational rotation ({A2, B, D} — weight-1 self-loops are
    ///   identity connections and do not rotate): the maximum path weight of
    ///   the I-graph (Ioannidis's theorem, tight);
    /// * a mixture of a rotating permutational cycle (weight ≥ 2) with B/D
    ///   components: **`None`**. Theorem 11 proves such formulas bounded but
    ///   gives no bound formula, and the naive `max` of the two bounds is
    ///   unsound (the rotation's parity can delay coverage of the B/D
    ///   component's last new tuples past both bounds). The planner answers
    ///   these with the general strategy instead.
    ///
    /// Returns `None` if the formula is not bounded or no proven static
    /// bound exists.
    pub fn rank_bound(&self) -> Option<u64> {
        self.rank_bound
    }

    fn proven_rank_bound(&self) -> Option<u64> {
        if !self.is_bounded() {
            return None;
        }
        let mut perm_lcm: u64 = 1;
        for comp in self.nontrivial_components() {
            if let ComponentKind::IndependentCycle(cy) = &comp.kind {
                if cy.is_permutational() {
                    perm_lcm = lcm(perm_lcm, cy.magnitude().max(1));
                }
            }
        }
        let has_nonperm = self.component_classes.iter().any(|c| {
            matches!(
                c,
                ComponentClass::BoundedCycle | ComponentClass::NoNontrivialCycle
            )
        });
        if !has_nonperm {
            return Some(perm_lcm - 1);
        }
        if perm_lcm == 1 {
            let path_bound =
                u64::try_from(max_path_weight(&self.igraph).max(0)).expect("non-negative");
            return Some(path_bound);
        }
        None
    }
}

fn classify_component(comp: &Component) -> ComponentClass {
    match &comp.kind {
        ComponentKind::Trivial => unreachable!("trivial components are filtered out"),
        ComponentKind::NoNontrivialCycle => ComponentClass::NoNontrivialCycle,
        ComponentKind::Dependent => ComponentClass::Dependent,
        ComponentKind::IndependentCycle(cy) => {
            if cy.one_directional {
                match (cy.is_unit(), cy.rotational) {
                    (true, true) => ComponentClass::UnitRotational,
                    (true, false) => ComponentClass::UnitPermutational,
                    (false, true) => ComponentClass::NonUnitRotational,
                    (false, false) => ComponentClass::NonUnitPermutational,
                }
            } else if cy.weight == 0 {
                ComponentClass::BoundedCycle
            } else {
                ComponentClass::UnboundedCycle
            }
        }
    }
}

fn formula_class(classes: &[ComponentClass]) -> FormulaClass {
    assert!(
        !classes.is_empty(),
        "a linear recursive rule always has at least one directed edge"
    );
    let all_one_directional = classes.iter().all(|c| c.is_one_directional());
    if all_one_directional {
        let first = classes[0];
        let uniform = classes.iter().all(|&c| c == first);
        let sub = if uniform {
            match first {
                ComponentClass::UnitRotational => OneDirectionalSubclass::A1,
                ComponentClass::UnitPermutational => OneDirectionalSubclass::A2,
                ComponentClass::NonUnitRotational => OneDirectionalSubclass::A3,
                ComponentClass::NonUnitPermutational => OneDirectionalSubclass::A4,
                _ => unreachable!("checked one-directional"),
            }
        } else {
            OneDirectionalSubclass::A5
        };
        return FormulaClass::OneDirectional(sub);
    }
    let first = classes[0];
    if classes.iter().all(|&c| c == first) {
        return match first {
            ComponentClass::BoundedCycle => FormulaClass::Bounded,
            ComponentClass::UnboundedCycle => FormulaClass::Unbounded,
            ComponentClass::NoNontrivialCycle => FormulaClass::NoNontrivialCycles,
            ComponentClass::Dependent => FormulaClass::Dependent,
            _ => unreachable!("one-directional handled above"),
        };
    }
    FormulaClass::Mixed
}

/// Least common multiple (inputs ≥ 1).
pub fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// Greatest common divisor.
pub(crate) fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::parser::parse_rule;

    fn classify(src: &str) -> Classification {
        Classification::of(&parse_rule(src).unwrap())
    }

    #[test]
    fn s1a_is_a5_stable() {
        // One A1 component (x→z over A) and one A2 (y self-loop): a disjoint
        // combination of different Ai's, strongly stable by Theorem 1.
        let c = classify("P(x, y) :- A(x, z), P(z, y).");
        assert_eq!(
            c.class,
            FormulaClass::OneDirectional(OneDirectionalSubclass::A5)
        );
        assert!(c.is_strongly_stable());
        assert_eq!(c.stabilization_period(), Some(1));
        assert!(!c.is_bounded());
    }

    #[test]
    fn s3_is_a1() {
        let c = classify("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).");
        assert_eq!(
            c.class,
            FormulaClass::OneDirectional(OneDirectionalSubclass::A1)
        );
        assert!(c.is_strongly_stable());
        assert_eq!(c.stabilization_period(), Some(1));
    }

    #[test]
    fn s4a_is_a3() {
        let c = classify("P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).");
        assert_eq!(
            c.class,
            FormulaClass::OneDirectional(OneDirectionalSubclass::A3)
        );
        assert!(!c.is_strongly_stable());
        assert!(c.is_transformable_to_stable());
        assert_eq!(c.stabilization_period(), Some(3));
        assert!(!c.is_bounded());
    }

    #[test]
    fn s5_is_a4_bounded() {
        let c = classify("P(x, y, z) :- P(y, z, x).");
        assert_eq!(
            c.class,
            FormulaClass::OneDirectional(OneDirectionalSubclass::A4)
        );
        assert!(c.is_bounded());
        assert_eq!(c.rank_bound(), Some(2)); // lcm(3) − 1
        assert_eq!(c.stabilization_period(), Some(3));
    }

    #[test]
    fn s6_is_a4_with_lcm_six() {
        let c = classify("P(x,y,z,u,v,w) :- P(z,y,u,x,w,v).");
        // Three permutational cycles of weights 3, 1, 2. Weight-1 cycles are
        // unit (A2); weight-2/3 are non-unit (A4) — a mixed-Ai combination.
        assert_eq!(
            c.class,
            FormulaClass::OneDirectional(OneDirectionalSubclass::A5)
        );
        assert_eq!(c.stabilization_period(), Some(6));
        assert!(c.is_bounded());
        assert_eq!(c.rank_bound(), Some(5)); // Theorem 10: lcm − 1
    }

    #[test]
    fn s7_is_a5() {
        let c = classify("P(x,y,z,u,w,s,v) :- A(x,t), P(t,z,y,w,s,r,v), B(u,r).");
        assert_eq!(
            c.class,
            FormulaClass::OneDirectional(OneDirectionalSubclass::A5)
        );
        assert_eq!(c.stabilization_period(), Some(6)); // lcm(1,2,3,1)
        assert!(!c.is_bounded()); // rotational components produce new values
    }

    #[test]
    fn s8_is_class_b() {
        let c = classify("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).");
        assert_eq!(c.class, FormulaClass::Bounded);
        assert!(c.is_bounded());
        assert_eq!(c.rank_bound(), Some(2)); // paper: upper bound 2
        assert!(!c.is_transformable_to_stable()); // Theorem 5
    }

    #[test]
    fn s9_is_class_c() {
        let c = classify("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).");
        assert_eq!(c.class, FormulaClass::Unbounded);
        assert!(!c.is_bounded());
        assert!(!c.is_transformable_to_stable());
        assert_eq!(c.rank_bound(), None);
    }

    #[test]
    fn s10_is_class_d() {
        let c = classify("P(x, y) :- B(y), C(x, y1), P(x1, y1).");
        assert_eq!(c.class, FormulaClass::NoNontrivialCycles);
        assert!(c.is_bounded()); // Corollary 2
        assert_eq!(c.rank_bound(), Some(2)); // paper: upper bound 2
    }

    #[test]
    fn s11_is_class_e() {
        let c = classify("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).");
        assert_eq!(c.class, FormulaClass::Dependent);
        assert!(!c.is_transformable_to_stable()); // Theorem 8
        assert!(!c.is_bounded());
    }

    #[test]
    fn s12_is_mixed() {
        let c = classify("P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).");
        assert_eq!(c.class, FormulaClass::Mixed);
        assert!(!c.is_transformable_to_stable()); // Theorem 9
        assert!(!c.is_bounded());
        // Components: one dependent (E) + one unit rotational (A1).
        let mut labels: Vec<&str> = c.component_classes.iter().map(|c| c.label()).collect();
        labels.sort();
        assert_eq!(labels, vec!["A1", "E"]);
    }

    #[test]
    fn pure_a2_formula() {
        let c = classify("P(x, y) :- A(x), B(y), P(x, y).");
        assert_eq!(
            c.class,
            FormulaClass::OneDirectional(OneDirectionalSubclass::A2)
        );
        assert!(c.is_strongly_stable());
        assert!(c.is_bounded());
        assert_eq!(c.rank_bound(), Some(0));
    }

    #[test]
    fn compressed_remark_formula_is_a1() {
        let c = classify("P(x, y) :- A(x, u), B(x, z), C(z, u), P(u, y).");
        // The paper's Remark: compresses to ABC(x,u), two unit cycles.
        assert!(c.is_strongly_stable());
        assert_eq!(
            c.class,
            FormulaClass::OneDirectional(OneDirectionalSubclass::A5)
        );
    }

    #[test]
    fn uniform_two_cycle_is_a3() {
        // Thm 1's instability counterexample is nonetheless transformable:
        // one-directional weight-2 rotational cycle.
        let c = classify("P(x, y) :- A(x, z), P(y, z).");
        assert_eq!(
            c.class,
            FormulaClass::OneDirectional(OneDirectionalSubclass::A3)
        );
        assert!(!c.is_strongly_stable());
        assert_eq!(c.stabilization_period(), Some(2));
    }

    #[test]
    fn lcm_gcd_helpers() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(1, 7), 7);
        assert_eq!(lcm(lcm(1, 2), lcm(3, 1)), 6);
    }

    #[test]
    fn every_example_has_exactly_one_class() {
        // Theorem 12 smoke test over the paper's formulas.
        for src in [
            "P(x, y) :- A(x, z), P(z, y).",
            "P(x, y, z) :- A(x, y), P(u, z, v), B(u, v).",
            "P(x, y) :- A(x, z), P(z, u), B(u, y).",
            "P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).",
            "P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).",
            "P(x, y, z) :- P(y, z, x).",
            "P(x,y,z,u,v,w) :- P(z,y,u,x,w,v).",
            "P(x,y,z,u,w,s,v) :- A(x,t), P(t,z,y,w,s,r,v), B(u,r).",
            "P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).",
            "P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).",
            "P(x, y) :- B(y), C(x, y1), P(x1, y1).",
            "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).",
            "P(x,y,z) :- A(x,u), B(y,v), C(u,v), D(w,z), P(u,v,w).",
        ] {
            let c = classify(src);
            // `formula_class` is total and returns exactly one label.
            assert!(!c.class.label().is_empty(), "{src} got no class");
        }
    }
}
