//! Human-readable classification and compilation reports — the text the
//! report binaries print for every example and figure of the paper.

use crate::classify::{Classification, ComponentClass};
use crate::plan::{plan_for_form, StrategyKind};
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::rule::LinearRecursion;
use recurs_igraph::component::ComponentKind;
use recurs_igraph::dot::to_ascii;
use std::fmt::Write as _;

/// Renders the full classification report for a formula.
pub fn classification_report(lr: &LinearRecursion) -> String {
    let c = Classification::of(&lr.recursive_rule);
    let mut out = String::new();
    let _ = writeln!(out, "formula : {}", lr.recursive_rule);
    for exit in &lr.exit_rules {
        let _ = writeln!(out, "exit    : {exit}");
    }
    let _ = writeln!(out, "dimension: {}", lr.dimension());
    let _ = writeln!(out, "I-graph:");
    for line in to_ascii(&c.igraph).lines() {
        let _ = writeln!(out, "  {line}");
    }
    let _ = writeln!(out, "condensed groups:");
    for (i, g) in c.condensed.groups.iter().enumerate() {
        let names: Vec<&str> = g.iter().map(|s| s.as_str()).collect();
        let _ = writeln!(out, "  g{i}: {{{}}}", names.join(", "));
    }
    let _ = writeln!(out, "components:");
    let mut class_iter = c.component_classes.iter();
    for comp in &c.components {
        if !comp.is_nontrivial() {
            let _ = writeln!(out, "  - trivial (no directed edge)");
            continue;
        }
        let label = class_iter
            .next()
            .expect("aligned with nontrivial components");
        let detail = match &comp.kind {
            ComponentKind::IndependentCycle(cy) => format!(
                "independent cycle, weight {}, {}",
                cy.magnitude(),
                if cy.one_directional {
                    if cy.rotational {
                        "one-directional rotational"
                    } else {
                        "one-directional permutational"
                    }
                } else {
                    "multi-directional"
                }
            ),
            ComponentKind::NoNontrivialCycle => "no non-trivial cycle".to_string(),
            ComponentKind::Dependent => {
                format!("dependent ({} cycles)", comp.cycle_rank())
            }
            ComponentKind::Trivial => unreachable!("filtered above"),
        };
        let _ = writeln!(out, "  - class {label}: {detail}");
    }
    let _ = writeln!(out, "class    : {}", c.class);
    let _ = writeln!(out, "strongly stable       : {}", c.is_strongly_stable());
    let _ = writeln!(
        out,
        "transformable->stable : {}{}",
        c.is_transformable_to_stable(),
        c.stabilization_period()
            .map(|p| format!(" (unfold {p}×)"))
            .unwrap_or_default()
    );
    // The theorems decide boundedness only without a dependent component:
    // an E rule may be bounded all the same, so it is not called unbounded.
    let bounded = if c.component_classes.contains(&ComponentClass::Dependent) {
        "not shown (class E)".to_string()
    } else {
        c.is_bounded().to_string()
    };
    let _ = writeln!(
        out,
        "bounded               : {bounded}{}",
        c.rank_bound()
            .map(|r| format!(" (rank ≤ {r})"))
            .unwrap_or_default()
    );
    out
}

/// Renders the plan report for a query form: strategy, compiled formula,
/// and propagation trace.
pub fn plan_report(lr: &LinearRecursion, form: &QueryForm) -> String {
    let plan = plan_for_form(lr, form);
    let mut out = String::new();
    let _ = writeln!(out, "query form      : {}({form})", lr.predicate);
    let _ = writeln!(out, "strategy        : {}", plan.strategy.label());
    if let Some(t) = &plan.transform {
        let _ = writeln!(
            out,
            "transformation  : unfolded {}×, {} exit rules",
            t.period,
            t.exit_rules.len()
        );
    }
    let _ = writeln!(out, "compiled formula: {}", plan.compiled);
    let _ = writeln!(out, "strategy detail : {}", plan.compiled.strategy);
    // Propagation trace.
    let (trace, cycle) = recurs_datalog::adornment::propagation_trace(&lr.recursive_rule, form, 16);
    let rendered: Vec<String> = trace.iter().map(|f| f.to_string()).collect();
    let _ = writeln!(
        out,
        "propagation     : {}{}",
        rendered.join(" → "),
        cycle
            .map(|i| format!("  (cycles back to step {i})"))
            .unwrap_or_else(|| "  (no repetition within horizon)".into())
    );
    // What the engine is handed.
    let header = match plan.strategy {
        StrategyKind::Bounded => "non-recursive levels",
        StrategyKind::Frontier => "frontier program",
        StrategyKind::Magic => "rewritten program (magic sets)",
        StrategyKind::Saturate => "saturated program",
    };
    let _ = writeln!(out, "{header}:");
    for rule in &plan.program().rules {
        let _ = writeln!(out, "  {rule}");
    }
    if let Some(chains) = plan.counting_chains() {
        let _ = writeln!(out, "per-position chains:");
        for (i, (top, bottom, labels)) in chains.iter().enumerate() {
            let names: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
            let _ = writeln!(
                out,
                "  position {i}: {top} ⇝ {bottom} via [{}]",
                if names.is_empty() {
                    "identity".to_string()
                } else {
                    names.join(", ")
                }
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::parser::parse_program;
    use recurs_datalog::validate::validate_with_generic_exit;

    fn lr(src: &str) -> LinearRecursion {
        validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn classification_report_mentions_key_facts() {
        let f = lr("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).");
        let r = classification_report(&f);
        assert!(r.contains("class    : A1"));
        assert!(r.contains("strongly stable       : true"));
        assert!(r.contains("dimension: 3"));
    }

    #[test]
    fn plan_report_mentions_strategy_and_formula() {
        let f = lr("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).");
        let r = plan_report(&f, &QueryForm::parse("ddv"));
        assert!(r.contains("counting"));
        assert!(r.contains("σE"));
        assert!(r.contains("propagation"));
        // `C^k` ascends, so the formula is executed by the magic rewrite …
        assert!(r.contains("strategy        : magic\n"), "{r}");
        // … while the fully bound form is the walk itself.
        let r = plan_report(&f, &QueryForm::parse("ddd"));
        assert!(r.contains("strategy        : frontier"), "{r}");
        assert!(
            r.contains("reach__P__ddd(u, v, w) :- reach__P__ddd(x, y, z)"),
            "{r}"
        );
    }

    #[test]
    fn plan_report_shows_counting_chains() {
        let f = lr("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).");
        let r = plan_report(&f, &QueryForm::parse("ddv"));
        assert!(r.contains("per-position chains:"), "{r}");
        assert!(r.contains("via [A]"), "{r}");
        assert!(r.contains("via [C]"), "{r}");
    }

    #[test]
    fn plan_report_shows_magic_rewrite() {
        let f = lr("P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).");
        let r = plan_report(&f, &QueryForm::parse("dv"));
        assert!(r.contains("rewritten program (magic sets):"), "{r}");
        assert!(r.contains("magic__"), "{r}");
    }

    #[test]
    fn plan_report_shows_bounded_levels() {
        let f = lr("P(x, y, z) :- P(y, z, x).");
        let r = plan_report(&f, &QueryForm::parse("dvv"));
        assert!(r.contains("non-recursive levels:"), "{r}");
        // What the engine is handed: each level guarded by the form's seed.
        assert!(
            r.contains("ans__P(x, y, z) :- seed__P__dvv(x), E(y, z, x)."),
            "{r}"
        );
    }

    #[test]
    fn theorem_11_mixture_is_not_reported_as_the_general_method() {
        // A4 (x, y swap) beside D (z → w): bounded by Theorem 11, which gives
        // no rank, so every bound form runs as magic and says why.
        let f = lr("P(x, y, z) :- A(z), P(y, x, w).");
        assert!(classification_report(&f).contains("bounded               : true\n"));
        for form in ["dvv", "vvd", "ddv"] {
            let r = plan_report(&f, &QueryForm::parse(form));
            assert!(r.contains("strategy        : magic\n"), "{r}");
            assert!(
                r.contains(
                    "strategy detail : bounded (Theorem 11) but no proven rank: run as the \
                     magic-sets rewrite\n"
                ),
                "{r}"
            );
            assert!(!r.contains("general method"), "{r}");
        }
    }

    #[test]
    fn a_dependent_component_leaves_boundedness_open() {
        // Bounded at rank 1 by a containment certificate, yet its one
        // component is dependent, which no theorem decides.
        let f = lr("P(x, y) :- A(x), B(x, y), P(x, w).");
        let r = classification_report(&f);
        assert!(r.contains("class    : E\n"), "{r}");
        assert!(
            r.contains("bounded               : not shown (class E)\n"),
            "{r}"
        );
        // Without one, the theorems decide: TC is unbounded.
        let tc = lr("P(x, y) :- A(x, z), P(z, y).");
        let r = classification_report(&tc);
        assert!(r.contains("bounded               : false\n"), "{r}");
    }

    #[test]
    fn bounded_report() {
        let f = lr("P(x, y, z) :- P(y, z, x).");
        let r = classification_report(&f);
        assert!(r.contains("bounded               : true (rank ≤ 2)"));
        let p = plan_report(&f, &QueryForm::parse("dvv"));
        assert!(p.contains("bounded"));
    }
}
