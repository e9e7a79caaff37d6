//! Symbolic *compiled formulas* — the paper's σ / ⋈ / × / ∃ / ∪ₖ notation.
//!
//! A compiled formula is the logical-level object the paper derives for each
//! class: e.g. for the stable s3 and query `P(a, b, Z)`
//!
//! ```text
//! σE, ∪k (σA^k ‖ σB^k)-C^k-E
//! ```
//!
//! These are **display** objects: they document the plan a query will follow
//! (and are tested against the paper's figures); what runs is the plan's
//! lowered program ([`crate::plan`]), built from the chains of
//! [`crate::counting`] or the rewrite of [`crate::magic`].

use std::fmt;

/// Exponent attached to a chain segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Power {
    /// `e^k` — repeated k times at level k.
    K,
    /// `e^{k+1}`.
    KPlus1,
    /// A fixed count.
    Fixed(u64),
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Power::K => write!(f, "^k"),
            Power::KPlus1 => write!(f, "^(k+1)"),
            Power::Fixed(n) => write!(f, "^{n}"),
        }
    }
}

/// A symbolic compiled-formula expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FExpr {
    /// A base relation, e.g. `A` or `E`.
    Rel(String),
    /// σe — selection (query constants pushed into e).
    Sigma(Box<FExpr>),
    /// A join chain written by juxtaposition: `A-C-B`.
    Seq(Vec<FExpr>),
    /// Parallel branches evaluated independently: `{A ‖ B}`.
    Par(Vec<FExpr>),
    /// A segment repeated per level: `(...)^k`.
    Pow(Box<FExpr>, Power),
    /// ∪ₖ₌₀..∞ e — union over expansion levels.
    UnionK(Box<FExpr>),
    /// e × e — Cartesian product (information passing stopped).
    Product(Box<FExpr>, Box<FExpr>),
    /// ∃e — existence check gating the following expression.
    Exists(Box<FExpr>),
    /// e ⋈ e — explicit join (when the paper writes ⋈ rather than a chain).
    Join(Box<FExpr>, Box<FExpr>),
}

impl FExpr {
    /// A base relation by name.
    pub fn rel(name: impl Into<String>) -> FExpr {
        FExpr::Rel(name.into())
    }

    /// σ of a base relation — the most common leaf.
    pub(crate) fn sigma(name: impl Into<String>) -> FExpr {
        FExpr::Sigma(Box::new(FExpr::rel(name)))
    }

    /// Chains `self` with `next` (flattens nested chains).
    pub fn then(self, next: FExpr) -> FExpr {
        match self {
            FExpr::Seq(mut v) => {
                v.push(next);
                FExpr::Seq(v)
            }
            other => FExpr::Seq(vec![other, next]),
        }
    }

    /// Raises to a per-level power.
    pub fn pow(self, p: Power) -> FExpr {
        FExpr::Pow(Box::new(self), p)
    }
}

impl fmt::Display for FExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FExpr::Rel(name) => f.write_str(name),
            FExpr::Sigma(e) => write!(f, "σ{e}"),
            FExpr::Seq(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "-")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            FExpr::Par(branches) => {
                write!(f, "{{")?;
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ‖ ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, "}}")
            }
            FExpr::Pow(e, p) => {
                let simple = matches!(**e, FExpr::Rel(_) | FExpr::Par(_))
                    || matches!(**e, FExpr::Sigma(ref inner) if matches!(**inner, FExpr::Rel(_)));
                let needs_parens = !simple;
                if needs_parens {
                    write!(f, "[{e}]{p}")
                } else {
                    write!(f, "{e}{p}")
                }
            }
            FExpr::UnionK(e) => write!(f, "∪k[{e}]"),
            FExpr::Product(a, b) => write!(f, "({a}) × ({b})"),
            FExpr::Exists(e) => write!(f, "(∃ {e})"),
            FExpr::Join(a, b) => write!(f, "({a} ⋈ {b})"),
        }
    }
}

/// A compiled formula: the exit part evaluated first (`σE`), followed by the
/// per-level terms — rendered as the paper writes them, comma-separated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledFormula {
    /// Human-readable description of the strategy that will execute it.
    pub strategy: String,
    /// The ordered parts, e.g. `[σE, ∪k[...]]`.
    pub parts: Vec<FExpr>,
}

impl fmt::Display for CompiledFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, ",  ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_s3_style_counting_formula() {
        // σE, ∪k (σA^k ‖ σB^k)-C^k-E
        let per_level = FExpr::Par(vec![
            FExpr::sigma("A").pow(Power::K),
            FExpr::sigma("B").pow(Power::K),
        ])
        .then(FExpr::rel("C").pow(Power::K))
        .then(FExpr::rel("E"));
        let cf = CompiledFormula {
            strategy: "counting".into(),
            parts: vec![FExpr::sigma("E"), FExpr::UnionK(Box::new(per_level))],
        };
        assert_eq!(cf.to_string(), "σE,  ∪k[{σA^k ‖ σB^k}-C^k-E]");
    }

    #[test]
    fn renders_s9_product_plan() {
        // σE, (σA) × (∪k (E ⋈ B)(BA)^k)
        let chain = FExpr::Join(Box::new(FExpr::rel("E")), Box::new(FExpr::rel("B")))
            .then(FExpr::rel("BA").pow(Power::K));
        let plan = FExpr::Product(
            Box::new(FExpr::sigma("A")),
            Box::new(FExpr::UnionK(Box::new(chain))),
        );
        let cf = CompiledFormula {
            strategy: "per-case (class C)".into(),
            parts: vec![FExpr::sigma("E"), plan],
        };
        assert_eq!(cf.to_string(), "σE,  (σA) × (∪k[(E ⋈ B)-BA^k])");
    }

    #[test]
    fn renders_existence_plan() {
        // (∃ ∪k (AB)^k (E ⋈ B)) A   — s9's P(v,v,d) plan.
        let chain = FExpr::rel("AB").pow(Power::K).then(FExpr::Join(
            Box::new(FExpr::rel("E")),
            Box::new(FExpr::rel("B")),
        ));
        let plan = FExpr::Exists(Box::new(FExpr::UnionK(Box::new(chain)))).then(FExpr::rel("A"));
        assert_eq!(plan.to_string(), "(∃ ∪k[AB^k-(E ⋈ B)])-A");
    }

    #[test]
    fn then_flattens_chains() {
        let e = FExpr::rel("A").then(FExpr::rel("B")).then(FExpr::rel("C"));
        assert_eq!(e.to_string(), "A-B-C");
        match e {
            FExpr::Seq(v) => assert_eq!(v.len(), 3),
            _ => panic!("expected flattened Seq"),
        }
    }

    #[test]
    fn power_display() {
        assert_eq!(FExpr::rel("D").pow(Power::KPlus1).to_string(), "D^(k+1)");
        assert_eq!(FExpr::rel("D").pow(Power::Fixed(3)).to_string(), "D^3");
    }
}
