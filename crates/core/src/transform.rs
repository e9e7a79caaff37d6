//! Formula transformations: unfold-to-stable (Theorems 2 and 4) and
//! bounded-to-nonrecursive (Ioannidis's theorem, Theorems 10/11).

use crate::classify::Classification;
use recurs_datalog::rule::{LinearRecursion, Program, Rule};
use recurs_datalog::unfold::{close_with_exit, Unfolder};

/// The result of transforming a class-A formula into an equivalent stable
/// formula with multiple exits (Theorem 2 part 2, generalized by Theorem 4).
#[derive(Debug, Clone)]
pub struct StableTransform {
    /// How many times the recursive rule was unfolded (the lcm of the cycle
    /// weights).
    pub period: u64,
    /// The new (stable) recursive rule: the `period`-th expansion.
    pub stable_rule: Rule,
    /// The exit rules of the transformed formula: the original exits plus
    /// the exit-closed expansions 1 .. period−1.
    pub exit_rules: Vec<Rule>,
}

impl StableTransform {
    /// The transformed formula as a [`LinearRecursion`].
    pub(crate) fn to_linear_recursion(&self) -> LinearRecursion {
        LinearRecursion {
            predicate: self.stable_rule.head.predicate,
            recursive_rule: self.stable_rule.clone(),
            exit_rules: self.exit_rules.clone(),
        }
    }

    /// The transformed formula as a program (recursive rule + exits).
    pub fn to_program(&self) -> Program {
        self.to_linear_recursion().to_program()
    }
}

/// Transforms a class-A formula (only one-directional cycles) into an
/// equivalent stable formula by unfolding `lcm(cycle weights)` times.
/// Returns `None` for formulas outside class A (Corollary 3: those are not
/// transformable).
///
/// ```
/// use recurs_core::transform::unfold_to_stable;
/// use recurs_core::classify::Classification;
/// use recurs_datalog::parser::parse_program;
/// use recurs_datalog::validate::validate_with_generic_exit;
///
/// // The paper's s4a: a weight-3 rotational cycle (class A3).
/// let lr = validate_with_generic_exit(&parse_program(
///     "P(x1, x2, x3) :- A(x1, y3), B(x2, y1), C(y2, x3), P(y1, y2, y3).",
/// ).unwrap()).unwrap();
/// let t = unfold_to_stable(&lr).expect("class A is transformable");
/// assert_eq!(t.period, 3);
/// assert_eq!(t.exit_rules.len(), 3); // original exit + two closed expansions
/// assert!(Classification::of(&t.stable_rule).is_strongly_stable());
/// ```
pub fn unfold_to_stable(lr: &LinearRecursion) -> Option<StableTransform> {
    let classification = Classification::of(&lr.recursive_rule);
    let period = classification.stabilization_period()?;
    Some(unfold_by(lr, period))
}

/// Unfolds by an explicit period (exposed for experimentation; correctness
/// of the *stability* claim requires the period from
/// [`Classification::stabilization_period`]).
pub(crate) fn unfold_by(lr: &LinearRecursion, period: u64) -> StableTransform {
    assert!(period >= 1, "period must be at least 1");
    let mut exit_rules = lr.exit_rules.clone();
    let mut counter = 0u32;
    let mut unfolder = Unfolder::new(&lr.recursive_rule);
    let mut last = unfolder.next().expect("unfolder is infinite");
    // Expansions 1 .. period−1 closed with each original exit become new
    // exit rules; the period-th expansion becomes the recursive rule.
    for _ in 1..period {
        for exit in &lr.exit_rules {
            exit_rules.push(close_with_exit(&last, exit, &mut counter));
        }
        last = unfolder.next().expect("unfolder is infinite");
    }
    StableTransform {
        period,
        stable_rule: last,
        exit_rules,
    }
}

/// Replaces a bounded formula by the equivalent finite set of non-recursive
/// rules (pseudo-recursion, section 6): the exit-closed expansions
/// 0 ..= rank. Returns `None` if the formula is not bounded.
pub fn to_nonrecursive(lr: &LinearRecursion) -> Option<Program> {
    let classification = Classification::of(&lr.recursive_rule);
    let rank = classification.rank_bound()?;
    Some(to_nonrecursive_with_rank(lr, rank))
}

/// The exit-closed expansions `0 ..= rank` as a non-recursive program.
/// Level 0 is the exit rules themselves; level k is the k-th expansion with
/// its recursive atom replaced by each exit body.
pub(crate) fn to_nonrecursive_with_rank(lr: &LinearRecursion, rank: u64) -> Program {
    let mut rules: Vec<Rule> = lr.exit_rules.clone();
    let mut counter = 50_000u32;
    for (k, expansion) in Unfolder::new(&lr.recursive_rule).enumerate() {
        if (k as u64) >= rank {
            break;
        }
        for exit in &lr.exit_rules {
            rules.push(close_with_exit(&expansion, exit, &mut counter));
        }
    }
    Program::new(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Classification;
    use recurs_datalog::database::Database;
    use recurs_datalog::eval::semi_naive;
    use recurs_datalog::parser::parse_program;
    use recurs_datalog::relation::{tuple_u64, Relation};
    use recurs_datalog::validate::validate_with_generic_exit;

    fn lr(src: &str) -> LinearRecursion {
        validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn s4_unfolds_three_times() {
        // Example 4: weight-3 cycle; transformed formula has the original
        // exit plus two more (s4a′ and s4c′).
        let f = lr(
            "P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).\n\
                    P(x1,x2,x3) :- E(x1,x2,x3).",
        );
        let t = unfold_to_stable(&f).expect("class A3 is transformable");
        assert_eq!(t.period, 3);
        assert_eq!(t.exit_rules.len(), 3);
        // s4d: the 3rd expansion has 9 non-recursive atoms + P.
        assert_eq!(t.stable_rule.body.len(), 10);
        // The result is genuinely stable.
        assert!(Classification::of(&t.stable_rule).is_strongly_stable());
    }

    #[test]
    fn s4_transform_preserves_semantics() {
        let f = lr(
            "P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).\n\
                    P(x1,x2,x3) :- E(x1,x2,x3).",
        );
        let t = unfold_to_stable(&f).unwrap();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 5)]));
        db.insert_relation("B", Relation::from_pairs([(11, 12), (12, 13), (13, 14)]));
        db.insert_relation("C", Relation::from_pairs([(21, 22), (22, 23), (23, 24)]));
        db.insert_relation(
            "E",
            Relation::from_tuples(
                3,
                [
                    tuple_u64([2, 12, 22]),
                    tuple_u64([3, 13, 23]),
                    tuple_u64([4, 11, 21]),
                ],
            ),
        );
        let mut db2 = db.clone();
        semi_naive(&mut db, &f.to_program(), None).unwrap();
        semi_naive(&mut db2, &t.to_program(), None).unwrap();
        assert_eq!(db.get("P").unwrap(), db2.get("P").unwrap());
    }

    #[test]
    fn s7_unfolds_six_times() {
        let f = lr("P(x,y,z,u,w,s,v) :- A(x,t), P(t,z,y,w,s,r,v), B(u,r).");
        let t = unfold_to_stable(&f).unwrap();
        assert_eq!(t.period, 6);
        assert_eq!(t.exit_rules.len(), 6); // 1 original + 5 closed expansions
        assert!(Classification::of(&t.stable_rule).is_strongly_stable());
    }

    #[test]
    fn stable_formula_has_period_one() {
        let f = lr("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).");
        let t = unfold_to_stable(&f).unwrap();
        assert_eq!(t.period, 1);
        assert_eq!(t.stable_rule, f.recursive_rule);
        assert_eq!(t.exit_rules, f.exit_rules);
    }

    #[test]
    fn class_b_is_not_transformable() {
        let f = lr("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).");
        assert!(unfold_to_stable(&f).is_none());
    }

    #[test]
    fn s8_to_nonrecursive_matches_paper() {
        // Example 8: rank 2 — exits + two closed expansions (s8a′, s8b′).
        let f = lr("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).\n\
                    P(x,y,z,u) :- E(x,y,z,u).");
        let p = to_nonrecursive(&f).expect("class B is bounded");
        assert_eq!(p.rules.len(), 3); // exit, level 1, level 2
        assert!(p.rules.iter().all(|r| !r.is_recursive()));
        // Level 1 (s8a′): 3 non-recursive atoms + E = 4 atoms.
        assert_eq!(p.rules[1].body.len(), 4);
        // Level 2 (s8b′): 6 non-recursive atoms + E = 7 atoms.
        assert_eq!(p.rules[2].body.len(), 7);
    }

    #[test]
    fn s8_nonrecursive_is_equivalent_on_data() {
        let f = lr("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).\n\
                    P(x,y,z,u) :- E(x,y,z,u).");
        let p = to_nonrecursive(&f).unwrap();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (3, 4), (5, 6)]));
        db.insert_relation("B", Relation::from_pairs([(2, 9), (4, 8)]));
        db.insert_relation("C", Relation::from_pairs([(7, 2), (6, 4)]));
        db.insert_relation(
            "E",
            Relation::from_tuples(
                4,
                [
                    tuple_u64([3, 2, 7, 2]),
                    tuple_u64([5, 4, 6, 4]),
                    tuple_u64([1, 1, 1, 1]),
                ],
            ),
        );
        let mut db2 = db.clone();
        semi_naive(&mut db, &f.to_program(), None).unwrap();
        semi_naive(&mut db2, &p, None).unwrap();
        assert_eq!(db.get("P").unwrap(), db2.get("P").unwrap());
    }

    #[test]
    fn s5_to_nonrecursive() {
        // s5: permutational, rank 2: exits + levels 1, 2.
        let f = lr("P(x, y, z) :- P(y, z, x).");
        let p = to_nonrecursive(&f).unwrap();
        assert_eq!(p.rules.len(), 3);
        let mut db = Database::new();
        db.insert_relation(
            "E",
            Relation::from_tuples(3, [tuple_u64([1, 2, 3]), tuple_u64([4, 5, 6])]),
        );
        let mut db2 = db.clone();
        semi_naive(&mut db, &f.to_program(), None).unwrap();
        semi_naive(&mut db2, &p, None).unwrap();
        let p_rel = db.get("P").unwrap();
        assert_eq!(p_rel, db2.get("P").unwrap());
        // All three rotations of each exit tuple are derived.
        assert_eq!(p_rel.len(), 6);
    }

    #[test]
    fn unfold_by_larger_period_is_still_equivalent() {
        // Unfolding a stable formula by any period preserves semantics.
        let f = lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
        let t = unfold_by(&f, 4);
        assert_eq!(t.exit_rules.len(), 4);
        let mut db = Database::new();
        let edges = Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]);
        db.insert_relation("A", edges.clone());
        db.insert_relation("E", edges);
        let mut db2 = db.clone();
        semi_naive(&mut db, &f.to_program(), None).unwrap();
        semi_naive(&mut db2, &t.to_program(), None).unwrap();
        assert_eq!(db.get("P").unwrap(), db2.get("P").unwrap());
    }
}
