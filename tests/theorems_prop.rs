//! Property tests for the paper's theorems over randomly generated valid
//! linear recursive rules.

use proptest::prelude::*;
use recurs_core::classify::{Classification, ComponentClass, FormulaClass};
use recurs_core::stability::check_theorem_1;
use recurs_core::transform::{to_nonrecursive, unfold_to_stable};
use recurs_datalog::adornment::{propagate, ArgBinding, QueryForm};
use recurs_datalog::eval::semi_naive;
use recurs_datalog::rule::Rule;
use recurs_datalog::term::{Atom, Term};
use recurs_datalog::Symbol;
use recurs_workload::random_database;
use recurs_workload::rules::{random_linear_recursion, random_rule, RuleConfig};
use std::collections::{BTreeMap, BTreeSet};

fn config() -> RuleConfig {
    RuleConfig {
        min_dim: 1,
        max_dim: 4,
        max_extra_atoms: 3,
    }
}

/// What the classification says about a rule: its class, its components'
/// classes (as a multiset) and its rank bound.
fn verdict(rule: &Rule) -> (FormulaClass, Vec<ComponentClass>, Option<u64>) {
    let c = Classification::of(rule);
    let mut components = c.component_classes.clone();
    components.sort();
    (c.class, components, c.rank_bound())
}

/// `items` in the order of their `keys` (ties keep their order).
fn permuted<T: Clone>(items: &[T], keys: &[u64]) -> Vec<T> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| keys[i % keys.len()]);
    order.into_iter().map(|i| items[i].clone()).collect()
}

/// A bijection of `names` onto themselves, drawn by `keys`.
fn shuffled(names: BTreeSet<Symbol>, keys: &[u64]) -> BTreeMap<Symbol, Symbol> {
    let names: Vec<Symbol> = names.into_iter().collect();
    names.iter().copied().zip(permuted(&names, keys)).collect()
}

/// `rule` with every predicate and every variable renamed.
fn renamed(rule: &Rule, pred: impl Fn(Symbol) -> Symbol, var: impl Fn(Symbol) -> Symbol) -> Rule {
    let atom = |a: &Atom| {
        let terms = a.terms.iter().map(|&t| match t {
            Term::Var(v) => Term::Var(var(v)),
            constant => constant,
        });
        Atom::new(pred(a.predicate), terms.collect())
    };
    Rule::new(atom(&rule.head), rule.body.iter().map(atom).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Metamorphic: the classification reads the rule's shape, not its
    /// names or its body order, so the class, the component classes and the
    /// rank bound survive variable renaming, body-atom permutation and
    /// predicate renaming (each a shuffle of the rule's own names, the
    /// recursive predicate included).
    #[test]
    fn classification_ignores_names_and_body_order(
        seed in 0u64..1_000_000,
        keys in prop::collection::vec(0u64..1_000_000, 16..17),
    ) {
        let rule = random_rule(seed, config());
        let vars = shuffled(rule.variables(), &keys);
        let preds = std::iter::once(&rule.head).chain(&rule.body).map(|a| a.predicate);
        let preds = shuffled(preds.collect(), &keys);
        let variants = [
            ("variable renaming", renamed(&rule, |p| p, |v| vars[&v])),
            ("body-atom permutation", Rule::new(rule.head.clone(), permuted(&rule.body, &keys))),
            ("predicate renaming", renamed(&rule, |p| preds[&p], |v| v)),
        ];
        let expected = verdict(&rule);
        for (what, variant) in variants {
            prop_assert_eq!(
                verdict(&variant),
                expected.clone(),
                "{} of {} (seed {}) gave {}", what, rule, seed, variant
            );
        }
    }

    /// Theorem 1: semantic and syntactic strong stability coincide. The
    /// semantic check reads the n singleton query forms; the definition
    /// quantifies over all 2ⁿ, so the verdict is held to that too.
    #[test]
    fn theorem_1_equivalence(seed in 0u64..1_000_000) {
        let rule = random_rule(seed, config());
        let verdict = check_theorem_1(&rule); // panics on divergence
        let n = rule.head.arity();
        let every_form = (0u32..1 << n).all(|mask| {
            let form = QueryForm(
                (0..n)
                    .map(|i| {
                        if mask & (1 << i) != 0 {
                            ArgBinding::Determined
                        } else {
                            ArgBinding::Free
                        }
                    })
                    .collect(),
            );
            propagate(&rule, &form) == form
        });
        prop_assert_eq!(verdict, every_form, "{}", rule);
    }

    /// Theorem 12: the classification is total and each label is unique.
    #[test]
    fn theorem_12_completeness(seed in 0u64..1_000_000) {
        let rule = random_rule(seed, config());
        let c = Classification::of(&rule);
        // Exactly one class label is assigned.
        let label = c.class.label();
        prop_assert!(["A1","A2","A3","A4","A5","B","C","D","E","F"].contains(&label));
        // The invariants between predicates hold.
        if c.is_strongly_stable() {
            prop_assert!(c.is_transformable_to_stable());
            prop_assert_eq!(c.stabilization_period(), Some(1));
        }
        if c.is_transformable_to_stable() {
            prop_assert!(matches!(c.class, FormulaClass::OneDirectional(_)));
        }
        if c.rank_bound().is_some() {
            prop_assert!(c.is_bounded());
        }
        // Mixed requires at least two distinct component classes.
        if c.class == FormulaClass::Mixed {
            let mut kinds = c.component_classes.clone();
            kinds.sort();
            kinds.dedup();
            prop_assert!(kinds.len() >= 2);
        }
    }

    /// Theorems 2 & 4: the unfold-to-stable transformation preserves
    /// semantics, and its result is strongly stable. (Smaller shapes than
    /// the other properties: the equivalence check evaluates the unfolded
    /// rule, whose body has period × atoms literals.)
    #[test]
    fn unfold_to_stable_preserves_semantics(seed in 0u64..100_000) {
        let small = RuleConfig { min_dim: 1, max_dim: 3, max_extra_atoms: 2 };
        let lr = random_linear_recursion(seed, small);
        let c = Classification::of(&lr.recursive_rule);
        if !c.is_transformable_to_stable() {
            return Ok(());
        }
        let t = unfold_to_stable(&lr).expect("class A");
        prop_assert!(Classification::of(&t.stable_rule).is_strongly_stable());

        let db = random_database(&lr, 16, 5, seed ^ 0xABCD);
        let mut db1 = db.clone();
        let mut db2 = db;
        semi_naive(&mut db1, &lr.to_program(), None).unwrap();
        semi_naive(&mut db2, &t.to_program(), None).unwrap();
        prop_assert_eq!(
            db1.get(lr.predicate).unwrap(),
            db2.get(lr.predicate).unwrap(),
            "transform changed semantics for {} (seed {})", lr.recursive_rule, seed
        );
    }

    /// Ioannidis / Theorem 10: the rank bound is genuine — truncating the
    /// fixpoint at `rank + 1` iterations of the recursive rule loses nothing.
    #[test]
    fn rank_bound_is_sound(seed in 0u64..100_000) {
        let small = RuleConfig { min_dim: 1, max_dim: 3, max_extra_atoms: 2 };
        let lr = random_linear_recursion(seed, small);
        let c = Classification::of(&lr.recursive_rule);
        let Some(rank) = c.rank_bound() else { return Ok(()); };
        let program = to_nonrecursive(&lr).expect("bounded formula");
        prop_assert!(program.rules.iter().all(|r| !r.is_recursive()));
        prop_assert_eq!(program.rules.len() as u64, 1 + rank);

        let db = random_database(&lr, 16, 5, seed ^ 0x1234);
        let mut db1 = db.clone();
        let mut db2 = db;
        semi_naive(&mut db1, &lr.to_program(), None).unwrap();
        semi_naive(&mut db2, &program, None).unwrap();
        prop_assert_eq!(
            db1.get(lr.predicate).unwrap(),
            db2.get(lr.predicate).unwrap(),
            "rank bound {} too small for {} (seed {})", rank, lr.recursive_rule, seed
        );
    }

    /// Corollary 3 both ways: transformable iff only one-directional cycles;
    /// and bounded formulas are never equivalent to any stable formula
    /// unless they are also one-directional.
    #[test]
    fn corollary_3(seed in 0u64..1_000_000) {
        let rule = random_rule(seed, config());
        let c = Classification::of(&rule);
        let one_dir = c
            .component_classes
            .iter()
            .all(|k| k.is_one_directional());
        prop_assert_eq!(c.is_transformable_to_stable(), one_dir && !c.component_classes.is_empty());
    }
}
