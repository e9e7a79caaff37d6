//! The central equivalence property: for random valid formulas, random
//! databases, and random query forms, the compiled plan — whichever lowering
//! the planner picks, run by the engine's executor as `recurs run` and
//! `serve` run it — returns exactly the semi-naive fixpoint's answers.

use proptest::prelude::*;
use recurs_engine::oracle::compare;
use recurs_workload::queries::{random_database, random_query};
use recurs_workload::rules::{random_linear_recursion, RuleConfig};

fn config() -> RuleConfig {
    RuleConfig {
        min_dim: 1,
        max_dim: 3,
        max_extra_atoms: 3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn plans_agree_with_fixpoint(
        rule_seed in 0u64..100_000,
        db_seed in 0u64..1_000,
        query_seed in 0u64..1_000,
        bound_prob in prop::sample::select(vec![0u32, 35, 65, 100]),
    ) {
        let lr = random_linear_recursion(rule_seed, config());
        // Small domain so random constants hit data and chains connect.
        let db = random_database(&lr, 20, 5, db_seed);
        let query = random_query(&lr, 5, bound_prob, query_seed);
        let report = compare(&lr, &db, &query)
            .unwrap_or_else(|e| panic!("planning failed for {}: {e}", lr.recursive_rule));
        prop_assert!(
            report.agrees(),
            "strategy {:?} diverged for {} on query {} (seeds {rule_seed}/{db_seed}/{query_seed})\nplan: {}\noracle: {}",
            report.strategy,
            lr.recursive_rule,
            query,
            report.plan_answers,
            report.oracle_answers,
        );
    }

    /// Denser databases exercise the cyclic-data paths of the frontier walk
    /// (the frontier set saturating) harder.
    #[test]
    fn plans_agree_on_dense_cyclic_data(
        rule_seed in 0u64..50_000,
        db_seed in 0u64..500,
    ) {
        let lr = random_linear_recursion(rule_seed, config());
        let db = random_database(&lr, 40, 3, db_seed); // tiny domain → cycles
        for (i, bound_prob) in [0u32, 50, 100].into_iter().enumerate() {
            let query = random_query(&lr, 3, bound_prob, db_seed ^ (i as u64));
            let report = compare(&lr, &db, &query).unwrap();
            prop_assert!(
                report.agrees(),
                "strategy {:?} diverged for {} on {} (dense, seeds {rule_seed}/{db_seed})",
                report.strategy,
                lr.recursive_rule,
                query,
            );
        }
    }
}
