//! One round driver, two merges, and the ranks `why` reads off them: on
//! random linear rules and EDBs, the engine's bulk set-insert merge and the
//! maintenance layer's row-by-row one must both land on the oracle's
//! fixpoint — and the rank `why` reports for a tuple (the length
//! of its shortest derivation, found by walking the saturated store) must
//! be the engine round whose `IterationStats::new_tuples` first counted it.

use proptest::prelude::*;
use recurs_datalog::eval::semi_naive;
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::relation::{Relation, Tuple};
use recurs_engine::EngineDb;
use recurs_engine::{run_program, EngineConfig};
use recurs_ivm::{explain_fact, Materialization, WhyOutcome};
use recurs_obs::Obs;
use recurs_workload::{random_database, random_linear_recursion, RuleConfig};
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn set_count_and_rank_merges_agree_with_the_oracle(
        rule_seed in 0u64..10_000,
        db_seed in 0u64..10_000,
        tuples in 1usize..20,
        domain in 2u64..6,
    ) {
        let lr = random_linear_recursion(rule_seed, RuleConfig::default());
        let edb = random_database(&lr, tuples, domain, db_seed);
        let program = lr.to_program();
        let unlimited = EvalBudget::unlimited();

        let mut oracle_db = edb.clone();
        semi_naive(&mut oracle_db, &program, None).expect("oracle saturates");
        let fixpoint = oracle_db.get(lr.predicate).expect("IDB is materialized");

        // Set merge: the engine's fixpoint, and how many tuples each round
        // added.
        let mut db = edb.clone();
        let sat = run_program(&mut db, &program, &EngineConfig::default())
            .expect("engine saturates");
        prop_assert_eq!(db.get(lr.predicate).expect("IDB is materialized"), fixpoint);

        // The maintenance layer's merge: the view it saturates.
        let mat = Materialization::saturate(&lr, &edb, &unlimited, &Obs::noop())
            .expect("materialization saturates");
        prop_assert_eq!(&mat.relation().to_relation(), fixpoint);

        // Ranks: `why` with no recursive steps allowed answers with the
        // rank of anything deeper than the seeding round, found by its walk
        // over the saturated store.
        let mut ranked: BTreeMap<u64, Vec<Tuple>> = BTreeMap::new();
        let store = EngineDb::from(&edb);
        for t in fixpoint.iter() {
            let rank = match explain_fact(&lr, &store, t, 0, &unlimited).expect("why succeeds") {
                WhyOutcome::Derived(_) => 0,
                WhyOutcome::DepthExceeded { rank, .. } => rank,
                WhyOutcome::NotDerived => {
                    return Err(TestCaseError::fail(format!("no rank for fixpoint tuple {t:?}")));
                }
            };
            ranked.entry(rank).or_default().push(t.clone());
        }

        // Rank r is engine round r: the round's `new_tuples` is the size of
        // the rank class, and the class is exactly what an iteration cap of
        // r + 1 rounds adds over a cap of r.
        let mut seen = Relation::new(lr.dimension());
        for (round, it) in sat.stats.iterations.iter().enumerate() {
            let class = ranked.remove(&(round as u64)).unwrap_or_default();
            prop_assert_eq!(it.new_tuples, class.len(), "round {} of {}", round, lr.recursive_rule);
            let mut capped = edb.clone();
            let config = EngineConfig {
                budget: EvalBudget::iteration_cap(Some(round + 1)),
                ..EngineConfig::default()
            };
            run_program(&mut capped, &program, &config).expect("capped engine run");
            let reached = capped.get(lr.predicate).expect("IDB is materialized");
            for t in &class {
                prop_assert!(!seen.contains(t) && reached.contains(t), "rank {} ≠ round of {:?}", round, t);
            }
            seen = reached.clone();
        }
        prop_assert!(ranked.is_empty(), "ranks past the engine's last round: {:?}", ranked);
    }
}
