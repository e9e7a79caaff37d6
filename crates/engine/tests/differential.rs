//! Differential property tests: on randomly generated linear recursions and
//! databases, the engine must compute exactly the oracle's fixpoint
//! (`recurs_datalog::eval::semi_naive`).
//!
//! The random rules span the paper's whole classification — one-directional
//! A1–A5, bounded B, unbounded C — so this exercises both kernels (bounded
//! unroll, generic) against the same reference. A second
//! group pins down the governance contract: capped runs of the engine and
//! the oracle produce *identical* tuple sets (the unified cap semantics), and
//! budgeted runs are sound under-approximations with truthful `Truncated`
//! reporting.

use proptest::prelude::*;
use recurs_core::plan::plan_query;
use recurs_datalog::database::Database;
use recurs_datalog::eval::{naive, semi_naive};
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::rule::{Program, Rule};
use recurs_datalog::term::{Atom, Term, Value};
use recurs_engine::run_linear;
use recurs_engine::{evaluate, run_program, CompiledProgram, EngineConfig, EngineDb};
use recurs_workload::{random_database, random_linear_recursion, RuleConfig};

/// IDB tuples `semi_naive` holds after `rounds` rounds (the seeding round
/// first) of `program` over `db`, from scratch — the level sets by the
/// reference, with nothing of the engine's round loop in them.
fn idb_after(db: &Database, program: &Program, rounds: usize) -> usize {
    let mut db = db.clone();
    if rounds > 0 {
        semi_naive(&mut db, program, Some(rounds)).expect("oracle runs under cap");
    }
    let idb = program.idb_predicates();
    idb.iter()
        .filter_map(|&p| db.get(p))
        .map(|rel| rel.len())
        .sum()
}

/// `program` with one atom appended to every rule: a copy of one of its EDB
/// atoms over terms the body already binds — a variable, or now and then a
/// constant of `1..=domain` — so the last atom of every rule is fully bound.
/// `picks` drives every choice.
fn with_bound_last_atoms(program: &Program, picks: &[usize], domain: u64) -> Program {
    let idb = program.idb_predicates();
    let edb: Vec<&Atom> = (program.rules.iter().flat_map(|r| &r.body))
        .filter(|a| !idb.contains(&a.predicate))
        .collect();
    let mut picks = picks.iter().cycle();
    let mut pick = |n: usize| picks.next().map_or(0, |p| p % n);
    let rules = program.rules.iter().map(|rule| {
        let vars: Vec<Term> = (rule.body.iter().flat_map(|a| &a.terms))
            .filter(|t| t.is_var())
            .copied()
            .collect();
        let like = edb[pick(edb.len())];
        let terms = (0..like.arity())
            .map(|_| match vars.get(pick(vars.len() + 1)) {
                Some(&var) => var,
                None => Term::Const(Value::from_u64(pick(domain as usize) as u64 + 1)),
            })
            .collect();
        let mut body = rule.body.clone();
        body.push(Atom::new(like.predicate, terms));
        Rule::new(rule.head.clone(), body)
    });
    Program::new(rules.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A level of the engine is a round of the reference: for every query
    /// form of a random linear recursion — so frontier, magic, bounded and
    /// saturate lowerings — the lowered program's level `k` adds exactly
    /// `|semi_naive(cap k + 1)| − |semi_naive(cap k)|` tuples, counted over
    /// the same lowered, seeded program. (A driver that let a tuple join
    /// its own level — fresh rows read by a later rule of the round that
    /// found them — would show here as a level that adds too much and a
    /// run that ends early.)
    #[test]
    fn each_level_adds_what_a_reference_round_adds(
        rule_seed in 0u64..10_000,
        db_seed in 0u64..10_000,
        tuples in 1usize..20,
        domain in 2u64..6,
        constant in 1u64..6,
    ) {
        let lr = random_linear_recursion(rule_seed, RuleConfig::default());
        let edb = random_database(&lr, tuples, domain, db_seed);
        let base = EngineDb::from(&edb);
        let n = lr.dimension();
        for form in 0..1u32 << n {
            let terms = (0..n).map(|i| match form >> i & 1 {
                1 => Term::Const(Value::from_u64(1 + (constant + i as u64) % domain)),
                _ => Term::var(&format!("v{i}")),
            });
            let query = Atom::new(lr.predicate, terms.collect());
            let plan = plan_query(&lr, &query).expect("plans");
            let lowered = plan.lower(&query).expect("lowers");
            let run = evaluate(&plan, &query, &base, &EngineConfig::default(), |_| None)
                .expect("evaluates");
            prop_assert!(run.saturation.outcome.is_complete());

            let mut seeded = edb.clone();
            let rules = lowered.program.rules.iter();
            for atom in rules.flat_map(|r| std::iter::once(&r.head).chain(&r.body)) {
                seeded.declare(atom.predicate, atom.arity()).expect("declares");
            }
            if let Some((pred, constants)) = &lowered.seed {
                seeded.insert(*pred, constants.clone()).expect("seeds");
            }
            for (k, level) in run.saturation.stats.iterations.iter().enumerate() {
                let before = idb_after(&seeded, lowered.program, k);
                let after = idb_after(&seeded, lowered.program, k + 1);
                prop_assert_eq!(
                    level.new_tuples, after - before,
                    "level {} of {} ({}), rule_seed={} db_seed={}",
                    k, query, plan.strategy.label(), rule_seed, db_seed
                );
            }
        }
    }

    #[test]
    fn engine_matches_oracle_on_random_workloads(
        rule_seed in 0u64..10_000,
        db_seed in 0u64..10_000,
        tuples in 1usize..40,
        domain in 2u64..8,
    ) {
        let lr = random_linear_recursion(rule_seed, RuleConfig::default());
        let mut oracle_db = random_database(&lr, tuples, domain, db_seed);
        let edb = oracle_db.clone();
        semi_naive(&mut oracle_db, &lr.to_program(), None)
            .expect("oracle saturates generated workloads");
        let expected = oracle_db.get("P").expect("IDB is materialized");

        let mut db = edb.clone();
        let sat = run_linear(&mut db, &lr, &EngineConfig::default())
            .expect("engine saturates generated workloads");
        let got = db.get("P").expect("IDB is materialized");
        prop_assert_eq!(
            expected, got,
            "rule_seed={} db_seed={} rule={}",
            rule_seed, db_seed, lr.recursive_rule
        );
        prop_assert!(sat.outcome.is_complete(), "uncapped run reported truncation");
        let rank = recurs_core::Classification::of(&lr.recursive_rule).rank_bound();
        prop_assert_eq!(
            sat.stats.round_cap, rank,
            "run_linear caps the run at the rank bound"
        );
    }

    /// A step that binds every column of its atom is a lookup in the dedup
    /// table, not an index probe: no compiled pipeline names an index keyed
    /// on every column of its relation, and the fixpoint is `naive`'s.
    #[test]
    fn fully_bound_last_atoms_look_up_and_match_naive(
        rule_seed in 0u64..10_000,
        db_seed in 0u64..10_000,
        tuples in 1usize..30,
        domain in 2u64..6,
        picks in proptest::collection::vec(0usize..1_000, 16..17),
    ) {
        let lr = random_linear_recursion(rule_seed, RuleConfig::default());
        let program = with_bound_last_atoms(&lr.to_program(), &picks, domain);
        let edb = random_database(&lr, tuples, domain, db_seed);

        let store = EngineDb::from(&edb);
        let compiled = CompiledProgram::compile(&program, &store).expect("compiles");
        for (pred, cols) in compiled.required_indexes() {
            let arity = store.get(pred).map_or(usize::MAX, |r| r.arity());
            prop_assert!(cols.len() < arity, "{} is indexed on every column", pred);
        }

        let mut oracle_db = edb.clone();
        naive(&mut oracle_db, &program, None).expect("naive saturates");
        let mut db = edb;
        let sat = run_program(&mut db, &program, &EngineConfig::default())
            .expect("engine saturates");
        prop_assert!(sat.outcome.is_complete());
        prop_assert_eq!(
            oracle_db.get("P"), db.get("P"),
            "rule_seed={} db_seed={} program={:?}",
            rule_seed, db_seed, program
        );
    }

    /// Unified cap semantics: under the same iteration cap, the oracle and
    /// the engine stop with *identical* tuple sets. (The generic kernel is
    /// forced so the engine detects the fixpoint the same way the oracle
    /// does; rank-bound kernels may legitimately stop earlier than a cap.)
    #[test]
    fn capped_runs_agree_across_all_engines(
        rule_seed in 0u64..10_000,
        db_seed in 0u64..10_000,
        cap in 1usize..6,
    ) {
        let lr = random_linear_recursion(rule_seed, RuleConfig::default());
        let edb = random_database(&lr, 25, 6, db_seed);
        let program = lr.to_program();

        let mut oracle_db = edb.clone();
        let oracle_stats = semi_naive(&mut oracle_db, &program, Some(cap))
            .expect("oracle runs under cap");
        let expected = oracle_db.get("P").expect("IDB is materialized");

        let mut db = edb.clone();
        let config = EngineConfig {
            budget: EvalBudget::iteration_cap(Some(cap)),
            ..EngineConfig::default()
        };
        let sat = run_program(&mut db, &program, &config)
            .expect("engine runs under cap");
        let got = db.get("P").expect("IDB is materialized");
        prop_assert_eq!(
            expected, got,
            "cap={} rule_seed={} db_seed={} rule={}",
            cap, rule_seed, db_seed, lr.recursive_rule
        );
        prop_assert_eq!(
            sat.stats.round_cap, None,
            "run_program uses the generic kernel"
        );
        // Both sides agree on *whether* the cap truncated the run.
        prop_assert_eq!(
            sat.outcome.truncation().is_some(), oracle_stats.truncated,
            "cap={}: engine and oracle disagree on truncation",
            cap
        );
    }

    /// Truncation invariants, for every class and a spread of budget
    /// settings: a budgeted run's output is a subset of the fixpoint;
    /// a run reporting `Complete` equals the fixpoint; and a proper subset
    /// is always reported as `Truncated`. (The converse — `Truncated`
    /// implying a proper subset — does not hold at the boundary: proving
    /// the subset complete would cost the very iteration the budget
    /// forbids. See DESIGN.md "Failure semantics".)
    #[test]
    fn budgeted_runs_are_sound_underapproximations(
        rule_seed in 0u64..10_000,
        db_seed in 0u64..10_000,
        budget_kind in 0usize..3,
        knob in 1usize..8,
    ) {
        let lr = random_linear_recursion(rule_seed, RuleConfig::default());
        let edb = random_database(&lr, 25, 6, db_seed);
        let program = lr.to_program();

        let mut oracle_db = edb.clone();
        semi_naive(&mut oracle_db, &program, None).expect("oracle saturates");
        let full = oracle_db.get("P").expect("IDB is materialized");

        let budget = match budget_kind {
            0 => EvalBudget::iteration_cap(Some(knob)),
            1 => EvalBudget::unlimited().with_max_tuples(knob * 8),
            _ => EvalBudget::iteration_cap(Some(knob)).with_max_tuples(knob * 4),
        };

        let mut db = edb.clone();
        let config = EngineConfig { budget: budget.clone(), ..EngineConfig::default() };
        let sat = run_program(&mut db, &program, &config).expect("budgeted run succeeds");
        let partial = db.get("P").expect("IDB is materialized");
        for t in partial.iter() {
            prop_assert!(full.contains(t), "budgeted run derived a tuple outside the fixpoint");
        }
        prop_assert!(partial.len() <= full.len());
        if sat.outcome.is_complete() {
            prop_assert_eq!(full, partial, "run claimed Complete but missed tuples");
        }
        if partial.len() < full.len() {
            prop_assert!(
                sat.outcome.truncation().is_some(),
                "proper under-approximation not reported as Truncated (budget={:?})",
                budget
            );
        }
    }
}
