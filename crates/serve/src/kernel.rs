//! Class-aware point-query kernels.
//!
//! The paper's classification pays off at query time: most selected queries
//! never need the full fixpoint. The dispatch table, applied per query
//! against the service's precomputed [`Classification`]:
//!
//! | Condition                                        | Kernel                     |
//! |--------------------------------------------------|----------------------------|
//! | proven rank bound (A2/A4, bounded B, acyclic D)  | [`PointKernelKind::BoundedUnroll`] — evaluate the `rank + 1` non-recursive levels with the query constants pushed in, as one seeding round; **no fixpoint loop ever runs** |
//! | one-directional (A1/A3/A5) and ≥ 1 bound argument | [`PointKernelKind::MagicIterate`] — iterate the magic-transformed program from `recurs_core::magic` seeded with the query constants, under the query budget |
//! | class C/E/F, or an all-free query                | [`PointKernelKind::FullSaturation`] — governed full saturation with the engine kernel selected from the classification |
//!
//! All three are one helper ([`evaluate`]) given a different program: it
//! clones the snapshot's store — sharing every base relation, copying none —
//! adds the run's private seed / magic / answer relations, saturates, and
//! selects the answer. Every kernel returns the existing
//! `Complete | Truncated` contract: a truncated answer is always a sound
//! under-approximation of the true answer set.

use crate::error::ServeError;
use crate::snapshot::{Snapshot, SnapshotStore};
use recurs_core::{bounded, magic, Classification};
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::govern::{EvalBudget, Outcome};
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::rule::{LinearRecursion, Program, Rule};
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::{Atom, Term};
use recurs_engine::{CompiledProgram, EngineConfig, EngineDb, EngineError, KernelKind};
use recurs_obs::Obs;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Which point-query kernel the dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKernelKind {
    /// Rank-bounded unrolling: the formula is provably bounded, so the
    /// answer is the union of `rank + 1` non-recursive levels. Runs no
    /// fixpoint loop at all.
    BoundedUnroll {
        /// The proven rank bound.
        rank: u64,
    },
    /// Magic-sets iteration seeded with the query's constants: only tuples
    /// reachable from the query's bindings are derived.
    MagicIterate,
    /// Governed full saturation of the recursion, then a select/project of
    /// the query over the fixpoint.
    FullSaturation,
    /// Select/project over the service's incrementally maintained
    /// materialization of the recursion — no evaluation at all. Used when
    /// the view's version matches the query's snapshot.
    MaterializedView,
}

impl PointKernelKind {
    /// Low-cardinality dispatch-family label for metrics: `"bounded"`,
    /// `"magic"`, `"saturate"`, or `"materialized"` (the rank is dropped so
    /// label sets stay bounded regardless of the served program).
    pub fn family(&self) -> &'static str {
        match self {
            PointKernelKind::BoundedUnroll { .. } => "bounded",
            PointKernelKind::MagicIterate => "magic",
            PointKernelKind::FullSaturation => "saturate",
            PointKernelKind::MaterializedView => "materialized",
        }
    }

    /// Short label for reports, e.g. `"bounded(2)"`, `"magic"`, `"saturate"`.
    pub fn label(&self) -> String {
        match self {
            PointKernelKind::BoundedUnroll { rank } => format!("bounded({rank})"),
            PointKernelKind::MagicIterate => "magic".to_string(),
            PointKernelKind::FullSaturation => "saturate".to_string(),
            PointKernelKind::MaterializedView => "materialized".to_string(),
        }
    }
}

impl serde::Serialize for PointKernelKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::string(self.label())
    }
}

/// One answered point query.
#[derive(Debug)]
pub struct PointAnswer {
    /// The answer relation, over the query's distinct variables in
    /// first-occurrence order (arity 0 = boolean query: non-empty means yes).
    pub answers: Relation,
    /// Complete, or soundly truncated by the budget.
    pub outcome: Outcome,
    /// The kernel that produced the answer.
    pub kernel: PointKernelKind,
    /// Fixpoint iterations run (always 0 for the bounded kernel — the
    /// acceptance criterion "iterations ≤ computed rank" holds trivially).
    pub fixpoint_iterations: usize,
    /// Tuples derived while answering.
    pub tuples_derived: usize,
}

/// Precompiled per-program state shared by all queries: the classification,
/// the bounded plan (if the formula is provably bounded), the saturation
/// program, and a lazily-built cache of magic plans keyed by query form.
#[derive(Debug)]
pub struct PointPlans {
    lr: LinearRecursion,
    classification: Classification,
    full_program: Program,
    bounded: Option<bounded::BoundedPlan>,
    magic: Mutex<HashMap<QueryForm, Arc<magic::MagicPlan>>>,
}

impl PointPlans {
    /// Classifies the recursion and precompiles what can be precompiled.
    pub fn new(lr: LinearRecursion) -> PointPlans {
        let classification = Classification::of(&lr.recursive_rule);
        let bounded = bounded::build_plan(&lr);
        let full_program = lr.to_program();
        PointPlans {
            lr,
            classification,
            full_program,
            bounded,
            magic: Mutex::new(HashMap::new()),
        }
    }

    /// The recursion being served.
    pub fn recursion(&self) -> &LinearRecursion {
        &self.lr
    }

    /// The classification driving kernel dispatch.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// Applies the dispatch table (see module docs) to a query atom.
    pub fn select(&self, query: &Atom) -> PointKernelKind {
        if let Some(plan) = &self.bounded {
            return PointKernelKind::BoundedUnroll { rank: plan.rank };
        }
        let has_bound_arg = query.terms.iter().any(|t| !t.is_var());
        if self.classification.is_transformable_to_stable() && has_bound_arg {
            return PointKernelKind::MagicIterate;
        }
        PointKernelKind::FullSaturation
    }

    /// Answers `query` against `snapshot` (a version `snapshots` published)
    /// under `budget` with the selected kernel. The snapshot is only read:
    /// every kernel saturates a private clone of its store.
    pub fn answer(
        &self,
        snapshots: &SnapshotStore,
        snapshot: &Snapshot,
        query: &Atom,
        budget: &EvalBudget,
        obs: &Obs,
    ) -> Result<PointAnswer, ServeError> {
        if query.predicate != self.lr.predicate {
            return Err(ServeError::WrongPredicate {
                got: query.predicate,
                serves: self.lr.predicate,
            });
        }
        let expected = self.lr.recursive_rule.head.arity();
        if query.arity() != expected {
            return Err(ServeError::Datalog(
                recurs_datalog::error::DatalogError::ArityMismatch {
                    predicate: query.predicate,
                    expected,
                    found: query.arity(),
                },
            ));
        }
        let run = Run {
            snapshots,
            snapshot,
            config: EngineConfig {
                budget: budget.clone(),
                obs: obs.clone(),
            },
        };
        let kind = self.select(query);
        match (kind, &self.bounded) {
            // The levels with the query constants pushed in, deriving a
            // private answer relation over the query's distinct variables:
            // a non-recursive program, so the rank-0 cap ends the run after
            // the seeding round — no fixpoint loop, whatever the budget.
            (PointKernelKind::BoundedUnroll { .. }, Some(plan)) => {
                let answers = Symbol::intern("__serve_answer");
                let levels = plan.levels.rules.iter().filter_map(|level| {
                    let level = bounded::specialize(level, query)?;
                    Some(Rule::new(Atom::new(answers, level.head.terms), level.body))
                });
                let vars = query.distinct_variables();
                let answer = Atom::new(answers, vars.into_iter().map(Term::Var).collect());
                let unroll = KernelKind::BoundedUnroll { rank: 0 };
                let point =
                    run.evaluate(&Program::new(levels.collect()), unroll, None, &answer, kind)?;
                Ok(PointAnswer {
                    fixpoint_iterations: 0,
                    ..point
                })
            }
            // Seed the magic predicate with the query constants and run the
            // rewritten program; the answer is the adorned predicate's.
            (PointKernelKind::MagicIterate, _) => {
                let plan = self.magic_plan(&QueryForm::of_atom(query));
                let constants: Tuple = query.terms.iter().filter_map(Term::as_const).collect();
                let seed = plan.seed_predicate.map(|pred| (pred, constants));
                let answer = Atom::new(plan.answer_predicate, query.terms.clone());
                run.evaluate(&plan.program, KernelKind::Generic, seed, &answer, kind)
            }
            // Saturate the recursion itself with the engine kernel the
            // classification selects. (The materialized-view kernel lives in
            // the service — it needs the maintained view; `select` never
            // returns it, and without a view saturation is the answer.)
            _ => {
                let kernel = recurs_engine::select_kernel(&self.classification);
                let kind = PointKernelKind::FullSaturation;
                run.evaluate(&self.full_program, kernel, None, query, kind)
            }
        }
    }

    fn magic_plan(&self, form: &QueryForm) -> Arc<magic::MagicPlan> {
        let mut plans = self.magic.lock().unwrap_or_else(PoisonError::into_inner);
        plans
            .entry(form.clone())
            .or_insert_with(|| Arc::new(magic::build_plan(&self.lr, form)))
            .clone()
    }
}

/// What every kernel of one request runs against: the snapshot it answers
/// at, the chain that published it, and the request's budget and recorder.
struct Run<'a> {
    snapshots: &'a SnapshotStore,
    snapshot: &'a Snapshot,
    config: EngineConfig,
}

impl Run<'_> {
    /// The one kernel body: clones the snapshot's store (every base relation
    /// shared), adds what the run owns — the relations `program` and `answer`
    /// mention that the snapshot lacks, and `seed` — saturates, and selects
    /// `answer` from the store: a possibly under-approximated fixpoint the
    /// snapshot never sees.
    ///
    /// Indexes the pipelines probe on the snapshot's relations are the
    /// snapshot's to hold: any it lacks are built once by
    /// [`SnapshotStore::with_indexes`] and the run restarts from the
    /// republished store, so no miss after the first of its query form
    /// builds an index on a base relation. (Only if an update is installed
    /// in that very window does the query stay on its own version and index
    /// its private clone.)
    fn evaluate(
        &self,
        program: &Program,
        engine_kernel: KernelKind,
        seed: Option<(Symbol, Tuple)>,
        answer: &Atom,
        kernel: PointKernelKind,
    ) -> Result<PointAnswer, ServeError> {
        let private = |base: &EngineDb| -> Result<EngineDb, ServeError> {
            let mut store = base.clone();
            let rules = program.rules.iter();
            let atoms = rules.flat_map(|r| std::iter::once(&r.head).chain(&r.body));
            for atom in atoms.chain([answer]) {
                store.declare(atom.predicate, atom.arity())?;
            }
            if let Some((pred, constants)) = &seed {
                store.declare(*pred, constants.len())?;
                if let Some(seeds) = store.get_mut(*pred) {
                    seeds.insert(constants.clone());
                }
            }
            Ok(store)
        };
        let mut store = private(self.snapshot.store())?;
        let compiled = CompiledProgram::compile(program, &store)?;
        let missing = self
            .snapshot
            .store()
            .missing_indexes(compiled.required_indexes());
        if !missing.is_empty() {
            let indexed = self.snapshots.with_indexes(&missing);
            if indexed.version() == self.snapshot.version() {
                store = private(indexed.store())?;
            }
        }
        let sat = recurs_engine::saturate(&mut store, &compiled, engine_kernel, &self.config)?;
        let stored = store.get(answer.predicate).ok_or(EngineError::Internal(
            "the saturated program never declared its answer predicate",
        ))?;
        Ok(PointAnswer {
            answers: recurs_engine::select(stored, answer),
            outcome: sat.outcome,
            kernel,
            fixpoint_iterations: sat.stats.iteration_count(),
            tuples_derived: sat.stats.tuples_derived,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::database::Database;
    use recurs_datalog::parser::{parse_atom, parse_program};
    use recurs_datalog::validate::validate_with_generic_exit;

    fn lr(src: &str) -> LinearRecursion {
        validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
    }

    fn tc() -> LinearRecursion {
        lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
    }

    fn tc_db(n: u64) -> Database {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db.insert_relation("E", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db
    }

    fn oracle(f: &LinearRecursion, db: &Database, query: &Atom) -> Relation {
        recurs_core::oracle::ground_truth(f, db, query).unwrap().0
    }

    /// `plans.answer` over `db` published as version 0.
    fn answer(
        plans: &PointPlans,
        db: &Database,
        query: &Atom,
        budget: &EvalBudget,
    ) -> Result<PointAnswer, ServeError> {
        let snapshots = SnapshotStore::new(db.into());
        plans.answer(&snapshots, &snapshots.load(), query, budget, &Obs::noop())
    }

    #[test]
    fn tc_bound_query_uses_magic_and_matches_oracle() {
        let f = tc();
        let plans = PointPlans::new(f.clone());
        let db = tc_db(12);
        let q = parse_atom("P(3, y)").unwrap();
        assert_eq!(plans.select(&q), PointKernelKind::MagicIterate);
        let got = answer(&plans, &db, &q, &EvalBudget::unlimited()).unwrap();
        assert!(got.outcome.is_complete());
        assert_eq!(got.answers, oracle(&f, &db, &q));
    }

    #[test]
    fn tc_all_free_query_falls_back_to_saturation() {
        let f = tc();
        let plans = PointPlans::new(f.clone());
        let db = tc_db(8);
        let q = parse_atom("P(x, y)").unwrap();
        assert_eq!(plans.select(&q), PointKernelKind::FullSaturation);
        let got = answer(&plans, &db, &q, &EvalBudget::unlimited()).unwrap();
        assert!(got.outcome.is_complete());
        assert_eq!(got.answers, oracle(&f, &db, &q));
    }

    #[test]
    fn bounded_formula_selects_bounded_kernel_with_zero_iterations() {
        // The paper's s5 rotation: pure permutational A2, rank lcm-1 = 2.
        let f = lr("P(x, y, z) :- P(y, z, x).");
        let plans = PointPlans::new(f.clone());
        let mut db = Database::new();
        db.insert_relation(
            "E",
            Relation::from_tuples(
                3,
                [
                    recurs_datalog::relation::tuple_u64([1, 2, 3]),
                    recurs_datalog::relation::tuple_u64([4, 5, 6]),
                ],
            ),
        );
        let q = parse_atom("P(2, y, z)").unwrap();
        let kernel = plans.select(&q);
        assert_eq!(kernel, PointKernelKind::BoundedUnroll { rank: 2 });
        let got = answer(&plans, &db, &q, &EvalBudget::unlimited()).unwrap();
        assert!(got.outcome.is_complete());
        assert_eq!(got.fixpoint_iterations, 0);
        assert_eq!(got.answers, oracle(&f, &db, &q));
    }

    #[test]
    fn wrong_predicate_is_a_typed_error() {
        let plans = PointPlans::new(tc());
        let db = tc_db(4);
        let q = parse_atom("Q(1, y)").unwrap();
        let err = answer(&plans, &db, &q, &EvalBudget::unlimited()).unwrap_err();
        assert!(matches!(err, ServeError::WrongPredicate { .. }));
    }

    #[test]
    fn wrong_arity_is_a_typed_error() {
        let plans = PointPlans::new(tc());
        let db = tc_db(4);
        let q = parse_atom("P(1, y, z)").unwrap();
        let err = answer(&plans, &db, &q, &EvalBudget::unlimited()).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Datalog(recurs_datalog::error::DatalogError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn cancelled_budget_truncates_soundly() {
        let f = tc();
        let plans = PointPlans::new(f.clone());
        let db = tc_db(10);
        let token = recurs_datalog::govern::CancelToken::new();
        token.cancel();
        let budget = EvalBudget::unlimited().with_cancel(token);
        let q = parse_atom("P(1, y)").unwrap();
        let got = answer(&plans, &db, &q, &budget).unwrap();
        assert!(!got.outcome.is_complete());
        // Sound under-approximation: a subset of the true answers.
        let want = oracle(&f, &db, &q);
        for t in got.answers.iter() {
            assert!(want.contains(t));
        }
    }
}
