//! Point queries against a snapshot: the plan cache and the snapshot hooks
//! around the one executor.
//!
//! Which program answers a query is `recurs_core::plan`'s table — bounded
//! levels, the counting formula as a frontier walk, the magic rewrite, or
//! the recursion itself — and `recurs_engine::evaluate` runs it. What is
//! left here is what only a server has: a [`QueryPlan`] per query form,
//! built once (`PointPlans`); the index republish, so a pipeline's indexes
//! travel with the snapshot instead of being rebuilt miss after miss; the
//! served-predicate error; and [`PointKernelKind`], the reply's name for
//! what ran (the plan's strategy, or the materialized view, which the
//! service answers from without coming here). Every reply keeps the
//! `Complete | Truncated` contract: a truncated answer is always a sound
//! under-approximation of the true answer set.

use crate::error::ServeError;
use crate::snapshot::{Snapshot, SnapshotStore};
use recurs_core::plan::{plan_query, QueryPlan, StrategyKind};
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::term::Atom;
use recurs_engine::{EngineConfig, Evaluation};
use recurs_obs::Obs;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// What answered a point query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKernelKind {
    /// The query's plan ran: its lowering, and a bounded plan's proven
    /// rank (the planner lowers to bounded levels exactly when the class
    /// proves one), which the label prints.
    Plan {
        /// The lowering the plan executes.
        strategy: StrategyKind,
        /// The proven rank bound, for a bounded plan.
        rank: Option<u64>,
    },
    /// Select/project over the service's incrementally maintained
    /// materialization of the recursion — no evaluation at all. Used when
    /// the view's version matches the query's snapshot.
    MaterializedView,
}

impl PointKernelKind {
    /// The name of the lowering `plan` executes.
    pub fn of(plan: &QueryPlan) -> PointKernelKind {
        PointKernelKind::Plan {
            strategy: plan.strategy,
            rank: plan.classification.rank_bound(),
        }
    }

    /// Every family label, in the order `!stats` lists them: the planner's
    /// lowerings, then the view.
    pub(crate) fn families() -> impl Iterator<Item = &'static str> {
        let view = PointKernelKind::MaterializedView.family();
        StrategyKind::ALL
            .iter()
            .map(StrategyKind::label)
            .chain([view])
    }

    /// Low-cardinality dispatch-family label for metrics: the lowering's
    /// [`StrategyKind::label`], or `"materialized"` (the rank is dropped so
    /// label sets stay bounded regardless of the served program).
    pub fn family(&self) -> &'static str {
        match self {
            PointKernelKind::Plan { strategy, .. } => strategy.label(),
            PointKernelKind::MaterializedView => "materialized",
        }
    }

    /// Short label for reports, e.g. `"bounded(2)"`, `"frontier"`: the
    /// family, but for the rank.
    pub fn label(&self) -> Cow<'static, str> {
        match self {
            PointKernelKind::Plan {
                strategy,
                rank: Some(rank),
            } => Cow::Owned(format!("{}({rank})", strategy.label())),
            other => Cow::Borrowed(other.family()),
        }
    }
}

/// Per-program state shared by all queries: the recursion and a lazily
/// built plan per query form.
#[derive(Debug)]
pub(crate) struct PointPlans {
    lr: LinearRecursion,
    plans: Mutex<HashMap<QueryForm, Arc<QueryPlan>>>,
}

impl PointPlans {
    /// Plans are built on first use of a form.
    pub(crate) fn new(lr: LinearRecursion) -> PointPlans {
        let plans = Mutex::new(HashMap::new());
        PointPlans { lr, plans }
    }

    /// The recursion being served.
    pub(crate) fn recursion(&self) -> &LinearRecursion {
        &self.lr
    }

    /// The plan for `query`'s form, or the typed error for a query that is
    /// not over the served predicate at its arity.
    pub(crate) fn plan(&self, query: &Atom) -> Result<Arc<QueryPlan>, ServeError> {
        if query.predicate != self.lr.predicate {
            return Err(ServeError::WrongPredicate {
                got: query.predicate,
                serves: self.lr.predicate,
            });
        }
        // A query at the wrong arity has a form no plan is cached under, and
        // planning it is the typed arity error.
        let form = QueryForm::of_atom(query);
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(plan) = plans.get(&form) {
            return Ok(plan.clone());
        }
        let plan = Arc::new(plan_query(&self.lr, query)?);
        plans.insert(form, plan.clone());
        Ok(plan)
    }

    /// What answers `query` on a miss: the name of its plan's lowering.
    pub(crate) fn select(&self, query: &Atom) -> Result<PointKernelKind, ServeError> {
        Ok(PointKernelKind::of(&*self.plan(query)?))
    }

    /// Answers `query` with `plan` — [`PointPlans::plan`]'s for it — against
    /// `snapshot` (a version `snapshots` published) under `budget`. The
    /// snapshot is only read: the executor saturates a private clone of its
    /// store.
    ///
    /// Indexes the pipelines probe on the snapshot's relations are the
    /// snapshot's to hold: any it lacks are built once by
    /// [`SnapshotStore::with_indexes`] and the run restarts from the
    /// republished store, so no miss after the first of its query form
    /// builds an index on a base relation. (Only if an update is installed
    /// in that very window does the query stay on its own version and index
    /// its private clone.)
    pub(crate) fn answer(
        plan: &QueryPlan,
        snapshots: &SnapshotStore,
        snapshot: &Snapshot,
        query: &Atom,
        budget: &EvalBudget,
        obs: &Obs,
    ) -> Result<Evaluation, ServeError> {
        let config = EngineConfig {
            budget: budget.clone(),
            obs: obs.clone(),
        };
        let republish = |missing: &[_]| {
            let indexed = snapshots.with_indexes(missing);
            (indexed.version() == snapshot.version()).then(|| indexed.store().clone())
        };
        Ok(recurs_engine::evaluate(
            plan,
            query,
            snapshot.store(),
            &config,
            republish,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_core::{Classification, FormulaClass, OneDirectionalSubclass as Sub};
    use recurs_datalog::database::Database;
    use recurs_datalog::parser::{parse_atom, parse_program};
    use recurs_datalog::relation::Relation;
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
    ) -> Result<Evaluation, ServeError> {
        let snapshots = SnapshotStore::new(db.into());
        let plan = plans.plan(query)?;
        PointPlans::answer(
            &plan,
            &snapshots,
            &snapshots.load(),
            query,
            budget,
            &Obs::noop(),
        )
    }

    #[test]
    fn tc_bound_query_uses_magic_and_matches_oracle() {
        let f = tc();
        let plans = PointPlans::new(f.clone());
        let db = tc_db(12);
        // `P(x, c)`: the free position ascends through `A`, so magic runs
        // (its magic set is `{c}`: already linear).
        let q = parse_atom("P(x, 9)").unwrap();
        assert_eq!(plans.select(&q).unwrap().label(), "magic");
        let got = answer(&plans, &db, &q, &EvalBudget::unlimited()).unwrap();
        assert!(got.saturation.outcome.is_complete());
        assert_eq!(got.answers.to_relation(), oracle(&f, &db, &q));
    }

    #[test]
    fn tc_source_bound_query_walks_the_frontier() {
        let f = tc();
        let plans = PointPlans::new(f.clone());
        let db = tc_db(12);
        let q = parse_atom("P(3, y)").unwrap();
        assert_eq!(plans.select(&q).unwrap().label(), "frontier");
        let got = answer(&plans, &db, &q, &EvalBudget::unlimited()).unwrap();
        assert!(got.saturation.outcome.is_complete());
        assert_eq!(got.answers.to_relation(), oracle(&f, &db, &q));
        // 4..=12 reached, 4..=12 answered: linear in the reachable chain,
        // where magic derived P(z, y) for every reachable z.
        assert_eq!(got.saturation.stats.tuples_derived, 18);
    }

    #[test]
    fn tc_all_free_query_falls_back_to_saturation() {
        let f = tc();
        let plans = PointPlans::new(f.clone());
        let db = tc_db(8);
        let q = parse_atom("P(x, y)").unwrap();
        assert_eq!(plans.select(&q).unwrap().label(), "saturate");
        let got = answer(&plans, &db, &q, &EvalBudget::unlimited()).unwrap();
        assert!(got.saturation.outcome.is_complete());
        assert_eq!(got.answers.to_relation(), oracle(&f, &db, &q));
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
        let kernel = plans.select(&q).unwrap();
        assert_eq!(kernel.label(), "bounded(2)");
        let got = answer(&plans, &db, &q, &EvalBudget::unlimited()).unwrap();
        assert!(got.saturation.outcome.is_complete());
        // The seeding round evaluates the levels; no fixpoint iteration.
        assert_eq!(got.saturation.stats.iteration_count(), 1);
        assert_eq!(got.answers.to_relation(), oracle(&f, &db, &q));
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

    /// Its formula's class, the round cap a whole saturation of `f` runs
    /// under, and what answers `query` on a miss.
    fn kernels(f: &LinearRecursion, query: &str) -> (FormulaClass, Option<u64>, Cow<'static, str>) {
        let class = Classification::of(&f.recursive_rule).class;
        let mut db = recurs_workload::random_database(f, 12, 4, 7);
        let sat = recurs_engine::run_linear(&mut db, f, &EngineConfig::default()).unwrap();
        let plans = PointPlans::new(f.clone());
        let point = plans.select(&parse_atom(query).unwrap()).unwrap();
        (class, sat.stats.round_cap, point.label())
    }

    /// The paper's s3 — class A1 (all unit rotational): no rank, so a
    /// saturation runs the generic loop; a fully bound query walks the
    /// frontier of the compiled formula.
    #[test]
    fn a1_selects_frontier() {
        let f = lr("P(x,y,z) :- A(x,u), B(y,v), P(u,v,w), C(w,z).");
        let (class, kernel, point) = kernels(&f, "P(1, 2, 3)");
        assert_eq!(class, FormulaClass::OneDirectional(Sub::A1));
        assert_eq!(kernel, None);
        assert_eq!(point, "frontier");
    }

    /// The paper's s4a — class A3 (non-unit rotational): generic
    /// saturation; the fully bound form walks the frontier after the
    /// stable transform.
    #[test]
    fn a3_selects_frontier() {
        let f = lr("P(x1,x2,x3) :- A(x1,y3), B(x2,y1), C(y2,x3), P(y1,y2,y3).");
        let (class, kernel, point) = kernels(&f, "P(1, 11, 24)");
        assert_eq!(class, FormulaClass::OneDirectional(Sub::A3));
        assert_eq!(kernel, None);
        assert_eq!(point, "frontier");
    }

    /// Transitive closure — class A5 (A1 + A2 mix), one-directional:
    /// generic saturation; a source-bound query walks the frontier.
    #[test]
    fn transitive_closure_selects_frontier() {
        let f = lr("P(x, y) :- A(x, z), P(z, y).");
        let (class, kernel, point) = kernels(&f, "P(3, y)");
        assert_eq!(class, FormulaClass::OneDirectional(Sub::A5));
        assert_eq!(kernel, None);
        assert_eq!(point, "frontier");
    }

    /// A pure A2 formula has rank bound 0: bounded unrolling, zero
    /// recursive rounds, for a saturation and a query alike.
    #[test]
    fn a2_selects_bounded_unroll() {
        let f = lr("P(x, y) :- A(x), B(y), P(x, y).");
        let (class, kernel, point) = kernels(&f, "P(1, y)");
        assert_eq!(class, FormulaClass::OneDirectional(Sub::A2));
        assert_eq!(kernel, Some(0));
        assert_eq!(point, "bounded(0)");
    }

    /// The paper's s5 — class A4 (pure rotation permutation), rank bound
    /// lcm(3) − 1 = 2: bounded unrolling.
    #[test]
    fn a4_selects_bounded_unroll() {
        let f = lr("P(x, y, z) :- P(y, z, x).");
        let (class, kernel, point) = kernels(&f, "P(1, y, z)");
        assert_eq!(class, FormulaClass::OneDirectional(Sub::A4));
        assert_eq!(kernel, Some(2));
        assert_eq!(point, "bounded(2)");
    }

    /// The paper's s8 — class B, proven rank bound 2: bounded unrolling.
    #[test]
    fn class_b_selects_bounded_unroll() {
        let f = lr("P(x,y,z,u) :- A(x,y), B(y1,u), C(z1,u1), P(z,y1,z1,u1).");
        let (class, kernel, point) = kernels(&f, "P(1, y, z, u)");
        assert_eq!(class, FormulaClass::Bounded);
        assert_eq!(kernel, Some(2));
        assert_eq!(point, "bounded(2)");
    }

    /// The paper's s9 — class C (unbounded): the generic loop, and an
    /// all-free query saturates the recursion itself.
    #[test]
    fn class_c_selects_generic() {
        let f = lr("P(x, y, z) :- A(x, y), B(u, v), P(u, z, v).");
        let (class, kernel, point) = kernels(&f, "P(x, y, z)");
        assert_eq!(class, FormulaClass::Unbounded);
        assert_eq!(kernel, None);
        assert_eq!(point, "saturate");
    }

    /// The bounded-unroll kernel must stop at the rank *and* still agree
    /// with the oracle fixpoint (completeness is the theorems' claim; this
    /// checks we honor it end to end, without a fixpoint-detection round).
    #[test]
    fn bounded_unroll_agrees_with_oracle_and_skips_detection() {
        let f = lr("P(x, y, z) :- P(y, z, x).");
        let mut db = Database::new();
        db.insert_relation(
            "E",
            Relation::from_tuples(
                3,
                [
                    recurs_datalog::relation::tuple_u64([1, 2, 3]),
                    recurs_datalog::relation::tuple_u64([4, 4, 5]),
                ],
            ),
        );
        let all = parse_atom("P(x, y, z)").unwrap();
        let want = oracle(&f, &db, &all);
        let sat = recurs_engine::run_linear(&mut db, &f, &EngineConfig::default()).unwrap();
        assert_eq!(sat.stats.round_cap, Some(2));
        assert_eq!(db.get("P").unwrap(), &want);
        // All three rotations of each tuple.
        assert_eq!(want.len(), 6);
        // A rank-bound stop is completeness, not truncation.
        assert!(sat.outcome.is_complete());
        // Seed round + exactly rank recursive rounds, no trailing
        // fixpoint-detection iteration (the oracle needs one more).
        assert_eq!(sat.stats.iteration_count(), 3);
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
        assert!(!got.saturation.outcome.is_complete());
        // Sound under-approximation: a subset of the true answers.
        let want = oracle(&f, &db, &q);
        for t in got.answers.iter() {
            assert!(want.contains(t));
        }
    }
}
