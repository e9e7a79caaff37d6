//! The equivalence check next to the executor: every plan, run by
//! [`evaluate`], must agree with the semi-naive fixpoint
//! ([`recurs_core::oracle::ground_truth`]) on every database. Tests, benches
//! and examples certify a plan with this before they time or print it.

use crate::{evaluate, EngineConfig, EngineDb, EngineError, Evaluation};
use recurs_core::oracle::ground_truth;
use recurs_core::plan::{plan_query, QueryPlan, StrategyKind};
use recurs_datalog::database::Database;
use recurs_datalog::relation::Relation;
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::term::Atom;

/// A planned query bound to a store that already holds every index its
/// pipelines probe — what a served snapshot looks like from the second miss
/// of a query form on, so [`Planned::run`] times the executor and nothing
/// around it.
pub struct Planned {
    /// The plan the query lowers through.
    pub plan: QueryPlan,
    query: Atom,
    store: EngineDb,
}

impl Planned {
    /// Plans `query`, loads `db`, and indexes it by one warm-up evaluation.
    pub fn new(lr: &LinearRecursion, db: &Database, query: &Atom) -> Result<Planned, EngineError> {
        let plan = plan_query(lr, query)?;
        let mut store = EngineDb::from(db);
        let mut indexed = None;
        evaluate(&plan, query, &store, &EngineConfig::default(), |missing| {
            let mut with = store.clone();
            with.build_indexes(missing);
            indexed = Some(with.clone());
            Some(with)
        })?;
        store = indexed.unwrap_or(store);
        let query = query.clone();
        Ok(Planned { plan, query, store })
    }

    /// One evaluation under the default (unlimited, untraced) configuration.
    pub fn run(&self) -> Result<Evaluation, EngineError> {
        let config = EngineConfig::default();
        evaluate(&self.plan, &self.query, &self.store, &config, |_| None)
    }
}

/// The outcome of one oracle comparison.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// The lowering the planner chose.
    pub strategy: StrategyKind,
    /// The plan's answers.
    pub plan_answers: Relation,
    /// Tuples the plan's run derived.
    pub plan_tuples_derived: usize,
    /// The fixpoint's answers.
    pub oracle_answers: Relation,
    /// Tuples derived by the full fixpoint (cost indicator).
    pub oracle_tuples_derived: usize,
}

impl OracleReport {
    /// True if plan and oracle agree.
    pub fn agrees(&self) -> bool {
        self.plan_answers == self.oracle_answers
    }
}

/// Plans `query`, executes it, and compares against the ground truth.
pub fn compare(
    lr: &LinearRecursion,
    db: &Database,
    query: &Atom,
) -> Result<OracleReport, EngineError> {
    let planned = Planned::new(lr, db, query)?;
    let run = planned.run()?;
    let (oracle_answers, oracle_tuples_derived) = ground_truth(lr, db, query)?;
    Ok(OracleReport {
        strategy: planned.plan.strategy,
        plan_answers: run.answers.to_relation(),
        plan_tuples_derived: run.saturation.stats.tuples_derived,
        oracle_answers,
        oracle_tuples_derived,
    })
}

/// Asserts agreement, with a readable panic message on divergence.
///
/// # Panics
/// Panics if the plan and the fixpoint disagree.
#[allow(clippy::expect_used)]
pub fn assert_equivalent(lr: &LinearRecursion, db: &Database, query: &Atom) {
    let report = compare(lr, db, query).expect("oracle comparison failed to run");
    assert!(
        report.agrees(),
        "plan ({:?}) disagrees with fixpoint for {query} on {db:?}\nplan: {}\noracle: {}",
        report.strategy,
        report.plan_answers,
        report.oracle_answers,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::parser::{parse_atom, parse_program};
    use recurs_datalog::validate::validate_with_generic_exit;

    #[test]
    fn oracle_agrees_on_simple_case() {
        let lr = validate_with_generic_exit(
            &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3)]));
        let q = parse_atom("P('1', y)").unwrap();
        let report = compare(&lr, &db, &q).unwrap();
        assert!(report.agrees());
        assert_eq!(report.plan_answers.len(), 2);
        // The walk reaches {2, 3} and answers {2, 3}; the fixpoint derives
        // the whole closure.
        assert_eq!(report.plan_tuples_derived, 4);
        assert_eq!(report.oracle_tuples_derived, 3);
        assert_equivalent(&lr, &db, &q);
    }
}
