//! The ground truth every plan is held to: the semi-naive fixpoint of the
//! recursion as written, then selection + projection. The comparison
//! helpers that run a plan against it live next to the executor
//! (`recurs_engine::oracle`).

use recurs_datalog::database::Database;
use recurs_datalog::error::DatalogError;
use recurs_datalog::eval::{answer_query, semi_naive};
use recurs_datalog::relation::Relation;
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::term::Atom;

/// Ground truth: semi-naive fixpoint, then selection + projection. Returns
/// the answers and the tuples the fixpoint derived (a cost indicator).
pub fn ground_truth(
    lr: &LinearRecursion,
    db: &Database,
    query: &Atom,
) -> Result<(Relation, usize), DatalogError> {
    let mut db = db.clone();
    let stats = semi_naive(&mut db, &lr.to_program(), None)?;
    Ok((answer_query(&db, query)?, stats.tuples_derived))
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
        let (answers, derived) = ground_truth(&lr, &db, &q).unwrap();
        assert_eq!(answers.len(), 2);
        assert_eq!(derived, 3); // the whole closure: (1,2) (2,3) (1,3)
    }
}
