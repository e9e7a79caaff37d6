//! Error taxonomy of the serving layer.

use recurs_datalog::error::DatalogError;
use recurs_datalog::symbol::Symbol;
use recurs_engine::EngineError;
use std::fmt;
use std::time::Duration;

/// Why a query (or update) could not be answered. Budget exhaustion is
/// *not* an error — governed runs report
/// [`Outcome::Truncated`](recurs_datalog::govern::Outcome) in the reply.
#[derive(Debug)]
pub enum ServeError {
    /// A substrate error from the Datalog layer (unknown relation, arity
    /// mismatch, ...).
    Datalog(DatalogError),
    /// The execution engine failed (a substrate error or a broken engine
    /// invariant; budget stops are replies, not errors).
    Engine(EngineError),
    /// The query's predicate is not the one this service answers.
    WrongPredicate {
        /// The predicate the query asked for.
        got: Symbol,
        /// The recursive predicate the service serves.
        serves: Symbol,
    },
    /// An update tried to insert or delete the recursive predicate's tuples
    /// directly; the materialized relation is derived, never stored.
    DerivedUpdate(Symbol),
    /// Admission control shed the request: no evaluation slot freed up
    /// within the caller's wait bound. The request was never evaluated and
    /// is safe to retry (the network layer attaches a retry-after hint).
    Overloaded {
        /// How long the request waited before being shed.
        waited: Duration,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Datalog(e) => write!(f, "{e}"),
            ServeError::Engine(e) => write!(f, "{e}"),
            ServeError::WrongPredicate { got, serves } => {
                write!(
                    f,
                    "query predicate {got} is not served (service answers {serves})"
                )
            }
            ServeError::DerivedUpdate(p) => {
                write!(f, "relation {p} is derived and cannot be updated directly")
            }
            ServeError::Overloaded { waited } => {
                write!(
                    f,
                    "overloaded: no evaluation slot within {} ms, request shed",
                    waited.as_millis()
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Datalog(e) => Some(e),
            ServeError::Engine(e) => Some(e),
            ServeError::WrongPredicate { .. }
            | ServeError::DerivedUpdate(_)
            | ServeError::Overloaded { .. } => None,
        }
    }
}

impl From<DatalogError> for ServeError {
    fn from(e: DatalogError) -> ServeError {
        ServeError::Datalog(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_each_variant() {
        let e = ServeError::Datalog(DatalogError::UnknownRelation(Symbol::intern("R")));
        assert!(e.to_string().contains('R'));
        let e = ServeError::WrongPredicate {
            got: Symbol::intern("Q"),
            serves: Symbol::intern("P"),
        };
        assert!(e.to_string().contains('Q'));
        assert!(e.to_string().contains('P'));
    }
}
