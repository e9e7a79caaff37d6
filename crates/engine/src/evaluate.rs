//! The executor: the one function that turns a [`QueryPlan`] into answers.
//! `recurs run`, `serve`, `batch`, the benches and every differential suite
//! go through [`evaluate`]; which program it saturates is decided by
//! `recurs_core::plan`'s table and nowhere else.

use crate::compile::Selection;
use crate::error::{EngineError, Saturation};
use crate::stats::KernelKind;
use crate::storage::{EngineDb, IndexedRelation};
use crate::{saturate_until, select, CompiledProgram, EngineConfig};
use recurs_core::plan::QueryPlan;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::{Atom, Term, Value};

/// One answered query.
#[derive(Debug)]
pub struct Evaluation {
    /// The answers, over the query's distinct variables in first-occurrence
    /// order (arity 0 = boolean query: non-empty means yes). After a
    /// truncated run, a sound under-approximation.
    pub answers: IndexedRelation,
    /// How the saturation ended, and its statistics.
    pub saturation: Saturation,
}

/// Answers `query` with `plan` over the facts in `base`, which is only read:
/// the run clones it (every base relation shared, none copied), declares
/// what the lowered program mentions that `base` lacks, inserts the seed,
/// saturates under `config`, and selects the answer atom from the private
/// store — a possibly under-approximated fixpoint the base never sees.
///
/// `reindexed` is asked once, before saturation, when the pipelines probe
/// indexes `base` lacks on relations it holds: a caller that owns `base`'s
/// lineage builds them there (so no later run of the form does) and returns
/// the indexed store to restart from; `None` builds them on the clone.
pub fn evaluate(
    plan: &QueryPlan,
    query: &Atom,
    base: &EngineDb,
    config: &EngineConfig,
    reindexed: impl FnOnce(&[(Symbol, Vec<usize>)]) -> Option<EngineDb>,
) -> Result<Evaluation, EngineError> {
    let lowered = plan.lower(query)?;
    let private = |mut store: EngineDb| -> Result<EngineDb, EngineError> {
        let rules = lowered.program.rules.iter();
        let atoms = rules.flat_map(|r| std::iter::once(&r.head).chain(&r.body));
        for atom in atoms.chain([&lowered.answer]) {
            store.declare(atom.predicate, atom.arity())?;
        }
        // The seed predicate is one the program mentions: declared above.
        if let Some((pred, constants)) = &lowered.seed {
            if let Some(seeds) = store.get_mut(*pred) {
                seeds.insert(constants);
            }
        }
        Ok(store)
    };
    let mut store = private(base.clone())?;
    let compiled = CompiledProgram::compile(lowered.program, &store)?;
    let missing = base.missing_indexes(compiled.required_indexes());
    if !missing.is_empty() {
        if let Some(indexed) = reindexed(&missing) {
            store = private(indexed)?;
        }
    }
    // The lowering's round cap is the kernel: a `Saturate` plan never has a
    // rank (the planner picks `Bounded` first), so the class adds nothing.
    let kernel = KernelKind::for_round_cap(lowered.round_cap);
    // A ground answer atom asks whether one tuple is derived: the run ends
    // once it is stored.
    let answer = &lowered.answer;
    let ground: Option<Vec<Value>> = answer.terms.iter().map(Term::as_const).collect();
    let witness = ground.as_deref().map(|t| (answer.predicate, t));
    let saturation = saturate_until(&mut store, &compiled, kernel, config, witness)?;
    let stored = store
        .get(lowered.answer.predicate)
        .ok_or(EngineError::Internal(
            "the saturated program never declared its answer predicate",
        ))?;
    Ok(Evaluation {
        answers: select(stored, &Selection::of(&lowered.answer)),
        saturation,
    })
}
