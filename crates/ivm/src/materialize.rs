//! A materialized fixpoint, kept as a set.
//!
//! Every derived tuple lives in one place, the engine store: the
//! materialized relation is the store's indexed relation for the recursive
//! predicate, and membership in it is the whole state — a tuple belongs to
//! the fixpoint exactly when the relation holds it. Saturation and every
//! patch grow it the same way: semi-naive rounds that store each head the
//! recursive delta pipeline derives from the last round's fresh tuples (the
//! rule is linear, so one recursive atom carries the delta), after a
//! seeding round over the exit rules for a saturation.
//!
//! A deletion's rederivation asks one more question, whether a candidate
//! still has support: a recount pipeline seeded with a head enumerates that
//! head's instantiations over whatever the store holds at that moment, and
//! any one of them suffices.

use crate::delta::IdbPatch;
use crate::provenance::compile_witnesses;
use crate::{maintenance_label, IvmError};
use recurs_core::Classification;
use recurs_datalog::error::DatalogError;
use recurs_datalog::govern::{EvalBudget, Governor, TruncationReason};
use recurs_datalog::rule::{LinearRecursion, Rule};
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Atom;
use recurs_engine::compile::CompiledRule;
use recurs_engine::{drive_rounds, Batch, EngineDb, IndexedRelation, Rounds};
use recurs_obs::{field, Obs};
use std::collections::HashMap;

/// A saturated linear recursion kept consistent under EDB deltas.
///
/// Owns one engine store — the EDB relations (what [`EdbDelta::normalize`]
/// and a cold rebuild read), each sharing its rows with whoever handed it
/// over until an update changes it, plus the only copy of the derived
/// relation. Built by [`Materialization::saturate`]; maintained by
/// [`Materialization::apply`].
///
/// [`EdbDelta::normalize`]: crate::EdbDelta::normalize
pub struct Materialization {
    pub(crate) lr: LinearRecursion,
    /// The tripwire on productive rounds, when the class proves a rank: a
    /// bounded formula reaches its fixpoint from *any* seed within `rank`
    /// productive rounds, so `rank + 2` (one round to see the empty delta,
    /// one of slack) is a correctness check, not a budget. A patch that
    /// reaches it falls back cold.
    pub(crate) round_cap: Option<u64>,
    pub(crate) engine: EngineDb,
    /// The recursive rule's delta pipeline, differentiated at the recursive
    /// body position. Reused by insertion propagation, overdeletion, and
    /// forward rederivation — all three are "what follows from these
    /// recursive tuples" questions.
    pub(crate) rec_delta: CompiledRule,
    /// Delta pipelines for marking the heads an EDB change can reach,
    /// compiled lazily per changed predicate: every rule differentiated at
    /// every non-recursive body position that reads it.
    pub(crate) variants: HashMap<Symbol, Vec<CompiledRule>>,
    /// Recount pipelines, one per rule ([`compile_inverted`] deriving the
    /// rule's own head), that a deletion's rederivation runs. Seeded with
    /// candidate tuples, each emits one head row per (candidate, body
    /// instantiation over the current store) pair; a candidate that
    /// conflicts with a head constant or repeated head variable simply fails
    /// the seed match, the same cases a per-candidate head unification would
    /// reject.
    pub(crate) recounts: Vec<CompiledRule>,
    /// Witness pipelines, one per rule, that [`Materialization::explain`]
    /// walks the view with: [`compile_inverted`] deriving the rule's whole
    /// body. They probe the recounts' indexes.
    pub(crate) witnesses: Vec<CompiledRule>,
    pub(crate) obs: Obs,
}

/// Reserved relation name for the synthetic candidate seed atom of the
/// recount pipelines. The relation itself stays empty forever — the
/// pipeline reads its seed rows from the candidate batch, never from
/// storage — it exists only so compilation can resolve the atom.
pub(crate) const CAND: &str = "__ivm_cand";

impl std::fmt::Debug for Materialization {
    // Compact by hand: the engine store and compiled pipelines would drown
    // any log line, and `LinearRecursion` has no `Debug` of its own.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Materialization")
            .field("predicate", &self.lr.predicate)
            .field("round_cap", &self.round_cap)
            .field("tuples", &self.relation().len())
            .finish_non_exhaustive()
    }
}

impl Materialization {
    /// Saturates `lr` over `edb` from scratch. `edb` is a reference to plain
    /// facts, converted here, or an engine store, whose relations are then
    /// shared, not copied.
    ///
    /// The EDB must not already contain tuples for the recursive predicate —
    /// the materialized relation is derived, never stored. A budget
    /// truncation here is an error (there is nothing valid to fall back to);
    /// patch-time truncation is handled inside `apply` instead.
    pub fn saturate(
        lr: &LinearRecursion,
        edb: impl Into<EngineDb>,
        budget: &EvalBudget,
        obs: &Obs,
    ) -> Result<Materialization, IvmError> {
        let edb = edb.into();
        if edb.get(lr.predicate).is_some_and(|r| !r.is_empty()) {
            return Err(IvmError::IdbUpdate(lr.predicate));
        }
        let governor = budget.start();
        // The recursive rule's delta pipeline, differentiated at the
        // recursive body position, and the exit rules as seeding pipelines.
        let mut engine = edb_only(lr, edb)?;
        let rec = &lr.recursive_rule;
        let rec_delta = CompiledRule::compile(rec, Some(recursive_position(lr)?), &engine)?;
        let exits = lr
            .exit_rules
            .iter()
            .map(|rule| CompiledRule::compile(rule, None, &engine))
            .collect::<Result<Vec<_>, _>>()?;
        for rule in exits.iter().chain([&rec_delta]) {
            engine.ensure_indexes(rule);
        }
        let mut mat = Materialization {
            lr: lr.clone(),
            round_cap: Classification::of(rec).rank_bound().map(|rank| rank + 2),
            engine,
            rec_delta,
            variants: HashMap::new(),
            recounts: Vec::new(),
            witnesses: Vec::new(),
            obs: obs.clone(),
        };
        // The seeding round stores the exit rules' heads; the rounds after
        // it propagate.
        let entering = Batch::new(lr.dimension());
        let run = mat.propagate(Some(&exits), entering, &governor, None)?;
        if let Some(reason) = stopped(&run) {
            return Err(IvmError::Truncated(reason));
        }
        // The view's readers bind any column: one index each, built over the
        // finished fixpoint and kept fresh by every patch after it. So are
        // the indexes the recount and witness pipelines probe, compiled here
        // once, over the fixpoint whose sizes steer their join order.
        if let Some(view) = mat.engine.get_mut(lr.predicate) {
            for col in 0..lr.dimension() {
                view.ensure_index(&[col]);
            }
        }
        mat.recounts = rules(lr)
            .map(|rule| compile_inverted(rule, rule.head.clone(), &mut mat.engine))
            .collect::<Result<_, _>>()?;
        mat.witnesses = compile_witnesses(lr, &mut mat.engine)?;
        mat.obs.event(
            "ivm.saturate",
            &[
                ("path", field::st(maintenance_label(mat.round_cap, None))),
                ("tuples", field::uz(mat.relation().len())),
                ("rounds", field::uz(run.iterations.len())),
            ],
        );
        Ok(mat)
    }

    /// The recursive predicate.
    pub fn predicate(&self) -> Symbol {
        self.lr.predicate
    }

    /// The cap on a patch's productive rounds: a proven rank bound plus
    /// two, or `None` when the class proves no rank.
    pub fn round_cap(&self) -> Option<u64> {
        self.round_cap
    }

    /// The store the fixpoint stands in: the EDB relations, beside the
    /// derived one.
    pub fn database(&self) -> &EngineDb {
        &self.engine
    }

    /// The materialized relation, as the engine stores it.
    pub fn relation(&self) -> &IndexedRelation {
        // The predicate is declared in every constructor path.
        self.engine
            .get(self.lr.predicate)
            .unwrap_or_else(|| unreachable!("materialized predicate is always declared"))
    }

    /// Compiles (once) every delta pipeline that reads `pred` at a
    /// non-recursive body position, and makes sure their probe indexes
    /// exist.
    pub(crate) fn ensure_variants(&mut self, pred: Symbol) -> Result<(), IvmError> {
        if self.variants.contains_key(&pred) {
            return Ok(());
        }
        let mut compiled = Vec::new();
        for rule in rules(&self.lr) {
            for (pos, atom) in rule.body.iter().enumerate() {
                if atom.predicate == pred {
                    compiled.push(CompiledRule::compile(rule, Some(pos), &self.engine)?);
                }
            }
        }
        for rule in &compiled {
            self.engine.ensure_indexes(rule);
        }
        self.variants.insert(pred, compiled);
        Ok(())
    }

    /// Semi-naive propagation of fresh recursive tuples through the
    /// compiled delta pipeline, after a seeding round over `seed` (the exit
    /// rules) when given: each head not stored yet is stored, recorded in
    /// `patch` when given, and joins the next round's delta.
    pub(crate) fn propagate(
        &mut self,
        seed: Option<&[CompiledRule]>,
        delta: Batch,
        governor: &Governor,
        mut patch: Option<&mut IdbPatch>,
    ) -> Result<Rounds, IvmError> {
        let p = self.lr.predicate;
        Ok(drive_rounds(
            &mut self.engine,
            seed,
            std::slice::from_ref(&self.rec_delta),
            [(p, delta)],
            self.round_cap,
            governor,
            &self.obs,
            |engine, _round, _rule, heads, fresh| {
                let Some(stored) = engine.get_mut(p) else {
                    return;
                };
                for h in heads.iter() {
                    if stored.insert(h) {
                        fresh.push(h.iter().copied());
                        if let Some(patch) = patch.as_deref_mut() {
                            patch.record_insert(h);
                        }
                    }
                }
            },
        )?)
    }
}

/// Compiles `rule` *inverted*: its body prefixed with a synthetic [`CAND`]
/// atom carrying the head's terms, differentiated at that atom, deriving
/// `head`. Seeded with tuples of the rule's head predicate, the pipeline
/// emits one `head` row per (tuple, body instantiation over `engine`) pair —
/// the rule's own head to recount a tuple's support, its whole body to
/// recover the witnesses of a derivation. Probe indexes are built.
pub(crate) fn compile_inverted(
    rule: &Rule,
    head: Atom,
    engine: &mut EngineDb,
) -> Result<CompiledRule, IvmError> {
    let cand = Symbol::intern(CAND);
    engine.declare(cand, rule.head.arity())?;
    let mut body = Vec::with_capacity(rule.body.len() + 1);
    body.push(Atom::new(cand, rule.head.terms.clone()));
    body.extend(rule.body.iter().cloned());
    let compiled = CompiledRule::compile(&Rule { head, body }, Some(0), engine)?;
    engine.ensure_indexes(&compiled);
    Ok(compiled)
}

/// Every rule of `lr`, the recursive one first.
pub(crate) fn rules(lr: &LinearRecursion) -> impl Iterator<Item = &Rule> {
    std::iter::once(&lr.recursive_rule).chain(&lr.exit_rules)
}

/// The body position of the recursive atom in the recursive rule.
pub(crate) fn recursive_position(lr: &LinearRecursion) -> Result<usize, IvmError> {
    let p = lr.predicate;
    let pos = lr.recursive_rule.body.iter().position(|a| a.predicate == p);
    pos.ok_or(IvmError::Datalog(DatalogError::UnknownRelation(p)))
}

/// `engine` ready for a saturation over `lr`: every body predicate
/// declared and the derived relation emptied (any derived tuples it carries
/// are dropped).
pub(crate) fn edb_only(lr: &LinearRecursion, mut engine: EngineDb) -> Result<EngineDb, IvmError> {
    let p = lr.predicate;
    for atom in rules(lr).flat_map(|rule| &rule.body) {
        if atom.predicate != p {
            engine.declare(atom.predicate, atom.arity())?;
        }
    }
    match engine.get_mut(p) {
        Some(derived) => *derived = IndexedRelation::new(lr.dimension()),
        None => engine.declare(p, lr.dimension())?,
    }
    Ok(engine)
}

/// Why a maintenance loop stopped short, if it did. A maintenance round cap
/// is a tripwire — the class's rank bound says it cannot be reached — so a
/// capped run counts as truncated and the caller rebuilds cold.
pub(crate) fn stopped(run: &Rounds) -> Option<TruncationReason> {
    run.truncation
        .or(run.capped.then_some(TruncationReason::IterationCap))
}
