//! A materialized fixpoint with per-tuple derivation counts.
//!
//! The *count* of a tuple `t` is the number of ground rule instantiations
//! (assignments to all body variables over the current database) whose head
//! is `t`, summed over every rule. A tuple belongs to the fixpoint exactly
//! when its count is positive, which is what lets deletions be maintained
//! without re-deriving the world: supports are removed one instantiation at
//! a time, and only tuples whose count reaches zero disappear.
//!
//! Two engine facts make the counts exact and cheap to maintain:
//!
//! * [`CompiledRule::execute`] output rows are per-instantiation — the
//!   pipeline carries every distinct body variable and never dedupes — so
//!   seeding a delta pipeline at the recursive position enumerates each new
//!   instantiation exactly once (the rule is linear: one recursive atom).
//! * [`eval_body`]'s bindings are distinct assignments to all body
//!   variables, so exit-rule seeding and backward recounts read the same
//!   count definition.

use crate::delta::IdbPatch;
use crate::{IvmError, MaintenancePath};
use recurs_core::Classification;
use recurs_datalog::database::Database;
use recurs_datalog::error::DatalogError;
use recurs_datalog::eval::{eval_body, Bindings};
use recurs_datalog::govern::{EvalBudget, Governor, TruncationReason};
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::rule::{LinearRecursion, Rule};
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::{Atom, Term, Value};
use recurs_engine::compile::CompiledRule;
use recurs_engine::{drive_rounds, EngineDb, Rounds};
use recurs_obs::{field, Obs};
use std::collections::{BTreeMap, HashMap};

/// A saturated linear recursion kept consistent under EDB deltas.
///
/// Owns a full [`Database`] (EDB relations plus the derived predicate), an
/// engine mirror with persistent indexes, and the per-tuple derivation
/// counts. Built by [`Materialization::saturate`]; maintained by
/// [`Materialization::apply`].
pub struct Materialization {
    pub(crate) lr: LinearRecursion,
    pub(crate) path: MaintenancePath,
    pub(crate) db: Database,
    pub(crate) engine: EngineDb,
    pub(crate) counts: HashMap<Tuple, u64>,
    /// The recursive rule's delta pipeline, differentiated at the recursive
    /// body position. Reused by insertion propagation, overdeletion, and
    /// forward rederivation — all three are "what follows from these
    /// recursive tuples" questions.
    pub(crate) rec_delta: CompiledRule,
    /// Delta pipelines for overdeletion, compiled lazily per deleted
    /// predicate: every rule differentiated at every non-recursive body
    /// position that reads it.
    pub(crate) variants: HashMap<Symbol, Vec<CompiledRule>>,
    /// Backward-recount pipelines, one per rule, compiled on the first
    /// deletion: the rule's body prefixed with a synthetic candidate atom
    /// mirroring the head, differentiated at that atom. Seeding them with
    /// the candidate set enumerates, per candidate, every surviving
    /// instantiation through the engine's persistent indexes — instead of
    /// one hash-join rebuild per candidate.
    pub(crate) recounts: Vec<CompiledRule>,
    pub(crate) obs: Obs,
}

/// Reserved relation name for the synthetic candidate seed atom of the
/// recount pipelines. The relation itself stays empty forever — the
/// pipeline reads its seed rows from the candidate batch, never from
/// storage — it exists only so compilation can resolve the atom.
pub(crate) const CAND: &str = "__ivm_cand";

impl std::fmt::Debug for Materialization {
    // Compact by hand: the engine mirror and compiled pipelines would drown
    // any log line, and `LinearRecursion` has no `Debug` of its own.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Materialization")
            .field("predicate", &self.lr.predicate)
            .field("path", &self.path)
            .field("tuples", &self.counts.len())
            .finish_non_exhaustive()
    }
}

impl Materialization {
    /// Saturates `lr` over `edb` from scratch, tracking derivation counts.
    ///
    /// The database must not already contain tuples for the recursive
    /// predicate — the materialized relation is derived, never stored. A
    /// budget truncation here is an error (there is nothing valid to fall
    /// back to); patch-time truncation is handled inside `apply` instead.
    pub fn saturate(
        lr: &LinearRecursion,
        edb: &Database,
        budget: &EvalBudget,
        obs: &Obs,
    ) -> Result<Materialization, IvmError> {
        let p = lr.predicate;
        if edb.get(p).is_some_and(|r| !r.is_empty()) {
            return Err(IvmError::IdbUpdate(p));
        }
        let governor = budget.start();
        let (mut db, mut engine, rec_delta) = mirror(lr, edb)?;

        // Exit seeding: one count per exit-rule instantiation.
        let mut counts: HashMap<Tuple, u64> = HashMap::new();
        let mut fresh: Vec<Tuple> = Vec::new();
        for rule in &lr.exit_rules {
            if let Some(reason) = governor.poll() {
                return Err(IvmError::Truncated(reason));
            }
            let bindings = eval_body(&db, &rule.body, &HashMap::new())?;
            for h in head_rows(&rule.head, &bindings)? {
                if bump(&mut counts, &h) {
                    insert_derived(&mut db, &mut engine, p, &h);
                    fresh.push(h);
                }
            }
        }

        let mut mat = Materialization {
            lr: lr.clone(),
            path: MaintenancePath::select(&Classification::of(&lr.recursive_rule)),
            db,
            engine,
            counts,
            rec_delta,
            variants: HashMap::new(),
            recounts: Vec::new(),
            obs: obs.clone(),
        };
        let run = mat.propagate(fresh, &governor, None)?;
        if let Some(reason) = stopped(&run) {
            return Err(IvmError::Truncated(reason));
        }
        mat.obs.event(
            "ivm.saturate",
            &[
                ("path", field::s(mat.path.label())),
                ("tuples", field::uz(mat.counts.len())),
                ("rounds", field::uz(run.iterations.len())),
            ],
        );
        Ok(mat)
    }

    /// The recursive predicate.
    pub fn predicate(&self) -> Symbol {
        self.lr.predicate
    }

    /// The maintenance path the classification selected.
    pub fn path(&self) -> MaintenancePath {
        self.path
    }

    /// The full database: EDB relations plus the saturated predicate.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The materialized relation.
    pub fn relation(&self) -> &Relation {
        // The predicate is declared in every constructor path.
        self.db
            .get(self.lr.predicate)
            .unwrap_or_else(|| unreachable!("materialized predicate is always declared"))
    }

    /// The derivation count of a tuple (0 when underivable).
    pub fn count(&self, t: &[Value]) -> u64 {
        self.counts.get(t).copied().unwrap_or(0)
    }

    /// The EDB part of the current database (everything but the recursive
    /// predicate and the synthetic recount seed), cloned — the seed for a
    /// cold rebuild.
    pub(crate) fn current_edb(&self) -> Database {
        let cand = Symbol::intern(CAND);
        let mut edb = Database::new();
        for (name, rel) in self.db.iter() {
            if name != self.lr.predicate && name != cand {
                edb.insert_relation(name, rel.clone());
            }
        }
        edb
    }

    /// The rule with the given index: 0 is the recursive rule, `i + 1` is
    /// `exit_rules[i]`.
    pub(crate) fn rule_at(&self, ri: usize) -> &Rule {
        if ri == 0 {
            &self.lr.recursive_rule
        } else {
            &self.lr.exit_rules[ri - 1]
        }
    }

    /// Number of rules (recursive + exits).
    pub(crate) fn rule_count(&self) -> usize {
        1 + self.lr.exit_rules.len()
    }

    /// Removes a derived tuple from both the database and the engine mirror.
    pub(crate) fn remove_p(&mut self, t: &Tuple) {
        if let Some(rel) = self.db.get_mut(self.lr.predicate) {
            rel.remove(t);
        }
        if let Some(rel) = self.engine.get_mut(self.lr.predicate) {
            rel.remove(t);
        }
    }

    /// Compiles (once) every delta pipeline that reads `pred` at a
    /// non-recursive body position, and makes sure their probe indexes
    /// exist.
    pub(crate) fn ensure_variants(&mut self, pred: Symbol) -> Result<(), IvmError> {
        if self.variants.contains_key(&pred) {
            return Ok(());
        }
        let mut compiled = Vec::new();
        for ri in 0..self.rule_count() {
            let rule = self.rule_at(ri);
            for (pos, atom) in rule.body.iter().enumerate() {
                if atom.predicate == pred {
                    compiled.push(CompiledRule::compile(rule, Some(pos), &self.db)?);
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
    /// compiled delta pipeline, incrementing counts per enumerated
    /// instantiation. Exactly-once is guaranteed by linearity: each new
    /// instantiation contains exactly one recursive subgoal, enumerated in
    /// the round where that subgoal was fresh.
    pub(crate) fn propagate(
        &mut self,
        delta: Vec<Tuple>,
        governor: &Governor,
        mut patch: Option<&mut IdbPatch>,
    ) -> Result<Rounds, IvmError> {
        let p = self.lr.predicate;
        let (db, counts) = (&mut self.db, &mut self.counts);
        Ok(drive_rounds(
            &mut self.engine,
            None,
            std::slice::from_ref(&self.rec_delta),
            BTreeMap::from([(p, delta)]),
            self.path.round_cap(),
            governor,
            &self.obs,
            |engine, _round, _rule, mut heads| {
                heads.retain(|h| bump(counts, h));
                for t in &heads {
                    insert_derived(db, engine, p, t);
                    if let Some(patch) = patch.as_deref_mut() {
                        patch.record_insert(t.clone());
                    }
                }
                heads
            },
        )?)
    }

    /// Compiles (once) the backward-recount pipelines, one per rule: the
    /// rule's body prefixed with a synthetic [`CAND`] atom carrying the
    /// head's terms, differentiated at that atom. Seeded with candidate
    /// tuples, each emits one head row per (candidate, surviving body
    /// instantiation) pair; a candidate that conflicts with a head constant
    /// or repeated head variable simply fails the seed match, the same
    /// cases a per-candidate head unification would reject.
    pub(crate) fn ensure_recounts(&mut self) -> Result<(), IvmError> {
        if !self.recounts.is_empty() {
            return Ok(());
        }
        let cand = Symbol::intern(CAND);
        self.db.declare(cand, self.lr.dimension())?;
        self.engine.declare(cand, self.lr.dimension());
        for ri in 0..self.rule_count() {
            let rule = self.rule_at(ri);
            let mut body = Vec::with_capacity(rule.body.len() + 1);
            body.push(Atom::new(cand, rule.head.terms.clone()));
            body.extend(rule.body.iter().cloned());
            let recount = Rule {
                head: rule.head.clone(),
                body,
            };
            let compiled = CompiledRule::compile(&recount, Some(0), &self.db)?;
            self.engine.ensure_indexes(&compiled);
            self.recounts.push(compiled);
        }
        Ok(())
    }
}

/// The state every saturation over `lr` starts from: `edb` with every body
/// predicate declared and the derived predicate emptied, its indexed mirror,
/// and the recursive rule's delta pipeline (differentiated at the recursive
/// body position) with its probe indexes built.
pub(crate) fn mirror(
    lr: &LinearRecursion,
    edb: &Database,
) -> Result<(Database, EngineDb, CompiledRule), IvmError> {
    let p = lr.predicate;
    let mut db = edb.clone();
    for rule in std::iter::once(&lr.recursive_rule).chain(lr.exit_rules.iter()) {
        for atom in &rule.body {
            if atom.predicate != p {
                db.declare(atom.predicate, atom.arity())?;
            }
        }
    }
    db.insert_relation(p, Relation::new(lr.dimension()));
    let mut engine = EngineDb::new();
    for (name, rel) in db.iter() {
        engine.load(name, rel);
    }
    let p_pos = lr
        .recursive_rule
        .body
        .iter()
        .position(|a| a.predicate == p)
        .ok_or(DatalogError::UnknownRelation(p))?;
    let rec_delta = CompiledRule::compile(&lr.recursive_rule, Some(p_pos), &db)?;
    engine.ensure_indexes(&rec_delta);
    Ok((db, engine, rec_delta))
}

/// Counts one more derivation of `t`; true when it is the first.
pub(crate) fn bump(counts: &mut HashMap<Tuple, u64>, t: &Tuple) -> bool {
    let c = counts.entry(t.clone()).or_insert(0);
    *c += 1;
    *c == 1
}

/// Inserts a derived tuple into both the database and the engine mirror.
pub(crate) fn insert_derived(db: &mut Database, engine: &mut EngineDb, p: Symbol, t: &Tuple) {
    if let Some(rel) = db.get_mut(p) {
        rel.insert(t.clone());
    }
    if let Some(rel) = engine.get_mut(p) {
        rel.insert(t.clone());
    }
}

/// Why a maintenance loop stopped short, if it did. A maintenance round cap
/// is a tripwire — the class's rank bound says it cannot be reached — so a
/// capped run counts as truncated and the caller rebuilds cold.
pub(crate) fn stopped(run: &Rounds) -> Option<TruncationReason> {
    run.truncation
        .or(run.capped.then_some(TruncationReason::IterationCap))
}

/// Instantiates a rule head once per binding row — *without* deduplication,
/// because each row is one instantiation and counting needs them all.
pub(crate) fn head_rows(head: &Atom, bindings: &Bindings) -> Result<Vec<Tuple>, DatalogError> {
    enum Col {
        Fixed(Value),
        Bound(usize),
    }
    let cols: Vec<Col> = head
        .terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => Ok(Col::Fixed(*c)),
            Term::Var(v) => bindings
                .column_of(*v)
                .map(Col::Bound)
                .ok_or(DatalogError::UnboundVariable(*v)),
        })
        .collect::<Result<_, _>>()?;
    let mut rows = Vec::with_capacity(bindings.rel.len());
    for row in bindings.rel.iter() {
        rows.push(
            cols.iter()
                .map(|c| match c {
                    Col::Fixed(v) => *v,
                    Col::Bound(i) => row[*i],
                })
                .collect(),
        );
    }
    Ok(rows)
}
