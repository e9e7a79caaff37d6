//! Patch application: insertions and DRed deletions as mark → recount →
//! propagate over the engine store, and the cold-saturation fallback.

use crate::delta::{write, EdbDelta, IdbPatch};
use crate::materialize::{add_count, stopped, Materialization, CAND};
use crate::{maintenance_label, IvmError};
use recurs_datalog::govern::{EvalBudget, Governor, TruncationReason};
use recurs_datalog::symbol::Symbol;
use recurs_engine::{drive_rounds, Batch, Fresh, IndexedRelation};
use recurs_obs::field;
use std::collections::BTreeMap;

/// Work counters for one patch application.
#[derive(Debug, Clone, Copy, Default)]
pub struct PatchStats {
    /// EDB tuples inserted by the delta.
    pub edb_inserted: usize,
    /// EDB tuples deleted by the delta.
    pub edb_deleted: usize,
    /// Derived tuples that entered the fixpoint.
    pub idb_inserted: usize,
    /// Derived tuples that left the fixpoint.
    pub idb_deleted: usize,
    /// Tuples the overdeletion pass marked as possibly unsupported.
    pub overdeleted: usize,
    /// Overdeleted tuples that were rederived (still supported).
    pub rederived: usize,
    /// Propagation rounds across all loops.
    pub rounds: u64,
}

/// What one [`Materialization::apply`] call did.
#[derive(Debug)]
pub struct PatchReport {
    /// Why the incremental patch was abandoned, when it was: the fixpoint
    /// was then rebuilt from scratch (a cold fallback).
    pub truncation: Option<TruncationReason>,
    /// The net change to the materialized relation; `None` after a cold
    /// fallback (the delta is then unknown and caches must invalidate).
    pub idb: Option<IdbPatch>,
    /// Work counters.
    pub stats: PatchStats,
}

/// The rows of `rel`, in arena order, as a delta.
fn batch_of(rel: &IndexedRelation) -> Batch {
    Batch::from_rows(rel.arity(), rel.iter())
}

/// Marks the `heads` not yet among the candidates `cands` — of a deletion
/// (`stored` given), those it holds — and hands the newly marked on to
/// `fresh`.
fn mark(
    cands: &mut IndexedRelation,
    stored: Option<&IndexedRelation>,
    heads: &Batch,
    mut fresh: Option<&mut Fresh>,
) {
    for h in heads.iter() {
        if stored.is_none_or(|stored| stored.contains(h)) && cands.insert(h) {
            if let Some(fresh) = fresh.as_deref_mut() {
                fresh.push(h.iter().copied());
            }
        }
    }
}

impl Materialization {
    /// Applies a normalized EDB delta, maintaining the fixpoint and counts
    /// in place: the deleted side first, then the inserted side, each by
    /// mark → recount → propagate.
    ///
    /// Truncation — by the budget or by a tripped rank-bound cap — never
    /// yields a partial result: the materialization is rebuilt by cold
    /// saturation of its own store, its EDB fully updated first, under an
    /// unlimited budget, and the report says so. On `Err` the
    /// materialization may be inconsistent and must be discarded by the
    /// caller.
    pub fn apply(
        &mut self,
        delta: &EdbDelta,
        budget: &EvalBudget,
    ) -> Result<PatchReport, IvmError> {
        if delta.touches(self.lr.predicate) {
            return Err(IvmError::IdbUpdate(self.lr.predicate));
        }
        let mut stats = PatchStats {
            edb_inserted: delta.inserted_count(),
            edb_deleted: delta.deleted_count(),
            ..PatchStats::default()
        };
        let governor = budget.start();
        let mut patch = IdbPatch::empty(self.lr.dimension());
        let mut truncation = None;
        for (changed, insert) in [(&delta.deleted, false), (&delta.inserted, true)] {
            if truncation.is_none() && !changed.is_empty() {
                truncation = self.maintain(changed, insert, &governor, &mut patch, &mut stats)?;
            }
        }
        let report = match truncation {
            None => {
                stats.idb_inserted = patch.inserted.len();
                stats.idb_deleted = patch.deleted.len();
                PatchReport {
                    truncation: None,
                    idb: Some(patch),
                    stats,
                }
            }
            Some(reason) => {
                // Abandon the patch: finish the EDB writes the phases had
                // not reached (re-applying the others is a no-op), drop what
                // was derived, and re-saturate from scratch under an
                // unlimited budget.
                let mut edb = std::mem::take(&mut self.engine);
                delta.apply_to(&mut edb)?;
                if let Some(derived) = edb.get_mut(self.lr.predicate) {
                    *derived = IndexedRelation::new(self.lr.dimension());
                }
                *self =
                    Materialization::saturate(&self.lr, edb, &EvalBudget::unlimited(), &self.obs)?;
                PatchReport {
                    truncation: Some(reason),
                    idb: None,
                    stats,
                }
            }
        };
        self.emit_patch_event(&report);
        Ok(report)
    }

    /// Maintains one side of a delta — `changed` inserted into the EDB, or
    /// (DRed) deleted from it — in three steps over the engine store. Every
    /// pass is a [`drive_rounds`] call, so each is governed, capped and
    /// fault-hooked the same way; they differ only in the merge.
    ///
    /// *Mark* runs every rule differentiated at each body position that
    /// reads a changed relation, seeded with the changed tuples; the heads it
    /// enumerates (duplicates are harmless, marking is idempotent) are the
    /// candidates. An insertion marks over the new EDB: the heads with an
    /// instantiation through a new tuple. A deletion marks over the old,
    /// untouched state, keeps stored heads only, and closes the set under
    /// the recursive delta pipeline (a support chain among candidates is a
    /// delta chain at the recursive position); then the deleted EDB tuples
    /// and every candidate are physically removed.
    ///
    /// *Recount* tallies each candidate's instantiations over the store as
    /// it now stands, one indexed pipeline run per rule. After an insertion
    /// that is (new EDB, old derived relation): the old count plus exactly
    /// the instantiations that use a new tuple, however many body positions
    /// of one rule — or of one relation, used twice — the batch touches.
    /// After a deletion it is the support from *surviving* tuples. Heads the
    /// mark did not reach keep counts that are already right; candidates not
    /// stored (new heads, revived candidates) enter with their tally.
    ///
    /// *Propagate* enumerates what the recount could not see — the
    /// instantiations through those entering tuples — exactly once each, in
    /// the round their recursive subgoal entered. A deletion counts them
    /// for candidate heads only: a surviving head with support through a
    /// candidate would itself have been marked. Pure self-support dies (the
    /// recount never sees the tuple itself), and mutual-support cycles
    /// revive only if some member rederives independently.
    fn maintain(
        &mut self,
        changed: &BTreeMap<Symbol, IndexedRelation>,
        insert: bool,
        governor: &Governor,
        patch: &mut IdbPatch,
        stats: &mut PatchStats,
    ) -> Result<Option<TruncationReason>, IvmError> {
        let p = self.lr.predicate;
        if insert {
            write(&mut self.engine, changed, true)?;
        }

        // --- Mark (one round per changed relation: the merge hands back no
        // delta), and for a deletion — which marks stored heads only — close
        // and remove. The candidates, the heads an EDB change can reach, go
        // in a scratch relation: a set that iterates in discovery order and
        // numbers its members.
        let mut cands = IndexedRelation::new(self.lr.dimension());
        for (&pred, tuples) in changed {
            self.ensure_variants(pred)?;
            let run = drive_rounds(
                &mut self.engine,
                None,
                &self.variants[&pred],
                [(pred, batch_of(tuples))],
                None,
                governor,
                &self.obs,
                |engine, _, _, heads, _| {
                    mark(&mut cands, engine.get(p).filter(|_| !insert), heads, None)
                },
            )?;
            if let Some(reason) = stopped(&run) {
                return Ok(Some(reason));
            }
        }
        if !insert {
            let closure = drive_rounds(
                &mut self.engine,
                None,
                std::slice::from_ref(&self.rec_delta),
                [(p, batch_of(&cands))],
                self.round_cap,
                governor,
                &self.obs,
                |engine, _, _, heads, fresh| mark(&mut cands, engine.get(p), heads, Some(fresh)),
            )?;
            stats.rounds += closure.iterations.len() as u64;
            if let Some(reason) = stopped(&closure) {
                return Ok(Some(reason));
            }
            stats.overdeleted = cands.len();
            write(&mut self.engine, changed, false)?;
            if let Some(stored) = self.engine.get_mut(p) {
                for t in cands.iter() {
                    stored.remove(t);
                    patch.record_delete(t);
                }
            }
        }

        // --- Recount the candidates (a recount pipeline derives its seed:
        // every head row is a candidate); store the tallies.
        let mut tally = vec![0u64; cands.len()];
        let run = drive_rounds(
            &mut self.engine,
            None,
            &self.recounts,
            [(Symbol::intern(CAND), batch_of(&cands))],
            None,
            governor,
            &self.obs,
            |_, _, _, heads, _| {
                for id in heads.iter().filter_map(|h| cands.id_of(h)) {
                    tally[id as usize] += 1;
                }
            },
        )?;
        if let Some(reason) = stopped(&run) {
            return Ok(Some(reason));
        }
        let mut entering = Batch::new(self.lr.dimension());
        if let Some(stored) = self.engine.get_mut(p) {
            // No candidate was ever removed: ids run in arena order.
            for (h, &n) in cands.iter().zip(&tally).filter(|&(_, &n)| n > 0) {
                match stored.id_of(h) {
                    Some(id) => self.counts[id as usize] = n,
                    None => {
                        add_count(stored, &mut self.counts, h, n);
                        patch.record_insert(h);
                        entering.push(h.iter().copied());
                    }
                }
            }
        }

        // --- Propagate from the entering tuples.
        let entered = entering.len();
        let only = (!insert).then_some(&cands);
        let run = self.propagate(None, entering, governor, Some(patch), only)?;
        if !insert {
            let revived: usize = run.iterations.iter().map(|it| it.new_tuples).sum();
            stats.rederived = entered + revived;
        }
        stats.rounds += run.iterations.len() as u64;
        Ok(stopped(&run))
    }

    fn emit_patch_event(&self, report: &PatchReport) {
        let path = maintenance_label(self.round_cap, report.truncation);
        self.obs
            .counter("recurs_ivm_patches_total", &[("path", path)], 1);
        if !self.obs.enabled() {
            return;
        }
        let stats = &report.stats;
        let truncation = report.truncation.map(TruncationReason::label);
        let fields = [
            ("path", field::st(path)),
            ("edb_inserted", field::uz(stats.edb_inserted)),
            ("edb_deleted", field::uz(stats.edb_deleted)),
            ("idb_inserted", field::uz(stats.idb_inserted)),
            ("idb_deleted", field::uz(stats.idb_deleted)),
            ("overdeleted", field::uz(stats.overdeleted)),
            ("rederived", field::uz(stats.rederived)),
            ("rounds", field::u(stats.rounds)),
            ("truncation", field::st(truncation.unwrap_or_default())),
        ];
        // `truncation` only on a patch the budget stopped.
        let shown = fields.len() - usize::from(truncation.is_none());
        self.obs.event("ivm.patch", &fields[..shown]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FactOp;
    use recurs_datalog::database::Database;
    use recurs_datalog::parser::parse_program;
    use recurs_datalog::relation::{tuple_u64, Relation};
    use recurs_datalog::validate::validate;
    use recurs_engine::EngineDb;
    use recurs_obs::Obs;

    /// A bounded recount's round cap is a tripwire a right rank never
    /// reaches, so a patch that hits it is rebuilt cold, never kept. Forced
    /// here by claiming rank 0 (cap 2) for transitive closure, whose insert
    /// at a chain's tip walks back one edge a round. The oracle's
    /// interpreter stays out of this crate's sources, so the fixpoint is
    /// written out: a chain's closure is every pair `i < j`.
    #[test]
    fn a_patch_that_hits_the_round_cap_falls_back_cold() {
        let program = parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
        let lr = validate(&program.unwrap()).unwrap();
        let chain = Relation::from_pairs((1..8).map(|i| (i, i + 1)));
        let mut db = Database::new();
        db.insert_relation("A", chain.clone());
        db.insert_relation("E", chain);
        let unlimited = EvalBudget::unlimited();
        let mut mat = Materialization::saturate(&lr, &db, &unlimited, &Obs::noop()).unwrap();
        mat.round_cap = Some(2);

        let tip = FactOp::Insert(Symbol::intern("E"), tuple_u64([8, 9]));
        let delta = EdbDelta::normalize(&[tip], &EngineDb::from(&db)).unwrap();
        let report = mat.apply(&delta, &unlimited).unwrap();
        assert_eq!(report.truncation, Some(TruncationReason::IterationCap));

        let closure = (1..9).flat_map(|i| (i + 1..=9).map(move |j| (i, j)));
        assert_eq!(mat.relation().to_relation(), Relation::from_pairs(closure));
    }
}
