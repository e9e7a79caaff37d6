//! Patch application: counting-based insertion maintenance, DRed deletions,
//! and the cold-saturation fallback.

use crate::delta::{EdbDelta, IdbPatch};
use crate::materialize::{bump, head_rows, insert_derived, stopped, Materialization, CAND};
use crate::{IvmError, MaintenancePath};
use recurs_datalog::eval::eval_body;
use recurs_datalog::govern::{EvalBudget, Governor, TruncationReason};
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::symbol::Symbol;
use recurs_engine::{drive_rounds, IndexedRelation};
use recurs_obs::field;
use std::collections::{BTreeMap, HashMap, HashSet};

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
    /// The path that produced the final state — the class-selected path on
    /// success, [`MaintenancePath::ColdFallback`] when the patch was
    /// abandoned and the fixpoint rebuilt from scratch.
    pub path: MaintenancePath,
    /// Why the incremental patch was abandoned, when it was.
    pub truncation: Option<TruncationReason>,
    /// The net change to the materialized relation; `None` after a cold
    /// fallback (the delta is then unknown and caches must invalidate).
    pub idb: Option<IdbPatch>,
    /// Work counters.
    pub stats: PatchStats,
}

/// The overdeletion candidate set, in discovery order.
#[derive(Default)]
struct Candidates {
    set: HashSet<Tuple>,
    order: Vec<Tuple>,
}

impl Candidates {
    /// Marks the heads that are in `stored` (the materialized relation,
    /// untouched while overdeletion runs) and not yet candidates, returning
    /// the newly marked ones.
    fn mark(&mut self, stored: Option<&IndexedRelation>, mut heads: Vec<Tuple>) -> Vec<Tuple> {
        heads.retain(|h| stored.is_some_and(|p| p.contains(h)) && self.set.insert(h.clone()));
        self.order.extend(heads.iter().cloned());
        heads
    }
}

impl Materialization {
    /// Applies a normalized EDB delta, maintaining the fixpoint and counts
    /// in place. Deletions run first (DRed), then insertions (counting).
    ///
    /// Truncation — by the budget or by a tripped rank-bound cap — never
    /// yields a partial result: the materialization is rebuilt by cold
    /// saturation of the fully-updated EDB under an unlimited budget, and
    /// the report says so. On `Err` the materialization may be inconsistent
    /// and must be discarded by the caller.
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
        if delta.is_empty() {
            return Ok(PatchReport {
                path: self.path,
                truncation: None,
                idb: Some(IdbPatch::empty(self.lr.dimension())),
                stats,
            });
        }
        let governor = budget.start();
        let mut patch = IdbPatch::empty(self.lr.dimension());
        let mut truncation = None;
        if !delta.deleted.is_empty() {
            truncation = self.dred_delete(&delta.deleted, &governor, &mut patch, &mut stats)?;
        }
        if truncation.is_none() && !delta.inserted.is_empty() {
            truncation = self.count_insert(&delta.inserted, &governor, &mut patch, &mut stats)?;
        }
        let report = match truncation {
            None => {
                stats.idb_inserted = patch.inserted.len();
                stats.idb_deleted = patch.deleted.len();
                PatchReport {
                    path: self.path,
                    truncation: None,
                    idb: Some(patch),
                    stats,
                }
            }
            Some(reason) => {
                self.rebuild_cold(delta)?;
                PatchReport {
                    path: MaintenancePath::ColdFallback,
                    truncation: Some(reason),
                    idb: None,
                    stats,
                }
            }
        };
        self.emit_patch_event(&report);
        Ok(report)
    }

    /// Counting-based insertion maintenance.
    ///
    /// Per rule and per body position `i` whose relation gained tuples, the
    /// body is evaluated with positions `< i` overridden to their *new*
    /// relations, position `i` to the delta alone, and positions `> i` left
    /// at the old state — the standard differentiation that enumerates each
    /// *new* instantiation exactly once even when one batch (or one
    /// relation, used twice) touches several positions of a body. The
    /// recursive position is never overridden (it is not an EDB relation),
    /// so instantiations through fresh recursive tuples are left to the
    /// delta pipeline, which sees the fully-updated EDB.
    fn count_insert(
        &mut self,
        ins: &BTreeMap<Symbol, Relation>,
        governor: &Governor,
        patch: &mut IdbPatch,
        stats: &mut PatchStats,
    ) -> Result<Option<TruncationReason>, IvmError> {
        // Declare brand-new relations (empty, so "old" reads are empty).
        for (&pred, rel) in ins {
            self.db.declare(pred, rel.arity())?;
            self.engine.declare(pred, rel.arity());
        }
        let mut new_rels: HashMap<Symbol, Relation> = HashMap::new();
        for (&pred, dr) in ins {
            let mut merged = self
                .db
                .get(pred)
                .cloned()
                .unwrap_or_else(|| Relation::new(dr.arity()));
            merged.union_in_place(dr);
            new_rels.insert(pred, merged);
        }
        // Enumerate new instantiations against the *old* database state.
        let rules: Vec<_> = (0..self.rule_count())
            .map(|ri| self.rule_at(ri).clone())
            .collect();
        let mut fresh: Vec<Tuple> = Vec::new();
        for rule in &rules {
            if let Some(reason) = governor.poll() {
                return Ok(Some(reason));
            }
            for (i, atom) in rule.body.iter().enumerate() {
                let Some(delta_rel) = ins.get(&atom.predicate) else {
                    continue;
                };
                let mut overrides: HashMap<usize, &Relation> = HashMap::new();
                for (j, earlier) in rule.body.iter().enumerate().take(i) {
                    if let Some(merged) = new_rels.get(&earlier.predicate) {
                        overrides.insert(j, merged);
                    }
                }
                overrides.insert(i, delta_rel);
                let bindings = eval_body(&self.db, &rule.body, &overrides)?;
                for h in head_rows(&rule.head, &bindings)? {
                    if bump(&mut self.counts, &h) {
                        fresh.push(h);
                    }
                }
            }
        }
        // Install the EDB delta, then the fresh tuples, then propagate.
        for (&pred, dr) in ins {
            if let Some(rel) = self.db.get_mut(pred) {
                for t in dr.iter() {
                    rel.insert(t.clone());
                }
            }
            if let Some(rel) = self.engine.get_mut(pred) {
                for t in dr.iter() {
                    rel.insert(t.clone());
                }
            }
        }
        for t in &fresh {
            insert_derived(&mut self.db, &mut self.engine, self.lr.predicate, t);
            patch.record_insert(t.clone());
        }
        let run = self.propagate(fresh, governor, Some(patch))?;
        stats.rounds += run.iterations.len() as u64;
        Ok(stopped(&run))
    }

    /// DRed deletion maintenance: overdelete, remove, rederive. Every pass
    /// is a [`drive_rounds`] call over `self.engine`, so each is governed,
    /// capped and fault-hooked the same way; they differ only in the merge.
    ///
    /// *Overdelete* runs set-based over the old, untouched state: compiled
    /// delta pipelines differentiated at each deleted relation's body
    /// positions seed the affected set, and the recursive delta pipeline
    /// closes it (a support chain among candidates is a delta chain at the
    /// recursive position). Counts are irrelevant here — marking is
    /// idempotent — which is why pipeline duplicates are harmless.
    ///
    /// *Rederive* makes the counts exact again. Every candidate is
    /// recounted backward (head bound into the body, bindings counted over
    /// the shrunken database) at a global timestamp; positive counts
    /// reinsert immediately. A forward pass then replays support among
    /// candidates in reinsertion order: an instantiation through subgoal
    /// `v` with head `h` is added to `h`'s count only when `v` entered the
    /// relation *after* `h`'s recount — exactly the instantiations the
    /// backward pass could not see. Pure self-support dies (the backward
    /// recount never sees the tuple itself), and mutual-support cycles
    /// revive only if some member rederives independently.
    fn dred_delete(
        &mut self,
        del: &BTreeMap<Symbol, Relation>,
        governor: &Governor,
        patch: &mut IdbPatch,
        stats: &mut PatchStats,
    ) -> Result<Option<TruncationReason>, IvmError> {
        let p = self.lr.predicate;
        let cap = self.path.round_cap();
        let mut cands = Candidates::default();

        // --- Overdelete: seed from deleted EDB positions (one round each:
        // the merge hands back no delta), then close over recursive support
        // chains, all against the old state.
        for (&pred, deleted) in del {
            self.ensure_variants(pred)?;
            let run = drive_rounds(
                &mut self.engine,
                None,
                &self.variants[&pred],
                BTreeMap::from([(pred, deleted.iter().cloned().collect())]),
                None,
                governor,
                &self.obs,
                |engine, _, _, heads| {
                    cands.mark(engine.get(p), heads);
                    Vec::new()
                },
            )?;
            if let Some(reason) = stopped(&run) {
                return Ok(Some(reason));
            }
        }
        let closure = drive_rounds(
            &mut self.engine,
            None,
            std::slice::from_ref(&self.rec_delta),
            BTreeMap::from([(p, cands.order.clone())]),
            cap,
            governor,
            &self.obs,
            |engine, _, _, heads| cands.mark(engine.get(p), heads),
        )?;
        stats.rounds += closure.iterations.len() as u64;
        if let Some(reason) = stopped(&closure) {
            return Ok(Some(reason));
        }
        stats.overdeleted = cands.set.len();

        // --- Physically remove the deleted EDB tuples and every candidate.
        for (&pred, dr) in del {
            for t in dr.iter() {
                self.db.remove(pred, t)?;
                if let Some(rel) = self.engine.get_mut(pred) {
                    rel.remove(t);
                }
            }
        }
        for t in &cands.order {
            self.remove_p(t);
            self.counts.remove(t);
            patch.record_delete(t.clone());
        }

        // --- Rederive, phase 1: batch backward recount. Every candidate is
        // physically removed at this point, so seeding the recount pipelines
        // with the whole candidate set tallies, per candidate, exactly its
        // support from *surviving* tuples — candidate-to-candidate support
        // contributes nothing here and is replayed in phase 2. One indexed
        // pipeline run per rule replaces one hash-join rebuild per
        // candidate.
        self.ensure_recounts()?;
        let mut recount: HashMap<Tuple, u64> = HashMap::new();
        let run = drive_rounds(
            &mut self.engine,
            None,
            &self.recounts,
            BTreeMap::from([(Symbol::intern(CAND), cands.order.clone())]),
            None,
            governor,
            &self.obs,
            |_, _, _, heads| {
                for h in heads {
                    *recount.entry(h).or_insert(0) += 1;
                }
                Vec::new()
            },
        )?;
        if let Some(reason) = stopped(&run) {
            return Ok(Some(reason));
        }
        let mut wave: Vec<Tuple> = Vec::new();
        for c in cands.order {
            if let Some(&cnt) = recount.get(&c) {
                self.counts.insert(c.clone(), cnt);
                insert_derived(&mut self.db, &mut self.engine, p, &c);
                patch.record_insert(c.clone());
                wave.push(c);
            }
        }
        stats.rederived = wave.len();

        // --- Rederive, phase 2: replay support among revived candidates in
        // waves. The rule is linear — each instantiation has exactly one
        // recursive subgoal — so every candidate-supported instantiation is
        // enumerated exactly once, in the wave where its subgoal revived.
        // Surviving heads are skipped: any tuple with support through a
        // candidate was itself enumerated by the overdeletion closure.
        let (db, counts) = (&mut self.db, &mut self.counts);
        let waves = drive_rounds(
            &mut self.engine,
            None,
            std::slice::from_ref(&self.rec_delta),
            BTreeMap::from([(p, wave)]),
            cap,
            governor,
            &self.obs,
            |engine, _, _, mut heads| {
                heads.retain(|h| cands.set.contains(h) && bump(counts, h));
                for h in &heads {
                    insert_derived(db, engine, p, h);
                    patch.record_insert(h.clone());
                }
                stats.rederived += heads.len();
                heads
            },
        )?;
        stats.rounds += waves.iterations.len() as u64;
        Ok(stopped(&waves))
    }

    /// Abandons the incremental patch: finishes applying the delta to the
    /// EDB (idempotently — parts may already be in) and re-saturates from
    /// scratch under an unlimited budget.
    fn rebuild_cold(&mut self, delta: &EdbDelta) -> Result<(), IvmError> {
        let mut edb = self.current_edb();
        delta.apply_to(&mut edb)?;
        let lr = self.lr.clone();
        let obs = self.obs.clone();
        *self = Materialization::saturate(&lr, &edb, &EvalBudget::unlimited(), &obs)?;
        Ok(())
    }

    fn emit_patch_event(&self, report: &PatchReport) {
        self.obs.counter(
            "recurs_ivm_patches_total",
            &[("path", report.path.label())],
            1,
        );
        if !self.obs.enabled() {
            return;
        }
        let stats = &report.stats;
        let mut fields = vec![
            ("path", field::s(report.path.label())),
            ("edb_inserted", field::uz(stats.edb_inserted)),
            ("edb_deleted", field::uz(stats.edb_deleted)),
            ("idb_inserted", field::uz(stats.idb_inserted)),
            ("idb_deleted", field::uz(stats.idb_deleted)),
            ("overdeleted", field::uz(stats.overdeleted)),
            ("rederived", field::uz(stats.rederived)),
            ("rounds", field::u(stats.rounds)),
        ];
        if let Some(reason) = report.truncation {
            fields.push(("truncation", field::s(reason.to_string())));
        }
        self.obs.event("ivm.patch", &fields);
    }
}
