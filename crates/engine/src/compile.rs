//! Rule compilation: a conjunctive body becomes a fixed join pipeline whose
//! steps probe the persistent indexes of [`crate::storage::EngineDb`].
//!
//! Compilation happens once per (rule, delta position) pair, before the
//! fixpoint loop starts. The pipeline fixes the atom order (via the
//! selection-first heuristic of `recurs_datalog::order`), the index each
//! step probes, and the columns each step appends — so the per-iteration
//! work is pure hash probing with no planning, cloning, or re-indexing.
//!
//! A pipeline runs depth-first: each seed row goes through every join step
//! before the next seed row starts, in one reused row a step, so no step's
//! output is ever held whole; each step's relation and index are found once
//! a call. Seed rows are read where they are when the seed atom keeps every
//! column in order with no check — a delta is then not copied at all.

use crate::error::EngineError;
use crate::storage::{Batch, EngineDb, IndexView, IndexedRelation};
use recurs_datalog::error::DatalogError;
use recurs_datalog::govern::{Governor, TruncationReason};
use recurs_datalog::order::order_atoms;
use recurs_datalog::rule::Rule;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::{Atom, Term, Value};
use std::ops::ControlFlow::{self, Break, Continue};

/// The buffers one pipeline execution works in, kept by whoever runs
/// pipelines round after round so that only growth allocates: the seed rows
/// [`SeedSpec::fill`] writes (or a delta the driver lends whole), the
/// partial binding row entering each join step after the first (one value
/// per distinct variable bound so far, in first-occurrence order — one row
/// a step, never a batch, since a seed row goes through every step before
/// the next starts), and the probe key being assembled.
#[derive(Debug, Default)]
pub struct Scratch {
    rows: Batch,
    row: Vec<Value>,
    key: Vec<Value>,
}

impl Scratch {
    /// Swaps `rows` in as the initial rows, whole and in place, and returns
    /// how many there are; lending them again swaps them back.
    pub(crate) fn lend(&mut self, rows: &mut Batch) -> usize {
        std::mem::swap(&mut self.rows, rows);
        self.rows.len()
    }

    /// Sets up the one row of no columns an empty body starts from.
    pub(crate) fn unit_row(&mut self) -> usize {
        self.rows.reset(0);
        self.rows.push([]);
        1
    }
}

/// Probe/hit counters accumulated across pipeline executions (reported in
/// [`crate::Rounds`] by the driver) and by [`select_counted`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCounters {
    /// Index (or dedup-table) probes issued.
    pub probes: u64,
    /// Stored tuples visited: what the probes returned, or a scan read.
    pub hits: u64,
}

/// Where a join-key component comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyPart {
    /// A column of the accumulated row (a variable bound earlier).
    Acc(usize),
    /// A constant from the rule text.
    Const(Value),
}

/// One join step: probe `pred`'s index on `index_cols` with a key assembled
/// from the accumulated row and the rule's constants, filter by
/// within-atom equalities, and append the new-variable columns.
#[derive(Debug, Clone)]
struct JoinStep {
    pred: Symbol,
    /// Columns of the stored tuple forming the index key. Empty means no
    /// variable is shared with the prefix and no constant restricts the
    /// atom: a full scan (Cartesian extension).
    index_cols: Vec<usize>,
    /// True when the key is every column in order: the step finds at most
    /// one tuple, by a lookup in the dedup table, and needs no index.
    lookup: bool,
    /// Key component per index column.
    key: Vec<KeyPart>,
    /// Within-atom repeated-variable checks `tuple[a] == tuple[b]` not
    /// already enforced by the key.
    eq_checks: Vec<(usize, usize)>,
    /// Tuple columns appended to the row (first occurrences of new vars).
    append_cols: Vec<usize>,
}

impl JoinStep {
    /// Assembles in `key` the key this step probes with for `row`.
    fn key_into(&self, row: &[Value], key: &mut Vec<Value>) {
        key.clear();
        key.extend(self.key.iter().map(|k| match k {
            KeyPart::Acc(a) => row[*a],
            KeyPart::Const(c) => *c,
        }));
    }
}

/// The selection + projection an atom denotes over its relation: constants
/// and repeated variables become checks, the first occurrence of each
/// variable is a kept column. It is a pipeline's seed filter, what
/// [`select`] applies as a query, and — the atom up to variable renaming —
/// the key the serving layer caches answers under.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Selection {
    /// Constant selections `tuple[col] == value`.
    const_checks: Vec<(usize, Value)>,
    /// Repeated-variable selections `tuple[a] == tuple[b]`.
    eq_checks: Vec<(usize, usize)>,
    /// Columns kept (first occurrence of each variable).
    keep_cols: Vec<usize>,
}

impl Selection {
    /// The selection `atom` denotes.
    pub fn of(atom: &Atom) -> Selection {
        // Sized exactly: a served request builds one as its cache key.
        let consts = atom.terms.iter().filter(|t| !t.is_var()).count();
        let mut spec = Selection {
            const_checks: Vec::with_capacity(consts),
            eq_checks: Vec::new(),
            keep_cols: Vec::with_capacity(atom.arity() - consts),
        };
        for (i, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(c) => spec.const_checks.push((i, *c)),
                Term::Var(_) => match spec.keep_cols.iter().find(|&&j| atom.terms[j] == *term) {
                    Some(&j) => spec.eq_checks.push((j, i)),
                    None => spec.keep_cols.push(i),
                },
            }
        }
        spec
    }

    /// True if `t` passes the atom's selections.
    pub fn admits(&self, t: &[Value]) -> bool {
        self.const_checks.iter().all(|&(c, v)| t[c] == v)
            && self.eq_checks.iter().all(|&(a, b)| t[a] == t[b])
    }

    /// True if every tuple passes and is kept whole: no constant, no
    /// repeated variable.
    pub(crate) fn keeps_all(&self) -> bool {
        self.const_checks.is_empty() && self.eq_checks.is_empty()
    }

    /// The kept columns of `t`, in order.
    pub fn project<'a>(&'a self, t: &'a [Value]) -> impl Iterator<Item = Value> + 'a {
        self.keep_cols.iter().map(|&c| t[c])
    }

    /// The tuples of `visited` this admits, projected, as a relation;
    /// `visits` counts what was read.
    fn gather<'a>(
        &self,
        visited: impl Iterator<Item = &'a [Value]>,
        visits: &mut u64,
    ) -> IndexedRelation {
        let mut answers = IndexedRelation::new(self.keep_cols.len());
        let mut row = Vec::with_capacity(self.keep_cols.len());
        for t in visited {
            *visits += 1;
            if self.admits(t) {
                row.clear();
                row.extend(self.project(t));
                answers.insert(&row);
            }
        }
        answers
    }

    /// The columns a constant binds, in order.
    fn bound_cols(&self) -> impl Iterator<Item = usize> + '_ {
        self.const_checks.iter().map(|&(c, _)| c)
    }

    /// True if `other` differs in nothing but the values of its constants.
    pub fn same_shape(&self, other: &Selection) -> bool {
        self.bound_cols().eq(other.bound_cols())
            && self.eq_checks == other.eq_checks
            && self.keep_cols == other.keep_cols
    }

    /// Makes this the one selection of its shape whose constants `t` passes:
    /// `t`'s own values at the bound columns.
    pub fn rebind(&mut self, t: &[Value]) {
        for (c, v) in &mut self.const_checks {
            *v = t[*c];
        }
    }
}

/// How the seed atom (the first atom of the pipeline) turns tuples into
/// initial rows.
#[derive(Debug, Clone)]
pub struct SeedSpec {
    /// The seed atom's predicate.
    pub pred: Symbol,
    /// True if the seed rows come from the current delta batch rather than
    /// the stored relation (semi-naive differentiation).
    pub from_delta: bool,
    pub(crate) selection: Selection,
}

impl SeedSpec {
    /// Filters and projects raw tuples into `scratch` as the pipeline's
    /// initial rows (replacing what it held); returns how many passed.
    pub fn fill<'a>(
        &self,
        scratch: &mut Scratch,
        tuples: impl Iterator<Item = &'a [Value]>,
    ) -> usize {
        let spec = &self.selection;
        scratch.rows.reset(spec.keep_cols.len());
        for t in tuples.filter(|t| spec.admits(t)) {
            scratch.rows.push(spec.keep_cols.iter().map(|&c| t[c]));
        }
        scratch.rows.len()
    }
}

/// One head column: either copied from the row or a constant.
#[derive(Debug, Clone, Copy)]
enum HeadCol {
    Bound(usize),
    Fixed(Value),
}

/// A rule compiled into a seed + join-step pipeline producing head tuples.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// The head predicate tuples are derived into.
    pub head_pred: Symbol,
    /// The head arity.
    pub head_arity: usize,
    /// The seed specification; `None` for an empty body (a ground head).
    pub seed: Option<SeedSpec>,
    steps: Vec<JoinStep>,
    head: Vec<HeadCol>,
    /// Columns of the widest pipeline row: one per body variable.
    width: usize,
}

impl CompiledRule {
    /// Compiles `rule` with an optional differentiated delta position. The
    /// delta atom (if any) is pinned first in the join order; `db` — the
    /// store the pipeline will execute on — supplies relation sizes for the
    /// ordering heuristic only.
    pub fn compile(
        rule: &Rule,
        delta_pos: Option<usize>,
        db: &EngineDb,
    ) -> Result<CompiledRule, DatalogError> {
        let len_of = |p| db.get(p).map(IndexedRelation::len);
        let order = order_atoms(&rule.body, len_of, delta_pos);
        // The row's columns: the variable each holds, in binding order.
        let mut acc: Vec<Symbol> = Vec::new();
        let col_of = |acc: &[Symbol], v: &Symbol| acc.iter().position(|w| w == v);

        let mut seed: Option<SeedSpec> = None;
        let mut steps: Vec<JoinStep> = Vec::new();

        for (rank, &pos) in order.iter().enumerate() {
            let atom = &rule.body[pos];
            if rank == 0 {
                // Seed atom: selection + projection, no probing.
                let selection = Selection::of(atom);
                for &c in &selection.keep_cols {
                    if let Term::Var(v) = atom.terms[c] {
                        acc.push(v);
                    }
                }
                seed = Some(SeedSpec {
                    pred: atom.predicate,
                    from_delta: delta_pos == Some(pos),
                    selection,
                });
                continue;
            }
            // Join step: shared variables and constants become the index
            // key; repeated new variables become residual equality checks;
            // new variables extend the row.
            let mut index_cols = Vec::new();
            let mut key = Vec::new();
            let mut eq_checks = Vec::new();
            let mut append_cols = Vec::new();
            let bound = acc.len();
            for (i, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(c) => {
                        index_cols.push(i);
                        key.push(KeyPart::Const(*c));
                    }
                    Term::Var(v) => {
                        if let Some(j) = atom.terms[..i].iter().position(|t| t == term) {
                            eq_checks.push((j, i));
                        } else if let Some(a) = col_of(&acc[..bound], v) {
                            index_cols.push(i);
                            key.push(KeyPart::Acc(a));
                        } else {
                            append_cols.push(i);
                            acc.push(*v);
                        }
                    }
                }
            }
            steps.push(JoinStep {
                pred: atom.predicate,
                lookup: !index_cols.is_empty() && index_cols.len() == atom.arity(),
                index_cols,
                key,
                eq_checks,
                append_cols,
            });
        }

        let head = rule
            .head
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => col_of(&acc, v)
                    .map(HeadCol::Bound)
                    .ok_or(DatalogError::UnboundVariable(*v)),
                Term::Const(c) => Ok(HeadCol::Fixed(*c)),
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(CompiledRule {
            head_pred: rule.head.predicate,
            head_arity: rule.head.arity(),
            seed,
            steps,
            head,
            width: acc.len(),
        })
    }

    /// The `(predicate, key columns)` indexes the pipeline probes. The
    /// driver ensures each exists before the fixpoint starts. A step whose
    /// key binds every column looks its tuple up instead and names none.
    pub fn required_indexes(&self) -> impl Iterator<Item = (Symbol, &[usize])> {
        self.steps
            .iter()
            .filter(|s| !s.index_cols.is_empty() && !s.lookup)
            .map(|s| (s.pred, s.index_cols.as_slice()))
    }

    /// The head row of one instantiation: the pipeline row `row` extended by
    /// the columns `appended` of the tuple `t`, projected onto the head.
    fn head_of<'a>(
        &'a self,
        row: &'a [Value],
        t: &'a [Value],
        appended: &'a [usize],
    ) -> impl Iterator<Item = Value> + 'a {
        self.head.iter().map(move |c| match *c {
            HeadCol::Fixed(v) => v,
            HeadCol::Bound(i) if i < row.len() => row[i],
            HeadCol::Bound(i) => t[appended[i - row.len()]],
        })
    }

    /// Runs the pipeline over the initial rows in `scratch` (see
    /// [`SeedSpec::fill`]; the driver may lend it a delta whole instead),
    /// appending one head row per instantiation to `out` (with duplicates;
    /// the driver's merge dedupes).
    /// Each seed row goes through every join step before the next one
    /// starts, in one reused row a step, so no step's output is held whole.
    ///
    /// If a `governor` is given, its cheap trip conditions (cancellation,
    /// deadline) are polled every `POLL_STRIDE` (512) rows visited, at any
    /// step; a trip stops the pipeline and returns the reason. Head rows
    /// already appended to `out` remain valid (every derived tuple is a
    /// true consequence — an early stop only omits tuples).
    pub fn execute(
        &self,
        db: &EngineDb,
        scratch: &mut Scratch,
        counters: &mut ProbeCounters,
        governor: Option<&Governor>,
        out: &mut Batch,
    ) -> Result<Option<TruncationReason>, EngineError> {
        let Scratch { rows, row, key } = scratch;
        // The row entering each step after the first, side by side (any
        // value fills them: each is written before it is read).
        row.resize(self.width * self.steps.len(), Value(self.head_pred));
        let mut walk = Walk {
            rule: self,
            key,
            counters,
            governor,
            countdown: POLL_STRIDE,
            out,
        };
        self.resolve(db, self.steps.len(), None, |first| {
            for seed in rows.iter() {
                walk.visit()?;
                match first {
                    Some(first) => walk.descend(first, seed, row)?,
                    // A lone seed atom: its rows are the instantiations.
                    None => walk.out.push(self.head_of(seed, &[], &[])),
                }
            }
            Continue(())
        })
        .map(|flow| flow.break_value())
    }

    /// Finds the relation of each of the first `n` steps, and the index it
    /// probes, once — last step first, each linked on the stack to the step
    /// after it — then hands the first step (none, for a lone seed atom) to
    /// `walk`.
    fn resolve<R>(
        &self,
        db: &EngineDb,
        n: usize,
        next: Option<&Linked<'_>>,
        walk: impl FnOnce(Option<&Linked<'_>>) -> R,
    ) -> Result<R, EngineError> {
        let Some(step) = n.checked_sub(1).map(|i| &self.steps[i]) else {
            return Ok(walk(next));
        };
        let rel = db.relation(step.pred)?;
        let index = rel.index(&step.index_cols);
        if index.is_none() && !step.lookup && !step.index_cols.is_empty() {
            let unensured = "compiled rule probed an index the driver never ensured";
            return Err(EngineError::Internal(unensured));
        }
        let at = Linked {
            step,
            rel,
            index,
            next,
        };
        self.resolve(db, n - 1, Some(&at), walk)
    }
}

/// How many rows a pipeline visits — seed rows, and tuples found at any
/// step — between two polls of its governor: cheap enough to keep probe
/// throughput, frequent enough to stop a blown-up round promptly.
const POLL_STRIDE: usize = 512;

/// A join step with its relation and the index it probes (none for a scan
/// or a lookup), found once a call, and the step after it.
struct Linked<'a> {
    step: &'a JoinStep,
    rel: &'a IndexedRelation,
    index: Option<IndexView<'a>>,
    next: Option<&'a Linked<'a>>,
}

/// One [`CompiledRule::execute`] call taking rows through its steps.
struct Walk<'a> {
    rule: &'a CompiledRule,
    key: &'a mut Vec<Value>,
    counters: &'a mut ProbeCounters,
    governor: Option<&'a Governor>,
    /// Rows still to visit before the next poll.
    countdown: usize,
    out: &'a mut Batch,
}

/// Whether a pipeline goes on, or stops for the reason its governor gave.
type Flow = ControlFlow<TruncationReason>;

impl Walk<'_> {
    /// Counts one row visited; every [`POLL_STRIDE`]-th polls the governor.
    fn visit(&mut self) -> Flow {
        self.countdown -= 1;
        if self.countdown > 0 {
            return Continue(());
        }
        self.countdown = POLL_STRIDE;
        let tripped = self.governor.and_then(Governor::poll);
        tripped.map_or(Continue(()), Break)
    }

    /// Takes `row` through `at`'s step and every step after it, building
    /// the rows entering those in `rest`.
    #[inline]
    fn descend(&mut self, at: &Linked<'_>, row: &[Value], rest: &mut [Value]) -> Flow {
        let step = at.step;
        if step.index_cols.is_empty() {
            // Cartesian extension: no shared variable, no constant.
            let mut scan = at.rel.iter();
            return scan.try_for_each(|t| self.extend(at, row, t, rest));
        }
        step.key_into(row, self.key);
        self.counters.probes += 1;
        if let Some(index) = &at.index {
            for id in index.probe(self.key) {
                self.counters.hits += 1;
                self.extend(at, row, at.rel.tuple(id), rest)?;
            }
        } else if let Some(id) = at.rel.id_of(self.key) {
            // Without an index, a full key: the one tuple it can find.
            self.counters.hits += 1;
            self.extend(at, row, at.rel.tuple(id), rest)?;
        }
        Continue(())
    }

    /// `row` extended by `t`, a tuple `at`'s step found: past the step's
    /// residual checks, the next step's row, or after the last a head row.
    #[inline]
    fn extend(&mut self, at: &Linked<'_>, row: &[Value], t: &[Value], rest: &mut [Value]) -> Flow {
        self.visit()?;
        let step = at.step;
        if !step.eq_checks.iter().all(|&(a, b)| t[a] == t[b]) {
            return Continue(());
        }
        let Some(next) = at.next else {
            let head = self.rule.head_of(row, t, &step.append_cols);
            self.out.push(head);
            return Continue(());
        };
        let (extended, rest) = rest.split_at_mut(row.len() + step.append_cols.len());
        let appended = step.append_cols.iter().map(|&c| t[c]);
        for (slot, v) in extended.iter_mut().zip(row.iter().copied().chain(appended)) {
            *slot = v;
        }
        self.descend(next, extended, rest)
    }
}

/// Answers a query over one stored relation: the tuples `query` admits,
/// projected onto its kept columns — the seed filter of a pipeline, applied
/// as a query. The query's arity must be the relation's.
pub fn select(rel: &IndexedRelation, query: &Selection) -> IndexedRelation {
    select_counted(rel, query, &mut ProbeCounters::default())
}

/// [`select`], counting the stored tuples it visits. A query of distinct
/// variables only keeps every tuple whole, so it shares the relation's rows
/// (and counts them read) instead of copying them; a ground query is one
/// lookup in the dedup table; a query whose constants cover an index the
/// relation already maintains probes it (the widest such — none is ever
/// built for a query); anything else scans the arena.
pub fn select_counted(
    rel: &IndexedRelation,
    query: &Selection,
    counters: &mut ProbeCounters,
) -> IndexedRelation {
    // Every column of the query's atom is checked or kept.
    let arity = query.const_checks.len() + query.eq_checks.len() + query.keep_cols.len();
    assert_eq!(arity, rel.arity(), "query arity mismatch");
    let ProbeCounters { probes, hits } = counters;
    if query.keeps_all() {
        *hits += rel.len() as u64;
        return rel.unindexed();
    }
    let bound: Vec<usize> = query.bound_cols().collect();
    let key_on = |cols: &[usize]| -> Vec<Value> {
        let bound_to = |c: &usize| query.const_checks.iter().find(|(b, _)| b == c);
        cols.iter().filter_map(bound_to).map(|&(_, v)| v).collect()
    };
    if bound.len() == rel.arity() {
        *probes += 1;
        let found = rel.id_of(&key_on(&bound)).map(|id| rel.tuple(id));
        query.gather(found.into_iter(), hits)
    } else if let Some(index) = rel.index_within(&bound) {
        *probes += 1;
        let probed = index.probe(&key_on(index.cols()));
        query.gather(probed.map(|id| rel.tuple(id)), hits)
    } else {
        query.gather(rel.iter(), hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::govern::{CancelToken, EvalBudget};
    use recurs_datalog::parser::parse_rule;
    use recurs_datalog::relation::{tuple_u64, Relation, Tuple};
    use std::collections::HashSet;

    fn db_with(rels: &[(&str, Relation)]) -> EngineDb {
        let mut db = EngineDb::new();
        for (name, rel) in rels {
            db.load(Symbol::intern(name), rel);
        }
        db
    }

    fn run(cr: &CompiledRule, edb: &EngineDb) -> Vec<Tuple> {
        let seed = cr.seed.as_ref().unwrap();
        let mut scratch = Scratch::default();
        seed.fill(&mut scratch, edb.get(seed.pred).unwrap().iter());
        let mut out = Batch::new(cr.head_arity);
        let mut counters = ProbeCounters::default();
        cr.execute(edb, &mut scratch, &mut counters, None, &mut out)
            .unwrap();
        out.iter().map(Tuple::from).collect()
    }

    #[test]
    fn two_atom_join_produces_composition() {
        let rule = parse_rule("Q(x, z) :- A(x, y), B(y, z).").unwrap();
        let mut db = db_with(&[
            ("A", Relation::from_pairs([(1, 2), (2, 3)])),
            ("B", Relation::from_pairs([(2, 5), (3, 6)])),
        ]);
        let cr = CompiledRule::compile(&rule, None, &db).unwrap();
        db.ensure_indexes(&cr);
        let mut out = run(&cr, &db);
        out.sort();
        let got: Vec<Vec<&str>> = out
            .iter()
            .map(|t| t.iter().map(|v| v.as_str()).collect())
            .collect();
        assert_eq!(got, vec![vec!["1", "5"], vec!["2", "6"]]);
    }

    #[test]
    fn constants_fold_into_the_index_key() {
        let rule = parse_rule("Q(y) :- A(x, y), B('7', x).").unwrap();
        let mut db = db_with(&[
            ("A", Relation::from_pairs([(1, 10), (2, 20)])),
            ("B", Relation::from_pairs([(7, 1), (8, 2)])),
        ]);
        let cr = CompiledRule::compile(&rule, None, &db).unwrap();
        // The ordering heuristic leads with the constant-bearing B atom, so
        // the A step probes an index that includes no constant; either way
        // every required index must be declared.
        db.ensure_indexes(&cr);
        let out = run(&cr, &db);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0].as_str(), "10");
    }

    #[test]
    fn repeated_variables_filter_within_atom() {
        let rule = parse_rule("Q(x) :- A(x, x).").unwrap();
        let db = db_with(&[("A", Relation::from_pairs([(1, 1), (1, 2), (3, 3)]))]);
        let cr = CompiledRule::compile(&rule, None, &db).unwrap();
        let mut out = run(&cr, &db);
        out.sort();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn a_step_binding_every_column_looks_up_and_needs_no_index() {
        let a = Relation::from_pairs([(1, 2), (1, 3), (2, 3), (4, 3)]);
        let b = Relation::from_pairs([(1, 3), (2, 2), (4, 3)]);
        // Whichever atom seeds, the other is bound on both columns, in order.
        let shared = parse_rule("Q(x) :- A(x, y), B(x, y).").unwrap();
        // Pinned behind the seed, a constant fills the rest of the key.
        let constant = parse_rule("Q(x) :- A(x, y), B(x, 3).").unwrap();
        for (rule, want) in [(shared, vec!["1", "4"]), (constant, vec!["1", "1", "4"])] {
            let db = db_with(&[("A", a.clone()), ("B", b.clone())]);
            let cr = CompiledRule::compile(&rule, Some(0), &db).unwrap();
            assert_eq!(cr.required_indexes().count(), 0, "{rule}");
            // No index was built, and none is probed.
            let out = run(&cr, &db);
            let mut got: Vec<&str> = out.iter().map(|t| t[0].as_str()).collect();
            got.sort();
            assert_eq!(got, want, "{rule}");
        }
    }

    #[test]
    fn a_repeated_new_variable_still_probes_an_index() {
        let rule = parse_rule("Q(x, y) :- A(x, z), B(x, y, y).").unwrap();
        let mut db = db_with(&[("A", Relation::from_pairs([(1, 2), (5, 6)]))]);
        let b = [[1, 7, 7], [1, 8, 9], [5, 5, 5]].map(tuple_u64);
        db.load(Symbol::intern("B"), &Relation::from_tuples(3, b));
        let cr = CompiledRule::compile(&rule, Some(0), &db).unwrap();
        let idx: Vec<_> = cr.required_indexes().collect();
        assert_eq!(idx, vec![(Symbol::intern("B"), &[0usize][..])]);
        db.ensure_indexes(&cr);
        let (mut out, mut want) = (run(&cr, &db), vec![tuple_u64([1, 7]), tuple_u64([5, 5])]);
        out.sort();
        want.sort();
        assert_eq!(out, want);
    }

    #[test]
    fn cartesian_step_scans() {
        let rule = parse_rule("R(x, y) :- A(x, u), B(y, v).").unwrap();
        let db = db_with(&[
            ("A", Relation::from_pairs([(1, 10), (2, 20)])),
            ("B", Relation::from_pairs([(7, 70)])),
        ]);
        let cr = CompiledRule::compile(&rule, None, &db).unwrap();
        let out = run(&cr, &db);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn a_cancelled_pipeline_stops_within_one_stride_of_rows_visited() {
        // One seed row fans out over 10 000 tuples at a single step.
        let rule = parse_rule("Q(x, y) :- A(x), B(x, y).").unwrap();
        let mut db = db_with(&[
            ("A", Relation::from_tuples(1, [tuple_u64([1])])),
            ("B", Relation::from_pairs((0..10_000).map(|y| (1, y)))),
        ]);
        let cr = CompiledRule::compile(&rule, Some(0), &db).unwrap();
        db.ensure_indexes(&cr);
        let full: HashSet<Tuple> = run(&cr, &db).into_iter().collect();
        assert_eq!(full.len(), 10_000);

        let token = CancelToken::new();
        token.cancel();
        let governor = EvalBudget::unlimited().with_cancel(token).start();
        let mut scratch = Scratch::default();
        cr.seed
            .as_ref()
            .unwrap()
            .fill(&mut scratch, db.get(Symbol::intern("A")).unwrap().iter());
        let (mut out, mut counters) = (Batch::new(2), ProbeCounters::default());
        let stopped = cr.execute(&db, &mut scratch, &mut counters, Some(&governor), &mut out);
        assert_eq!(stopped.unwrap(), Some(TruncationReason::Cancelled));
        // The seed row and each tuple found is a visited row: the poll at
        // the POLL_STRIDE-th trips.
        assert!(
            (counters.hits as usize) < POLL_STRIDE,
            "{} hits",
            counters.hits
        );
        assert!(
            out.iter().all(|t| full.contains(t)),
            "a head row it should not have"
        );
    }

    #[test]
    fn unbound_head_variable_is_an_error() {
        let rule = parse_rule("Q(w) :- A(x, y).").unwrap();
        let db = db_with(&[("A", Relation::from_pairs([(1, 2)]))]);
        assert!(matches!(
            CompiledRule::compile(&rule, None, &db),
            Err(DatalogError::UnboundVariable(_))
        ));
    }

    #[test]
    fn delta_position_pins_the_seed() {
        let rule = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        let db = db_with(&[("A", Relation::from_pairs([(1, 2)]))]);
        let cr = CompiledRule::compile(&rule, Some(1), &db).unwrap();
        let seed = cr.seed.as_ref().unwrap();
        assert_eq!(seed.pred, Symbol::intern("P"));
        assert!(seed.from_delta);
        // The single join step probes A on its second column (z).
        let idx: Vec<_> = cr.required_indexes().collect();
        assert_eq!(idx, vec![(Symbol::intern("A"), &[1usize][..])]);
    }
}
