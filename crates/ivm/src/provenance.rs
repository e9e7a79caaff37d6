//! Derivation provenance: `why <fact>` answered by a backward walk over a
//! saturated store.
//!
//! A ground fact is the all-bound query form, so it is explained the way the
//! paper evaluates every form: selection-first, walking outward from its
//! constants. The walk needs a store that already holds the derived
//! predicate, and any such store will do. [`Materialization::explain`] walks
//! the maintained view and saturates nothing; [`explain_fact`] walks a clone
//! of an EDB saturated by the engine's ordinary
//! [`saturate_linear`](recurs_engine::saturate_linear). Either way a
//! **derivation tree** comes back: every leaf an EDB fact, every internal
//! node a ground instance of one of the program's rules.
//!
//! 1. **One-step rule inversion.** A rule's *witness pipeline* is the rule
//!    compiled inverted, deriving every one of its variables. Seeded with a
//!    tuple, it enumerates the rule's ground instances with that head over
//!    the store, through the engine's indexes. The rule is linear, so each
//!    instance of the recursive rule has exactly one recursive subgoal.
//! 2. **A breadth-first walk.** From the fact, take nodes in the order they
//!    were reached. A node with an exit-rule instance (exit rules in rule
//!    order, instances sorted) is the base; otherwise the recursive subgoal
//!    of each sorted recursive instance not reached yet joins the queue.
//!    The first base reached lies on a shortest derivation, and its depth —
//!    the number of recursive steps, the engine round the fact first
//!    appears in — is the fact's *rank*. The tree is built bottom-up along
//!    the recorded parents: `O(rank × body width)` nodes, whatever cycles
//!    the data holds.
//!
//! A rank beyond the depth bound is [`WhyOutcome::DepthExceeded`], and every
//! node polls the request's
//! [`EvalBudget`](recurs_datalog::govern::EvalBudget). [`verify_tree`]
//! re-checks a finished tree against the *EDB only* — every leaf present,
//! every internal node a valid rule instance under a single simultaneous
//! substitution — which is what the differential property suites and the
//! serve layer's cross-check call.

use crate::materialize::{compile_inverted, edb_only, recursive_position, rules, Materialization};
use crate::IvmError;
use recurs_datalog::error::DatalogError;
use recurs_datalog::govern::{EvalBudget, Governor, Outcome};
use recurs_datalog::relation::Tuple;
use recurs_datalog::rule::{LinearRecursion, Rule};
use recurs_datalog::subst::Subst;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::{Atom, Term, Value};
use recurs_engine::compile::{CompiledRule, ProbeCounters, Scratch};
use recurs_engine::{saturate_linear, Batch, EngineConfig, EngineDb, IndexedRelation};

/// Default depth bound for backward reconstruction: enough for any chain a
/// governed evaluation can produce, while still guaranteeing termination
/// against adversarial inputs.
pub const DEFAULT_WHY_DEPTH: u64 = 10_000;

/// One node of a derivation tree.
#[derive(Debug, Clone)]
pub struct DerivationNode {
    /// The predicate of this node's tuple.
    pub predicate: Symbol,
    /// The ground tuple being derived.
    pub tuple: Tuple,
    /// `None` for an EDB leaf; `Some(0)` for the recursive rule,
    /// `Some(i + 1)` for `exit_rules[i]` (the materialization's rule-index
    /// convention).
    pub rule: Option<usize>,
    /// One child per body atom of the rule, in body order (empty for
    /// leaves and for fact rules with empty bodies).
    pub children: Vec<DerivationNode>,
}

impl DerivationNode {
    /// Total number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Self::size).sum::<usize>()
    }

    /// Length of the longest root-to-leaf path (a leaf is depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(Self::depth).max().unwrap_or(0)
    }

    /// Renders `pred(c1, c2)` for this node's tuple.
    pub fn fact(&self) -> String {
        let args: Vec<&str> = self.tuple.iter().map(|v| v.as_str()).collect();
        format!("{}({})", self.predicate, args.join(", "))
    }
}

/// The answer to `why <fact>`.
#[derive(Debug, Clone)]
pub enum WhyOutcome {
    /// The fact is derivable; here is a derivation tree.
    Derived(DerivationNode),
    /// The fact is not in the fixpoint over the current database.
    NotDerived,
    /// The fact is derivable but its shortest derivation needs more
    /// recursive steps than the bound allowed.
    DepthExceeded {
        /// The fact's rank (recursive steps its reconstruction needs).
        rank: u64,
        /// The bound that was exceeded.
        max_depth: u64,
    },
}

/// Extends `subst` so `atom` matches the ground `tuple`; false on clash
/// (constant mismatch or a variable already bound to something else).
fn unify_ground(subst: &mut Subst, atom: &Atom, tuple: &[Value]) -> bool {
    if atom.arity() != tuple.len() {
        return false;
    }
    for (t, v) in atom.terms.iter().zip(tuple.iter()) {
        match subst.resolve(*t) {
            Term::Const(c) => {
                if c != *v {
                    return false;
                }
            }
            Term::Var(var) => subst.bind(var, Term::Const(*v)),
        }
    }
    true
}

/// The witness pipelines of every rule of `lr` over `engine`, the recursive
/// rule first (the rule-index convention): [`compile_inverted`] deriving the
/// rule's whole body — the terms of every body atom, concatenated — so each
/// derived row is one ground instance of the rule, read off subgoal by
/// subgoal.
pub(crate) fn compile_witnesses(
    lr: &LinearRecursion,
    engine: &mut EngineDb,
) -> Result<Vec<CompiledRule>, IvmError> {
    rules(lr)
        .map(|rule| {
            let body_terms = rule.body.iter().flat_map(|a| a.terms.iter().copied());
            // Never stored: the pipeline is executed directly, not merged.
            let head = Atom::new("__ivm_witness", body_terms.collect());
            compile_inverted(rule, head, engine)
        })
        .collect()
}

/// Every ground instance of a rule whose head is `tuple`, by the rule's
/// witness `pipeline` over `engine`, in sorted order (so the witness picked
/// is the same on every run).
fn witnesses(
    pipeline: &CompiledRule,
    engine: &EngineDb,
    tuple: &[Value],
    governor: &Governor,
) -> Result<Vec<Tuple>, IvmError> {
    let (mut scratch, mut out) = (Scratch::default(), Batch::new(pipeline.head_arity));
    let seeded = pipeline.seed.as_ref();
    if seeded.is_some_and(|seed| seed.fill(&mut scratch, std::iter::once(tuple)) > 0) {
        let counters = &mut ProbeCounters::default();
        if let Some(reason) =
            pipeline.execute(engine, &mut scratch, counters, Some(governor), &mut out)?
        {
            return Err(IvmError::Truncated(reason));
        }
    }
    let mut out: Vec<Tuple> = out.iter().map(Tuple::from).collect();
    out.sort();
    Ok(out)
}

/// The columns of body atom `i` within a ground instance of `rule`.
fn subgoal(rule: &Rule, i: usize) -> std::ops::Range<usize> {
    let start: usize = rule.body[..i].iter().map(Atom::arity).sum();
    start..start + rule.body[i].arity()
}

/// The node for `tuple` derived by `rule` (index `rule_index`) under
/// `witness`: every body atom an EDB leaf, except that `recursive` — the
/// recursive body position and its already-explained subtree — takes that
/// position's place.
fn node(
    rule: &Rule,
    rule_index: usize,
    tuple: &[Value],
    witness: &[Value],
    mut recursive: Option<(usize, DerivationNode)>,
) -> DerivationNode {
    let children = (0..rule.body.len())
        .map(|i| match recursive.take_if(|(pos, _)| *pos == i) {
            Some((_, sub)) => sub,
            None => DerivationNode {
                predicate: rule.body[i].predicate,
                tuple: witness[subgoal(rule, i)].into(),
                rule: None,
                children: Vec::new(),
            },
        })
        .collect();
    DerivationNode {
        predicate: rule.head.predicate,
        tuple: tuple.into(),
        rule: Some(rule_index),
        children,
    }
}

/// An error unless `fact` has the recursive predicate's arity.
fn check_arity(lr: &LinearRecursion, fact: &[Value]) -> Result<(), IvmError> {
    let (predicate, expected, found) = (lr.predicate, lr.dimension(), fact.len());
    if expected == found {
        return Ok(());
    }
    let mismatch = DatalogError::ArityMismatch {
        predicate,
        expected,
        found,
    };
    Err(IvmError::Datalog(mismatch))
}

/// Explains one fact of the recursive predicate over `edb`: saturates a
/// private clone of the store (sharing every EDB relation it does not have
/// to index) with the engine's ordinary saturation, then walks it. Any
/// derived tuples `edb` carries are dropped first. `max_depth` bounds the
/// number of recursive steps; the budget governs both the saturation and
/// the walk.
pub fn explain_fact(
    lr: &LinearRecursion,
    edb: &EngineDb,
    fact: &[Value],
    max_depth: u64,
    budget: &EvalBudget,
) -> Result<WhyOutcome, IvmError> {
    check_arity(lr, fact)?;
    let governor = budget.start();
    let mut store = edb_only(lr, edb.clone())?;
    let config = EngineConfig {
        budget: budget.clone(),
        ..EngineConfig::default()
    };
    if let Outcome::Truncated(reason) = saturate_linear(&mut store, lr, &config)?.outcome {
        return Err(IvmError::Truncated(reason));
    }
    let witnesses = compile_witnesses(lr, &mut store)?;
    walk(lr, &witnesses, &store, fact, max_depth, &governor)
}

impl Materialization {
    /// Explains one fact of the recursive predicate over the maintained
    /// view: a walk over the fixpoint it already holds, with the witness
    /// pipelines compiled when it was built. Nothing is saturated; the
    /// budget governs the walk.
    pub fn explain(
        &self,
        fact: &[Value],
        max_depth: u64,
        budget: &EvalBudget,
    ) -> Result<WhyOutcome, IvmError> {
        let (lr, governor) = (&self.lr, budget.start());
        check_arity(lr, fact)?;
        walk(
            lr,
            &self.witnesses,
            &self.engine,
            fact,
            max_depth,
            &governor,
        )
    }
}

/// The breadth-first walk backward from `fact` over `store`, which holds
/// the fixpoint of `lr`; `pipelines` are [`compile_witnesses`] over it.
///
/// One relation is both the queue and the visited set: ids come in
/// insertion order, so id order is breadth-first order, and `parents[id - 1]`
/// is the node that reached `id` and the recursive instance it did so by.
fn walk(
    lr: &LinearRecursion,
    pipelines: &[CompiledRule],
    store: &EngineDb,
    fact: &[Value],
    max_depth: u64,
    governor: &Governor,
) -> Result<WhyOutcome, IvmError> {
    let p = lr.predicate;
    if !store.get(p).is_some_and(|derived| derived.contains(fact)) {
        return Ok(WhyOutcome::NotDerived);
    }
    let (rec, p_pos) = (&lr.recursive_rule, recursive_position(lr)?);
    let mut seen = IndexedRelation::new(lr.dimension());
    seen.insert(fact);
    let (mut parents, mut next) = (Vec::<(u32, Tuple)>::new(), 0);
    while next < seen.len() as u32 {
        if let Some(reason) = governor.poll() {
            return Err(IvmError::Truncated(reason));
        }
        let tuple = seen.tuple(next);
        for (i, (rule, pipeline)) in rules(lr).zip(pipelines).enumerate().skip(1) {
            if let Some(witness) = witnesses(pipeline, store, tuple, governor)?.first() {
                // The base: climb the parent entries back to the fact.
                let up = |id: u32| id.checked_sub(1).map(|up| &parents[up as usize]);
                let chain: Vec<_> = std::iter::successors(up(next), |(id, _)| up(*id)).collect();
                let rank = chain.len() as u64;
                if rank > max_depth {
                    return Ok(WhyOutcome::DepthExceeded { rank, max_depth });
                }
                let base = node(rule, i, tuple, witness, None);
                let tree = chain.into_iter().fold(base, |tree, (id, witness)| {
                    node(rec, 0, seen.tuple(*id), witness, Some((p_pos, tree)))
                });
                return Ok(WhyOutcome::Derived(tree));
            }
        }
        for witness in witnesses(&pipelines[0], store, tuple, governor)? {
            if seen.insert(&witness[subgoal(rec, p_pos)]) {
                parents.push((next, witness));
            }
        }
        next += 1;
    }
    // Unreachable for a store that holds the fixpoint of `lr`: every stored
    // tuple has a derivation. Surfaced as a substrate error, not a panic.
    Err(IvmError::Datalog(DatalogError::UnknownRelation(p)))
}

/// Structurally verifies a derivation tree against the **EDB only**: every
/// leaf must be a stored fact of a non-recursive predicate, and every
/// internal node must be a ground instance of its claimed rule under one
/// simultaneous substitution (head matches the node's tuple, body atom `i`
/// matches child `i`'s tuple). Returns a description of the first defect.
pub fn verify_tree(
    lr: &LinearRecursion,
    edb: &EngineDb,
    node: &DerivationNode,
) -> Result<(), String> {
    match node.rule {
        None => {
            if node.predicate == lr.predicate {
                return Err(format!(
                    "leaf {} claims the recursive predicate",
                    node.fact()
                ));
            }
            if !node.children.is_empty() {
                return Err(format!("leaf {} has children", node.fact()));
            }
            let present = edb
                .get(node.predicate)
                .is_some_and(|rel| rel.contains(&node.tuple));
            if !present {
                return Err(format!("leaf {} is not an EDB fact", node.fact()));
            }
            Ok(())
        }
        Some(ri) => {
            if node.predicate != lr.predicate {
                return Err(format!(
                    "internal node {} is not the recursive predicate",
                    node.fact()
                ));
            }
            let Some(rule) = rules(lr).nth(ri) else {
                return Err(format!(
                    "node {} cites rule {ri} (no such rule)",
                    node.fact()
                ));
            };
            if node.children.len() != rule.body.len() {
                return Err(format!(
                    "node {} has {} children for a {}-atom body",
                    node.fact(),
                    node.children.len(),
                    rule.body.len()
                ));
            }
            let mut subst = Subst::new();
            if !unify_ground(&mut subst, &rule.head, &node.tuple) {
                return Err(format!("rule {ri} head does not match {}", node.fact()));
            }
            for (atom, child) in rule.body.iter().zip(&node.children) {
                if atom.predicate != child.predicate {
                    return Err(format!(
                        "child {} under {} does not match body atom {}",
                        child.fact(),
                        node.fact(),
                        atom
                    ));
                }
                if !unify_ground(&mut subst, atom, &child.tuple) {
                    return Err(format!(
                        "child {} under {} is not a consistent instantiation of {}",
                        child.fact(),
                        node.fact(),
                        atom
                    ));
                }
            }
            for child in &node.children {
                verify_tree(lr, edb, child)?;
            }
            Ok(())
        }
    }
}

/// Renders the tree as indented text for the CLI:
///
/// ```text
/// tc(1, 3)  [recursive rule]
///   edge(1, 2)  [edb]
///   tc(2, 3)  [exit rule 1]
///     edge(2, 3)  [edb]
/// ```
pub fn render_tree(node: &DerivationNode) -> String {
    fn walk(node: &DerivationNode, depth: usize, out: &mut String) {
        let (indent, fact) = ("  ".repeat(depth), node.fact());
        out.push_str(&match node.rule {
            None => format!("{indent}{fact}  [edb]\n"),
            Some(0) => format!("{indent}{fact}  [recursive rule]\n"),
            Some(i) => format!("{indent}{fact}  [exit rule {i}]\n"),
        });
        for child in &node.children {
            walk(child, depth + 1, out);
        }
    }
    let mut out = String::new();
    walk(node, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::govern::TruncationReason;
    use recurs_datalog::parser::parse_program;
    use recurs_datalog::relation::{tuple_u64, Relation};
    use recurs_datalog::rule::LinearRecursion;

    fn tc() -> (LinearRecursion, EngineDb) {
        let program =
            parse_program("tc(x, y) :- edge(x, y).\ntc(x, y) :- edge(x, z), tc(z, y).").unwrap();
        let lr = LinearRecursion::from_program(&program).unwrap();
        let mut db = EngineDb::new();
        db.load(
            Symbol::intern("edge"),
            &Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 2)]),
        );
        (lr, db)
    }

    #[test]
    fn derives_a_chain_and_verifies() {
        let (lr, db) = tc();
        let budget = EvalBudget::unlimited();
        let out = explain_fact(&lr, &db, &tuple_u64([1, 4]), DEFAULT_WHY_DEPTH, &budget).unwrap();
        let WhyOutcome::Derived(tree) = out else {
            panic!("expected Derived, got {out:?}");
        };
        assert_eq!(tree.fact(), "tc(1, 4)");
        verify_tree(&lr, &db, &tree).unwrap();
        // The chain 1→2→3→4 needs rank 2: three edges, two recursive steps.
        assert_eq!(tree.depth(), 4);
        let text = render_tree(&tree);
        assert!(text.starts_with("tc(1, 4)  [recursive rule]\n"));
        assert!(text.contains("edge(1, 2)  [edb]"));
    }

    #[test]
    fn underivable_facts_say_so() {
        let (lr, db) = tc();
        let budget = EvalBudget::unlimited();
        let out = explain_fact(&lr, &db, &tuple_u64([4, 1]), DEFAULT_WHY_DEPTH, &budget).unwrap();
        assert!(matches!(out, WhyOutcome::NotDerived));
    }

    #[test]
    fn cyclic_data_still_terminates() {
        let (lr, db) = tc(); // contains the cycle 2→3→4→2
        let budget = EvalBudget::unlimited();
        let out = explain_fact(&lr, &db, &tuple_u64([2, 2]), DEFAULT_WHY_DEPTH, &budget).unwrap();
        let WhyOutcome::Derived(tree) = out else {
            panic!("expected Derived, got {out:?}");
        };
        verify_tree(&lr, &db, &tree).unwrap();
    }

    #[test]
    fn depth_bound_is_honored() {
        let (lr, db) = tc();
        let budget = EvalBudget::unlimited();
        let out = explain_fact(&lr, &db, &tuple_u64([1, 4]), 1, &budget).unwrap();
        match out {
            WhyOutcome::DepthExceeded { rank, max_depth } => {
                assert_eq!(rank, 2);
                assert_eq!(max_depth, 1);
            }
            other => panic!("expected DepthExceeded, got {other:?}"),
        }
    }

    #[test]
    fn tuple_ceiling_truncates_the_saturation() {
        let (lr, db) = tc();
        let budget = EvalBudget::unlimited().with_max_tuples(1);
        let err = explain_fact(&lr, &db, &tuple_u64([1, 4]), DEFAULT_WHY_DEPTH, &budget)
            .expect_err("P(1, 4) needs more than the seeding round's tuples");
        assert!(matches!(
            err,
            IvmError::Truncated(TruncationReason::TupleCeiling)
        ));
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let (lr, db) = tc();
        let budget = EvalBudget::unlimited();
        assert!(explain_fact(&lr, &db, &tuple_u64([1]), 10, &budget).is_err());
    }

    #[test]
    fn verify_rejects_forged_trees() {
        let (lr, db) = tc();
        // A leaf claiming an edge that is not stored.
        let forged = DerivationNode {
            predicate: lr.predicate,
            tuple: tuple_u64([1, 2]),
            rule: Some(1),
            children: vec![DerivationNode {
                predicate: Symbol::intern("edge"),
                tuple: tuple_u64([1, 7]),
                rule: None,
                children: Vec::new(),
            }],
        };
        let err = verify_tree(&lr, &db, &forged).unwrap_err();
        assert!(err.contains("not a consistent instantiation") || err.contains("not an EDB fact"));
        // An inconsistent instantiation: head says (1,2) but child is (2,3).
        let inconsistent = DerivationNode {
            predicate: lr.predicate,
            tuple: tuple_u64([1, 2]),
            rule: Some(1),
            children: vec![DerivationNode {
                predicate: Symbol::intern("edge"),
                tuple: tuple_u64([2, 3]),
                rule: None,
                children: Vec::new(),
            }],
        };
        assert!(verify_tree(&lr, &db, &inconsistent).is_err());
    }
}
