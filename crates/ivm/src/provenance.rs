//! Derivation provenance: `why <fact>` answered by backward rule
//! inversion.
//!
//! [`explain_fact`] reconstructs a **derivation tree** for a tuple of the
//! recursive predicate: every leaf is an EDB fact, every internal node a
//! ground instance of one of the program's rules. The reconstruction is
//! sound by construction and cheap by stratification:
//!
//! 1. A **rank-tracked saturation** runs semi-naive to fixpoint, recording
//!    for each derived tuple the round in which it first appeared (rank 0 =
//!    exit-rule seeding). Ranks strictly decrease along any derivation, so
//!    they are the well-founded measure that makes backward search loop-free
//!    even on cyclic data.
//! 2. **One-step rule inversion**: to explain a tuple of rank `r`, seed a
//!    rule's *witness pipeline* — the rule compiled inverted, deriving every
//!    one of its variables — with the tuple, which enumerates the rule's
//!    ground instances with that head over the saturated store through the
//!    engine's indexes, and pick a witness whose recursive subgoal has rank
//!    `< r` (rank 0 tuples invert an exit rule instead, making every subgoal
//!    an EDB leaf). Only the recursive subgoal recurses — the rule is
//!    linear — so tree size is `O(rank × body width)`.
//!
//! The recursion is depth-bounded ([`WhyOutcome::DepthExceeded`]) and the
//! whole reconstruction runs under an
//! [`EvalBudget`](recurs_datalog::govern::EvalBudget). [`verify_tree`]
//! re-checks a finished tree against the *EDB only* — every leaf present,
//! every internal node a valid rule instance under a single simultaneous
//! substitution — which is what the differential property suite and the
//! serve layer's cross-check call.

use crate::materialize::{compile_exits, compile_inverted, fresh_store, rules, stopped};
use crate::IvmError;
use recurs_datalog::error::DatalogError;
use recurs_datalog::govern::{EvalBudget, Governor};
use recurs_datalog::relation::Tuple;
use recurs_datalog::rule::{LinearRecursion, Rule};
use recurs_datalog::subst::Subst;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::{Atom, Term, Value};
use recurs_engine::compile::{CompiledRule, ProbeCounters, Scratch};
use recurs_engine::{drive_rounds, Batch, EngineDb};
use recurs_obs::Obs;

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
        1 + self
            .children
            .iter()
            .map(DerivationNode::size)
            .sum::<usize>()
    }

    /// Length of the longest root-to-leaf path (a leaf is depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(DerivationNode::depth)
            .max()
            .unwrap_or(0)
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

/// A saturated store plus, by tuple id of the derived relation, the driver
/// round in which each derived tuple first appeared (round 0 is the
/// exit-rule seeding round).
struct Ranked {
    engine: EngineDb,
    ranks: Vec<u64>,
}

impl Ranked {
    /// The rank of a tuple of the derived relation `p`, if it was derived.
    fn rank(&self, p: Symbol, t: &[Value]) -> Option<u64> {
        let id = self.engine.get(p)?.id_of(t)?;
        Some(self.ranks[id as usize])
    }
}

/// Rank-tracked saturation of `edb`, in place. Any derived tuples `edb`
/// carries are dropped first — ranks must match this run.
fn saturate_with_ranks(
    lr: &LinearRecursion,
    edb: EngineDb,
    governor: &Governor,
) -> Result<Ranked, IvmError> {
    let (mut engine, rec_delta) = fresh_store(lr, edb)?;
    let exits = compile_exits(lr, &mut engine)?;
    let mut ranks: Vec<u64> = Vec::new();
    let run = drive_rounds(
        &mut engine,
        Some(&exits),
        std::slice::from_ref(&rec_delta),
        [],
        None,
        governor,
        &Obs::noop(),
        |engine, round, rule, heads, fresh| {
            engine.insert_fresh(rule.head_pred, heads, fresh);
            // Nothing is ever removed, so ids are arena positions: the fresh
            // tuples are the ones past the ranks recorded so far.
            let derived = engine.get(rule.head_pred).map_or(0, |stored| stored.len());
            ranks.resize(derived, round as u64);
        },
    )?;
    if let Some(reason) = stopped(&run) {
        return Err(IvmError::Truncated(reason));
    }
    Ok(Ranked { engine, ranks })
}

/// One rule's witness pipeline: [`compile_inverted`] deriving the rule's
/// whole body — the terms of every body atom, concatenated — so each derived
/// row is one ground instance of the rule, read off subgoal by subgoal.
struct Inverted<'a> {
    rule: &'a Rule,
    pipeline: CompiledRule,
}

impl<'a> Inverted<'a> {
    fn compile(rule: &'a Rule, engine: &mut EngineDb) -> Result<Inverted<'a>, IvmError> {
        let body_terms = rule.body.iter().flat_map(|a| a.terms.iter().copied());
        // Never stored: the pipeline is executed directly, not merged.
        let head = Atom::new("__ivm_witness", body_terms.collect());
        Ok(Inverted {
            rule,
            pipeline: compile_inverted(rule, head, engine)?,
        })
    }

    /// Every ground instance of the rule whose head is `tuple`, in sorted
    /// order (so the witness picked is the same on every run).
    fn witnesses(
        &self,
        engine: &EngineDb,
        tuple: &[Value],
        governor: &Governor,
    ) -> Result<Vec<Tuple>, IvmError> {
        let mut scratch = Scratch::default();
        let mut out = Batch::new(self.pipeline.head_arity);
        let seeded = self.pipeline.seed.as_ref();
        if seeded.is_some_and(|seed| seed.fill(&mut scratch, std::iter::once(tuple)) > 0) {
            let stopped = self.pipeline.execute(
                engine,
                &mut scratch,
                &mut ProbeCounters::default(),
                Some(governor),
                &mut out,
            )?;
            if let Some(reason) = stopped {
                return Err(IvmError::Truncated(reason));
            }
        }
        let mut out: Vec<Tuple> = out.iter().map(Tuple::from).collect();
        out.sort();
        Ok(out)
    }

    /// Body atom `i` of the ground instance `witness`.
    fn subgoal(&self, i: usize, witness: &[Value]) -> Tuple {
        let start: usize = self.rule.body[..i].iter().map(Atom::arity).sum();
        witness[start..start + self.rule.body[i].arity()].into()
    }

    /// The node for `tuple` derived by this rule (index `rule_index`) under
    /// `witness`: every body atom an EDB leaf, except that `recursive` —
    /// the recursive body position and its already-explained subtree —
    /// takes that position's place.
    fn node(
        &self,
        rule_index: usize,
        tuple: &Tuple,
        witness: &[Value],
        mut recursive: Option<(usize, DerivationNode)>,
    ) -> DerivationNode {
        let children = (0..self.rule.body.len())
            .map(|i| match recursive.take_if(|(pos, _)| *pos == i) {
                Some((_, sub)) => sub,
                None => DerivationNode {
                    predicate: self.rule.body[i].predicate,
                    tuple: self.subgoal(i, witness),
                    rule: None,
                    children: Vec::new(),
                },
            })
            .collect();
        DerivationNode {
            predicate: self.rule.head.predicate,
            tuple: tuple.clone(),
            rule: Some(rule_index),
            children,
        }
    }
}

/// Explains one fact of the recursive predicate over `edb`.
///
/// Any derived-`P` tuples already present in `edb` are ignored — the
/// saturation runs in a private clone of the store (sharing every EDB
/// relation it does not have to index) so ranks are consistent.
/// `max_depth` bounds the number of recursive inversion steps; the budget
/// governs both the saturation and the backward walk.
pub fn explain_fact(
    lr: &LinearRecursion,
    edb: &EngineDb,
    fact: &[Value],
    max_depth: u64,
    budget: &EvalBudget,
) -> Result<WhyOutcome, IvmError> {
    if fact.len() != lr.dimension() {
        return Err(IvmError::Datalog(DatalogError::ArityMismatch {
            predicate: lr.predicate,
            expected: lr.dimension(),
            found: fact.len(),
        }));
    }
    let governor = budget.start();
    let mut ranked = saturate_with_ranks(lr, edb.clone(), &governor)?;
    let Some(rank) = ranked.rank(lr.predicate, fact) else {
        return Ok(WhyOutcome::NotDerived);
    };
    if rank > max_depth {
        return Ok(WhyOutcome::DepthExceeded { rank, max_depth });
    }
    let p_pos = lr
        .recursive_rule
        .body
        .iter()
        .position(|a| a.predicate == lr.predicate)
        .ok_or(DatalogError::UnknownRelation(lr.predicate))?;
    // Rule-index convention: the recursive rule first, then the exit rules.
    let inverted = rules(lr)
        .map(|rule| Inverted::compile(rule, &mut ranked.engine))
        .collect::<Result<Vec<_>, _>>()?;
    let node = reconstruct(&ranked, &inverted, fact.into(), rank, p_pos, &governor)?;
    Ok(WhyOutcome::Derived(node))
}

/// Inverts one rule application for `tuple` (of rank `rank`) and recurses
/// on the recursive subgoal. Ranks strictly decrease, so this terminates
/// in at most `rank` steps.
fn reconstruct(
    ranked: &Ranked,
    inverted: &[Inverted<'_>],
    tuple: Tuple,
    rank: u64,
    p_pos: usize,
    governor: &Governor,
) -> Result<DerivationNode, IvmError> {
    if let Some(reason) = governor.poll() {
        return Err(IvmError::Truncated(reason));
    }
    let engine = &ranked.engine;
    let p = inverted[0].rule.head.predicate;
    // Unreachable below for a rank map produced by `saturate_with_ranks`
    // over the same store; surfaced as a substrate error, not a panic.
    let no_witness = || IvmError::Datalog(DatalogError::UnknownRelation(p));
    if rank == 0 {
        // Exit-seeded: the first exit rule (and witness) that derives it.
        for (i, exit) in inverted.iter().enumerate().skip(1) {
            if let Some(witness) = exit.witnesses(engine, &tuple, governor)?.first() {
                return Ok(exit.node(i, &tuple, witness, None));
            }
        }
        return Err(no_witness());
    }

    let rec = &inverted[0];
    // Pick the witness whose recursive subgoal has minimal rank; the rank
    // definition guarantees one with rank < `rank` exists.
    let mut best: Option<(u64, Tuple, Tuple)> = None;
    for witness in rec.witnesses(engine, &tuple, governor)? {
        let sub = rec.subgoal(p_pos, &witness);
        let Some(sub_rank) = ranked.rank(p, &sub).filter(|&r| r < rank) else {
            continue;
        };
        if best.as_ref().is_none_or(|(r, _, _)| sub_rank < *r) {
            best = Some((sub_rank, witness, sub));
        }
        if sub_rank + 1 == rank {
            // Cannot do better: the tuple first appeared in round `rank`,
            // so some witness has a subgoal from round `rank - 1` — and
            // witnesses are sorted, so the first such one is deterministic.
            break;
        }
    }
    let (sub_rank, witness, sub) = best.ok_or_else(no_witness)?;
    let subtree = reconstruct(ranked, inverted, sub, sub_rank, p_pos, governor)?;
    Ok(rec.node(0, &tuple, &witness, Some((p_pos, subtree))))
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
            let rule = if ri == 0 {
                &lr.recursive_rule
            } else {
                match lr.exit_rules.get(ri - 1) {
                    Some(r) => r,
                    None => {
                        return Err(format!(
                            "node {} cites rule {ri} (no such rule)",
                            node.fact()
                        ))
                    }
                }
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
        let tag = match node.rule {
            None => "edb".to_string(),
            Some(0) => "recursive rule".to_string(),
            Some(i) => format!("exit rule {i}"),
        };
        out.push_str(&format!(
            "{}{}  [{}]\n",
            "  ".repeat(depth),
            node.fact(),
            tag
        ));
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
