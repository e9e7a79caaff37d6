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
//! 2. **One-step rule inversion**: to explain a tuple of rank `r`, unify a
//!    rule head with it, evaluate the instantiated body against the
//!    saturated database, and pick a witness row whose recursive subgoal has
//!    rank `< r` (rank 0 tuples invert an exit rule instead, making every
//!    subgoal an EDB leaf). Only the recursive subgoal recurses — the rule
//!    is linear — so tree size is `O(rank × body width)`.
//!
//! The recursion is depth-bounded ([`WhyOutcome::DepthExceeded`]) and the
//! whole reconstruction runs under an
//! [`EvalBudget`](recurs_datalog::govern::EvalBudget). [`verify_tree`]
//! re-checks a finished tree against the *EDB only* — every leaf present,
//! every internal node a valid rule instance under a single simultaneous
//! substitution — which is what the differential property suite and the
//! serve layer's cross-check call.

use crate::materialize::{compile_exits, fresh_store, stopped};
use crate::IvmError;
use recurs_datalog::database::Database;
use recurs_datalog::error::DatalogError;
use recurs_datalog::eval::eval_body;
use recurs_datalog::govern::{EvalBudget, Governor};
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::subst::Subst;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::{Atom, Term, Value};
use recurs_engine::drive_rounds;
use recurs_obs::Obs;
use std::collections::{BTreeMap, HashMap};

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

/// Grounds `atom` under `subst`, which must bind all its variables.
fn ground_tuple(subst: &Subst, atom: &Atom) -> Result<Tuple, DatalogError> {
    atom.terms
        .iter()
        .map(|t| match subst.resolve(*t) {
            Term::Const(c) => Ok(c),
            Term::Var(v) => Err(DatalogError::UnboundVariable(v)),
        })
        .collect()
}

/// Rank-tracked saturation: the saturated database plus, for every derived
/// tuple, the driver round in which it first appeared (round 0 is the
/// exit-rule seeding round). Any derived tuples `edb` carries are dropped
/// first — ranks must match this run.
fn saturate_with_ranks(
    lr: &LinearRecursion,
    edb: &Database,
    governor: &Governor,
) -> Result<(Database, HashMap<Tuple, u64>), IvmError> {
    let (mut db, mut engine, rec_delta) = fresh_store(lr, edb)?;
    let exits = compile_exits(lr, &mut engine)?;
    let mut ranks: HashMap<Tuple, u64> = HashMap::new();
    let run = drive_rounds(
        &mut engine,
        Some(&exits),
        std::slice::from_ref(&rec_delta),
        BTreeMap::new(),
        None,
        governor,
        &Obs::noop(),
        |engine, round, rule, heads| {
            let fresh = engine.insert_fresh(rule.head_pred, heads);
            ranks.extend(fresh.iter().map(|t| (t.clone(), round as u64)));
            fresh
        },
    )?;
    if let Some(reason) = stopped(&run) {
        return Err(IvmError::Truncated(reason));
    }
    let derived = Relation::from_tuples(lr.dimension(), ranks.keys().cloned());
    db.insert_relation(lr.predicate, derived);
    Ok((db, ranks))
}

/// Explains one fact of the recursive predicate over `edb`.
///
/// Any derived-`P` tuples already present in `edb` are ignored — the
/// saturation is re-run so ranks are consistent — which lets callers pass a
/// snapshot database that carries a materialized copy. `max_depth` bounds
/// the number of recursive inversion steps; the budget governs both the
/// saturation and the backward walk.
pub fn explain_fact(
    lr: &LinearRecursion,
    edb: &Database,
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
    let (db, ranks) = saturate_with_ranks(lr, edb, &governor)?;
    let Some(&rank) = ranks.get(fact) else {
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
    let node = reconstruct(lr, &db, &ranks, fact, rank, p_pos, &governor)?;
    Ok(WhyOutcome::Derived(node))
}

/// Inverts one rule application for `tuple` (of rank `rank`) and recurses
/// on the recursive subgoal. Ranks strictly decrease, so this terminates
/// in at most `rank` steps.
fn reconstruct(
    lr: &LinearRecursion,
    db: &Database,
    ranks: &HashMap<Tuple, u64>,
    tuple: &[Value],
    rank: u64,
    p_pos: usize,
    governor: &Governor,
) -> Result<DerivationNode, IvmError> {
    if let Some(reason) = governor.poll() {
        return Err(IvmError::Truncated(reason));
    }
    if rank == 0 {
        // Exit-seeded: find the exit rule (and witness row) that derives it.
        for (i, rule) in lr.exit_rules.iter().enumerate() {
            let mut subst = Subst::new();
            if !unify_ground(&mut subst, &rule.head, tuple) {
                continue;
            }
            let body: Vec<Atom> = rule.body.iter().map(|a| subst.apply_atom(a)).collect();
            let bindings = eval_body(db, &body, &HashMap::new())?;
            let Some(row) = bindings.rel.iter_sorted().into_iter().next() else {
                continue;
            };
            let mut witness = subst;
            for (col, v) in bindings.vars.iter().zip(row.iter()) {
                witness.bind(*col, Term::Const(*v));
            }
            let children = rule
                .body
                .iter()
                .map(|atom| {
                    Ok(DerivationNode {
                        predicate: atom.predicate,
                        tuple: ground_tuple(&witness, atom)?,
                        rule: None,
                        children: Vec::new(),
                    })
                })
                .collect::<Result<Vec<_>, DatalogError>>()?;
            return Ok(DerivationNode {
                predicate: lr.predicate,
                tuple: tuple.into(),
                rule: Some(i + 1),
                children,
            });
        }
        // Unreachable for a rank map produced by `saturate_with_ranks`
        // over the same database; surface as a substrate error rather
        // than panicking.
        return Err(IvmError::Datalog(DatalogError::UnknownRelation(
            lr.predicate,
        )));
    }

    let rule = &lr.recursive_rule;
    let mut subst = Subst::new();
    if !unify_ground(&mut subst, &rule.head, tuple) {
        return Err(IvmError::Datalog(DatalogError::UnknownRelation(
            lr.predicate,
        )));
    }
    let body: Vec<Atom> = rule.body.iter().map(|a| subst.apply_atom(a)).collect();
    let bindings = eval_body(db, &body, &HashMap::new())?;
    // Pick the witness whose recursive subgoal has minimal rank; the rank
    // definition guarantees one with rank < `rank` exists.
    let mut best: Option<(u64, Subst, Tuple)> = None;
    for row in bindings.rel.iter_sorted() {
        let mut witness = subst.clone();
        for (col, v) in bindings.vars.iter().zip(row.iter()) {
            witness.bind(*col, Term::Const(*v));
        }
        let sub = ground_tuple(&witness, &rule.body[p_pos])?;
        let Some(&sub_rank) = ranks.get(&sub) else {
            continue;
        };
        if sub_rank >= rank {
            continue;
        }
        if best.as_ref().is_none_or(|(r, _, _)| sub_rank < *r) {
            best = Some((sub_rank, witness, sub));
        }
        if sub_rank + 1 == rank {
            // Cannot do better: the tuple first appeared in round `rank`,
            // so some witness has a subgoal from round `rank - 1` — and
            // rows are sorted, so the first such witness is deterministic.
            break;
        }
    }
    let Some((sub_rank, witness, sub)) = best else {
        return Err(IvmError::Datalog(DatalogError::UnknownRelation(
            lr.predicate,
        )));
    };
    let mut children = Vec::with_capacity(rule.body.len());
    for (i, atom) in rule.body.iter().enumerate() {
        if i == p_pos {
            children.push(reconstruct(lr, db, ranks, &sub, sub_rank, p_pos, governor)?);
        } else {
            children.push(DerivationNode {
                predicate: atom.predicate,
                tuple: ground_tuple(&witness, atom)?,
                rule: None,
                children: Vec::new(),
            });
        }
    }
    Ok(DerivationNode {
        predicate: lr.predicate,
        tuple: tuple.into(),
        rule: Some(0),
        children,
    })
}

/// Structurally verifies a derivation tree against the **EDB only**: every
/// leaf must be a stored fact of a non-recursive predicate, and every
/// internal node must be a ground instance of its claimed rule under one
/// simultaneous substitution (head matches the node's tuple, body atom `i`
/// matches child `i`'s tuple). Returns a description of the first defect.
pub fn verify_tree(
    lr: &LinearRecursion,
    edb: &Database,
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
    use recurs_datalog::relation::tuple_u64;
    use recurs_datalog::rule::LinearRecursion;

    fn tc() -> (LinearRecursion, Database) {
        let program =
            parse_program("tc(x, y) :- edge(x, y).\ntc(x, y) :- edge(x, z), tc(z, y).").unwrap();
        let lr = LinearRecursion::from_program(&program).unwrap();
        let mut db = Database::new();
        db.insert_relation(
            "edge",
            Relation::from_pairs([(1, 2), (2, 3), (3, 4), (4, 2)]),
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
    fn memory_ceiling_truncates_the_saturation() {
        let (lr, db) = tc();
        let budget = EvalBudget::unlimited().with_max_memory_bytes(64);
        let err = explain_fact(&lr, &db, &tuple_u64([1, 4]), DEFAULT_WHY_DEPTH, &budget)
            .expect_err("the indexed working set is far above 64 bytes");
        assert!(matches!(
            err,
            IvmError::Truncated(TruncationReason::MemoryCeiling)
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
