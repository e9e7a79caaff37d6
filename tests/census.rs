//! The census: every linear rule of a small scope, classified and held to
//! the paper's theorems. Nothing is drawn at random, so a classifier bug in
//! a rare rule shape fails here whenever the shape is in scope.
//!
//! **The rules.** A rule in scope has a recursive predicate `P` of dimension
//! n ≤ `max_dim` and at most `max_atoms` non-recursive atoms of arity 1 or 2.
//! Their predicates are named apart or shared in every way (one arity per
//! name), an atom may repeat a variable, and besides the head's and the
//! recursive atom's variables an atom may use variables of its own. The
//! census keeps one representative per class of rules that are equal up to
//! variable renaming, predicate renaming and body order. That is sound
//! because the classification ignores all three
//! (`theorems_prop.rs`'s `classification_ignores_names_and_body_order`).
//! A representative is in normal form: the head is `P(v0, …, v(n−1))`; the
//! recursive atom holds head variables (each at most once) and fresh
//! variables numbered left to right; the other atoms' own variables and
//! their predicate names are numbered by first occurrence; and of all orders
//! of those atoms, the representative's numbers to the least sequence.
//!
//! **The checks, on each rule** (see [`check`]):
//! - Theorem 12: the classifier gives every non-trivial component a class,
//!   and the rule the one class the paper's table derives from them.
//! - Theorem 1: `check_theorem_1` agrees with the propagation verdict over
//!   all 2ⁿ query forms.
//! - Corollary 3 (with Theorem 4): the rule is transformable to a stable
//!   formula iff all its cycles are one-directional, and the first expansion
//!   that is strongly stable over all 2ⁿ forms is the stabilization period
//!   (none within [`EXPANSIONS`] if the rule is not transformable).
//! - The rank, certified by containment ([`certify`]): a claimed rank r has
//!   a certificate, and r − 1 says whether it is exact or loose; a bounded
//!   rule with no claimed rank gets the least certified r ≤ [`CAP`]; an
//!   unbounded rule has no certificate at [`CAP`].
//! - Every query form's plan agrees with the fixpoint
//!   (`recurs_engine::oracle::compare`) on the frozen database of each
//!   exit-closed expansion 1 ..= [`PLAN_LEVELS`].
//!
//! The tier-1 test covers a scope that runs in a few seconds. The ignored
//! tests cover the full scope in release builds (`ci.sh` runs them:
//! `cargo test --release -p recurs-bench --test census -- --ignored`), and
//! print the table EXPERIMENTS.md records.

use recurs_core::classify::{Classification, ComponentClass};
use recurs_core::stability::check_theorem_1;
use recurs_datalog::adornment::{propagate, ArgBinding, QueryForm};
use recurs_datalog::database::Database;
use recurs_datalog::eval::naive;
use recurs_datalog::relation::Tuple;
use recurs_datalog::rule::{LinearRecursion, Program, Rule};
use recurs_datalog::term::{Atom, Term, Value};
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::Symbol;
use recurs_engine::oracle::compare;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

/// The certificate search's cap R: a bounded rule without a claimed rank
/// is searched for one at r = 0 ..= CAP, and an unbounded rule must have
/// none at CAP (certified ranks are upward closed, see [`certify`]).
const CAP: usize = 4;
/// Expansions 1 ..= EXPANSIONS are checked for strong stability
/// (Corollary 3). The stabilization period is at most the lcm of a
/// partition of the dimension, 4 for dimension 4.
const EXPANSIONS: usize = 6;
/// Plans are checked on the frozen exit-closed expansions 1 ..= PLAN_LEVELS.
const PLAN_LEVELS: usize = 2;
/// Worker threads per census.
const THREADS: usize = 2;
/// Non-recursive predicate names, by number.
const NAMES: [&str; 3] = ["A", "B", "C"];
/// No second argument (a unary atom).
const NONE: u8 = u8::MAX;

/// Which rules a census enumerates and which checks it runs.
#[derive(Clone, Copy)]
struct Scope {
    min_dim: usize,
    max_dim: usize,
    max_atoms: usize,
    /// Certify ranks by containment.
    ranks: bool,
    /// Check plans against the fixpoint on rules with at most this many
    /// non-recursive atoms.
    plans_up_to_atoms: Option<usize>,
}

/// A rule in normal form: head `P(v0, …, v(n−1))`, the recursive atom's
/// variables `rec[..n]`, and `k` non-recursive atoms `[predicate, arity,
/// first, second]` (`second` is [`NONE`] for a unary atom).
#[derive(Clone, Copy, Debug)]
struct Shape {
    n: u8,
    rec: [u8; 4],
    k: u8,
    atoms: [[u8; 4]; 3],
}

impl Shape {
    fn rec(&self) -> &[u8] {
        &self.rec[..self.n as usize]
    }

    fn atoms(&self) -> &[[u8; 4]] {
        &self.atoms[..self.k as usize]
    }

    /// Variables `0 .. fixed` are the head's and the recursive atom's; the
    /// rest are the non-recursive atoms' own.
    fn fixed(&self) -> u8 {
        self.rec()
            .iter()
            .map(|&v| v + 1)
            .max()
            .unwrap_or(0)
            .max(self.n)
    }

    fn atom_vars(atom: &[u8; 4]) -> impl Iterator<Item = u8> + '_ {
        atom[2..2 + atom[1] as usize].iter().copied()
    }

    /// The exit-closed expansions 0 ..= max: level 0 is the exit rule
    /// `P(v…) :- E(v…)`, level j ≥ 1 the j-th expansion with its recursive
    /// atom (the last) replaced by the exit `E`.
    fn levels(&self, max: usize) -> Vec<Rule> {
        let head = self.expansion(1).head;
        let mut levels = vec![Rule::new(head.clone(), vec![Atom::new("E", head.terms)])];
        for j in 1..=max {
            let mut level = self.expansion(j);
            let last = level.body.len() - 1;
            level.body[last].predicate = Symbol::intern("E");
            levels.push(level);
        }
        levels
    }

    /// The j-th expansion (j ≥ 1) built by resolution: copy 0 is the rule;
    /// copy c + 1's head is copy c's recursive atom, and its other variables
    /// are renamed apart (`v{i}_{c+1}`).
    fn expansion(&self, j: usize) -> Rule {
        assert!(j >= 1, "expansions are 1-based");
        let n = self.n as usize;
        let mut names: Vec<Symbol> = (0..=self.max_var()).map(|i| copy_var(i, 0)).collect();
        let mut body = Vec::new();
        for c in 0..j {
            if c > 0 {
                let heads: Vec<Symbol> = self.rec().iter().map(|&v| names[v as usize]).collect();
                names = (0..=self.max_var())
                    .map(|i| {
                        if (i as usize) < n {
                            heads[i as usize]
                        } else {
                            copy_var(i, c)
                        }
                    })
                    .collect();
            }
            body.extend(self.atoms().iter().map(|a| {
                let terms = Self::atom_vars(a).map(|v| Term::Var(names[v as usize]));
                Atom::new(NAMES[a[0] as usize], terms.collect())
            }));
        }
        let rec = self.rec().iter().map(|&v| Term::Var(names[v as usize]));
        body.push(Atom::new("P", rec.collect()));
        let head = (0..self.n).map(|i| Term::Var(copy_var(i, 0)));
        Rule::new(Atom::new("P", head.collect()), body)
    }

    fn max_var(&self) -> u8 {
        let own = self.atoms().iter().flat_map(Self::atom_vars).max();
        own.map_or(self.fixed(), |v| (v + 1).max(self.fixed())) - 1
    }
}

/// Variable `i` of copy `c` of the rule in an expansion: `v{i}`, or
/// `v{i}_{c}` for c ≥ 1, interned once.
fn copy_var(i: u8, c: usize) -> Symbol {
    static VARS: OnceLock<Vec<Vec<Symbol>>> = OnceLock::new();
    let vars = VARS.get_or_init(|| {
        let name = |i, c| {
            if c == 0 {
                format!("v{i}")
            } else {
                format!("v{i}_{c}")
            }
        };
        (0..16)
            .map(|i| {
                (0..=EXPANSIONS.max(CAP + 1))
                    .map(|c| Symbol::intern(&name(i, c)))
                    .collect()
            })
            .collect()
    });
    vars[i as usize][c]
}

/// Calls `visit` on every rule of `scope` in normal form, in one fixed
/// order.
fn for_each_rule(scope: Scope, visit: &mut dyn FnMut(&Shape)) {
    for n in scope.min_dim..=scope.max_dim {
        for rec in recursive_atoms(n) {
            let mut shape = Shape {
                n: n as u8,
                rec: [0; 4],
                k: 0,
                atoms: [[0; 4]; 3],
            };
            shape.rec[..n].copy_from_slice(&rec);
            let vars = shape.fixed();
            add_atoms(&mut shape, vars, 0, scope.max_atoms, visit);
        }
    }
}

/// Every recursive atom of dimension n: each position holds an unused head
/// variable or the next fresh one.
fn recursive_atoms(n: usize) -> Vec<Vec<u8>> {
    fn go(n: usize, used: u8, fresh: u8, atom: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
        if atom.len() == n {
            out.push(atom.clone());
            return;
        }
        for h in (0..n as u8).filter(|h| used & (1 << h) == 0) {
            atom.push(h);
            go(n, used | 1 << h, fresh, atom, out);
            atom.pop();
        }
        atom.push(fresh);
        go(n, used, fresh + 1, atom, out);
        atom.pop();
    }
    let mut out = Vec::new();
    go(n, 0, n as u8, &mut Vec::new(), &mut out);
    out
}

/// Extends `shape` by up to `left` atoms over variables `0 ..= vars` (`vars`
/// itself is the next new one) and predicates numbered by first occurrence,
/// visiting each range-restricted representative.
fn add_atoms(shape: &mut Shape, vars: u8, preds: u8, left: usize, visit: &mut dyn FnMut(&Shape)) {
    let covered = (0..shape.n).all(|h| {
        shape.rec().contains(&h)
            || shape
                .atoms()
                .iter()
                .any(|a| Shape::atom_vars(a).any(|v| v == h))
    });
    if covered && is_representative(shape) {
        visit(shape);
    }
    if left == 0 {
        return;
    }
    let arity_of = |shape: &Shape, p: u8| shape.atoms().iter().find(|a| a[0] == p).map(|a| a[1]);
    for pred in 0..=preds {
        for arity in 1..=2u8 {
            if arity_of(shape, pred).is_some_and(|a| a != arity) {
                continue;
            }
            let next_pred = preds.max(pred + 1);
            for a in 0..=vars {
                let after_a = vars.max(a + 1);
                let seconds = if arity == 1 {
                    vec![NONE]
                } else {
                    (0..=after_a).collect()
                };
                for b in seconds {
                    let after_b = if b == NONE {
                        after_a
                    } else {
                        after_a.max(b + 1)
                    };
                    shape.atoms[shape.k as usize] = [pred, arity, a, b];
                    shape.k += 1;
                    add_atoms(shape, after_b, next_pred, left - 1, visit);
                    shape.k -= 1;
                }
            }
        }
    }
}

/// The atoms taken in `order`, their own variables and predicates
/// renumbered by first occurrence.
fn numbered(shape: &Shape, order: &[usize]) -> [u8; 12] {
    let fixed = shape.fixed();
    let mut vars = [NONE; 16];
    let mut next_var = fixed;
    let mut preds = [NONE; 3];
    let mut next_pred = 0;
    let mut out = [NONE; 12];
    for (slot, &i) in order.iter().enumerate() {
        let [p, arity, a, b] = shape.atoms[i];
        if preds[p as usize] == NONE {
            preds[p as usize] = next_pred;
            next_pred += 1;
        }
        let mut var = |v: u8| {
            if v == NONE || v < fixed {
                return v;
            }
            if vars[v as usize] == NONE {
                vars[v as usize] = next_var;
                next_var += 1;
            }
            vars[v as usize]
        };
        let a = var(a);
        out[slot * 4..slot * 4 + 4].copy_from_slice(&[preds[p as usize], arity, a, var(b)]);
    }
    out
}

/// True if no other order of the atoms numbers to a smaller sequence. The
/// enumeration numbers new variables and predicates by first occurrence, so
/// the identity order's sequence is the shape as generated.
fn is_representative(shape: &Shape) -> bool {
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let k = shape.k as usize;
    let own = numbered(shape, &ORDERS[0][..k]);
    let mut orders = ORDERS
        .iter()
        .map(|o| &o[..k])
        .filter(|o| o.iter().all(|&i| i < k));
    orders.all(|o| numbered(shape, o) >= own)
}

/// The frozen (canonical) database of a non-recursive rule: each variable
/// becomes a constant of its own and each body atom a fact. Returns the
/// database and the frozen head.
fn freeze(rule: &Rule) -> (Database, Tuple) {
    let mut constants: HashMap<Symbol, Value> = HashMap::new();
    let mut frozen = |t: &Term| match t {
        Term::Var(v) => {
            let next = constants.len() as u64;
            *constants.entry(*v).or_insert_with(|| Value::from_u64(next))
        }
        Term::Const(c) => *c,
    };
    let head: Tuple = rule.head.terms.iter().map(&mut frozen).collect();
    let mut db = Database::new();
    for atom in &rule.body {
        let row = atom.terms.iter().map(&mut frozen).collect();
        db.insert(atom.predicate, row)
            .expect("one arity per predicate");
    }
    (db, head)
}

/// A containment certificate for rank r: the level i ≤ r into which the
/// frozen level r + 1 maps, head onto head. Level r + 1 is then contained in
/// the union of levels 0 ..= r (a conjunctive query is contained in a union
/// of them iff in one; Sagiv–Yannakakis), so every deeper level is too, and
/// r bounds the rank. Since the rule is linear, a certificate at r gives one
/// at r + 1, so the least certified r is the exact rank.
fn certify(levels: &[Rule], r: usize) -> Option<usize> {
    let (db, head) = freeze(&levels[r + 1]);
    (0..=r).find(|&i| derives(&db, &levels[i], &head))
}

/// Whether `naive` derives `head` from `level` over `db`. The level is
/// evaluated with its head bound to `head`, one connected component of its
/// body at a time: once the head is bound the components share no variable,
/// so the body holds iff each of them does, and the Cartesian products
/// between them stay out of the join.
fn derives(db: &Database, level: &Rule, head: &[Value]) -> bool {
    let bound: HashMap<Symbol, Value> = level
        .head
        .terms
        .iter()
        .zip(head)
        .filter_map(|(t, &c)| t.as_var().map(|v| (v, c)))
        .collect();
    let ground = |a: &Atom| {
        let terms = a
            .terms
            .iter()
            .map(|t| match t.as_var().and_then(|v| bound.get(&v)) {
                Some(&c) => Term::Const(c),
                None => *t,
            });
        Atom::new(a.predicate, terms.collect())
    };
    let body: Vec<Atom> = level.body.iter().map(ground).collect();
    // Union-find over the atoms, joined by a shared variable.
    let mut parent: Vec<usize> = (0..body.len()).collect();
    fn root(parent: &mut [usize], i: usize) -> usize {
        let mut r = i;
        while parent[r] != r {
            r = parent[r];
        }
        parent[i] = r;
        r
    }
    let mut owner: HashMap<Symbol, usize> = HashMap::new();
    for (i, atom) in body.iter().enumerate() {
        for v in atom.variables() {
            let j = *owner.entry(v).or_insert(i);
            let (a, b) = (root(&mut parent, i), root(&mut parent, j));
            parent[a] = b;
        }
    }
    let mut components: BTreeMap<usize, Vec<Atom>> = BTreeMap::new();
    for (i, atom) in body.into_iter().enumerate() {
        components
            .entry(root(&mut parent, i))
            .or_default()
            .push(atom);
    }
    let hit = Value::from_u64(0);
    let rules = components.values().enumerate().map(|(i, atoms)| {
        let head = Atom::new(format!("Hit{i}").as_str(), vec![Term::Const(hit)]);
        Rule::new(head, atoms.clone())
    });
    let program = Program::new(rules.collect());
    let mut db = db.clone();
    naive(&mut db, &program, Some(1)).expect("a level evaluates over its frozen database");
    program
        .rules
        .iter()
        .all(|r| db.get(r.head.predicate).is_some_and(|rel| !rel.is_empty()))
}

/// Every query form of dimension n.
fn forms(n: usize) -> impl Iterator<Item = QueryForm> {
    (0u32..1 << n).map(move |mask| {
        QueryForm(
            (0..n)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        ArgBinding::Determined
                    } else {
                        ArgBinding::Free
                    }
                })
                .collect(),
        )
    })
}

/// Strong stability by its definition: every one of the 2ⁿ query forms
/// maps to itself under determined-variable propagation.
fn every_form_is_fixed(rule: &Rule) -> bool {
    forms(rule.head.arity()).all(|form| propagate(rule, &form) == form)
}

/// The class the paper's table gives a multiset of component classes:
/// A1–A4 when all components share one one-directional class, A5 for a
/// mixture of them, B–E when all share that class, F otherwise.
fn table_class(components: &[ComponentClass]) -> &'static str {
    let mut kinds = components.to_vec();
    kinds.sort();
    kinds.dedup();
    match kinds.as_slice() {
        [one] => one.label(),
        _ if kinds.iter().all(|k| k.is_one_directional()) => "A5",
        _ => "F",
    }
}

/// What the census found on one rule.
#[derive(Default)]
struct Tally {
    rules: usize,
    classes: BTreeMap<&'static str, usize>,
    /// Claimed rank, certified exact → rules.
    claimed: BTreeMap<usize, usize>,
    /// Least certified rank of a bounded rule with no claimed rank → rules.
    found: BTreeMap<usize, usize>,
    /// Unbounded rules with no certificate at [`CAP`].
    uncertified: usize,
    /// Least certified rank (if any up to [`CAP`]) of a rule the classifier
    /// calls unbounded because of a dependent component → rules.
    dependent: BTreeMap<Option<usize>, usize>,
    /// Rules whose plans were checked, and the checks made.
    planned: usize,
    plan_checks: usize,
    failures: Vec<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        fn add<K: Ord>(into: &mut BTreeMap<K, usize>, from: BTreeMap<K, usize>) {
            for (k, v) in from {
                *into.entry(k).or_default() += v;
            }
        }
        self.rules += other.rules;
        add(&mut self.classes, other.classes);
        add(&mut self.claimed, other.claimed);
        add(&mut self.found, other.found);
        add(&mut self.dependent, other.dependent);
        self.uncertified += other.uncertified;
        self.planned += other.planned;
        self.plan_checks += other.plan_checks;
        self.failures.extend(other.failures);
    }

    /// The table EXPERIMENTS.md records.
    fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "rules: {}", self.rules);
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|(c, n)| format!("{c} {n}"))
            .collect();
        let _ = writeln!(out, "per class: {}", classes.join(", "));
        for (rank, n) in &self.claimed {
            let _ = writeln!(out, "claimed rank {rank}, certified exact: {n}");
        }
        for (rank, n) in &self.found {
            let _ = writeln!(out, "no claimed rank, certified {rank}: {n}");
        }
        let _ = writeln!(
            out,
            "unbounded, no certificate at R = {CAP}: {}",
            self.uncertified
        );
        for (rank, n) in &self.dependent {
            let rank = rank.map_or(format!("none up to {CAP}"), |r| r.to_string());
            let _ = writeln!(out, "dependent component, certified {rank}: {n}");
        }
        let _ = writeln!(
            out,
            "plans checked: {} rules, {} runs",
            self.planned, self.plan_checks
        );
        let _ = writeln!(out, "failures: {}", self.failures.len());
        out
    }
}

/// Runs every check `scope` asks for on one rule, recording into `tally`.
fn check(shape: &Shape, index: usize, scope: Scope, tally: &mut Tally) {
    let rule = shape.expansion(1);
    let fail = |tally: &mut Tally, what: String| tally.failures.push(format!("{rule}: {what}"));
    tally.rules += 1;

    // Theorem 12: a class for every non-trivial component and for the rule.
    let c = Classification::of(&rule);
    let nontrivial = c.components.iter().filter(|k| k.is_nontrivial()).count();
    if c.component_classes.len() != nontrivial || nontrivial == 0 {
        fail(
            tally,
            format!(
                "{nontrivial} non-trivial components, classes {:?}",
                c.component_classes
            ),
        );
        return;
    }
    let class = c.class.label();
    *tally.classes.entry(class).or_default() += 1;
    if class != table_class(&c.component_classes) {
        fail(
            tally,
            format!(
                "class {class}, table gives {}",
                table_class(&c.component_classes)
            ),
        );
    }
    let bounded_parts = c.component_classes.iter().all(|k| k.is_bounded());
    if c.is_bounded() != bounded_parts || (c.rank_bound().is_some() && !c.is_bounded()) {
        fail(
            tally,
            format!("bounded {} with rank {:?}", c.is_bounded(), c.rank_bound()),
        );
    }

    // Theorem 1 on the rule, by the definition's 2ⁿ forms.
    if check_theorem_1(&rule) != every_form_is_fixed(&rule) {
        fail(
            tally,
            "Theorem 1's verdict differs from the 2ⁿ-form propagation".into(),
        );
    }

    // Corollary 3 and Theorem 4.
    let one_directional = c.component_classes.iter().all(|k| k.is_one_directional());
    if c.is_transformable_to_stable() != one_directional {
        fail(
            tally,
            format!(
                "transformable {} but one-directional {one_directional}",
                c.is_transformable_to_stable()
            ),
        );
    }
    let first_stable = (1..=EXPANSIONS).find(|&j| every_form_is_fixed(&shape.expansion(j)));
    if first_stable.map(|j| j as u64) != c.stabilization_period() {
        fail(
            tally,
            format!(
                "first stable expansion {first_stable:?}, period {:?}",
                c.stabilization_period()
            ),
        );
    }
    if c.is_strongly_stable() != (first_stable == Some(1)) {
        fail(
            tally,
            format!(
                "strongly stable {} but first stable expansion {first_stable:?}",
                c.is_strongly_stable()
            ),
        );
    }

    if scope.ranks {
        let levels = shape.levels(CAP + 1);
        // Certified ranks are upward closed: look at `up_to` first.
        let least = |up_to: usize| {
            certify(&levels, up_to)?;
            (0..=up_to).find(|&r| certify(&levels, r).is_some())
        };
        match (c.rank_bound(), c.is_bounded()) {
            (Some(r), _) if r as usize > CAP => {
                fail(tally, format!("claimed rank {r} is past the cap {CAP}"))
            }
            // Theorem 10's lcm − 1 and Ioannidis's path weight are tight, so
            // a loose claim fails too.
            (Some(r), _) => match least(r as usize) {
                Some(least) if least < r as usize => {
                    fail(
                        tally,
                        format!("claimed rank {r} is loose: certified at {least}"),
                    );
                }
                Some(_) => *tally.claimed.entry(r as usize).or_default() += 1,
                None => fail(tally, format!("claimed rank {r} has no certificate")),
            },
            (None, true) => match least(CAP) {
                Some(least) => *tally.found.entry(least).or_default() += 1,
                None => fail(tally, format!("bounded, but no certificate up to {CAP}")),
            },
            // The paper proves nothing about a dependent component's rank:
            // the classifier calls none bounded, and the census records
            // which are.
            (None, false) if c.component_classes.contains(&ComponentClass::Dependent) => {
                *tally.dependent.entry(least(CAP)).or_default() += 1;
            }
            (None, false) => match certify(&levels, CAP) {
                None => tally.uncertified += 1,
                Some(_) => fail(
                    tally,
                    format!("unbounded, but certified at {:?}", least(CAP)),
                ),
            },
        }
    }

    if scope
        .plans_up_to_atoms
        .is_some_and(|k| shape.k as usize <= k)
    {
        tally.planned += 1;
        check_plans(shape, index, tally);
    }
}

/// Every query form's plan against the fixpoint, on the frozen
/// exit-closed expansions 1 ..= [`PLAN_LEVELS`], queried at the frozen head.
///
/// The planner unfolds a bounded or class-A rule by renaming its variables
/// apart (`Symbol::fresh`), which skips every name interned before with the
/// same stem. The planned rule's variables are therefore prefixed with the
/// rule's index (`r17v0`), so no two rules share a stem and the skips stay
/// short.
fn check_plans(shape: &Shape, index: usize, tally: &mut Tally) {
    let rule = shape.expansion(1);
    let renamed = |a: &Atom| {
        let terms = a.terms.iter().map(|t| Term::var(&format!("r{index}{t}")));
        Atom::new(a.predicate, terms.collect())
    };
    let rule = Rule::new(renamed(&rule.head), rule.body.iter().map(renamed).collect());
    let program = Program::new(vec![rule.clone()]);
    let lr: LinearRecursion = match validate_with_generic_exit(&program) {
        Ok(lr) => lr,
        Err(e) => {
            return tally
                .failures
                .push(format!("{rule}: does not validate: {e}"))
        }
    };
    for (j, level) in shape.levels(PLAN_LEVELS).iter().enumerate().skip(1) {
        let (db, head) = freeze(level);
        for form in forms(shape.n as usize) {
            let terms = form
                .0
                .iter()
                .zip(head.iter())
                .enumerate()
                .map(|(i, (b, &c))| match b {
                    ArgBinding::Determined => Term::Const(c),
                    ArgBinding::Free => Term::Var(Symbol::intern(&format!("q{i}"))),
                });
            let query = Atom::new("P", terms.collect());
            tally.plan_checks += 1;
            match compare(&lr, &db, &query) {
                Ok(report) if report.agrees() => {}
                Ok(report) => tally.failures.push(format!(
                    "{rule}: {:?} plan for {query} on level {j}: {} against the fixpoint's {}",
                    report.strategy, report.plan_answers, report.oracle_answers
                )),
                Err(e) => tally
                    .failures
                    .push(format!("{rule}: {query} on level {j}: {e}")),
            }
        }
    }
}

/// Runs the census of `scope` on [`THREADS`] threads; a panic on a rule is
/// recorded as that rule's failure.
fn census(scope: Scope) -> Tally {
    let start = Instant::now();
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut index = 0usize;
                    for_each_rule(scope, &mut |shape| {
                        if index % THREADS == t {
                            let run = catch_unwind(AssertUnwindSafe(|| {
                                let mut one = Tally::default();
                                check(shape, index, scope, &mut one);
                                one
                            }));
                            match run {
                                Ok(one) => tally.merge(one),
                                Err(_) => tally
                                    .failures
                                    .push(format!("{}: panicked", shape.expansion(1))),
                            }
                        }
                        index += 1;
                    });
                    tally
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("a census worker"));
        }
    });
    eprintln!("{}took {:.1?}", total.table(), start.elapsed());
    total
}

fn assert_clean(tally: &Tally) {
    assert!(
        tally.failures.is_empty(),
        "{} failures among {} rules; the first:\n{}",
        tally.failures.len(),
        tally.rules,
        tally
            .failures
            .iter()
            .take(8)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn census_small_scope() {
    // n ≤ 2 with ≤ 2 atoms, and n = 3 with one atom, which holds the
    // smallest Theorem 11 mixtures.
    for (min_dim, max_dim, max_atoms) in [(1, 2, 2), (3, 3, 1)] {
        let tally = census(Scope {
            min_dim,
            max_dim,
            max_atoms,
            ranks: true,
            plans_up_to_atoms: Some(max_atoms),
        });
        assert_clean(&tally);
    }
}

/// `P(x, y, z) :- A(z), P(y, x, w).`, an A4 swap beside a D edge: bounded
/// by Theorem 11, which gives no rank. Its least certificate is 2: the third
/// exit-closed expansion `A(z), A(w), A(w′), E(y, x, w″)` folds into the
/// first, `A(z), E(y, x, w)`, and the second does not fold into level 0 or 1.
#[test]
fn the_theorem_11_mixture_certifies_rank_two() {
    let shape = Shape {
        n: 3,
        rec: [1, 0, 3, 0],
        k: 1,
        atoms: [[0, 1, 2, NONE], [0; 4], [0; 4]],
    };
    let rule = shape.expansion(1);
    assert_eq!(rule.to_string(), "P(v0, v1, v2) :- A(v2), P(v1, v0, v3).");
    let c = Classification::of(&rule);
    assert!(c.is_bounded() && c.rank_bound().is_none(), "{rule}");
    let levels = shape.levels(3);
    assert_eq!(certify(&levels, 1), None);
    assert_eq!(certify(&levels, 2), Some(1));
}

#[test]
#[ignore = "full scope: run in release by ci.sh"]
fn census_full_scope() {
    let tally = census(Scope {
        min_dim: 1,
        max_dim: 3,
        max_atoms: 3,
        ranks: true,
        plans_up_to_atoms: Some(2),
    });
    assert_clean(&tally);
}

#[test]
#[ignore = "full scope: run in release by ci.sh"]
fn census_dimension_four_classification() {
    let tally = census(Scope {
        min_dim: 4,
        max_dim: 4,
        max_atoms: 3,
        ranks: false,
        plans_up_to_atoms: None,
    });
    assert_clean(&tally);
}
