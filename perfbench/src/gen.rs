//! Seeded input generation: program text, facts, the operation sequence and
//! every query's answer count in closed form.
//!
//! The seed permutes vertex labels, fact order and the operation order; the
//! graph *shapes* and the multiset of operations are fixed, so every seed
//! asks the program for the same amount of work.

use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `recurs run sg.dl --engine indexed` per operation.
    SaturateWide,
    /// Cached point queries against one server.
    ServeHot,
    /// Point queries that never hit the cache.
    ServeCold,
    /// Insert/delete rounds with queries in between.
    ServeUpdate,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SaturateWide,
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::ServeUpdate,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SaturateWide => "saturate-wide",
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
            Workload::ServeUpdate => "serve-update",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a correct reply to a request looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A query answered with exactly this many tuples.
    Count(usize),
    /// An update that installs a new snapshot version.
    Installed,
}

/// One protocol line and its expected reply.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request line (`?- P(7, y).`, `+E(3, 9001).`).
    pub line: String,
    /// The closed-form expectation the reply is checked against.
    pub expect: Expect,
}

/// One timed operation: requests issued back-to-back on one connection.
/// For `saturate-wide` the single request is the query baked into the
/// program file; the operation is a whole `recurs run`.
pub type Op = Vec<Request>;

/// Everything one run needs, derived from `(workload, seed)` alone.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Rules and facts (plus the query, for `saturate-wide`).
    pub program: String,
    /// `program` plus sampled `?-` queries, for `recurs run --check`.
    pub check: String,
    /// The closed-form answer counts of `check`'s queries, in order.
    pub check_counts: Vec<usize>,
    /// Operations issued before timing starts (caches fill, views build).
    pub warmup: Vec<Op>,
    /// The measured operation sequence, consumed cyclically.
    pub ops: Vec<Op>,
}

/// xorshift64* seeded through splitmix64 — std has no RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value, zero included).
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A random permutation of `1..=n`, used as vertex labels.
    fn labels(&mut self, n: usize) -> Vec<usize> {
        let mut labels: Vec<usize> = (1..=n).collect();
        self.shuffle(&mut labels);
        labels
    }
}

/// Generates the inputs of `workload` for `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    match workload {
        Workload::SaturateWide => saturate_wide(&mut rng),
        Workload::ServeHot => serve_hot(&mut rng),
        Workload::ServeCold => serve_cold(&mut rng),
        Workload::ServeUpdate => serve_update(&mut rng),
    }
}

/// Nodes of the complete binary tree `saturate-wide` saturates over.
const TREE_NODES: usize = 1023;

/// Same-generation over a complete binary tree in heap order (node `i` has
/// children `2i`, `2i+1`), seeded labels. `SG` pairs nodes of equal depth,
/// so a depth-`d` node has `2^d` answers and the fixpoint holds
/// `(4^10 - 1) / 3 = 349 525` tuples after 11 iterations.
fn saturate_wide(rng: &mut Rng) -> Inputs {
    let labels = rng.labels(TREE_NODES);
    let label = |heap: usize| labels[heap - 1];
    let mut facts: Vec<String> = Vec::with_capacity(2 * TREE_NODES);
    for child in 2..=TREE_NODES {
        let (p, c) = (label(child / 2), label(child));
        facts.push(format!("Up({c}, {p})."));
        facts.push(format!("Down({p}, {c})."));
    }
    facts.push(format!("Flat({0}, {0}).", label(1)));
    rng.shuffle(&mut facts);
    // The query node sits at depth 1..=3: the run saturates fully either
    // way, only the handful of printed answers differs.
    let node = 2 + rng.below(14);
    let count = 1 << node.ilog2();
    let request = Request {
        line: format!("?- SG({}, y).", label(node)),
        expect: Expect::Count(count),
    };
    let mut program =
        String::from("SG(x, y) :- Up(x, u), SG(u, v), Down(v, y).\nSG(x, y) :- Flat(x, y).\n");
    write_facts(&mut program, &facts);
    writeln!(program, "{}", request.line).expect("writing to a String");
    Inputs {
        check: program.clone(),
        program,
        check_counts: vec![count],
        warmup: vec![vec![request.clone()]; 3],
        ops: vec![vec![request]],
    }
}

fn write_facts(program: &mut String, facts: &[String]) {
    for line in facts.chunks(8) {
        writeln!(program, "{}", line.join(" ")).expect("writing to a String");
    }
}

/// A forest of disjoint chains under transitive closure
/// `P(x,y) :- A(x,z), P(z,y).  P(x,y) :- E(x,y).` with `A = E =` the chain
/// edges. Vertex `v` is position `v % length` of chain `v / length`.
struct Forest {
    length: usize,
    labels: Vec<usize>,
}

impl Forest {
    fn new(rng: &mut Rng, chains: usize, length: usize) -> Forest {
        Forest {
            length,
            labels: rng.labels(chains * length),
        }
    }

    fn vertices(&self) -> usize {
        self.labels.len()
    }

    fn position(&self, v: usize) -> usize {
        v % self.length
    }

    fn program(&self, rng: &mut Rng) -> String {
        let mut facts = Vec::with_capacity(2 * self.vertices());
        for v in 0..self.vertices() - 1 {
            if self.position(v) + 1 < self.length {
                let (a, b) = (self.labels[v], self.labels[v + 1]);
                facts.push(format!("A({a}, {b})."));
                facts.push(format!("E({a}, {b})."));
            }
        }
        rng.shuffle(&mut facts);
        let mut program = String::from("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).\n");
        write_facts(&mut program, &facts);
        program
    }

    /// Answers of a bound query over the unmodified forest: a forward
    /// query `?- P(v, y).` returns everything after `v` on its chain, a
    /// backward query `?- P(x, v).` everything before it.
    fn count(&self, q: Bound) -> usize {
        if q.forward {
            self.length - 1 - self.position(q.v)
        } else {
            self.position(q.v)
        }
    }

    fn request(&self, q: Bound, count: usize) -> Request {
        let label = self.labels[q.v];
        Request {
            line: if q.forward {
                format!("?- P({label}, y).")
            } else {
                format!("?- P(x, {label}).")
            },
            expect: Expect::Count(count),
        }
    }

    fn requests(&self, queries: &[Bound]) -> Vec<Request> {
        queries
            .iter()
            .map(|&q| self.request(q, self.count(q)))
            .collect()
    }

    /// Both bound forms for every vertex, shuffled: `2 × vertices` distinct
    /// queries.
    fn all_queries(&self, rng: &mut Rng) -> Vec<Bound> {
        let mut queries: Vec<Bound> = (0..self.vertices())
            .flat_map(|v| [true, false].map(|forward| Bound { v, forward }))
            .collect();
        rng.shuffle(&mut queries);
        queries
    }
}

/// A point query with one argument bound to vertex `v`.
#[derive(Debug, Clone, Copy)]
struct Bound {
    v: usize,
    forward: bool,
}

/// `program` plus the first few queries of `sample`, for the oracle check.
fn with_check(program: &str, sample: &[Request]) -> (String, Vec<usize>) {
    let mut check = program.to_string();
    let mut counts = Vec::new();
    for request in sample.iter().take(8) {
        if let Expect::Count(n) = request.expect {
            writeln!(check, "{}", request.line).expect("writing to a String");
            counts.push(n);
        }
    }
    (check, counts)
}

fn single(requests: &[Request]) -> Vec<Op> {
    requests.iter().map(|r| vec![r.clone()]).collect()
}

/// The graph `serve-hot` and `serve-cold` share: 40 chains × 50 vertices.
fn serve_forest(rng: &mut Rng) -> Forest {
    Forest::new(rng, 40, 50)
}

/// Hot queries answered before timing so `setup_s` is well above jitter.
const HOT_WARMUP_OPS: usize = 25_000;

/// Size of `serve-hot`'s working set; its warm-up starts with these.
pub const HOT_SET: usize = 64;

/// 64 queries of 25–49 answers, each cached during warm-up: the working set
/// fits the server's default 1024-entry cache, so every timed reply is a
/// cache hit.
fn serve_hot(rng: &mut Rng) -> Inputs {
    let forest = serve_forest(rng);
    let program = forest.program(rng);
    let mut hot = forest.all_queries(rng);
    hot.retain(|&q| forest.count(q) >= 25);
    let hot = forest.requests(&hot[..HOT_SET]);
    let (check, check_counts) = with_check(&program, &hot);
    let mut pick = |n: usize| -> Vec<Op> {
        (0..n)
            .map(|_| vec![hot[rng.below(hot.len())].clone()])
            .collect()
    };
    let mut warmup = single(&hot);
    warmup.extend(pick(HOT_WARMUP_OPS));
    Inputs {
        program,
        check,
        check_counts,
        warmup,
        ops: pick(1 << 16),
    }
}

/// Entries in the server's default answer cache.
const CACHE_CAPACITY: usize = 1024;

/// A seeded permutation cycle over all 4000 bound queries: four times the
/// cache, so the LRU evicts every entry long before its query comes round
/// again, and no update ever builds the view — every reply is computed by
/// the magic kernel.
fn serve_cold(rng: &mut Rng) -> Inputs {
    let forest = serve_forest(rng);
    let program = forest.program(rng);
    let mut cycle = forest.requests(&forest.all_queries(rng));
    let (check, check_counts) = with_check(&program, &cycle);
    let warmup = single(&cycle[..CACHE_CAPACITY]);
    cycle.rotate_left(CACHE_CAPACITY);
    Inputs {
        program,
        check,
        check_counts,
        warmup,
        ops: single(&cycle),
    }
}

/// `serve-update`'s hot set: its warm-up is one round, [`UPDATE_FILL`]
/// cycle queries, these, then a few more rounds.
pub const UPDATE_HOT: usize = 32;

/// Cycle queries `serve-update` answers before timing: enough that every
/// cache shard is at capacity and evicting.
pub const UPDATE_FILL: usize = 1200;

/// Update rounds over 16 chains × 50 vertices (1600 distinct bound
/// queries: 32 hot + a 1568-query cycle, more than the cache holds).
///
/// A round inserts `E(i, t)` for a seeded vertex `i` and a target `t`
/// outside the graph, asks 2 hot and 2 cycle queries, deletes `E(i, t)` and
/// asks the same 4 again — state-neutral, so the database is stationary.
/// While `E(i, t)` is present, `t` is reachable from `i` and from every
/// vertex before `i` on its chain: forward queries from those gain exactly
/// one answer, nothing else changes.
fn serve_update(rng: &mut Rng) -> Inputs {
    const ROUNDS: usize = 2048;
    const WARM_ROUNDS: usize = 16;

    let forest = Forest::new(rng, 16, 50);
    let program = forest.program(rng);
    let mut hot = forest.all_queries(rng);
    let cycle = hot.split_off(UPDATE_HOT);
    let (check, check_counts) = with_check(&program, &forest.requests(&cycle[..8]));
    // A small pool of out-of-graph targets, reused so the server's symbol
    // table stops growing after the first few rounds.
    let targets = forest.vertices() + 1..forest.vertices() + 65;

    let mut next_cycle = UPDATE_FILL;
    let mut round = |rng: &mut Rng, k: usize| -> Op {
        let i = rng.below(forest.vertices());
        let target = targets.start + k % targets.len();
        let fact = format!("E({}, {target}).", forest.labels[i]);
        let asked: Vec<Bound> = (0..4)
            .map(|slot| {
                if slot < 2 {
                    hot[rng.below(UPDATE_HOT)]
                } else {
                    next_cycle += 1;
                    cycle[(next_cycle - 1) % cycle.len()]
                }
            })
            .collect();
        let update = |sign: char| Request {
            line: format!("{sign}{fact}"),
            expect: Expect::Installed,
        };
        let mut op = vec![update('+')];
        op.extend(asked.iter().map(|&q| {
            let gains = q.forward
                && q.v / forest.length == i / forest.length
                && forest.position(q.v) <= forest.position(i);
            forest.request(q, forest.count(q) + usize::from(gains))
        }));
        op.push(update('-'));
        op.extend(forest.requests(&asked));
        op
    };

    // The first round's insert builds the materialized view (a cold
    // `ivm::Materialization::saturate`); the cache then fills against it.
    let mut warmup = vec![round(rng, 0)];
    warmup.extend(single(&forest.requests(&cycle[..UPDATE_FILL])));
    warmup.extend(single(&forest.requests(&hot)));
    warmup.extend((0..WARM_ROUNDS).map(|k| round(rng, k)));
    let ops = (0..ROUNDS).map(|k| round(rng, k)).collect();
    Inputs {
        program,
        check,
        check_counts,
        warmup,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        for w in Workload::ALL {
            let (a, b, c) = (inputs(w, 7), inputs(w, 7), inputs(w, 8));
            assert_eq!(a.program, b.program);
            assert_ne!(a.program, c.program);
            assert_eq!(a.ops.len(), c.ops.len());
        }
    }

    #[test]
    fn cold_cycle_is_distinct_and_larger_than_the_cache() {
        let inputs = inputs(Workload::ServeCold, 1);
        let mut lines: Vec<&str> = inputs.ops.iter().map(|op| op[0].line.as_str()).collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), 4000);
        assert_eq!(inputs.warmup.len(), CACHE_CAPACITY);
    }

    #[test]
    fn update_round_is_state_neutral_and_counts_the_target() {
        let inputs = inputs(Workload::ServeUpdate, 3);
        for op in &inputs.ops {
            assert_eq!(op.len(), 10);
            assert_eq!(op[0].line[1..], op[5].line[1..]);
            for slot in 1..5 {
                let (Expect::Count(with), Expect::Count(without)) =
                    (op[slot].expect, op[slot + 5].expect)
                else {
                    panic!("queries expect counts");
                };
                assert_eq!(op[slot].line, op[slot + 5].line);
                assert!(with == without || with == without + 1);
            }
        }
    }
}
