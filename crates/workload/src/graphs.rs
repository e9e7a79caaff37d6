//! Synthetic binary-relation (graph) generators. All generators are
//! deterministic given the seed, so experiments are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recurs_datalog::relation::Relation;

/// A chain `1 → 2 → … → n`.
pub fn chain(n: u64) -> Relation {
    Relation::from_pairs((1..n).map(|i| (i, i + 1)))
}

/// A cycle `1 → 2 → … → n → 1`.
pub fn cycle(n: u64) -> Relation {
    Relation::from_pairs((1..=n).map(|i| (i, if i == n { 1 } else { i + 1 })))
}

/// A complete `b`-ary tree with `n` nodes, edges parent → child.
pub fn tree(n: u64, b: u64) -> Relation {
    assert!(b >= 1, "branching factor must be positive");
    Relation::from_pairs((2..=n).map(move |child| ((child - 2) / b + 1, child)))
}

/// A random digraph over `n` vertices with `m` edges (duplicates dropped, so
/// the result may be slightly smaller). Self-loops allowed.
pub fn random_digraph(n: u64, m: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::new(2);
    for _ in 0..m {
        let a = rng.gen_range(1..=n);
        let b = rng.gen_range(1..=n);
        rel.insert(recurs_datalog::relation::tuple_u64([a, b]));
    }
    rel
}

/// A layered (bipartite-between-layers) graph: `layers` layers of `width`
/// vertices; each vertex gets `out_degree` random edges to the next layer.
/// Vertex ids: layer `l` (0-based) holds `l·width + 1 ..= (l+1)·width`.
pub fn layered(layers: u64, width: u64, out_degree: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::new(2);
    for l in 0..layers.saturating_sub(1) {
        for v in 1..=width {
            let from = l * width + v;
            for _ in 0..out_degree {
                let to = (l + 1) * width + rng.gen_range(1..=width);
                rel.insert(recurs_datalog::relation::tuple_u64([from, to]));
            }
        }
    }
    rel
}

/// A random relation of arbitrary arity with values drawn from `1..=domain`.
pub fn random_relation(arity: usize, tuples: usize, domain: u64, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::new(arity);
    for _ in 0..tuples {
        rel.insert(
            (0..arity)
                .map(|_| recurs_datalog::Value::from_u64(rng.gen_range(1..=domain)))
                .collect(),
        );
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::Value;

    #[test]
    fn chain_has_n_minus_one_edges() {
        assert_eq!(chain(10).len(), 9);
        assert_eq!(chain(1).len(), 0);
    }

    #[test]
    fn cycle_has_n_edges_and_closes() {
        let c = cycle(5);
        assert_eq!(c.len(), 5);
        assert!(c.contains(&[Value::from_u64(5), Value::from_u64(1)]));
    }

    #[test]
    fn tree_every_nonroot_has_one_parent() {
        let t = tree(15, 2);
        assert_eq!(t.len(), 14);
        // Node 2 and 3 are children of 1.
        assert!(t.contains(&[Value::from_u64(1), Value::from_u64(2)]));
        assert!(t.contains(&[Value::from_u64(1), Value::from_u64(3)]));
    }

    #[test]
    fn random_digraph_is_deterministic() {
        let a = random_digraph(50, 100, 7);
        let b = random_digraph(50, 100, 7);
        assert_eq!(a, b);
        let c = random_digraph(50, 100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn layered_edges_go_forward_one_layer() {
        let g = layered(3, 4, 2, 1);
        for t in g.iter() {
            let from: u64 = t[0].as_str().parse().unwrap();
            let to: u64 = t[1].as_str().parse().unwrap();
            assert_eq!((to - 1) / 4, (from - 1) / 4 + 1);
        }
    }

    #[test]
    fn random_relation_respects_arity_and_domain() {
        let r = random_relation(3, 40, 5, 42);
        assert_eq!(r.arity(), 3);
        for t in r.iter() {
            for v in t.iter() {
                let n: u64 = v.as_str().parse().unwrap();
                assert!((1..=5).contains(&n));
            }
        }
    }
}
