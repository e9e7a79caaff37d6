//! Positional relational algebra over [`Relation`].
//!
//! The oracle ([`crate::eval`]) joins rule bodies with these operators:
//! selection (σ), join (⋈), Cartesian product (×) and projection, over
//! positional (unnamed) columns; the evaluator keeps track of which variable
//! each column carries. (Union is [`Relation::union_in_place`].)
//!
//! Joins concatenate the full left and right tuples; callers project away the
//! duplicated key columns when they want natural-join output. This keeps every
//! operator compositional and side-condition-free.

use crate::relation::{Relation, Tuple};
use crate::term::Value;

/// σ — keeps tuples whose column `col` equals `value`.
pub fn select_eq(rel: &Relation, col: usize, value: Value) -> Relation {
    assert!(col < rel.arity(), "selection column out of range");
    Relation::from_tuples(rel.arity(), rel.iter().filter(|t| t[col] == value).cloned())
}

/// σ — keeps tuples where two columns are equal (used for repeated variables).
pub fn select_col_eq(rel: &Relation, a: usize, b: usize) -> Relation {
    assert!(a < rel.arity() && b < rel.arity(), "column out of range");
    Relation::from_tuples(rel.arity(), rel.iter().filter(|t| t[a] == t[b]).cloned())
}

/// π — projects onto the given columns (in the given order, repeats allowed).
pub fn project(rel: &Relation, cols: &[usize]) -> Relation {
    for &c in cols {
        assert!(c < rel.arity(), "projection column out of range");
    }
    Relation::from_tuples(
        cols.len(),
        rel.iter()
            .map(|t| cols.iter().map(|&c| t[c]).collect::<Tuple>()),
    )
}

/// ⋈ — hash equi-join on `pairs` of (left column, right column). The output
/// tuple is the left tuple concatenated with the right tuple.
pub fn join(left: &Relation, right: &Relation, pairs: &[(usize, usize)]) -> Relation {
    for &(l, r) in pairs {
        assert!(l < left.arity(), "left join column out of range");
        assert!(r < right.arity(), "right join column out of range");
    }
    // Build the index on the smaller side.
    if pairs.is_empty() {
        return product(left, right);
    }
    let out_arity = left.arity() + right.arity();
    let mut out = Relation::new(out_arity);
    let build_right = right.len() <= left.len();
    if build_right {
        let rcols: Vec<usize> = pairs.iter().map(|&(_, r)| r).collect();
        let lcols: Vec<usize> = pairs.iter().map(|&(l, _)| l).collect();
        let idx = right.index_on(&rcols);
        for lt in left.iter() {
            let key: Vec<Value> = lcols.iter().map(|&c| lt[c]).collect();
            if let Some(matches) = idx.get(&key) {
                for rt in matches {
                    out.insert(lt.iter().chain(rt.iter()).copied().collect());
                }
            }
        }
    } else {
        let rcols: Vec<usize> = pairs.iter().map(|&(_, r)| r).collect();
        let lcols: Vec<usize> = pairs.iter().map(|&(l, _)| l).collect();
        let idx = left.index_on(&lcols);
        for rt in right.iter() {
            let key: Vec<Value> = rcols.iter().map(|&c| rt[c]).collect();
            if let Some(matches) = idx.get(&key) {
                for lt in matches {
                    out.insert(lt.iter().chain(rt.iter()).copied().collect());
                }
            }
        }
    }
    out
}

/// × — Cartesian product; output is left tuple concatenated with right tuple.
pub fn product(left: &Relation, right: &Relation) -> Relation {
    let mut out = Relation::new(left.arity() + right.arity());
    for lt in left.iter() {
        for rt in right.iter() {
            out.insert(lt.iter().chain(rt.iter()).copied().collect());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::tuple_u64;

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    #[test]
    fn select_filters() {
        let r = Relation::from_pairs([(1, 2), (1, 3), (2, 3)]);
        let s = select_eq(&r, 0, v(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn select_col_eq_filters_diagonal() {
        let r = Relation::from_pairs([(1, 1), (1, 2), (3, 3)]);
        let s = select_col_eq(&r, 0, 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn project_reorders_and_dedups() {
        let r = Relation::from_pairs([(1, 2), (1, 3)]);
        let p = project(&r, &[0]);
        assert_eq!(p.len(), 1);
        let swapped = project(&r, &[1, 0]);
        assert!(swapped.contains(&[v(2), v(1)]));
        let dup = project(&r, &[0, 0]);
        assert_eq!(dup.arity(), 2);
        assert!(dup.contains(&[v(1), v(1)]));
    }

    #[test]
    fn join_matches_keys() {
        let a = Relation::from_pairs([(1, 2), (2, 3)]);
        let b = Relation::from_pairs([(2, 10), (3, 20), (9, 99)]);
        // A.1 = B.0
        let j = join(&a, &b, &[(1, 0)]);
        assert_eq!(j.arity(), 4);
        assert_eq!(j.len(), 2);
        assert!(j.contains(&[v(1), v(2), v(2), v(10)]));
        assert!(j.contains(&[v(2), v(3), v(3), v(20)]));
    }

    #[test]
    fn join_with_multiple_keys() {
        let a = Relation::from_tuples(3, [tuple_u64([1, 2, 3]), tuple_u64([1, 2, 4])]);
        let b = Relation::from_tuples(2, [tuple_u64([1, 2]), tuple_u64([1, 3])]);
        let j = join(&a, &b, &[(0, 0), (1, 1)]);
        assert_eq!(j.len(), 2); // both A tuples match B(1,2)
        for t in j.iter() {
            assert_eq!(t[0], t[3]);
            assert_eq!(t[1], t[4]);
        }
    }

    #[test]
    fn join_empty_pairs_is_product() {
        let a = Relation::from_pairs([(1, 2)]);
        let b = Relation::from_pairs([(3, 4), (5, 6)]);
        let j = join(&a, &b, &[]);
        assert_eq!(j.len(), 2);
        assert_eq!(j.arity(), 4);
    }

    #[test]
    fn join_is_symmetric_in_result() {
        // Regardless of which side builds the hash index, output equals.
        let small = Relation::from_pairs([(1, 2)]);
        let big = Relation::from_pairs([(2, 3), (2, 4), (5, 6)]);
        let j1 = join(&small, &big, &[(1, 0)]);
        let j2 = join(&big, &small, &[(0, 1)]);
        assert_eq!(j1.len(), j2.len());
        assert_eq!(j1.len(), 2);
    }

    #[test]
    fn product_sizes_multiply() {
        let a = Relation::from_pairs([(1, 2), (2, 3)]);
        let b = Relation::from_pairs([(7, 8)]);
        let p = product(&a, &b);
        assert_eq!(p.len(), 2);
        assert_eq!(p.arity(), 4);
    }
}
