//! Compile-time costs: building I-graphs, analysing components, classifying,
//! unfolding, and generating plans. The paper's pitch is that all of this is
//! done **once per formula** at compile time; these benches show it is
//! micro- to millisecond-scale and independent of the database.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recurs_core::classify::Classification;
use recurs_core::plan::plan_for_form;
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::parser::{parse_program, parse_rule};
use recurs_datalog::unfold::expansion;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_igraph::build::{igraph_of, resolution_graph};
use recurs_igraph::component::analyze_components;
use recurs_igraph::condense::condense;
use std::hint::black_box;
use std::time::Duration;

const FORMULAS: &[(&str, &str)] = &[
    ("s1a", "P(x, y) :- A(x, z), P(z, y)."),
    ("s3", "P(x, y, z) :- A(x, u), B(y, v), P(u, v, w), C(w, z)."),
    (
        "s4a",
        "P(x1, x2, x3) :- A(x1, y3), B(x2, y1), C(y2, x3), P(y1, y2, y3).",
    ),
    (
        "s7",
        "P(x, y, z, u, w, s, v) :- A(x, t), P(t, z, y, w, s, r, v), B(u, r).",
    ),
    (
        "s8",
        "P(x, y, z, u) :- A(x, y), B(y1, u), C(z1, u1), P(z, y1, z1, u1).",
    ),
    (
        "s12",
        "P(x, y, z) :- A(x, u), B(y, v), C(u, v), D(w, z), P(u, v, w).",
    ),
];

fn igraph_and_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("igraph_construction");
    group
        .sample_size(50)
        .measurement_time(Duration::from_secs(1));
    for (name, src) in FORMULAS {
        let rule = parse_rule(src).unwrap();
        group.bench_with_input(BenchmarkId::new("igraph", name), &rule, |b, rule| {
            b.iter(|| black_box(igraph_of(rule)));
        });
        let g = igraph_of(&rule);
        group.bench_with_input(BenchmarkId::new("components", name), &g, |b, g| {
            b.iter(|| black_box(analyze_components(&condense(g))));
        });
    }
    group.finish();
}

fn classification(c: &mut Criterion) {
    let mut group = c.benchmark_group("classification");
    group
        .sample_size(50)
        .measurement_time(Duration::from_secs(1));
    for (name, src) in FORMULAS {
        let rule = parse_rule(src).unwrap();
        group.bench_with_input(BenchmarkId::new("classify", name), &rule, |b, rule| {
            b.iter(|| black_box(Classification::of(rule)));
        });
    }
    group.finish();
}

fn unfolding(c: &mut Criterion) {
    let mut group = c.benchmark_group("unfolding");
    group
        .sample_size(50)
        .measurement_time(Duration::from_secs(1));
    let rule = parse_rule(FORMULAS[2].1).unwrap(); // s4a
    for k in [2usize, 6, 12, 24] {
        group.bench_with_input(BenchmarkId::new("expansion", k), &k, |b, &k| {
            b.iter(|| black_box(expansion(&rule, k)));
        });
        group.bench_with_input(BenchmarkId::new("resolution_graph", k), &k, |b, &k| {
            b.iter(|| black_box(resolution_graph(&rule, k)));
        });
    }
    group.finish();
}

fn planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_generation");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(1));
    for (name, src) in FORMULAS {
        let lr = validate_with_generic_exit(&parse_program(src).unwrap()).unwrap();
        // The representative `P(d, v, …)` form.
        let pattern = format!("d{}", "v".repeat(lr.dimension() - 1));
        let form = QueryForm::parse(&pattern);
        group.bench_with_input(BenchmarkId::new("plan", name), &lr, |b, lr| {
            b.iter(|| black_box(plan_for_form(lr, &form)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    igraph_and_components,
    classification,
    unfolding,
    planning
);
criterion_main!(benches);
