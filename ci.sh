#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite. It leaves the
# working tree as it found it (checked at the end).
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"
tree_before="$(git status --porcelain)"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The unwrap/expect lint gate (crates/{datalog,engine,cli} carry
# `#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]`)
# is hardened to an error by -D warnings above; the fault-inject feature is
# linted separately because it swaps in the non-test fault hooks.
# Docs: rustdoc renders a link it cannot resolve — a private item, a
# feature-gated module, a deleted one — as dead text, so every intra-doc
# link of the crates' docs must resolve. The vendored stand-ins are not
# ours and stay out.
echo "==> cargo doc (-D warnings, crates/ only)"
doc_packages=()
for manifest in crates/*/Cargo.toml; do
  doc_packages+=(-p "$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)")
done
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline "${doc_packages[@]}"

echo "==> cargo clippy --features fault-inject (-D warnings)"
cargo clippy -p recurs-engine --all-targets --features fault-inject --offline -- -D warnings
cargo clippy -p recurs-ivm --all-targets --features fault-inject --offline -- -D warnings
cargo clippy -p recurs-serve --all-targets --features fault-inject --offline -- -D warnings
cargo clippy -p recurs-net --all-targets --features fault-inject --offline -- -D warnings

# One-store guard: serve and ivm hold facts in one layout, the engine store.
# The oracle's interpreter must not come back into either crate; the plain
# `Database` is accepted at their entry points (`QueryService::new`,
# `Materialization::saturate`) and must not reappear in the snapshot, the
# kernels, view maintenance or provenance; and a kernel starts from a clone
# of the snapshot's store, never from a load. Unit-test modules are exempt:
# they build plain facts for the oracle they compare against.
echo "==> one-store guard (no interpreter, no Database, no per-request load in serve / ivm)"
non_test() { sed '/^#\[cfg(test)\]/,$d' "$1"; }
if grep -rnE "eval_body|recurs_datalog::eval" crates/serve/src crates/ivm/src; then
  echo "the oracle's interpreter is back in crates/serve/src or crates/ivm/src" >&2
  exit 1
fi
for f in crates/serve/src/snapshot.rs crates/serve/src/kernel.rs \
    crates/ivm/src/materialize.rs crates/ivm/src/patch.rs crates/ivm/src/provenance.rs; do
  if non_test "$f" | grep -nw "Database"; then
    echo "$f holds or copies plain-facts Database again" >&2
    exit 1
  fi
done
if non_test crates/serve/src/kernel.rs \
    | grep -nE "\.load\(|from_relation|EngineDb::from|to_relation|answer_query"; then
  echo "crates/serve/src/kernel.rs loads (or copies out) relations per request again" >&2
  exit 1
fi
# One-derived-store guard: a `why` reads a store that already holds the
# fixpoint — the maintained view, or a clone the engine's ordinary
# saturation filled — and never runs rounds of its own. So provenance names
# no round driver and keeps no rank table beside the store. And the view is
# a set: maintenance decides by membership, or by whether a deletion's
# candidate keeps any support, so no derivation-count table sits beside it.
echo "==> one-derived-store guard (provenance runs no rounds and keeps no rank table; the view keeps no count table)"
if non_test crates/ivm/src/provenance.rs | grep -nE "drive_rounds|saturate_with_ranks|\bRanked\b|\branks\b"; then
  echo "crates/ivm/src/provenance.rs runs rounds or keeps ranks again: walk a saturated store" >&2
  exit 1
fi
for f in $(find crates/ivm/src -name '*.rs'); do
  if non_test "$f" | grep -nE "\badd_count\b|\bcounts:|\bfn count\("; then
    echo "$f keeps derivation counts beside the view again: the view is a set" >&2
    exit 1
  fi
done
# One-index-policy guard: serve builds no index for a query. A kernel's
# pipelines get theirs from the snapshot's republish
# (`SnapshotStore::with_indexes`, once per form), and the view's per-column
# indexes are ivm's policy, built with the view. No other serve code builds one.
for f in $(find crates/serve/src -name '*.rs'); do
  code="$(non_test "$f")"
  if [ "$f" = crates/serve/src/snapshot.rs ]; then
    code="$(sed '/pub fn with_indexes(/,/^    }$/d' <<<"$code")"
  fi
  if grep -nE "ensure_index|build_indexes" <<<"$code"; then
    echo "$f builds an index outside the snapshot's republish" >&2
    exit 1
  fi
done

# One-governed-evaluator guard: the oracle only checks. It takes a round cap
# and nothing else — no budget, no recorder, no serialized stats — so the
# substrate crate stays free of recurs-obs; and the CLI's engine run answers
# from the store the engine saturated: the only place it may consult the
# oracle (or copy a relation out) is the `--check` comparison.
echo "==> oracle guard (the oracle is ungoverned and joins one way; the class only caps rounds; run --engine indexed reads the store)"
if grep -nE "Governor|EvalBudget|recurs_obs|Serialize" crates/datalog/src/eval.rs; then
  echo "crates/datalog/src/eval.rs is governed, traced or serialized again" >&2
  exit 1
fi
if grep -n "recurs-obs" crates/datalog/Cargo.toml; then
  echo "recurs-datalog depends on recurs-obs again" >&2
  exit 1
fi
# And the oracle has one join path: every rule evaluation, semi-naive
# variants included, is `eval_rule` over the algebra's operators — no
# executor, index or per-round cache of its own beside it.
if non_test crates/datalog/src/eval.rs | grep -nE "Prepared|index_on|HashMap<Vec<Value>"; then
  echo "crates/datalog/src/eval.rs builds an index of its own again: join through eval_rule" >&2
  exit 1
fi
# Outside the planner the class decides only a round cap: the engine and
# ivm read `rank_bound()` and keep it as the `Option<u64>` it is (a label
# function names it), and a label that is not behaviour stays deleted.
for f in $(find crates/engine/src crates/ivm/src -name '*.rs'); do
  if non_test "$f" | grep -nwE "KernelKind|MaintenancePath|is_transformable_to_stable"; then
    echo "$f wraps the round cap in a kind, or decides more than it from the class: lowerings are the planner's" >&2
    exit 1
  fi
done
# And the lowerings are named once, by `recurs_core::plan::StrategyKind`: a
# served reply carries the plan's strategy, and `!stats` counts its labels.
for f in $(find crates/serve/src -name '*.rs'); do
  if non_test "$f" | grep -vE '^[[:space:]]*//' | grep -nE '"(bounded|frontier|magic)"'; then
    echo "$f spells a lowering's label: read it from StrategyKind::label" >&2
    exit 1
  fi
done
if non_test crates/cli/src/lib.rs | sed '/^impl OracleFixpoint {/,/^}/d' | grep -v "^use " \
    | grep -nE "answer_query|to_relation|run_linear"; then
  echo "crates/cli/src/lib.rs copies the fixpoint out of the engine store again" >&2
  exit 1
fi

# One-planner-one-executor guard: a plan is data (`recurs_core::plan`) and
# `recurs_engine::evaluate` is the one function that runs it. The oracle's
# join interpreter is the oracle's alone — outside `datalog/src/eval.rs` it
# may appear only in unit-test modules — and nothing in core or the CLI takes
# a plain `&Database` any more, but `oracle::ground_truth`: the reference
# every plan is held to.
echo "==> executor guard (no interpreter beside the engine in crates/*/src)"
for f in $(find crates/*/src -name '*.rs' ! -path crates/datalog/src/eval.rs); do
  if non_test "$f" | grep -nE "eval_body|eval_rule"; then
    echo "$f calls the oracle's join interpreter outside a test module" >&2
    exit 1
  fi
done
for f in $(find crates/core/src crates/cli/src -name '*.rs' ! -path crates/core/src/oracle.rs); do
  if non_test "$f" | grep -n "&Database"; then
    echo "$f answers from a plain-facts Database again: lower the plan and call recurs_engine::evaluate" >&2
    exit 1
  fi
done
if grep -rnE "fn execute\b" crates/core/src; then
  echo "crates/core/src executes plans again: QueryPlan is data, the engine runs it" >&2
  exit 1
fi

# One-program-per-form guard: `plan_for_form` builds a form's program once,
# and `QueryPlan::lower` hands it to every query of the form with the query's
# constants as the seed tuple. It builds no program and interns no symbol, so
# a served query costs the same however many were answered before it.
echo "==> lower guard (QueryPlan::lower builds no program and interns no symbol)"
lower="$(non_test crates/core/src/plan.rs | sed -n '/^    pub fn lower(/,/^    }$/p')"
if ! grep -q "Lowered {" <<<"$lower"; then
  echo "ci.sh found no QueryPlan::lower body in crates/core/src/plan.rs: point the guard at it" >&2
  exit 1
fi
if grep -nE "Program::new|Cow|specialize|Symbol::" <<<"$lower"; then
  echo "QueryPlan::lower builds a program or a symbol per query again: build it once per form" >&2
  exit 1
fi

# Front-end guard: `QueryService` is the only code that answers or explains
# a query, and the CLI, the stdin loop and the TCP server are transports over
# it. The CLI's non-test code names none of the served path's parts (plan
# cache, snapshot chain, provenance calls, a second stdin loop); and the load
# lane's generator stays retired with its `rand` dependency.
echo "==> front-end guard (the CLI answers through QueryService; no load generator)"
for f in $(find crates/cli/src -name '*.rs'); do
  if non_test "$f" | grep -nwE "explain_fact|verify_tree|PointPlans|SnapshotStore|run_loop"; then
    echo "$f answers or explains a query beside QueryService again" >&2
    exit 1
  fi
done
if grep -nw "rand" crates/net/Cargo.toml; then
  echo "crates/net/Cargo.toml depends on rand again: the load generator is retired" >&2
  exit 1
fi
# One request grammar: `recurs_serve::protocol` parses the directives and
# names each request's result, for both transports. The TCP server neither
# reads a directive nor reads its own replies back (the client, which
# classifies the replies it receives, is exempt).
for f in $(find crates/net/src -name '*.rs' ! -name client.rs); do
  if non_test "$f" | grep -vE '^[[:space:]]*//' | grep -nE '(trace|deadline)=|ok\\?":false'; then
    echo "$f parses a directive or scans a reply again: that is recurs_serve::protocol's job" >&2
    exit 1
  fi
done

# One-write framing guard: a frame's length prefix and payload leave in one
# write, so on a TCP_NODELAY socket the reader wakes once per frame. Only
# `frame::write_frame` and the fault hook's deliberately torn frame in
# `server::write_reply` encode a length prefix.
echo "==> framing guard (a length prefix is written by frame::write_frame alone)"
for f in $(find crates/net/src -name '*.rs'); do
  code="$(non_test "$f")"
  case "$f" in
    crates/net/src/frame.rs) code="$(sed '/^pub fn write_frame(/,/^}$/d' <<<"$code")" ;;
    crates/net/src/server.rs) code="$(sed '/if recurs_engine::fault::before_reply() {$/,/^    }$/d' <<<"$code")" ;;
  esac
  if grep -n "to_be_bytes" <<<"$code"; then
    echo "$f writes a length prefix outside frame::write_frame: frame it there, in one write" >&2
    exit 1
  fi
done

# One-copy guard: one fault plan and one reply reader. The engine's fault
# module is the only one with a serialization gate (the TCP server fires its
# reply and handler hooks), and a reply is read back with
# `recurs_obs::jsonl` — the parser the model and `obsctl` use — not scanned.
echo "==> one-copy guard (one fault gate; no reply field scans)"
gates="$(grep -rlE "static GATE\b" crates/*/src || true)"
if [ "$gates" != crates/engine/src/fault.rs ]; then
  echo "crates/*/src defines a fault gate outside recurs_engine::fault: $gates" >&2
  exit 1
fi
if grep -rnE "json_(str|u64)_field" crates/*/src; then
  echo "a reply is scanned for a field again: parse it with recurs_obs::jsonl" >&2
  exit 1
fi

# Unsafe guard: crates/*/src holds two `unsafe` blocks, the signal
# handler's install (crates/cli/src/signals.rs) and the bulk merge's
# prefetch hint (`fn prefetch` in crates/engine/src/storage.rs), each right
# under a `// SAFETY:` note saying why it is sound. Another one, one moved
# out of the prefetch helper, or one whose note is gone fails here.
echo "==> unsafe guard (the signal install and the prefetch hint only, each with its SAFETY note)"
unsafe_at="$(grep -rnw unsafe crates/*/src | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
prefetch="$(awk '/^fn prefetch</ { on = 1 } on { print FILENAME ":" FNR } on && /^}/ { exit }' \
  crates/engine/src/storage.rs)"
if [ "$(cut -d: -f1 <<<"$unsafe_at" | tr '\n' ' ')" \
    != "crates/cli/src/signals.rs crates/engine/src/storage.rs " ] \
    || ! grep -qxF "$(sed -n 2p <<<"$unsafe_at" | cut -d: -f1-2)" <<<"$prefetch"; then
  printf '%s\n' "$unsafe_at" >&2
  echo "unsafe code outside the signal install and storage.rs's prefetch helper" >&2
  exit 1
fi
while IFS=: read -r f n _; do
  if ! sed -n "$((n - 4)),$((n - 1))p" "$f" | grep -q "// SAFETY: "; then
    echo "$f:$n: an unsafe block without a // SAFETY: note right above it" >&2
    exit 1
  fi
done <<<"$unsafe_at"

# Flat-store guard: a stored tuple, an index key and a row in flight are
# slices of flat buffers. Nothing in the store, the pipelines or the round
# driver may own one tuple by itself again (the per-relation list of indexes
# and the compiler's variable maps are not per-tuple and may stay). And rows
# outside an arena — answers, cache entries, deltas, patches — are engine
# relations: on the whole serving path the oracle's `Relation` / `Tuple` may
# be named only by the survivors listed here, each with its reason.
echo "==> flat-store guard (no boxed tuple, key or row in engine / ivm / serve outside the allow-list)"
for f in crates/engine/src/storage.rs crates/engine/src/compile.rs crates/engine/src/driver.rs; do
  if non_test "$f" | grep -nE 'Box<\[Value\]>|Vec<Tuple>|Vec<Row>|HashMap<Tuple|HashMap<Box<'; then
    echo "$f owns tuples one by one again: keep rows in the arena or a Batch" >&2
    exit 1
  fi
done
survivors() {
  case "$1" in
    # `EngineDb::load`, `IndexedRelation::{from_relation, to_relation}`: the
    # load / copy-out entries the frozen perfbench/layers probe links
    # (ROADMAP item 1), and what `From<&Database>` and the oracle comparisons
    # copy through.
    crates/engine/src/storage.rs)
      echo 'relation::\{Relation, Tuple\};|fn from_relation\(|fn to_relation\(|Relation::from_tuples\(|fn load\(' ;;
    # The oracle comparison: copying both sides out is the point.
    crates/engine/src/oracle.rs) echo '.' ;;
    # `FactOp::{Insert, Delete}(Symbol, Tuple)`: one owned row is the datum
    # (and the probe constructs them).
    crates/ivm/src/delta.rs) echo 'relation::Tuple;|(Insert|Delete)\(Symbol, Tuple\)' ;;
    # `why`: a `DerivationNode` owns its row, and so do the witnesses one is
    # picked from.
    crates/ivm/src/provenance.rs) echo '\bTuple\b' ;;
    # `parse_ground_fact`: the row a `FactOp` or a `why` request carries.
    crates/serve/src/protocol.rs) echo 'relation::Tuple;|fn parse_ground_fact\(|Tuple::from\(' ;;
    *) echo '^$' ;;
  esac
}
for f in $(find crates/engine/src crates/ivm/src crates/serve/src -name '*.rs'); do
  code="$(non_test "$f" | grep -vE '^[[:space:]]*//' || true)"
  if [ "$f" != crates/engine/src/oracle.rs ] \
      && grep -nE 'HashSet<Tuple>|Arc<Relation>|HashSet<Box<|Box<\[Value\]>' <<<"$code"; then
    echo "$f holds a set of boxed tuples again: rows outside an arena go in an IndexedRelation" >&2
    exit 1
  fi
  if grep -nE '\b(Relation|Tuple)\b' <<<"$code" | grep -vE "$(survivors "$f")"; then
    echo "$f names the oracle's Relation / Tuple outside ci.sh's allow-list" >&2
    exit 1
  fi
done

# Recording guard: a served round records without allocating. A request's
# trace id rides in its `Obs` handle and reaches the sinks as an argument, so
# no recorder re-boxes an event to append it; and the round driver, view
# maintenance and the trace context build no event field by formatting —
# names and labels are borrowed (`field::st`), numbers are numbers.
echo "==> recording guard (no re-boxing recorder, no formatted event field on the round path)"
if grep -rn "ScopedRecorder" crates/*/src; then
  echo "ScopedRecorder is back: tag a request's events with Obs::with_trace" >&2
  exit 1
fi
for f in crates/engine/src/driver.rs $(find crates/ivm/src -name '*.rs') crates/obs/src/context.rs; do
  if non_test "$f" | grep -nE '(field::s|Value::string|Value::Str)\(.*(\.to_string\(\)|format!)'; then
    echo "$f formats an event field: borrow it (field::st) or pass the number" >&2
    exit 1
  fi
done

# One-lock guard: the answer cache is one LRU with one version stamp, and
# the metric aggregator one map of series under one lock. Their readers are
# few (the cache's are the queries holding an admission permit), and a
# sharded LRU splits `cache_capacity` so N queries no longer fit in N
# entries.
echo "==> one-lock guard (no sharded cache or aggregator)"
for f in crates/serve/src/cache.rs crates/obs/src/aggregate.rs; do
  if non_test "$f" | grep -niE 'shard|Box<\[Mutex'; then
    echo "$f is split into shards again: one LRU (one map of series) under one lock" >&2
    exit 1
  fi
done

# Reply guard: a served answers reply costs what it writes. `render_reply`
# writes its rows and `ServeStats::write_json` its stats straight into the
# reply, building no `Value` tree; and the aggregator finds a series by an
# unkeyed hash of labels chosen in code (`recurs_obs::Label`), not SipHash.
echo "==> reply guard (render_reply builds no Value tree; the aggregator names no DefaultHasher)"
if non_test crates/serve/src/protocol.rs | sed -n '/^fn render_reply(/,/^}$/p' | grep -n "to_value("; then
  echo "render_reply builds a Value tree again: write the reply straight out" >&2
  exit 1
fi
if non_test crates/obs/src/aggregate.rs | grep -n "DefaultHasher"; then
  echo "crates/obs/src/aggregate.rs hashes a series with SipHash again: its labels are chosen in code" >&2
  exit 1
fi

# One-record guard: each fact is recorded once. A histogram's `_count` and
# `_sum` are its counters, so no counter restates one (`ServiceStats` reads
# the histograms); an installed snapshot is its `serve.update`; the test
# capture keeps only events, and a test that counts attaches an `Aggregator`;
# the budget keeps only ceilings that some caller sets; and a run's rounds
# are one per-run counter, not a per-round histogram observation.
echo "==> one-record guard (no counter restating a histogram, no metric store in the capture, no memory or delta ceiling, no per-round metric)"
for f in $(find crates/*/src -name '*.rs'); do
  if non_test "$f" | grep -nE 'recurs_engine_iteration_seconds|recurs_engine_iterations_total|recurs_serve_(updates|snapshot_updates|eval_us|queue_wait_us)_total|"serve\.snapshot"|max_memory_bytes|MemoryCeiling|max_delta|DeltaCeiling|ballast'; then
    echo "$f records a fact twice or a ceiling no caller sets: read the histogram, or leave the ceiling out" >&2
    exit 1
  fi
done
if non_test crates/obs/src/lib.rs | sed -n '/^impl Recorder for CaptureRecorder {/,/^}/p' \
    | grep -nE 'fn (counter|observe)\('; then
  echo "CaptureRecorder keeps metrics again: the Aggregator is the one metric store" >&2
  exit 1
fi

# Per-run guard: a served miss records per run. The service's own sinks, the
# aggregator and the flight ring, keep no per-round detail (`Recorder::detail`
# stays the default `false`), so `drive_rounds` sends a saturation's
# `engine.rule` / `engine.iteration` events only when a trace file or a
# capture is attached.
echo "==> per-run guard (the aggregator and the flight ring keep no per-round detail)"
for f in crates/obs/src/aggregate.rs crates/obs/src/flight.rs; do
  if non_test "$f" | grep -nE 'fn detail\b'; then
    echo "$f keeps per-round detail: the served path records per run" >&2
    exit 1
  fi
done

# Round-cost guard: a round costs its joins. The store finds a relation by
# symbol id and the round driver keeps the delta in slots resolved once per
# call; a map keyed by `Symbol` compares the interned strings at every step
# (that is `Symbol`'s order), so neither file keys one by predicate again.
# A round's new rows are written once: the set-insertion merge records where
# it stored them (a `Fresh`), so neither it nor a driver slot holds a copy of
# stored rows in a `Batch`, and pre-seeded rows are read in place.
echo "==> round-cost guard (no Symbol-keyed BTreeMap in the round driver or the store, a head batch merged in bulk, no per-step pipeline batch, no copy of stored rows as the delta)"
for f in crates/engine/src/driver.rs crates/engine/src/storage.rs; do
  if non_test "$f" | grep -n "BTreeMap<Symbol"; then
    echo "$f keys a BTreeMap by Symbol again: find relations and deltas by id" >&2
    exit 1
  fi
done
if non_test crates/engine/src/storage.rs | sed -n '/pub fn insert_fresh/,/^    }/p' \
    | grep -nE "\binsert(_id)?\("; then
  echo "EngineDb::insert_fresh inserts row by row again: hand the batch to insert_batch" >&2
  exit 1
fi
if [ "$(non_test crates/engine/src/compile.rs | sed -n '/^pub struct Scratch/,/^}/p' | grep -c Batch)" != 1 ]; then
  echo "compile.rs's Scratch holds a per-step batch again: run the pipeline depth-first" >&2
  exit 1
fi
if non_test crates/engine/src/storage.rs | grep -nE "fn insert_(fresh|batch)\(.*fresh: &mut Batch" \
    || non_test crates/engine/src/driver.rs | sed -n '/^struct Slot {/,/^}/p' | grep -nw Batch \
    || non_test crates/engine/src/lib.rs | grep -n "Batch::from_rows"; then
  echo "a stored row is copied into a delta Batch again: record the run the merge stored (Fresh)" >&2
  exit 1
fi

# Size ratchet: the non-test code lines of crates/*/src — each file cut at
# its `#[cfg(test)]` (`non_test`), blank and `//` lines left out, the count
# EXPERIMENTS.md reports — may not grow past the number below. A change that
# deletes code lowers it in the same change; one that must grow raises it
# and names the lines in CHANGES.md.
size_budget=12337
echo "==> size ratchet (at most $size_budget non-test code lines in crates/*/src)"
size=0
for f in $(find crates/*/src -name '*.rs'); do
  size=$((size + $(non_test "$f" | grep -cvE '^[[:space:]]*(//.*)?$' || true)))
done
if [ "$size" -gt "$size_budget" ]; then
  echo "crates/*/src holds $size non-test code lines, over the ratchet's $size_budget" >&2
  exit 1
fi

# Pub ratchet: `dead_code` cannot see an unused `pub` item, so the non-test
# `pub` items of crates/*/src may not grow past the number below. An item
# no other crate, test, bench, example or perfbench/layers names is
# `pub(crate)`; a change that must widen one raises the budget and names
# the item in CHANGES.md.
pub_budget=650
echo "==> pub ratchet (at most $pub_budget non-test pub items in crates/*/src)"
pubs=0
for f in $(find crates/*/src -name '*.rs'); do
  pubs=$((pubs + $(non_test "$f" \
    | grep -cE '^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use)\b' || true)))
done
if [ "$pubs" -gt "$pub_budget" ]; then
  echo "crates/*/src holds $pubs non-test pub items, over the ratchet's $pub_budget" >&2
  exit 1
fi

echo "==> cargo test"
cargo test --workspace --offline -q

# The fault-injection lanes all arm the engine's one fault plan
# (`recurs_engine::fault`, the only `static GATE` in crates/*/src): its
# round hooks fired by the round driver — slowed / tripped kernel runs, and
# the ivm differential gate under forced maintenance truncation (tripped
# patches — propagation, overdeletion and rederive waves — must still equal
# the from-scratch oracle via the cold fallback) — and its reply and handler
# hooks, which the TCP server calls under recurs-net's `fault-inject`.
# Slowed and tripped rounds on the served path are phases of the
# whole-stack model, and the reply faults the chaos suite's, below.
echo "==> cargo test fault-injection suite"
cargo test -p recurs-engine --features fault-inject --offline -q
cargo test -p recurs-ivm --features fault-inject --offline -q
cargo test -p recurs-serve --features fault-inject --offline -q

# The census (tests/census.rs) at full scope, in release: every linear rule
# of dimension <= 3 with <= 3 non-recursive atoms held to Theorems 12 and 1
# and Corollary 3, its rank certified by containment, and the plans of those
# with <= 2 atoms checked against the fixpoint; and the classification checks
# on every rule of dimension 4 with <= 3 atoms. Tier-1 runs the small scope.
# Built first, then run in a time box: the two tests run side by side in
# 281-336 s on a 2-core host (dimension 4: 9.0 M rules; the full scope:
# 0.75 M rules in about 130 s), the box is 1200 s.
echo "==> census, full scope (release, --ignored, 1200 s box)"
cargo test --release --offline -p recurs-bench --test census --no-run
timeout 1200 cargo test --release --offline -p recurs-bench --test census -q -- --ignored

# perfbench/layers is the only code outside crates/ that links the crate
# APIs (run_linear / run_program / EngineConfig, eval::{semi_naive,
# answer_query}, recurs_datalog::{EvalBudget, Database}, recurs_cli::load,
# Materialization::{saturate, apply}, PatchStats, ServeConfig, ...) and the
# benchmark driver builds it on `--trace 1`, so an API change that breaks it
# must fail here. Its Cargo.lock is frozen with perfbench/, and cargo
# rewrites it whenever a crate's dependency edges have moved since, so it is
# put back as it was.
echo "==> perfbench/layers builds against the crate APIs"
LAYERS_LOCK="$(mktemp -t recurs-ci-layers-lock-XXXXXX)"
cp perfbench/layers/Cargo.lock "$LAYERS_LOCK"
restore_layers_lock() { cp "$LAYERS_LOCK" perfbench/layers/Cargo.lock; rm -f "$LAYERS_LOCK"; }
trap restore_layers_lock EXIT
cargo build --release --offline --manifest-path perfbench/layers/Cargo.toml
restore_layers_lock
trap - EXIT

# Perfbench smoke lane: two seconds of each benchmark workload against the
# release binary. The driver checks every reply's answer count against the
# generator's closed form and reads `!stats` to confirm the workload exercised
# its layer (`patched > 0 && materialized > 0` on serve-update, no hit on
# serve-cold, >= 99% hits on serve-hot), so a cache or view change that
# answers wrongly — or stops hitting, patching or evicting — fails here
# rather than in the benchmark pipeline. No timing is gated. The build tree is
# shared with the workspace's.
echo "==> perfbench smoke lane (each workload for 2 s: correct, 0 failed)"
for workload in saturate-wide serve-hot serve-cold serve-update; do
  line="$(CARGO_TARGET_DIR="$PWD/target" cargo run --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
  case "$line" in
    *'"correct": true'*'"failed": 0'*) ;;
    *) echo "perfbench $workload: $line" >&2; exit 1 ;;
  esac
done

# The alternated-process A/B harness, in smoke mode: two pairs, the same
# binary on both sides. It must run, pin and parse `--stats-json` end to end.
echo "==> A/B harness smoke (crates/bench/ab.sh, 2 pairs, one binary)"
cargo build --release --offline -p recurs-cli
crates/bench/ab.sh -n 2 -c 0 --stats-json target/release/recurs target/release/recurs \
  -- run datasets/transitive_closure.dl --engine indexed

# The recurs-net package under fault injection, once, in one box: the chaos
# suite (torn frames, stalled sockets, mid-request disconnects and worker
# panics during drain never leak a panic out of a connection handler, answer
# every accepted request exactly once or close cleanly, and leave the
# snapshot chain intact) and the whole-stack model (every program of its
# table played through the protocol and over TCP, every reply held to a
# plain-facts model at the version it names, with slowed and tripped rounds
# beside small deadlines). Built first, then run in a time box, so a wedged
# server fails the lane instead of hanging it: the package's tests take
# 9-11 s on a 2-core host (the model 7-8.5 s of it), the box is 120 s.
echo "==> recurs-net chaos suite and whole-stack model (--features fault-inject, 120 s box)"
cargo test -p recurs-net --features fault-inject --offline -q --no-run
timeout 120 cargo test -p recurs-net --features fault-inject --offline -q

# The observability spine on its own (recorder, aggregator, Prometheus text,
# JSON-lines trace sink): it must lint and pass without the workspace's
# feature unification.
echo "==> recurs-obs lane"
cargo clippy -p recurs-obs --all-targets --offline -- -D warnings
cargo test -p recurs-obs --offline -q

# Serve protocol smoke test: a spawned `serve --stdin` session must answer
# `!metrics` with parseable Prometheus exposition text.
echo "==> serve !metrics smoke test"
cargo test -p recurs-cli --offline -q --test cli_process \
  serve_stdin_answers_metrics_with_parseable_prometheus_text

# Network smoke lane, against spawned `recurs` processes: `serve --listen`
# must answer !health/!metrics over framed TCP, a kill -TERM mid-run must
# drain every in-flight pipelined request (exactly one reply each, in order,
# then exit 0), and `serve --stdin` must honor the same SIGTERM contract.
echo "==> serve --listen + SIGTERM drain smoke tests"
cargo test -p recurs-cli --offline -q --test cli_process \
  serve_listen_process_answers_health_queries_and_metrics_over_tcp
cargo test -p recurs-cli --offline -q --test cli_process \
  serve_listen_process_sigterm_mid_run_answers_every_in_flight_request
cargo test -p recurs-cli --offline -q --test cli_process \
  serve_stdin_sigterm_drains_with_exit_zero_while_stdin_stays_open

# Trace well-formedness lane: a spawned `serve --stdin --trace FILE`
# session over a real dataset must produce a JSON-lines trace that
# `obsctl validate` accepts end to end — every line parses, every event
# kind is in the taxonomy, sequence numbers are monotone, every span's
# parent resolves, and no trace id is orphaned (a traced `why` included).
echo "==> obsctl validate lane (serve --stdin --trace)"
CI_TRACE="$(mktemp -t recurs-ci-trace-XXXXXX.jsonl)"
printf '@trace=c0ffee ?- P(1, y).\n+A(6, 7). +E(6, 7).\n?- P(1, 6).\nwhy P(1, 6).\n@trace=beef why P(1, 6).\n!quit\n' | \
  cargo run --release --offline -p recurs-cli --bin recurs -- \
    serve datasets/transitive_closure.dl --stdin --trace "$CI_TRACE" > /dev/null
cargo run --release --offline -p recurs-obs --bin obsctl -- validate "$CI_TRACE"
rm -f "$CI_TRACE"

echo "==> the working tree is as ci.sh found it"
if [ "$(git status --porcelain)" != "$tree_before" ]; then
  git status --short >&2
  echo "ci.sh changed the working tree" >&2
  exit 1
fi

echo "==> OK"
