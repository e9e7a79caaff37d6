//! The traced layer probe: links the `recurs-*` crates, replays the inputs
//! `perfbench` generates for a `(workload, seed)` in-process, and records a
//! span around each public call into a layer. Every crate call the
//! benchmark makes lives in this file, so an API change in the crates can
//! break the probe but never the gated end-to-end numbers.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written to `perfbench/out/trace-<workload>.jsonl` at exit. A layer's
//! number is the median of its spans' *self* time (span minus children),
//! corrected by the same control-kernel block loop as the end-to-end run.
//!
//! Two conventions follow from recording spans from outside the crates:
//!
//! * The crates expose no hook between `NetServer` and `handle_line`, nor
//!   between `handle_line` and `QueryService::query`, so the probe replays
//!   statistically identical requests at each *depth* (over TCP, through
//!   `handle_line`, through `query`, through the kernel's engine call) and a
//!   layer's self time is the difference of adjacent depth medians.
//! * `QueryService::apply_update` hides its ivm patch, so the probe applies
//!   the identical delta to its own `Materialization` right after and
//!   records that as a *mirror* child of the `serve.apply_update` span (a
//!   child that starts after its parent ended).
//!
//! The last stdout line is the per-layer metrics as the inside of a JSON
//! object; the driver splices it next to its `client.*` metrics.

use perfbench::control;
use perfbench::gen::{self, Expect, Inputs, Request, Workload};
use perfbench::report::{self, Metric};
use perfbench::stats::median;
use perfbench::wire::Conn;
use recurs_core::classify::Classification;
use recurs_core::magic::{self, MagicPlan};
use recurs_datalog::eval::{answer_query, semi_naive};
use recurs_datalog::parser::{parse, parse_atom};
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Atom, Database, EvalBudget, LinearRecursion, QueryForm, Term, Tuple};
use recurs_engine::{run_linear, run_program, EngineConfig, Saturation};
use recurs_ivm::{EdbDelta, FactOp, Materialization, PatchStats};
use recurs_net::{NetConfig, NetServer, ShutdownHandle};
use recurs_obs::{Obs, TraceId};
use recurs_serve::protocol::{handle_line, LineOutcome};
use recurs_serve::{CacheOutcome, PointKernelKind, QueryService, ServeConfig};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric the probe owns, with its unit. A workload that
/// does not exercise a layer reports 0 for that layer's metrics.
const METRICS: [(&str, &str); 25] = [
    ("datalog.parse_ms", "ms"),
    ("datalog.oracle_ms", "ms"),
    ("core.classify_us", "us"),
    ("core.magic_plan_us", "us"),
    ("engine.saturate_ms", "ms"),
    ("engine.tuples_derived", "count"),
    ("engine.iterations", "count"),
    ("engine.ns_per_tuple", "ns"),
    ("engine.new_per_derived", "ratio"),
    ("engine.probe_hit_ratio", "ratio"),
    ("ivm.saturate_ms", "ms"),
    ("ivm.insert_patch_ms", "ms"),
    ("ivm.delete_patch_ms", "ms"),
    ("ivm.patch_rounds", "count"),
    ("ivm.rederived_per_overdeleted", "ratio"),
    ("serve.query_hit_us", "us"),
    ("serve.protocol_self_us", "us"),
    ("serve.query_miss_ms", "ms"),
    ("serve.query_view_ms", "ms"),
    ("serve.apply_update_self_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("net.rtt_noop_us", "us"),
    ("net.request_self_us", "us"),
    ("client.layers_cover_share", "ratio"),
];

/// One span per this many microsecond-scale calls: keeps the span count
/// (and the trace file) bounded while still taking thousands of samples.
const SMALL_OP_SAMPLING: usize = 16;

fn main() -> ExitCode {
    match run() {
        Ok(fragment) => {
            println!("{fragment}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-layers: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let mut flags = report::flags(std::env::args().skip(1))?;
    let name: String = report::take(&mut flags, "workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = report::take(&mut flags, "seed")?;
    let seconds: f64 = report::take(&mut flags, "seconds")?;
    let e2e_op_ms: f64 = report::take(&mut flags, "e2e-op-ms")?;

    let inputs = gen::inputs(workload, seed);
    let mut probe = Probe::default();
    // Σ of the layers' self time per end-to-end operation, in milliseconds.
    // `recurs run` evaluates on its main thread, `recurs serve` on a
    // connection thread, and glibc gives the two different malloc arenas,
    // whose state a miss's cost depends on. So each workload is replayed on
    // the kind of thread the program uses.
    let layers_ms = match workload {
        Workload::SaturateWide => probe.saturate_wide(&inputs, seconds),
        _ => std::thread::scope(|scope| {
            let served = scope.spawn(|| match workload {
                Workload::ServeHot => probe.serve_hot(&inputs, seconds),
                Workload::ServeCold => probe.serve_cold(&inputs, seconds),
                _ => probe.serve_update(&inputs, seconds),
            });
            served
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }),
    }?;
    probe.set("client.layers_cover_share", layers_ms / e2e_op_ms);

    let path = format!("perfbench/out/trace-{}.jsonl", workload.name());
    std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::write(&path, probe.tracer.jsonl()))
        .map_err(|e| format!("write {path}: {e}"))?;
    let metrics: Vec<Metric> = METRICS
        .iter()
        .map(|&(name, unit)| {
            Metric::new(name, probe.values.get(name).copied().unwrap_or(0.0), unit)
        })
        .collect();
    Ok(report::metrics_fragment(&metrics))
}

/// One recorded call.
struct Span {
    name: &'static str,
    /// Spans of one replayed operation share a request id.
    req: usize,
    parent: Option<usize>,
    /// The control block the span ran in (indexes `Tracer::scales`).
    block: usize,
    start_us: f64,
    end_us: f64,
    /// Total duration of the children closed under this span.
    child_us: f64,
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Drift correction factor of each block, pushed when the block ends.
    scales: Vec<f64>,
    next_req: usize,
    /// False while an unsampled operation runs: `open` records nothing.
    recording: bool,
}

/// The id `Tracer::open` returns while not recording.
const UNRECORDED: usize = usize::MAX;

impl Tracer {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// A fresh request id.
    fn request(&mut self) -> usize {
        self.next_req += 1;
        self.next_req
    }

    fn open(&mut self, name: &'static str, req: usize, parent: Option<usize>) -> usize {
        if !self.recording {
            return UNRECORDED;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            req,
            parent,
            block: self.scales.len(),
            start_us,
            end_us: start_us,
            child_us: 0.0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        if id == UNRECORDED {
            return;
        }
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        if let Some(parent) = self.spans[id].parent {
            self.spans[parent].child_us += end_us - self.spans[id].start_us;
        }
    }

    fn rename(&mut self, id: usize, name: &'static str) {
        if id != UNRECORDED {
            self.spans[id].name = name;
        }
    }

    /// Records `f` as one span.
    fn span<T>(
        &mut self,
        name: &'static str,
        req: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, req, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Corrected durations in milliseconds of every span called `name`:
    /// total time, or self time (minus children) when `self_time`.
    fn ms(&self, name: &str, self_time: bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let us = s.end_us - s.start_us - if self_time { s.child_us } else { 0.0 };
                us / 1e3 * self.scales[s.block]
            })
            .collect()
    }

    /// Median corrected total time of the spans called `name`, in ms.
    fn p50_ms(&self, name: &str) -> f64 {
        median(&self.ms(name, false))
    }

    fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"scale\":{:.4}}}",
                s.name, s.req, s.start_us, s.end_us, self.scales[s.block]
            )
            .expect("writing to a String");
        }
        out
    }
}

/// The probe's state: the tracer plus the metric values found so far.
struct Probe {
    tracer: Tracer,
    values: HashMap<&'static str, f64>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            tracer: Tracer {
                epoch: Instant::now(),
                spans: Vec::new(),
                scales: Vec::new(),
                next_req: 0,
                recording: true,
            },
            values: HashMap::new(),
        }
    }
}

/// A loaded program: what `recurs` builds from a source file before it can
/// run or serve it.
struct Loaded {
    lr: LinearRecursion,
    db: Database,
    queries: Vec<Atom>,
}

/// A parsed request of the generated operation sequence.
struct Parsed {
    line: String,
    atom: Atom,
    count: usize,
}

/// An in-process server over TCP, as `recurs serve --listen` wires it.
struct Served {
    service: Arc<QueryService>,
    client: Conn,
    handle: ShutdownHandle,
    join: std::thread::JoinHandle<std::io::Result<recurs_net::DrainReport>>,
}

impl Served {
    fn shut_down(self) -> Result<(), String> {
        drop(self.client);
        self.handle.drain();
        self.join
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        Ok(())
    }
}

/// How deep into the stack a replayed request enters.
#[derive(Clone, Copy)]
enum Depth {
    /// The framed round trip of a request the server acknowledges without
    /// touching the service, a comment line (`net.roundtrip_noop`).
    Noop,
    /// A framed round trip over loopback TCP (`net.roundtrip`).
    Net,
    /// `protocol::handle_line` called directly (`serve.handle_line`).
    Line,
    /// `QueryService::query_traced` called directly (`serve.query.*`).
    Query,
}

impl Probe {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(METRICS.iter().any(|&(n, _)| n == name), "unlisted {name}");
        self.values.insert(name, value);
    }

    /// Runs control-corrected blocks of `op` for `seconds` (at least one
    /// block), at most `limit` operations per block.
    fn blocks(&mut self, seconds: f64, limit: usize, op: impl FnMut(&mut Tracer)) {
        self.sampled_blocks(seconds, limit, 1, op);
    }

    /// [`Probe::blocks`] recording spans for every `every`-th operation
    /// only. Microsecond-scale calls run back-to-back for whole blocks, as
    /// in the end-to-end run (short blocks would mostly measure the cache
    /// the control kernel just emptied), without a span per call.
    fn sampled_blocks(
        &mut self,
        seconds: f64,
        limit: usize,
        every: usize,
        mut op: impl FnMut(&mut Tracer),
    ) {
        let start = Instant::now();
        let mut n = 0usize;
        loop {
            let block = control::run_block(limit, || {
                self.tracer.recording = n.is_multiple_of(every);
                n += 1;
                op(&mut self.tracer);
                self.tracer.recording = true;
                true
            });
            self.tracer.scales.push(block.scale());
            if start.elapsed().as_secs_f64() >= seconds {
                return;
            }
        }
    }

    /// Runs `f` once inside its own control-corrected block.
    fn once<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let mut f = Some(f);
        let mut out = None;
        self.blocks(0.0, 1, |tr| {
            out = Some(f.take().expect("one operation per block")(tr));
        });
        out.expect("the block ran its operation")
    }

    /// Parses, loads and classifies a program under `parent`, one span per
    /// layer call — the in-process equivalent of `recurs_cli::load`.
    fn load(
        tr: &mut Tracer,
        req: usize,
        parent: Option<usize>,
        text: &str,
    ) -> Result<Loaded, String> {
        let parsed = tr
            .span("datalog.parse", req, parent, || parse(text))
            .map_err(|e| format!("parse: {e}"))?;
        let mut db = Database::new();
        let rules = tr
            .span("datalog.load_facts", req, parent, || {
                db.load_facts(&parsed.program)
            })
            .map_err(|e| format!("facts: {e}"))?;
        let lr = tr
            .span("core.classify", req, parent, || {
                validate_with_generic_exit(&rules).inspect(|lr| {
                    std::hint::black_box(Classification::of(&lr.recursive_rule));
                })
            })
            .map_err(|e| format!("validate: {e}"))?;
        Ok(Loaded {
            lr,
            db,
            queries: parsed.queries,
        })
    }

    /// Times `magic::build_plan` for the forms `queries` use and returns
    /// one plan per form.
    fn magic_plans(
        &mut self,
        lr: &LinearRecursion,
        queries: &[&Atom],
    ) -> HashMap<QueryForm, MagicPlan> {
        let mut forms: Vec<QueryForm> = Vec::new();
        for q in queries {
            let form = QueryForm::of_atom(q);
            if !forms.contains(&form) {
                forms.push(form);
            }
        }
        let mut next = 0usize;
        self.blocks(0.0, 200, |tr| {
            let form = &forms[next % forms.len()];
            next += 1;
            let req = tr.request();
            std::hint::black_box(
                tr.span("core.magic_plan", req, None, || magic::build_plan(lr, form)),
            );
        });
        let us = self.tracer.p50_ms("core.magic_plan") * 1e3;
        self.set("core.magic_plan_us", us);
        forms
            .into_iter()
            .map(|form| {
                let plan = magic::build_plan(lr, &form);
                (form, plan)
            })
            .collect()
    }

    /// Records the set-up spans every workload shares and their metrics.
    fn load_metrics(&mut self) {
        let parse_ms = self.tracer.p50_ms("datalog.parse");
        let classify_us = self.tracer.p50_ms("core.classify") * 1e3;
        self.set("datalog.parse_ms", parse_ms);
        self.set("core.classify_us", classify_us);
    }

    fn engine_metrics(&mut self, span: &str, runs: &[Saturation]) {
        let saturate_ms = self.tracer.p50_ms(span);
        let per_run =
            |f: &dyn Fn(&Saturation) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        let tuples = per_run(&|s| s.stats.tuples_derived as f64);
        let (mut derived, mut new, mut probes, mut hits) = (0usize, 0usize, 0u64, 0u64);
        for s in runs {
            derived += s.stats.iterations.iter().map(|i| i.derived).sum::<usize>();
            new += s
                .stats
                .iterations
                .iter()
                .map(|i| i.new_tuples)
                .sum::<usize>();
            probes += s.stats.probes;
            hits += s.stats.probe_hits;
        }
        self.set("engine.saturate_ms", saturate_ms);
        self.set("engine.tuples_derived", tuples);
        self.set(
            "engine.iterations",
            per_run(&|s| s.stats.iteration_count() as f64),
        );
        self.set("engine.ns_per_tuple", saturate_ms * 1e6 / tuples.max(1.0));
        self.set("engine.new_per_derived", new as f64 / derived.max(1) as f64);
        self.set("engine.probe_hit_ratio", hits as f64 / probes.max(1) as f64);
    }

    /// `saturate-wide`: the whole `recurs run --engine indexed` pipeline
    /// in-process, then the oracle on the same input.
    fn saturate_wide(&mut self, inputs: &Inputs, seconds: f64) -> Result<f64, String> {
        let Expect::Count(expected) = inputs.ops[0][0].expect else {
            return Err("saturate-wide expects an answer count".to_string());
        };
        let mut runs = Vec::new();
        self.blocks(seconds * 0.6, 1, |tr| {
            let req = tr.request();
            let op = tr.open("op", req, None);
            let mut loaded =
                Probe::load(tr, req, Some(op), &inputs.program).expect("the program loads");
            let sat = tr
                .span("engine.run_linear", req, Some(op), || {
                    run_linear(&mut loaded.db, &loaded.lr, &EngineConfig::default())
                })
                .expect("the engine saturates");
            let answers = tr
                .span("datalog.answer_query", req, Some(op), || {
                    answer_query(&loaded.db, &loaded.queries[0])
                })
                .expect("the query answers");
            tr.close(op);
            assert_eq!(answers.len(), expected, "wrong answer count");
            runs.push(sat);
        });

        // The independent reference evaluator on the same EDB.
        let loaded = self.once(|tr| {
            let req = tr.request();
            Probe::load(tr, req, None, &inputs.program)
        })?;
        let program = loaded.lr.to_program();
        self.blocks(seconds * 0.4, 1, |tr| {
            let mut db = loaded.db.clone();
            let req = tr.request();
            tr.span("datalog.semi_naive", req, None, || {
                semi_naive(&mut db, &program, None)
            })
            .expect("the oracle saturates the generated program");
        });
        self.magic_plans(&loaded.lr, &[&loaded.queries[0]]);

        self.load_metrics();
        self.engine_metrics("engine.run_linear", &runs);
        let oracle_ms = self.tracer.p50_ms("datalog.semi_naive");
        self.set("datalog.oracle_ms", oracle_ms);
        Ok([
            "datalog.parse",
            "datalog.load_facts",
            "core.classify",
            "engine.run_linear",
            "datalog.answer_query",
        ]
        .iter()
        .map(|name| self.tracer.p50_ms(name))
        .sum())
    }

    /// Loads `inputs.program` and serves it in-process with the defaults
    /// `recurs serve --listen` uses.
    fn serve(&mut self, inputs: &Inputs) -> Result<(Served, Loaded), String> {
        let loaded = self.once(|tr| {
            let req = tr.request();
            let setup = tr.open("setup", req, None);
            let loaded = Probe::load(tr, req, Some(setup), &inputs.program);
            tr.close(setup);
            loaded
        })?;
        self.load_metrics();
        let service = Arc::new(QueryService::new(
            loaded.lr.clone(),
            loaded.db.clone(),
            ServeConfig::default(),
        ));
        let server = NetServer::bind(service.clone(), "127.0.0.1:0", NetConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local address: {e}"))?;
        let (handle, join) = server.spawn();
        let client = Conn::connect(&addr.to_string(), Duration::from_secs(60))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        Ok((
            Served {
                service,
                client,
                handle,
                join,
            },
            loaded,
        ))
    }

    /// Replays requests of `sequence` (cyclically) for `seconds`. One operation is one request at each of `depths`, then
    /// `extra` on one more — interleaved rather than a phase per depth, and
    /// starting one depth further on every time, because a miss's cost moves
    /// by 10–30% with the state of the allocator and with whichever thread
    /// last had the CPU cache, and the depths are compared with each other.
    /// Records spans for one operation in `every`; panics on a wrong answer.
    fn replay(
        &mut self,
        served: &mut Served,
        depths: &[Depth],
        sequence: &[Parsed],
        seconds: f64,
        every: usize,
        mut extra: impl FnMut(&mut Tracer, &Parsed),
    ) {
        let mut next = 0usize;
        let mut take = || {
            next += 1;
            &sequence[(next - 1) % sequence.len()]
        };
        let mut first = 0usize;
        self.sampled_blocks(seconds, usize::MAX, every, |tr| {
            first += 1;
            for k in 0..depths.len() {
                let depth = depths[(first + k) % depths.len()];
                let q = take();
                let req = tr.request();
                let count = match depth {
                    Depth::Noop => {
                        let reply = tr
                            .span("net.roundtrip_noop", req, None, || {
                                served.client.roundtrip("%")
                            })
                            .expect("round trip");
                        assert!(reply.contains("\"noop\""), "expected a noop ack: {reply}");
                        continue;
                    }
                    Depth::Net => {
                        let reply = tr
                            .span("net.roundtrip", req, None, || {
                                served.client.roundtrip(&q.line)
                            })
                            .expect("round trip");
                        report::json_u64(reply, "count").map(|n| n as usize)
                    }
                    Depth::Line => {
                        let outcome = tr.span("serve.handle_line", req, None, || {
                            handle_line(&served.service, &q.line)
                        });
                        match outcome {
                            LineOutcome::Reply(reply) => {
                                report::json_u64(&reply, "count").map(|n| n as usize)
                            }
                            _ => None,
                        }
                    }
                    Depth::Query => query_span(tr, &served.service, &q.atom, req, None),
                };
                assert_eq!(count, Some(q.count), "wrong answer to {}", q.line);
            }
            extra(tr, take());
        });
    }

    /// The net and protocol layers' self times from the depths, set as
    /// metrics; returns `(net_self_ms, protocol_self_ms, query_ms)`.
    /// `query_span` names the kind of answer the replayed requests got.
    fn depth_metrics(&mut self, query_span: &str) -> (f64, f64, f64) {
        let noop = self.tracer.p50_ms("net.roundtrip_noop");
        let rtt = self.tracer.p50_ms("net.roundtrip");
        let line = self.tracer.p50_ms("serve.handle_line");
        let query = self.tracer.p50_ms(query_span);
        self.set("net.rtt_noop_us", noop * 1e3);
        self.set("net.request_self_us", (rtt - line) * 1e3);
        self.set("serve.protocol_self_us", (line - query) * 1e3);
        (rtt - line, line - query, query)
    }

    fn cache_metrics(&mut self, service: &QueryService) {
        let cache = service.stats().cache;
        let lookups = (cache.hits + cache.misses).max(1);
        self.set("serve.cache_hit_ratio", cache.hits as f64 / lookups as f64);
        self.set("serve.cache_evictions", cache.evictions as f64);
    }

    /// `serve-hot`: cached queries at every depth.
    fn serve_hot(&mut self, inputs: &Inputs, seconds: f64) -> Result<f64, String> {
        let (mut served, loaded) = self.serve(inputs)?;
        // The warm-up starts with the hot set, one miss each.
        warm_up(&served.service, &inputs.warmup[..gen::HOT_SET])?;
        let sequence = parse_queries(&inputs.ops[..4096])?;
        let depths = [Depth::Noop, Depth::Net, Depth::Line, Depth::Query];
        let every = SMALL_OP_SAMPLING;
        self.replay(&mut served, &depths, &sequence, seconds, every, |_, _| {});
        let (net_self, protocol_self, query) = self.depth_metrics("serve.query.hit");
        self.set("serve.query_hit_us", query * 1e3);
        self.magic_plans(&loaded.lr, &[&sequence[0].atom]);
        self.cache_metrics(&served.service);
        served.shut_down()?;
        Ok(net_self + protocol_self + query)
    }

    /// `serve-cold`: uncached queries at every depth, then the magic
    /// kernel's engine call on its own.
    fn serve_cold(&mut self, inputs: &Inputs, seconds: f64) -> Result<f64, String> {
        let (mut served, loaded) = self.serve(inputs)?;
        // Cache at capacity and evicting, as in the end-to-end run: a miss
        // costs about 40% more there than against an empty cache.
        warm_up(&served.service, &inputs.warmup)?;
        let sequence = parse_queries(&inputs.ops)?;
        let atoms: Vec<&Atom> = sequence.iter().map(|q| &q.atom).collect();
        let plans = self.magic_plans(&loaded.lr, &atoms);
        let mut runs = Vec::new();
        let depths = [Depth::Noop, Depth::Net, Depth::Line, Depth::Query];
        // Beside the depths, what `serve::kernel` does on a miss:
        // seed the magic predicate on a copy of the snapshot and run the
        // rewritten program.
        self.replay(&mut served, &depths, &sequence, seconds, 1, |tr, q| {
            let plan = &plans[&QueryForm::of_atom(&q.atom)];
            let req = tr.request();
            let kernel = tr.open("serve.kernel", req, None);
            let mut db = loaded.db.clone();
            if let Some(seed) = plan.seed_predicate {
                let constants: Tuple = q.atom.terms.iter().filter_map(Term::as_const).collect();
                db.declare(seed, constants.len())
                    .expect("declare the magic seed");
                db.insert(seed, constants).expect("insert the magic seed");
            }
            let sat = tr
                .span("engine.run_program", req, Some(kernel), || {
                    run_program(&mut db, &plan.program, &EngineConfig::default())
                })
                .expect("the magic program saturates");
            let adorned = Atom::new(plan.answer_predicate, q.atom.terms.clone());
            let answers = answer_query(&db, &adorned).expect("answer over the adorned predicate");
            tr.close(kernel);
            assert_eq!(answers.len(), q.count, "wrong kernel answer to {}", q.line);
            runs.push(sat);
        });
        let (net_self, protocol_self, query) = self.depth_metrics("serve.query.miss");
        self.set("serve.query_miss_ms", query);
        self.cache_metrics(&served.service);
        served.shut_down()?;
        self.engine_metrics("engine.run_program", &runs);
        Ok(net_self + protocol_self + query)
    }

    /// `serve-update`: rounds over TCP for the whole, rounds against the
    /// service directly for the parts, and the ivm patch mirrored on the
    /// probe's own materialization.
    fn serve_update(&mut self, inputs: &Inputs, seconds: f64) -> Result<f64, String> {
        let (mut served, loaded) = self.serve(inputs)?;
        let budget = EvalBudget::unlimited();

        // The cold view build the first update pays, on the probe's mirror.
        let mut mirror = None;
        for _ in 0..3 {
            mirror = Some(self.once(|tr| {
                let req = tr.request();
                tr.span("ivm.saturate", req, None, || {
                    Materialization::saturate(&loaded.lr, &loaded.db, &budget, &Obs::noop())
                })
            }));
        }
        let mut mirror = mirror
            .expect("three builds ran")
            .map_err(|e| format!("ivm saturate: {e}"))?;
        let saturate_ms = self.tracer.p50_ms("ivm.saturate");
        self.set("ivm.saturate_ms", saturate_ms);

        // The first round builds the view, then the cache fills.
        warm_up(&served.service, &inputs.warmup)?;

        // Whole rounds over TCP.
        let mut next = 0usize;
        self.blocks(seconds * 0.3, usize::MAX, |tr| {
            let op = &inputs.ops[next % inputs.ops.len()];
            next += 1;
            let req = tr.request();
            let round = tr.open("net.round", req, None);
            for request in op {
                let reply = served.client.roundtrip(&request.line).expect("round trip");
                assert!(
                    reply.contains("\"ok\":true"),
                    "{} failed: {reply}",
                    request.line
                );
            }
            tr.close(round);
        });

        // Rounds against the service, one span per layer call.
        let mut patches: Vec<(bool, PatchStats)> = Vec::new();
        self.blocks(seconds * 0.6, usize::MAX, |tr| {
            let op = &inputs.ops[next % inputs.ops.len()];
            next += 1;
            let req = tr.request();
            let round = tr.open("round", req, None);
            for request in op {
                match request.expect {
                    Expect::Installed => {
                        let fact = fact_op(request).expect("generated update parses");
                        let insert = matches!(fact, FactOp::Insert(..));
                        let ops = [fact];
                        let update = tr.open("serve.apply_update", req, Some(round));
                        served.service.apply_update(&ops).expect("update applies");
                        tr.close(update);
                        let delta =
                            EdbDelta::normalize(&ops, mirror.database()).expect("delta normalizes");
                        let name = if insert {
                            "ivm.apply.insert"
                        } else {
                            "ivm.apply.delete"
                        };
                        let report = tr
                            .span(name, req, Some(update), || mirror.apply(&delta, &budget))
                            .expect("the mirror patches");
                        patches.push((insert, report.stats));
                    }
                    Expect::Count(n) => {
                        let atom = query_atom(request).expect("generated query parses");
                        let count = query_span(tr, &served.service, &atom, req, Some(round));
                        assert_eq!(count, Some(n), "wrong answer to {}", request.line);
                    }
                }
            }
            tr.close(round);
        });

        // Single hot requests over TCP and directly: the per-request cost
        // of the net and protocol layers.
        let hot_at = 1 + gen::UPDATE_FILL;
        let hot = parse_queries(&inputs.warmup[hot_at..hot_at + gen::UPDATE_HOT])?;
        let depths = [Depth::Noop, Depth::Net, Depth::Line];
        let every = SMALL_OP_SAMPLING;
        self.replay(&mut served, &depths, &hot, seconds * 0.1, every, |_, _| {});
        let (net_self, protocol_self, hit_ms) = self.depth_metrics("serve.query.hit");
        let wire_ms = net_self + protocol_self;

        let insert_ms = self.tracer.p50_ms("ivm.apply.insert");
        let delete_ms = self.tracer.p50_ms("ivm.apply.delete");
        let update_self_ms = median(&self.tracer.ms("serve.apply_update", true));
        let update_ms = self.tracer.p50_ms("serve.apply_update");
        let view_ms = self.tracer.p50_ms("serve.query.view");
        let rounds: Vec<f64> = patches.iter().map(|(_, s)| s.rounds as f64).collect();
        let overdeleted: usize = patches.iter().map(|(_, s)| s.overdeleted).sum();
        let rederived: usize = patches.iter().map(|(_, s)| s.rederived).sum();
        self.set("ivm.insert_patch_ms", insert_ms);
        self.set("ivm.delete_patch_ms", delete_ms);
        self.set("ivm.patch_rounds", median(&rounds));
        self.set(
            "ivm.rederived_per_overdeleted",
            rederived as f64 / overdeleted.max(1) as f64,
        );
        self.set("serve.apply_update_self_ms", update_self_ms);
        self.set("serve.query_hit_us", hit_ms * 1e3);
        self.set("serve.query_view_ms", view_ms);
        let atoms = [query_atom(&inputs.ops[0][1])?];
        self.magic_plans(&loaded.lr, &[&atoms[0]]);
        self.cache_metrics(&served.service);
        served.shut_down()?;
        // A round is 2 updates, 2 view selects (the cycle queries after the
        // insert) and 6 hits (the hot queries, and the cycle queries again
        // after the delete: cached by then, and patched across it), each
        // request paying the wire and protocol cost once.
        Ok(2.0 * update_ms + 2.0 * view_ms + 6.0 * hit_ms + 10.0 * wire_ms)
    }
}

/// Issues warm-up operations against the service directly, unspanned, so
/// the probe measures in the state the end-to-end run measures in.
fn warm_up(service: &QueryService, ops: &[gen::Op]) -> Result<(), String> {
    for request in ops.iter().flatten() {
        match request.expect {
            Expect::Installed => {
                service
                    .apply_update(&[fact_op(request)?])
                    .map_err(|e| format!("{}: {e}", request.line))?;
            }
            Expect::Count(n) => {
                let reply = service
                    .query(&query_atom(request)?)
                    .map_err(|e| format!("{}: {e}", request.line))?;
                if reply.answers.len() != n {
                    return Err(format!("wrong warm-up answer to {}", request.line));
                }
            }
        }
    }
    Ok(())
}

/// Calls `QueryService::query_traced` as `handle_line` does (default
/// budget, unbounded admission, a minted trace id) under a span named after
/// how the service answered — a cache hit, the maintained view, or a kernel
/// evaluation — since the three differ by orders of magnitude. Returns the
/// answer count.
fn query_span(
    tr: &mut Tracer,
    service: &QueryService,
    atom: &Atom,
    req: usize,
    parent: Option<usize>,
) -> Option<usize> {
    let id = tr.open("serve.query.miss", req, parent);
    let reply = service.query_traced(atom, service.default_budget(), None, TraceId::mint());
    tr.close(id);
    let reply = reply.ok()?;
    if reply.stats.cache == CacheOutcome::Hit {
        tr.rename(id, "serve.query.hit");
    } else if reply.stats.kernel == PointKernelKind::MaterializedView {
        tr.rename(id, "serve.query.view");
    }
    Some(reply.answers.len())
}

/// `?- P(7, y).` → the atom `P(7, y)`.
fn query_atom(request: &Request) -> Result<Atom, String> {
    let text = request
        .line
        .trim_start_matches("?-")
        .trim()
        .trim_end_matches('.');
    parse_atom(text).map_err(|e| format!("{}: {e}", request.line))
}

/// `+E(3, 9001).` → `FactOp::Insert(E, (3, 9001))`.
fn fact_op(request: &Request) -> Result<FactOp, String> {
    let atom = parse_atom(request.line[1..].trim_end_matches('.'))
        .map_err(|e| format!("{}: {e}", request.line))?;
    let tuple: Tuple = atom.terms.iter().filter_map(Term::as_const).collect();
    Ok(if request.line.starts_with('+') {
        FactOp::Insert(atom.predicate, tuple)
    } else {
        FactOp::Delete(atom.predicate, tuple)
    })
}

/// Parses single-query operations into atoms with their expected counts.
fn parse_queries(ops: &[gen::Op]) -> Result<Vec<Parsed>, String> {
    ops.iter()
        .map(|op| {
            let Expect::Count(count) = op[0].expect else {
                return Err(format!("{} is not a query", op[0].line));
            };
            Ok(Parsed {
                line: op[0].line.clone(),
                atom: query_atom(&op[0])?,
                count,
            })
        })
        .collect()
}
