//! Library backing the `recurs` command-line tool: argument parsing, file
//! loading, and the commands (`classify`, `plan`, `run`, `figure`, `serve`,
//! `batch`).
//!
//! The CLI reads a single source file holding a recursive formula, optional
//! facts, and optional queries:
//!
//! ```text
//! % transitive closure
//! P(x, y) :- A(x, z), P(z, y).
//! P(x, y) :- E(x, y).
//!
//! A(1, 2).  A(2, 3).  A(2, 4).
//! E(1, 2).  E(2, 3).  E(2, 4).
//!
//! ?- P(1, y).
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod signals;

use recurs_core::report::{classification_report, plan_report};
use recurs_core::Classification;
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::error::DatalogError;
use recurs_datalog::eval::{answer_query, semi_naive};
use recurs_datalog::fingerprint;
use recurs_datalog::govern::{CancelToken, EvalBudget, Outcome};
use recurs_datalog::parser::parse;
use recurs_datalog::rule::{LinearRecursion, Program};
use recurs_datalog::validate::{is_reserved, validate_with_generic_exit};
use recurs_datalog::{Atom, Database};
use recurs_engine::{kernel_label, EngineConfig, EngineDb, IndexedRelation, Selection};
use recurs_igraph::build::resolution_graph;
use recurs_igraph::dot::{to_ascii, to_dot};
use recurs_ivm::{render_tree, WhyOutcome, DEFAULT_WHY_DEPTH};
use recurs_net::NetConfig;
use recurs_obs::aggregate::Aggregator;
use recurs_obs::trace::TraceWriter;
use recurs_obs::{field, Obs};
use recurs_serve::protocol::parse_ground_fact;
use recurs_serve::{verdict_fields, QueryService, Reply, ServeConfig, ServeError};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `recurs classify <file>`
    Classify {
        /// Source file path.
        file: String,
    },
    /// `recurs plan <file> [--form dvv]...`
    Plan {
        /// Source file path.
        file: String,
        /// Query-form patterns (`dvv`-style); defaults to the file's queries.
        forms: Vec<String>,
    },
    /// `recurs run <file> [--check] [--engine indexed] [--timeout-ms T]
    /// [--max-tuples N] [--max-iterations K] [--stats-json]`
    Run {
        /// Source file path.
        file: String,
        /// Also verify each answer set against the fixpoint oracle.
        check: bool,
        /// Saturate the whole recursion once (`--engine indexed`) instead of
        /// running each query's plan.
        engine: bool,
        /// The evaluation budget and `--trace FILE` (which requires
        /// `--engine`); `run` refuses the cache and concurrency flags and
        /// answers with the cache off.
        opts: ServiceOpts,
        /// Also print the saturation statistics as one JSON line
        /// (requires `--engine`).
        stats_json: bool,
        /// Append the run's metrics in Prometheus text format
        /// (requires `--engine`).
        metrics: bool,
        /// Explain a ground fact's derivation instead of answering the
        /// file's queries (`--why "P(1, 3)"`).
        why: Option<String>,
        /// Recursion-depth bound for `--why` reconstruction.
        why_depth: u64,
    },
    /// `recurs figure <file> [--levels k] [--dot]`
    Figure {
        /// Source file path.
        file: String,
        /// How many resolution graphs `G_1 … G_k` to print.
        levels: usize,
        /// Also emit Graphviz DOT.
        dot: bool,
    },
    /// `recurs serve <file> (--stdin | --listen ADDR) [service options]
    /// [network options]`
    Serve {
        /// Source file path (formula + initial facts).
        file: String,
        /// Service sizing and per-query budget.
        opts: ServiceOpts,
        /// The address to listen on and how the TCP front end admits, times
        /// out and drains connections; `None` serves the stdin line protocol.
        net: Option<(String, NetConfig)>,
    },
    /// `recurs batch <file> [--repeat N] [--stats-json] [service options]`
    Batch {
        /// Source file path (formula + facts + `?-` queries).
        file: String,
        /// How many times to ask each query (later rounds exercise the cache).
        repeat: usize,
        /// Append the service-wide statistics as one JSON line.
        stats_json: bool,
        /// Service sizing and per-query budget.
        opts: ServiceOpts,
    },
    /// `recurs help`
    Help,
}

/// Options shared by `serve`, `batch` and `run`: how the query service is
/// sized and what per-query budget it enforces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceOpts {
    /// Saturation-cache capacity in entries; 0 (`--no-cache`) disables it.
    pub cache_capacity: usize,
    /// Maximum concurrent evaluations.
    pub max_concurrent: usize,
    /// Per-query wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Per-query derived-tuple ceiling.
    pub max_tuples: Option<usize>,
    /// Per-query iteration cap.
    pub max_iterations: Option<usize>,
    /// Write the service's JSON-lines trace (spans, events) to this file.
    pub trace: Option<String>,
}

impl Default for ServiceOpts {
    fn default() -> ServiceOpts {
        let ServeConfig {
            cache_capacity,
            max_concurrent,
            ..
        } = ServeConfig::default();
        ServiceOpts {
            cache_capacity,
            max_concurrent,
            timeout_ms: None,
            max_tuples: None,
            max_iterations: None,
            trace: None,
        }
    }
}

impl ServiceOpts {
    /// Consumes the service flag `flag` (and its value, from `flags`);
    /// `false` if it is not a service option.
    fn consume(&mut self, flag: &str, flags: &mut Flags<'_>) -> Result<bool, String> {
        match flag {
            "--no-cache" => self.cache_capacity = 0,
            "--cache-capacity" => self.cache_capacity = flags.number()?,
            "--max-concurrent" => {
                self.max_concurrent = flags.number()?;
                if self.max_concurrent == 0 {
                    return Err("--max-concurrent must be at least 1".into());
                }
            }
            "--timeout-ms" => self.timeout_ms = Some(flags.number()?),
            "--max-tuples" => self.max_tuples = Some(flags.number()?),
            "--max-iterations" => self.max_iterations = Some(flags.number()?),
            "--trace" => self.trace = Some(flags.value("a file path")?.clone()),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The [`EvalBudget`] the three budget flags and a Ctrl-C token describe.
fn budget_of(opts: &ServiceOpts, cancel: Option<CancelToken>) -> EvalBudget {
    let mut budget = EvalBudget::iteration_cap(opts.max_iterations);
    if let Some(ms) = opts.timeout_ms {
        budget = budget.with_timeout(Duration::from_millis(ms));
    }
    if let Some(n) = opts.max_tuples {
        budget = budget.with_max_tuples(n);
    }
    if let Some(token) = cancel {
        budget = budget.with_cancel(token);
    }
    budget
}

/// Usage text.
pub const USAGE: &str = "\
recurs — classification and compilation of recursive formulas (SIGMOD 1988)

USAGE:
    recurs classify <file>                 classify the formula, print the report
    recurs plan <file> [--form dvv]...     show the compiled plan per query form
    recurs run <file> [--check]            answer the file's ?- queries, each by
                                           its compiled plan on the engine
                                           (--check: verify against the fixpoint)
                      [--engine indexed]   saturate the whole recursion once
                                           instead, and answer from the fixpoint
                      [--timeout-ms T] [--max-tuples N] [--max-iterations K]
                                           budget each evaluation; a
                                           budgeted-out run prints the sound
                                           partial answers and exits with code 2
                      [--stats-json]       also print the saturation statistics
                                           as one JSON line (with --engine)
                      [--trace FILE]       write a JSON-lines evaluation trace
                                           (classification verdict, per-rule and
                                           per-iteration events) to FILE
                                           (with --engine)
                      [--metrics]          append the run's metrics in Prometheus
                                           text format (with --engine)
                      [--why \"P(1, 3)\"]    print a verified derivation tree for
                                           one ground fact of the recursive
                                           predicate (or that it is not
                                           derivable) instead of answering
                                           queries; the budget flags govern the
                                           provenance saturation
                      [--why-depth N]      bound the --why reconstruction depth

    recurs serve <file> --stdin            serve queries over stdin/stdout: one
                                           request per line (?- P(1, y). / +A(1, 2).
                                           / -A(1, 2). / +A(3, 4) -E(2, 3). /
                                           !explain P(1, y). / why P(1, 3). /
                                           !stats / !metrics / !snapshot /
                                           !quit; prefix @trace=<hex> to pick
                                           the request's trace id and
                                           @deadline=MS to bound its wall
                                           clock), one JSON reply per line
                                           (!metrics: Prometheus text ending
                                           with a # EOF line; a signed group is
                                           one atomic version; all-no-op groups
                                           reply unchanged without a bump);
                                           SIGTERM/Ctrl-C drains: the in-flight
                                           request is answered, then exit 0
                                           (2 if the drain deadline expires)
    recurs serve <file> --listen ADDR      serve the same protocol over TCP,
                                           @trace= and @deadline=MS included:
                                           length-framed requests and replies,
                                           pipelining with ordered replies,
                                           load shedding
                                           with a retry_after_ms hint, !health,
                                           and graceful drain on SIGTERM/Ctrl-C
                                           (exit 0 drained clean, 2 forced);
                                           prints `listening on ADDR` once
                                           bound (port 0 picks a free port)
        network options: [--max-connections N] [--idle-timeout-ms T]
                         [--drain-ms T] [--max-queue-wait-ms T]
                         [--retry-after-ms T]
                         [--postmortem FILE: dump the flight recorder's
                          retained events to FILE on a worker panic or a
                          forced drain, for `obsctl` postmortem reading]
    recurs batch <file> [--repeat N]       answer the file's ?- queries through
                                           the query service (repeat to exercise
                                           the cache) [--stats-json: append the
                                           service statistics as one JSON line]
        serve/batch options: [--no-cache] [--cache-capacity N]
                             [--max-concurrent N] [--timeout-ms T]
                             [--max-tuples N] [--max-iterations K]
                             [--trace FILE: write the service's JSON-lines
                              trace — request spans, events — to FILE, for
                              `obsctl validate|spans|slow`]

    recurs figure <file> [--levels K] [--dot]
                                           print I-graph / resolution graphs
    recurs help                            this text

EXIT CODES:
    0  complete   the run reached the fixpoint
    2  truncated  a budget or Ctrl-C stopped the run early (answers are a
                  sound under-approximation of the fixpoint)
    1  error      bad usage, unreadable file, invalid program, or engine error

FILE FORMAT:
    One linear recursive rule, optional exit rules, optional facts
    (ground atoms), optional queries (?- P(1, y).). Comments start with %.
";

/// A cursor over a command's flags: the flag being parsed and what follows.
struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value, `what` saying what is missing if it is.
    fn value(&mut self, what: &str) -> Result<&'a String, String> {
        let flag = self.flag;
        self.rest
            .next()
            .ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// The current flag's value as a number.
    fn number<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let v = self.value("a number")?;
        v.parse()
            .map_err(|_| format!("invalid value `{v}` for {}", self.flag))
    }

    /// [`Flags::number`] as milliseconds.
    fn millis(&mut self) -> Result<Duration, String> {
        self.number().map(Duration::from_millis)
    }

    /// [`Flags::number`], refusing zero.
    fn positive(&mut self) -> Result<usize, String> {
        match self.number()? {
            0 => Err(format!("{} must be at least 1", self.flag)),
            n => Ok(n),
        }
    }
}

/// Parses command-line arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "classify" | "plan" | "run" | "serve" | "batch" | "figure" => {}
        other => return Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
    let file = args.get(1).cloned();
    let file = file.ok_or_else(|| format!("{cmd} needs a file argument"))?;
    let mut flags = Flags {
        rest: args[2..].iter(),
        flag: cmd,
    };
    match cmd {
        "classify" => Ok(Command::Classify { file }),
        "plan" => {
            let mut forms = Vec::new();
            while let Some(flag) = flags.next() {
                match flag {
                    "--form" => forms.push(flags.value("a pattern such as dvv")?.clone()),
                    _ => return Err(format!("unknown option `{flag}`")),
                }
            }
            Ok(Command::Plan { file, forms })
        }
        "run" => {
            let (mut check, mut engine, mut stats_json, mut metrics) = (false, false, false, false);
            let (mut why, mut why_depth) = (None, None);
            let mut opts = ServiceOpts::default();
            while let Some(flag) = flags.next() {
                match flag {
                    "--check" => check = true,
                    "--stats-json" => stats_json = true,
                    "--metrics" => metrics = true,
                    "--why" => {
                        why = Some(flags.value("a ground fact such as \"P(1, 3)\"")?.clone());
                    }
                    "--why-depth" => why_depth = Some(flags.number()?),
                    "--engine" => {
                        engine = match flags.value("a value (indexed)")?.as_str() {
                            "indexed" => true,
                            "oracle" => {
                                return Err("the oracle only checks, it is not an engine to run \
                                     with: pass --check to compare a run against it"
                                    .into())
                            }
                            other => {
                                return Err(format!("unknown engine `{other}` (expected indexed)"))
                            }
                        };
                    }
                    "--no-cache" | "--cache-capacity" | "--max-concurrent" => {
                        return Err(format!("unknown option `{flag}`"));
                    }
                    _ if opts.consume(flag, &mut flags)? => {}
                    _ => return Err(format!("unknown option `{flag}`")),
                }
            }
            if why.is_some() && (engine || check) {
                return Err(
                    "--why explains one fact's derivation; it does not combine with \
                     --engine or --check"
                        .into(),
                );
            }
            if why_depth.is_some() && why.is_none() {
                return Err("--why-depth bounds a --why reconstruction; pass --why too".into());
            }
            if stats_json && !engine {
                return Err("--stats-json reports saturation statistics; \
                     pass --engine indexed"
                    .into());
            }
            if (opts.trace.is_some() || metrics) && !engine {
                return Err("--trace/--metrics observe a saturation run; \
                     pass --engine indexed"
                    .into());
            }
            Ok(Command::Run {
                file,
                check,
                engine,
                opts,
                stats_json,
                metrics,
                why,
                why_depth: why_depth.unwrap_or(DEFAULT_WHY_DEPTH),
            })
        }
        "serve" => {
            let (mut stdin, mut listen, mut has_net_flags) = (false, None, false);
            let mut opts = ServiceOpts::default();
            let mut net = NetConfig::default();
            while let Some(flag) = flags.next() {
                match flag {
                    "--stdin" => stdin = true,
                    "--listen" => {
                        listen = Some(flags.value("an address such as 127.0.0.1:4004")?.clone());
                    }
                    "--postmortem" => net.postmortem = Some(flags.value("a file path")?.into()),
                    "--max-connections" => net.max_connections = flags.positive()?,
                    "--idle-timeout-ms" => net.idle_timeout = flags.millis()?,
                    "--drain-ms" => net.drain_deadline = flags.millis()?,
                    "--max-queue-wait-ms" => net.max_queue_wait = flags.millis()?,
                    "--retry-after-ms" => net.retry_after_ms = flags.number()?,
                    _ if opts.consume(flag, &mut flags)? => continue,
                    _ => return Err(format!("unknown option `{flag}`")),
                }
                has_net_flags |= !matches!(flag, "--stdin" | "--listen");
            }
            let net = match (stdin, listen) {
                (true, Some(_)) => {
                    return Err("pass exactly one of --stdin and --listen".into());
                }
                (false, None) => {
                    return Err(
                        "serve needs a transport: --stdin (line protocol over stdin/stdout) \
                         or --listen ADDR (framed TCP)"
                            .into(),
                    );
                }
                (true, None) if has_net_flags => {
                    return Err("network options (--max-connections, --idle-timeout-ms, \
                         --drain-ms, --max-queue-wait-ms, --retry-after-ms, --postmortem) \
                         require --listen"
                        .into());
                }
                (true, None) => None,
                (false, Some(addr)) => Some((addr, net)),
            };
            Ok(Command::Serve { file, opts, net })
        }
        "batch" => {
            let (mut repeat, mut stats_json) = (1usize, false);
            let mut opts = ServiceOpts::default();
            while let Some(flag) = flags.next() {
                match flag {
                    "--repeat" => repeat = flags.positive()?,
                    "--stats-json" => stats_json = true,
                    _ if opts.consume(flag, &mut flags)? => {}
                    _ => return Err(format!("unknown option `{flag}`")),
                }
            }
            Ok(Command::Batch {
                file,
                repeat,
                stats_json,
                opts,
            })
        }
        // "figure": the one command left.
        _ => {
            let (mut levels, mut dot) = (1usize, false);
            while let Some(flag) = flags.next() {
                match flag {
                    "--dot" => dot = true,
                    "--levels" => levels = flags.positive()?,
                    _ => return Err(format!("unknown option `{flag}`")),
                }
            }
            Ok(Command::Figure { file, levels, dot })
        }
    }
}

/// A loaded source file: the validated formula, the fact database, and the
/// queries.
pub struct Loaded {
    /// The validated linear recursion.
    pub lr: LinearRecursion,
    /// Facts from the file.
    pub db: Database,
    /// Queries from the file.
    pub queries: Vec<Atom>,
}

/// Loads and validates a source text. No fact, rule or query may name a
/// relation in the namespace the planner and view maintenance synthesize
/// theirs in: a loaded `ans__P__dv` fact would be read as an answer.
pub fn load(source: &str) -> Result<Loaded, String> {
    let parsed = parse(source).map_err(|e| format!("parse error: {e}"))?;
    let rules = parsed.program.rules.iter();
    let atoms = rules.flat_map(|r| std::iter::once(&r.head).chain(&r.body));
    if let Some(atom) = atoms
        .chain(&parsed.queries)
        .find(|a| is_reserved(a.predicate))
    {
        return Err(DatalogError::ReservedName(atom.predicate).to_string());
    }
    let mut db = Database::new();
    let rules = db
        .load_facts(&parsed.program)
        .map_err(|e| format!("bad fact: {e}"))?;
    let lr = validate_with_generic_exit(&rules).map_err(|e| format!("invalid program: {e}"))?;
    // Make sure every EDB predicate at least exists (empty) so queries run;
    // a fact file that disagrees on an arity is reported by the evaluation.
    let program = lr.to_program();
    let body_atoms = program.rules.iter().flat_map(|r| &r.body);
    for atom in body_atoms.filter(|a| a.predicate != lr.predicate) {
        let _ = db.declare(atom.predicate, atom.arity());
    }
    Ok(Loaded {
        lr,
        db,
        queries: parsed.queries,
    })
}

/// Builds a [`QueryService`] from a source text and service options,
/// returning the file's `?-` queries alongside it. A `cancel` token is wired
/// into the per-query budget, so a signal truncates in-flight evaluations
/// cooperatively.
pub fn build_service_cancellable(
    source: &str,
    opts: &ServiceOpts,
    cancel: Option<CancelToken>,
) -> Result<(QueryService, Vec<Atom>), String> {
    let Loaded { lr, db, queries } = load(source)?;
    Ok((service_of(lr, db, opts, cancel)?, queries))
}

/// The query service over a loaded recursion and its facts — the one path
/// `serve`, `batch`, plan-driven `run` and `run --why` answer through.
fn service_of(
    lr: LinearRecursion,
    db: Database,
    opts: &ServiceOpts,
    cancel: Option<CancelToken>,
) -> Result<QueryService, String> {
    // The writer flushes on drop when the service (and its Obs handle)
    // goes away.
    let (obs, _, _) = recorders(opts.trace.as_deref(), false)?;
    let config = ServeConfig {
        max_concurrent: opts.max_concurrent,
        cache_capacity: opts.cache_capacity,
        budget: budget_of(opts, cancel),
        obs,
    };
    Ok(QueryService::new(lr, db, config))
}

/// The sinks `--trace FILE` and `--metrics` ask for: a JSON-lines
/// [`TraceWriter`] and a metric [`Aggregator`], fed from one handle so the
/// trace and the Prometheus text describe the same run.
#[allow(clippy::type_complexity)]
fn recorders(
    trace: Option<&str>,
    metrics: bool,
) -> Result<(Obs, Option<Arc<TraceWriter>>, Option<Arc<Aggregator>>), String> {
    let trace_writer = trace
        .map(|path| {
            let writer = TraceWriter::to_file(path);
            writer.map_err(|e| format!("cannot open trace file {path}: {e}"))
        })
        .transpose()?
        .map(Arc::new);
    let metrics_agg = metrics.then(|| Arc::new(Aggregator::default()));
    let mut sinks: Vec<Arc<dyn recurs_obs::Recorder>> = Vec::new();
    if let Some(writer) = &trace_writer {
        sinks.push(writer.clone());
    }
    if let Some(agg) = &metrics_agg {
        sinks.push(agg.clone());
    }
    Ok((Obs::fanout(sinks), trace_writer, metrics_agg))
}

/// Answers the file's queries through `service`, in order: the one query
/// loop `run` and `batch` print from.
fn answer_all(service: &QueryService, queries: &[Atom]) -> Result<Vec<Reply>, String> {
    let replies = queries.iter().map(|query| service.query(query));
    replies
        .collect::<Result<_, _>>()
        .map_err(|e| format!("query failed: {e}"))
}

/// Runs the `serve --stdin` line protocol over arbitrary IO — one request
/// per input line, one JSON reply per output line — and drains gracefully
/// when `cancel` fires (SIGTERM/Ctrl-C in the binary): the
/// in-flight request's budget is cancelled so it truncates quickly and still
/// gets its one reply, no further lines are started, and the process exits 0
/// once idle — or 2 if `drain_deadline` expires with the request still
/// running. A monitor thread calls `process::exit`, because the signal
/// handler cannot interrupt a blocked stdin read (`signal(2)` installs with
/// SA_RESTART semantics). Returns normally on EOF or `!quit`.
pub fn serve_stdin_drained(
    source: &str,
    opts: &ServiceOpts,
    cancel: CancelToken,
    drain_deadline: Duration,
    input: impl std::io::BufRead,
    output: impl std::io::Write,
) -> Result<(), String> {
    serve_stdin_impl(
        source,
        opts,
        cancel,
        drain_deadline,
        input,
        output,
        |code| std::process::exit(code),
    )
}

/// [`serve_stdin_drained`] with the monitor's exit action injected, so tests
/// can observe the drain verdict instead of dying with the process.
fn serve_stdin_impl(
    source: &str,
    opts: &ServiceOpts,
    cancel: CancelToken,
    drain_deadline: Duration,
    input: impl std::io::BufRead,
    mut output: impl std::io::Write,
    exit: impl Fn(i32) + Send + 'static,
) -> Result<(), String> {
    use recurs_serve::protocol::{handle_line, LineOutcome};
    use std::sync::atomic::{AtomicBool, Ordering};

    let (service, _queries) = build_service_cancellable(source, opts, Some(cancel.clone()))?;
    let in_request = Arc::new(AtomicBool::new(false));
    {
        let cancel = cancel.clone();
        let in_request = Arc::clone(&in_request);
        std::thread::spawn(move || {
            while !cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(20));
            }
            let deadline = std::time::Instant::now() + drain_deadline;
            loop {
                if !in_request.load(Ordering::SeqCst) {
                    exit(0);
                    return;
                }
                if std::time::Instant::now() >= deadline {
                    exit(2);
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
    }
    for line in input.lines() {
        let line = line.map_err(|e| format!("serve IO: {e}"))?;
        if cancel.is_cancelled() {
            // Drained at a line boundary; the monitor exits the process.
            return Ok(());
        }
        in_request.store(true, Ordering::SeqCst);
        let outcome = handle_line(&service, &line);
        let finished = (|| -> std::io::Result<bool> {
            match outcome {
                LineOutcome::Reply(reply) => {
                    writeln!(output, "{reply}")?;
                    output.flush()?;
                    Ok(false)
                }
                LineOutcome::Silent => Ok(false),
                LineOutcome::Quit => Ok(true),
            }
        })()
        .map_err(|e| format!("serve IO: {e}"))?;
        in_request.store(false, Ordering::SeqCst);
        if finished {
            break;
        }
    }
    Ok(())
}

/// Serves the framed TCP protocol on `addr` until `cancel` fires, then
/// drains gracefully: the listener stops accepting, in-flight requests are
/// answered within the drain deadline, and past it evaluations are
/// hard-cancelled (truncated replies, then close). Writes one
/// `listening on ADDR` line to `output` (flushed) once the socket is bound,
/// so scripts can discover an ephemeral port. The returned report's `forced`
/// flag maps to exit code 2 in the binary.
pub fn serve_listen_on_source(
    source: &str,
    opts: &ServiceOpts,
    addr: &str,
    config: NetConfig,
    cancel: CancelToken,
    mut output: impl std::io::Write,
) -> Result<recurs_net::DrainReport, String> {
    let (service, _queries) = build_service_cancellable(source, opts, None)?;
    let server = recurs_net::NetServer::bind(Arc::new(service), addr, config)
        .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local address: {e}"))?;
    writeln!(output, "listening on {addr}").map_err(|e| format!("serve IO: {e}"))?;
    output.flush().map_err(|e| format!("serve IO: {e}"))?;
    let handle = server.handle();
    std::thread::spawn(move || {
        while !cancel.is_cancelled() {
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.drain();
    });
    server.run().map_err(|e| format!("serve IO: {e}"))
}

/// Prints one query's answer set under a `[label]` header.
fn write_answers(out: &mut String, query: &Atom, label: &str, answers: &IndexedRelation) {
    let _ = writeln!(out, "?- {query}   [{label}]");
    if answers.arity() == 0 {
        let _ = writeln!(out, "{}", if answers.is_empty() { "no" } else { "yes" });
    } else {
        let mut sorted: Vec<_> = answers.iter().collect();
        sorted.sort_unstable();
        for t in sorted {
            let row: Vec<&str> = t.iter().map(|v| v.as_str()).collect();
            let _ = writeln!(out, "  {}", row.join(", "));
        }
        let _ = writeln!(out, "  ({} answers)", answers.len());
    }
}

/// Prints each query's served reply under the header `label` gives it —
/// the one loop `run` and `batch` print through. A truncated reply also
/// names its reason and makes the run's `outcome` truncated; with an
/// `oracle`, each answer set is checked against it.
fn write_replies(
    out: &mut String,
    queries: &[Atom],
    replies: &[Reply],
    label: impl Fn(&Reply) -> String,
    oracle: Option<&OracleFixpoint>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    for (query, reply) in queries.iter().zip(replies) {
        write_answers(out, query, &label(reply), &reply.answers);
        if let Some(reason) = reply.outcome.truncation() {
            *outcome = Outcome::Truncated(reason);
            let _ = writeln!(out, "  truncated: {reason} (sound subset)");
        }
        if let Some(oracle) = oracle {
            oracle.check(out, query, &reply.answers, reply.outcome.is_complete())?;
        }
    }
    Ok(())
}

/// The printable output of a command plus how the run ended.
///
/// `outcome` is [`Outcome::Complete`] for every command except a governed
/// one (`run`, `batch`) that was stopped early;
/// the binary maps it to the exit code (0 complete, 2 truncated).
#[derive(Debug, Clone)]
pub struct CmdOutput {
    /// Text to print to stdout.
    pub text: String,
    /// How the evaluation ended.
    pub outcome: Outcome,
}

/// Runs a command against a source text, returning the printable output.
/// Convenience wrapper over [`execute`] that drops the outcome.
pub fn run_on_source(cmd: &Command, source: &str) -> Result<String, String> {
    execute(cmd, source, None).map(|o| o.text)
}

/// Runs a command against a source text. A `cancel` token, when given, is
/// wired into the evaluation budget of the governed commands — `run` in
/// every mode and `batch` — so Ctrl-C stops the evaluation cooperatively
/// (reported as a truncated outcome, not an error). Nothing else reads it.
pub fn execute(
    cmd: &Command,
    source: &str,
    cancel: Option<CancelToken>,
) -> Result<CmdOutput, String> {
    let mut out = String::new();
    let mut outcome = Outcome::Complete;
    match cmd {
        Command::Help => out.push_str(USAGE),
        Command::Classify { .. } => {
            let loaded = load(source)?;
            out.push_str(&classification_report(&loaded.lr));
        }
        Command::Plan { forms, .. } => {
            let loaded = load(source)?;
            let forms: Vec<QueryForm> = if forms.is_empty() {
                if loaded.queries.is_empty() {
                    // Default: single-d leading form.
                    let n = loaded.lr.dimension();
                    vec![QueryForm::parse(&format!("d{}", "v".repeat(n - 1)))]
                } else {
                    loaded.queries.iter().map(QueryForm::of_atom).collect()
                }
            } else {
                forms
                    .iter()
                    .map(|f| QueryForm::try_parse(f))
                    .collect::<Result<_, _>>()?
            };
            for form in forms {
                if form.arity() != loaded.lr.dimension() {
                    return Err(format!(
                        "form {form} has arity {}, formula has dimension {}",
                        form.arity(),
                        loaded.lr.dimension()
                    ));
                }
                out.push_str(&plan_report(&loaded.lr, &form));
                out.push('\n');
            }
        }
        Command::Run {
            check,
            engine,
            opts,
            stats_json,
            metrics,
            why,
            why_depth,
            ..
        } => {
            let loaded = load(source)?;
            // Plan-driven runs and `--why` answer through the service `batch`
            // builds, with the cache off.
            let opts = ServiceOpts {
                cache_capacity: 0,
                ..opts.clone()
            };
            if let Some(fact_text) = why {
                outcome = explain_why(&mut out, loaded, fact_text, *why_depth, &opts, cancel)?;
                return Ok(CmdOutput { text: out, outcome });
            }
            if loaded.queries.is_empty() {
                return Err("no ?- queries in the file".into());
            }
            if *check {
                // Say exactly which program/database version this check run
                // certifies, so reports stay comparable across edits.
                let _ = writeln!(
                    out,
                    "check: program={} db={}",
                    fingerprint::of_program(&loaded.lr.to_program()),
                    fingerprint::of_database(&loaded.db)
                );
            }
            outcome = if *engine {
                run_engine(
                    &mut out,
                    loaded,
                    *check,
                    *stats_json,
                    budget_of(&opts, cancel),
                    opts.trace.as_deref(),
                    *metrics,
                )?
            } else {
                run_plans(&mut out, loaded, *check, &opts, cancel)?
            };
        }
        Command::Serve { .. } => {
            return Err(
                "serve streams requests from a transport; run it from the recurs binary \
                 with --stdin or --listen"
                    .into(),
            );
        }
        Command::Batch {
            repeat,
            stats_json,
            opts,
            ..
        } => {
            let (service, queries) = build_service_cancellable(source, opts, cancel)?;
            if queries.is_empty() {
                return Err("no ?- queries in the file".into());
            }
            let label = |reply: &Reply| {
                let stats = &reply.stats;
                format!(
                    "serve kernel:{} derived={} cache:{} v{}",
                    stats.kernel.label(),
                    stats.tuples_derived,
                    stats.cache.label(),
                    stats.snapshot_version
                )
            };
            for _round in 0..*repeat {
                let replies = answer_all(&service, &queries)?;
                write_replies(&mut out, &queries, &replies, label, None, &mut outcome)?;
            }
            if *stats_json {
                out.push_str(&service.stats_json());
                out.push('\n');
            }
        }
        Command::Figure { levels, dot, .. } => {
            let loaded = load(source)?;
            for k in 1..=*levels {
                let rg = resolution_graph(&loaded.lr.recursive_rule, k);
                let _ = writeln!(out, "--- G{k} ---");
                out.push_str(&to_ascii(&rg.graph));
                if *dot {
                    out.push_str(&to_dot(&rg.graph, &format!("G{k}")));
                }
            }
        }
    }
    Ok(CmdOutput { text: out, outcome })
}

/// Runs plan-driven `run`: the file's queries through the query service
/// `batch` builds, with the cache off — each by its own plan, lowered and
/// run by the engine under the budget, so the kernel label and the derived
/// count printed here are the ones `batch --no-cache` and `serve` report.
/// Evaluation is the governed phase; once the last query is answered Ctrl-C
/// is no longer caught, and `--check` takes the oracle's fixpoint once for
/// the whole file.
fn run_plans(
    out: &mut String,
    loaded: Loaded,
    check: bool,
    opts: &ServiceOpts,
    cancel: Option<CancelToken>,
) -> Result<Outcome, String> {
    let Loaded { lr, db, queries } = loaded;
    let oracle_input = check.then(|| (lr.to_program(), db.clone()));
    let cancelled = || cancel.as_ref().is_some_and(CancelToken::is_cancelled);
    let service = service_of(lr, db, opts, cancel.clone())?;
    let replies = answer_all(&service, &queries)?;
    signals::restore_default();
    let oracle = match oracle_input {
        Some((program, db)) if !cancelled() => Some(OracleFixpoint::of(&program, db)?),
        _ => None,
    };
    let label = |reply: &Reply| {
        let (kernel, derived) = (reply.stats.kernel.label(), reply.stats.tuples_derived);
        format!("plan kernel:{kernel} derived={derived}")
    };
    let mut outcome = Outcome::Complete;
    write_replies(
        out,
        &queries,
        &replies,
        label,
        oracle.as_ref(),
        &mut outcome,
    )?;
    Ok(outcome)
}

/// Runs `run --engine indexed`: converts the parsed facts to the engine's
/// store once, saturates that store under `budget`, and answers every query
/// by selecting from the relation the engine left there — a possibly
/// partial fixpoint nothing is copied out of. Saturation is the governed,
/// traced phase; once it ends Ctrl-C is no longer caught.
fn run_engine(
    out: &mut String,
    loaded: Loaded,
    check: bool,
    stats_json: bool,
    budget: EvalBudget,
    trace: Option<&str>,
    metrics: bool,
) -> Result<Outcome, String> {
    let (obs, trace_writer, metrics_agg) = recorders(trace, metrics)?;
    if obs.enabled() {
        // The provenance record tying a trace back to the paper's dispatch
        // decision: the class verdict and the kernel its rank bound selects.
        let c = Classification::of(&loaded.lr.recursive_rule);
        let kernel = kernel_label(c.rank_bound()).into();
        let engine = field::st("indexed");
        let fields = verdict_fields(&c, [("kernel", kernel), ("engine", engine)]);
        obs.event("classify.verdict", &fields);
    }
    let cancel = budget.cancel.clone();
    let mut store = EngineDb::from(&loaded.db);
    let sat = recurs_engine::saturate_linear(&mut store, &loaded.lr, &EngineConfig { budget, obs })
        .map_err(|e| format!("engine failed: {e}"))?;
    // Nothing below polls the token or emits an event, and the oracle is the
    // longer half of a `--check` run: a handler left in place would swallow
    // Ctrl-C until its fixpoint. From here the signal kills, so the trace
    // goes to disk now and a killed check still leaves it whole.
    signals::restore_default();
    if let Some(writer) = trace_writer {
        writer.flush();
        if writer.had_error() {
            return Err("trace write failed (trace file is incomplete)".into());
        }
    }
    let label = format!(
        "engine:indexed kernel:{} iterations={}",
        kernel_label(sat.stats.round_cap),
        sat.stats.iteration_count()
    );
    // A Ctrl-C caught before that point asks out, whether it truncated the
    // saturation or landed just after its last poll: the run goes unchecked.
    let cancelled = cancel.is_some_and(|token| token.is_cancelled());
    let oracle = (check && !cancelled)
        .then(|| OracleFixpoint::of(&loaded.lr.to_program(), loaded.db))
        .transpose()?;
    for query in &loaded.queries {
        let answers = select_stored(&store, query).map_err(|e| format!("query failed: {e}"))?;
        write_answers(out, query, &label, &answers);
        if let Some(oracle) = &oracle {
            oracle.check(out, query, &answers, sat.outcome.is_complete())?;
        }
    }
    if let Some(reason) = sat.outcome.truncation() {
        let _ = writeln!(
            out,
            "truncated: {reason} (answers are a sound under-approximation)"
        );
    }
    if stats_json {
        let _ = writeln!(out, "{}", serde::json::to_string(&sat));
    }
    if let Some(agg) = metrics_agg {
        out.push_str(&agg.prometheus_text());
    }
    Ok(sat.outcome)
}

/// Answers `query` over the store's relation of that name, which must exist
/// at the query's arity.
fn select_stored(store: &EngineDb, query: &Atom) -> Result<IndexedRelation, DatalogError> {
    let rel = store
        .get(query.predicate)
        .ok_or(DatalogError::UnknownRelation(query.predicate))?;
    if rel.arity() != query.arity() {
        return Err(DatalogError::ArityMismatch {
            predicate: query.predicate,
            expected: rel.arity(),
            found: query.arity(),
        });
    }
    Ok(recurs_engine::select(rel, &Selection::of(query)))
}

/// The `--check` side of an engine run: the oracle's fixpoint over a plain
/// copy of the file's facts (computed once), against which each answer set
/// the engine produced is compared.
struct OracleFixpoint(Database);

impl OracleFixpoint {
    fn of(program: &Program, mut db: Database) -> Result<OracleFixpoint, String> {
        semi_naive(&mut db, program, None).map_err(|e| format!("oracle failed: {e}"))?;
        Ok(OracleFixpoint(db))
    }

    /// Prints the `oracle:` verdict for one query. A complete run must
    /// agree exactly; a truncated one only promises a sound
    /// under-approximation, so every answer must lie inside the fixpoint's
    /// answer set.
    fn check(
        &self,
        out: &mut String,
        query: &Atom,
        answers: &IndexedRelation,
        complete: bool,
    ) -> Result<(), String> {
        let expected =
            answer_query(&self.0, query).map_err(|e| format!("oracle query failed: {e}"))?;
        let (ok, verdict, failure) = if complete {
            (
                answers.to_relation() == expected,
                "agrees",
                "engine disagrees with the fixpoint on",
            )
        } else {
            (
                answers.iter().all(|t| expected.contains(t)),
                "subset of the fixpoint (truncated run)",
                "truncated run over-approximates the fixpoint on",
            )
        };
        let _ = writeln!(out, "  oracle: {}", if ok { verdict } else { "DISAGREES" });
        if ok {
            Ok(())
        } else {
            Err(format!("{failure} {query}"))
        }
    }
}

/// Runs `run --why`: asks the query service why one ground fact of the
/// recursive predicate holds and prints its verified derivation tree, or that
/// the fact is not derivable. A budget that stops the search first maps to
/// the truncated exit code like any other governed run; a depth bound that is
/// exceeded still reports the fact's rank so the caller knows what
/// `--why-depth` to pass.
fn explain_why(
    out: &mut String,
    loaded: Loaded,
    fact_text: &str,
    depth_bound: u64,
    opts: &ServiceOpts,
    cancel: Option<CancelToken>,
) -> Result<Outcome, String> {
    let (pred, tuple) = parse_ground_fact(fact_text)?;
    let service = service_of(loaded.lr, loaded.db, opts, cancel)?;
    let budget = service.default_budget();
    let why = service
        .why(pred, &tuple, depth_bound, budget, None, None)
        .map_err(|e| match e {
            ServeError::WrongPredicate { got, serves } => {
                format!("--why explains {serves} facts; `{got}` is not the recursive predicate")
            }
            e => format!("why failed: {e}"),
        })?;
    let fact = &why.fact;
    match why.outcome {
        Ok(WhyOutcome::Derived(tree)) => {
            let (depth, size) = (tree.depth(), tree.size());
            let _ = writeln!(out, "{fact} is derived (depth {depth}, {size} nodes):");
            out.push_str(&render_tree(&tree));
        }
        Ok(WhyOutcome::NotDerived) => {
            let _ = writeln!(out, "{fact} is not derivable from the file's facts");
        }
        Ok(WhyOutcome::DepthExceeded { rank, max_depth }) => {
            let _ = writeln!(
                out,
                "{fact} is derived at rank {rank}, beyond --why-depth {max_depth}; \
                 raise the bound to see the tree"
            );
        }
        Err(reason) => {
            let _ = writeln!(
                out,
                "truncated: {reason} (the provenance saturation ran out of budget \
                 before reaching {fact})"
            );
            return Ok(Outcome::Truncated(reason));
        }
    }
    Ok(Outcome::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worker-count flag that went with the parallel engine. Spelled in
    /// two halves so a grep for the flag over `crates/` finds no live use.
    const REMOVED_THREADS_FLAG: &str = concat!("--", "threads");

    const TC: &str = "\
P(x, y) :- A(x, z), P(z, y).
P(x, y) :- E(x, y).
A(1, 2). A(2, 3). A(2, 4).
E(1, 2). E(2, 3). E(2, 4).
?- P(1, y).
?- P(1, 4).
?- P(4, 1).
";

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_args_variants() {
        assert_eq!(
            parse_args(&args(&["classify", "f.dl"])).unwrap(),
            Command::Classify {
                file: "f.dl".into()
            }
        );
        assert_eq!(
            parse_args(&args(&["plan", "f.dl", "--form", "dv"])).unwrap(),
            Command::Plan {
                file: "f.dl".into(),
                forms: vec!["dv".into()]
            }
        );
        assert_eq!(
            parse_args(&args(&["run", "f.dl", "--check"])).unwrap(),
            Command::Run {
                file: "f.dl".into(),
                check: true,
                engine: false,
                opts: ServiceOpts::default(),
                stats_json: false,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            }
        );
        assert_eq!(
            parse_args(&args(&["run", "f.dl", "--engine", "indexed"])).unwrap(),
            Command::Run {
                file: "f.dl".into(),
                check: false,
                engine: true,
                opts: ServiceOpts::default(),
                stats_json: false,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            }
        );
        assert!(parse_args(&args(&["run", "f.dl", "--engine", "warp"])).is_err());
        // The oracle checks; it is not an engine to run with.
        let err = parse_args(&args(&["run", "f.dl", "--engine", "oracle"])).unwrap_err();
        assert!(err.contains("--check"), "{err}");
        // The parallel engine and its thread knob are gone, not ignored.
        assert!(parse_args(&args(&["run", "f.dl", "--engine", "parallel"])).is_err());
        assert!(parse_args(&args(&["run", "f.dl", REMOVED_THREADS_FLAG, "2"])).is_err());
        assert_eq!(
            parse_args(&args(&["figure", "f.dl", "--levels", "3", "--dot"])).unwrap(),
            Command::Figure {
                file: "f.dl".into(),
                levels: 3,
                dot: true
            }
        );
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert!(parse_args(&args(&["bogus"])).is_err());
        assert!(parse_args(&args(&["plan", "f.dl", "--form"])).is_err());
        assert!(parse_args(&args(&["figure", "f.dl", "--levels", "0"])).is_err());
    }

    #[test]
    fn parse_args_budget_flags() {
        assert_eq!(
            parse_args(&args(&[
                "run",
                "f.dl",
                "--engine",
                "indexed",
                "--timeout-ms",
                "250",
                "--max-tuples",
                "100",
                "--max-iterations",
                "7"
            ]))
            .unwrap(),
            Command::Run {
                file: "f.dl".into(),
                check: false,
                engine: true,
                opts: ServiceOpts {
                    timeout_ms: Some(250),
                    max_tuples: Some(100),
                    max_iterations: Some(7),
                    ..ServiceOpts::default()
                },
                stats_json: false,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            }
        );
        // Plan-driven runs are governed too: the flags stand on their own.
        let plain = parse_args(&args(&["run", "f.dl", "--max-tuples", "5"])).unwrap();
        assert!(matches!(
            plain,
            Command::Run {
                engine: false,
                opts: ServiceOpts {
                    max_tuples: Some(5),
                    ..
                },
                ..
            }
        ));
        assert!(parse_args(&args(&["run", "f.dl", "--timeout-ms", "abc"])).is_err());
        assert!(parse_args(&args(&["run", "f.dl", "--max-tuples"])).is_err());
    }

    #[test]
    fn parse_args_why_flags() {
        assert_eq!(
            parse_args(&args(&["run", "f.dl", "--why", "P(1, 3)"])).unwrap(),
            Command::Run {
                file: "f.dl".into(),
                check: false,
                engine: false,
                opts: ServiceOpts::default(),
                stats_json: false,
                metrics: false,
                why: Some("P(1, 3)".into()),
                why_depth: DEFAULT_WHY_DEPTH,
            }
        );
        // A depth bound and budget flags compose with --why (they govern the
        // provenance saturation), without requiring an engine.
        let cmd = parse_args(&args(&[
            "run",
            "f.dl",
            "--why",
            "P(1, 3)",
            "--why-depth",
            "7",
            "--max-tuples",
            "100",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                why,
                why_depth,
                opts,
                ..
            } => {
                assert_eq!(why.as_deref(), Some("P(1, 3)"));
                assert_eq!(why_depth, 7);
                assert_eq!(opts.max_tuples, Some(100));
            }
            other => panic!("expected run, got {other:?}"),
        }
        // --why excludes --engine/--check; --why-depth needs --why.
        let err = parse_args(&args(&[
            "run", "f.dl", "--why", "P(1)", "--engine", "indexed",
        ]))
        .unwrap_err();
        assert!(err.contains("--why"), "{err}");
        let err = parse_args(&args(&["run", "f.dl", "--why", "P(1)", "--check"])).unwrap_err();
        assert!(err.contains("--why"), "{err}");
        let err = parse_args(&args(&["run", "f.dl", "--why-depth", "3"])).unwrap_err();
        assert!(err.contains("--why"), "{err}");
        assert!(parse_args(&args(&["run", "f.dl", "--why"])).is_err());
        assert!(parse_args(&args(&["run", "f.dl", "--why", "P(1)", "--why-depth", "x"])).is_err());
    }

    fn why_run(fact: &str, why_depth: u64, max_tuples: Option<usize>) -> Command {
        Command::Run {
            file: String::new(),
            check: false,
            engine: false,
            opts: ServiceOpts {
                max_tuples,
                ..ServiceOpts::default()
            },
            stats_json: false,
            metrics: false,
            why: Some(fact.into()),
            why_depth,
        }
    }

    #[test]
    fn run_why_renders_a_verified_derivation_tree() {
        let out = execute(&why_run("P(1, 4)", DEFAULT_WHY_DEPTH, None), TC, None).unwrap();
        assert!(out.outcome.is_complete());
        assert!(out.text.contains("P(1, 4) is derived"), "{}", out.text);
        // The tree grounds out in EDB leaves and tags the rules used.
        assert!(out.text.contains("[recursive rule]"), "{}", out.text);
        assert!(out.text.contains("[edb]"), "{}", out.text);
        assert!(out.text.contains("E(2, 4)"), "{}", out.text);

        let out = execute(&why_run("P(4, 1)", DEFAULT_WHY_DEPTH, None), TC, None).unwrap();
        assert!(out.outcome.is_complete());
        assert!(
            out.text.contains("P(4, 1) is not derivable"),
            "{}",
            out.text
        );
    }

    #[test]
    fn run_why_reports_rank_when_the_depth_bound_is_exceeded() {
        // P(1, 4) needs one recursive step; a zero depth bound names the
        // rank instead of rendering a tree.
        let out = execute(&why_run("P(1, 4)", 0, None), TC, None).unwrap();
        assert!(out.outcome.is_complete());
        assert!(out.text.contains("beyond --why-depth 0"), "{}", out.text);
        assert!(out.text.contains("rank 1"), "{}", out.text);
    }

    #[test]
    fn run_why_maps_a_budget_truncation_to_the_truncated_outcome() {
        let out = execute(&why_run("P(1, 4)", DEFAULT_WHY_DEPTH, Some(1)), TC, None).unwrap();
        assert!(!out.outcome.is_complete(), "{}", out.text);
        assert!(out.text.contains("truncated"), "{}", out.text);
    }

    #[test]
    fn run_why_and_the_served_why_agree() {
        use recurs_serve::protocol::{handle_line, LineOutcome};
        // (fact, --why-depth, --max-tuples, verdict): what `run --why` prints
        // is what the service's `why` found, and what `serve` replies.
        let table = [
            ("P(1, 4)", DEFAULT_WHY_DEPTH, None, "derived"),
            ("P(4, 1)", DEFAULT_WHY_DEPTH, None, "not derivable"),
            ("P(1, 4)", 0, None, "depth exceeded"),
            ("P(1, 4)", DEFAULT_WHY_DEPTH, Some(1), "truncated"),
        ];
        for (fact, depth, max_tuples, verdict) in table {
            let run = execute(&why_run(fact, depth, max_tuples), TC, None).unwrap();
            let said = |text| run.text.contains(text);
            let printed = [
                (" is derived (", "derived"),
                (" is not derivable", "not derivable"),
                ("beyond --why-depth", "depth exceeded"),
                ("truncated: ", "truncated"),
            ]
            .into_iter()
            .find_map(|(text, v)| said(text).then_some(v));
            assert_eq!(printed, Some(verdict), "{}", run.text);
            assert_eq!(run.outcome.is_complete(), verdict != "truncated");

            let opts = ServiceOpts {
                max_tuples,
                ..ServiceOpts::default()
            };
            let (service, _) = build_service_cancellable(TC, &opts, None).unwrap();
            let (pred, tuple) = parse_ground_fact(fact).unwrap();
            let served = service.why(pred, &tuple, depth, service.default_budget(), None, None);
            let found = match served.unwrap().outcome {
                Ok(WhyOutcome::Derived(_)) => "derived",
                Ok(WhyOutcome::NotDerived) => "not derivable",
                Ok(WhyOutcome::DepthExceeded { .. }) => "depth exceeded",
                Err(_) => "truncated",
            };
            assert_eq!(found, verdict, "{fact}");
            // The line protocol explains at the default depth.
            if depth == DEFAULT_WHY_DEPTH {
                let LineOutcome::Reply(reply) = handle_line(&service, &format!("why {fact}."))
                else {
                    panic!("why replies");
                };
                assert!(reply.contains("\"ok\":true"), "{reply}");
                let flag = match verdict {
                    "derived" => "\"derived\":true",
                    "not derivable" => "\"derived\":false",
                    _ => "\"truncated\":true",
                };
                assert!(reply.contains(flag), "{fact}: {reply}");
            }
        }
    }

    #[test]
    fn run_why_rejects_non_ground_and_foreign_facts() {
        let err = execute(&why_run("P(x, y)", DEFAULT_WHY_DEPTH, None), TC, None).unwrap_err();
        assert!(err.contains("not ground"), "{err}");
        let err = execute(&why_run("Q(1, 2)", DEFAULT_WHY_DEPTH, None), TC, None).unwrap_err();
        assert!(err.contains("recursive predicate"), "{err}");
        let err = execute(&why_run("P(1", DEFAULT_WHY_DEPTH, None), TC, None).unwrap_err();
        assert!(err.contains("bad fact"), "{err}");
    }

    fn budgeted_run(max_tuples: Option<usize>, max_iterations: Option<usize>) -> Command {
        Command::Run {
            file: String::new(),
            check: true,
            engine: true,
            opts: ServiceOpts {
                max_tuples,
                max_iterations,
                ..ServiceOpts::default()
            },
            stats_json: false,
            metrics: false,
            why: None,
            why_depth: DEFAULT_WHY_DEPTH,
        }
    }

    #[test]
    fn budgeted_run_reports_truncation_and_a_sound_subset() {
        let out = execute(&budgeted_run(Some(1), None), TC, None).unwrap();
        assert!(!out.outcome.is_complete(), "tuple ceiling 1 must truncate");
        assert!(
            out.text.contains("truncated: tuple ceiling"),
            "{}",
            out.text
        );
        assert!(
            out.text.contains("oracle: subset of the fixpoint"),
            "{}",
            out.text
        );
    }

    /// The plan-driven run of [`budgeted_run`]'s flags.
    fn budgeted_plan_run(max_tuples: Option<usize>) -> Command {
        let mut cmd = budgeted_run(max_tuples, None);
        if let Command::Run { engine, .. } = &mut cmd {
            *engine = false;
        }
        cmd
    }

    #[test]
    fn budgeted_plan_run_reports_truncation_and_a_sound_subset() {
        let out = execute(&budgeted_plan_run(Some(1)), TC, None).unwrap();
        assert!(!out.outcome.is_complete(), "tuple ceiling 1 must truncate");
        // Reported per query, the way `batch` prints it.
        let reported =
            "  truncated: tuple ceiling (sound subset)\n  oracle: subset of the fixpoint";
        assert!(out.text.contains(reported), "{}", out.text);
        // A Ctrl-C before the first query answers nothing and skips the
        // oracle, like the engine run.
        let token = CancelToken::new();
        token.cancel();
        let out = execute(&budgeted_plan_run(None), TC, Some(token)).unwrap();
        assert!(!out.outcome.is_complete());
        assert!(out.text.contains("truncated: cancelled"), "{}", out.text);
        assert!(!out.text.contains("oracle:"), "{}", out.text);
    }

    /// The `[… kernel:K derived=N …]` pair of every query header in `out`.
    fn kernel_and_derived(out: &str) -> Vec<(String, usize)> {
        let field = |line: &str, key: &str| -> Option<String> {
            let rest = &line[line.find(key)? + key.len()..];
            Some(rest.split([' ', ']']).next()?.to_string())
        };
        out.lines()
            .filter(|l| l.starts_with("?- "))
            .map(|l| {
                let derived = field(l, "derived=").and_then(|d| d.parse().ok());
                (field(l, "kernel:").unwrap(), derived.unwrap())
            })
            .collect()
    }

    #[test]
    fn run_and_batch_report_one_dispatch_table() {
        // The walk and magic (target bound) on TC, magic and saturation on
        // class E, where a binding means magic: `run` and `batch` name the
        // same kernel and derive the same tuples per query, because both are
        // the planner's table run by the executor.
        let chain: String = (1..800)
            .map(|i| format!("A({i}, {}). E({i}, {}).\n", i + 1, i + 1))
            .collect();
        let tc = format!(
            "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).\n{chain}\
             ?- P(1, y).\n?- P(x, 800).\n?- P(790, 800).\n"
        );
        let s11 = "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).\nP(x, y) :- E(x, y).\n\
                   A(1, 2). A(2, 3). B(11, 12). B(12, 13). C(2, 12). C(3, 13).\n\
                   E(2, 12). E(3, 13). E(1, 11).\n?- P(1, y).\n?- P(x, y).\n";
        let batch = Command::Batch {
            file: String::new(),
            repeat: 1,
            stats_json: false,
            opts: ServiceOpts {
                cache_capacity: 0,
                ..ServiceOpts::default()
            },
        };
        for (source, kernels) in [
            (tc.as_str(), &["frontier", "magic", "frontier"][..]),
            (s11, &["magic", "saturate"]),
        ] {
            let run = kernel_and_derived(&run_on_source(&budgeted_plan_run(None), source).unwrap());
            let served = kernel_and_derived(&run_on_source(&batch, source).unwrap());
            assert_eq!(run, served);
            let named: Vec<&str> = run.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(named, kernels);
        }
        // The walk from vertex 1 reaches 799 vertices and answers 799: no
        // fixpoint over P (magic derived P(z, y) for every reachable z —
        // 320 399 tuples).
        let walk = &kernel_and_derived(&run_on_source(&budgeted_plan_run(None), &tc).unwrap())[0];
        assert_eq!(walk.1, 1598);
    }

    #[test]
    fn unbudgeted_run_outcome_is_complete() {
        let out = execute(&budgeted_run(None, None), TC, None).unwrap();
        assert!(out.outcome.is_complete());
        assert!(out.text.contains("oracle: agrees"), "{}", out.text);
        assert!(!out.text.contains("truncated"), "{}", out.text);
    }

    #[test]
    fn pre_cancelled_token_truncates_immediately() {
        let token = CancelToken::new();
        token.cancel();
        let out = execute(&budgeted_run(None, None), TC, Some(token)).unwrap();
        assert!(!out.outcome.is_complete());
        assert!(out.text.contains("truncated: cancelled"), "{}", out.text);
        // ... and skips the oracle, which would not stop for the token.
        assert!(!out.text.contains("oracle:"), "{}", out.text);
    }

    #[test]
    fn plan_rejects_malformed_query_form() {
        let err = run_on_source(
            &Command::Plan {
                file: String::new(),
                forms: vec!["dxz".into()],
            },
            TC,
        )
        .unwrap_err();
        assert!(err.contains("invalid query-form character"), "{err}");
    }

    #[test]
    fn classify_command_output() {
        let out = run_on_source(
            &Command::Classify {
                file: String::new(),
            },
            TC,
        )
        .unwrap();
        assert!(out.contains("class    : A5"));
        assert!(out.contains("strongly stable       : true"));
    }

    #[test]
    fn run_command_answers_queries() {
        let out = run_on_source(
            &Command::Run {
                file: String::new(),
                check: true,
                engine: false,
                opts: ServiceOpts::default(),
                stats_json: false,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            TC,
        )
        .unwrap();
        // P(1, y): 2, 3, 4.
        assert!(out.contains("(3 answers)"), "{out}");
        // P(1, 4): yes; P(4, 1): no.
        assert!(out.contains("yes"), "{out}");
        assert!(out.contains("no"), "{out}");
        assert!(out.contains("oracle: agrees"), "{out}");
    }

    #[test]
    fn run_command_engine_modes_agree_with_plans() {
        let plan_out = run_on_source(
            &Command::Run {
                file: String::new(),
                check: false,
                engine: false,
                opts: ServiceOpts::default(),
                stats_json: false,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            TC,
        )
        .unwrap();
        let out = run_on_source(
            &Command::Run {
                file: String::new(),
                check: true,
                engine: true,
                opts: ServiceOpts::default(),
                stats_json: false,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            TC,
        )
        .unwrap();
        // The indexed engine reports the kernel TC's (A5) missing rank
        // bound selects.
        assert!(out.contains("engine:indexed kernel:generic"), "{out}");
        assert!(out.contains("oracle: agrees"), "{out}");
        // Same answer lines as the plan-driven run (headers differ).
        for line in plan_out.lines().filter(|l| l.starts_with("  ")) {
            assert!(out.contains(line), "missing `{line}` in {out}");
        }
    }

    #[test]
    fn plan_command_uses_query_forms() {
        let out = run_on_source(
            &Command::Plan {
                file: String::new(),
                forms: vec!["dv".into(), "vv".into()],
            },
            TC,
        )
        .unwrap();
        assert!(out.contains("P(dv)"));
        assert!(out.contains("P(vv)"));
        assert!(out.contains("compiled formula"));
    }

    #[test]
    fn plan_command_rejects_bad_arity() {
        let err = run_on_source(
            &Command::Plan {
                file: String::new(),
                forms: vec!["dvv".into()],
            },
            TC,
        )
        .unwrap_err();
        assert!(err.contains("arity"));
    }

    #[test]
    fn figure_command_renders_levels() {
        let out = run_on_source(
            &Command::Figure {
                file: String::new(),
                levels: 2,
                dot: true,
            },
            TC,
        )
        .unwrap();
        assert!(out.contains("--- G1 ---"));
        assert!(out.contains("--- G2 ---"));
        assert!(out.contains("graph \"G2\""));
    }

    #[test]
    fn load_rejects_invalid_programs() {
        assert!(load("P(x, y) :- P(x, z), P(z, y).").is_err()); // non-linear
        assert!(load("A(1, 2).").is_err()); // no recursion
        assert!(load("P(x y) :-").is_err()); // syntax
    }

    #[test]
    fn run_without_queries_is_an_error() {
        let err = run_on_source(
            &Command::Run {
                file: String::new(),
                check: false,
                engine: false,
                opts: ServiceOpts::default(),
                stats_json: false,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).",
        )
        .unwrap_err();
        assert!(err.contains("no ?- queries"));
    }

    #[test]
    fn missing_edb_relations_default_to_empty() {
        // Facts only for A; E is declared empty, so queries return nothing
        // rather than erroring.
        let src = "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).\nA(1, 2).\n?- P(1, y).";
        let out = run_on_source(
            &Command::Run {
                file: String::new(),
                check: true,
                engine: false,
                opts: ServiceOpts::default(),
                stats_json: false,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            src,
        )
        .unwrap();
        assert!(out.contains("(0 answers)"), "{out}");
    }

    #[test]
    fn parse_args_serve_and_batch() {
        assert_eq!(
            parse_args(&args(&["serve", "f.dl", "--stdin"])).unwrap(),
            Command::Serve {
                file: "f.dl".into(),
                opts: ServiceOpts::default(),
                net: None,
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "f.dl",
                "--stdin",
                "--no-cache",
                "--max-tuples",
                "9"
            ]))
            .unwrap(),
            Command::Serve {
                file: "f.dl".into(),
                opts: ServiceOpts {
                    cache_capacity: 0,
                    max_tuples: Some(9),
                    ..ServiceOpts::default()
                },
                net: None,
            }
        );
        // serve needs exactly one transport.
        let err = parse_args(&args(&["serve", "f.dl"])).unwrap_err();
        assert!(err.contains("--stdin"), "{err}");
        assert!(err.contains("--listen"), "{err}");
        let err = parse_args(&args(&[
            "serve",
            "f.dl",
            "--stdin",
            "--listen",
            "127.0.0.1:0",
        ]))
        .unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        assert!(parse_args(&args(&[
            "serve",
            "f.dl",
            "--stdin",
            REMOVED_THREADS_FLAG,
            "2"
        ]))
        .is_err());

        assert_eq!(
            parse_args(&args(&[
                "batch",
                "f.dl",
                "--repeat",
                "3",
                "--stats-json",
                "--cache-capacity",
                "64"
            ]))
            .unwrap(),
            Command::Batch {
                file: "f.dl".into(),
                repeat: 3,
                stats_json: true,
                opts: ServiceOpts {
                    cache_capacity: 64,
                    ..ServiceOpts::default()
                },
            }
        );
        assert!(parse_args(&args(&["batch", "f.dl", "--repeat", "0"])).is_err());
        assert!(parse_args(&args(&["batch", "f.dl", "--bogus"])).is_err());
    }

    #[test]
    fn run_stats_json_requires_an_engine() {
        let err = parse_args(&args(&["run", "f.dl", "--stats-json"])).unwrap_err();
        assert!(err.contains("--engine"), "{err}");
        assert_eq!(
            parse_args(&args(&[
                "run",
                "f.dl",
                "--engine",
                "indexed",
                "--stats-json"
            ]))
            .unwrap(),
            Command::Run {
                file: "f.dl".into(),
                check: false,
                engine: true,
                opts: ServiceOpts::default(),
                stats_json: true,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            }
        );
    }

    #[test]
    fn run_stats_json_emits_saturation_statistics() {
        let out = run_on_source(
            &Command::Run {
                file: String::new(),
                check: false,
                engine: true,
                opts: ServiceOpts::default(),
                stats_json: true,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            TC,
        )
        .unwrap();
        let json = out
            .lines()
            .find(|l| l.starts_with('{'))
            .unwrap_or_else(|| panic!("no JSON line: {out}"));
        assert!(json.contains("\"iterations\""), "{json}");
        assert!(json.contains("\"tuples_derived\""), "{json}");
    }

    #[test]
    fn run_check_reports_fingerprints() {
        let out = run_on_source(
            &Command::Run {
                file: String::new(),
                check: true,
                engine: false,
                opts: ServiceOpts::default(),
                stats_json: false,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            TC,
        )
        .unwrap();
        let line = out
            .lines()
            .find(|l| l.starts_with("check: "))
            .unwrap_or_else(|| panic!("no check line: {out}"));
        assert!(line.contains("program="), "{line}");
        assert!(line.contains("db="), "{line}");
        // 16 hex digits each, and stable across runs.
        let again = run_on_source(
            &Command::Run {
                file: String::new(),
                check: true,
                engine: false,
                opts: ServiceOpts::default(),
                stats_json: false,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            TC,
        )
        .unwrap();
        assert!(again.contains(line), "fingerprints must be deterministic");
    }

    #[test]
    fn batch_answers_match_run_and_second_round_hits_the_cache() {
        let cmd = Command::Batch {
            file: String::new(),
            repeat: 2,
            stats_json: true,
            opts: ServiceOpts::default(),
        };
        let out = run_on_source(&cmd, TC).unwrap();
        // Same answer rows as the plan-driven run.
        assert!(out.contains("(3 answers)"), "{out}");
        assert!(out.contains("yes"), "{out}");
        assert!(out.contains("no"), "{out}");
        // Source-bound TC queries are frontier walks; the first round
        // misses, the repeat round hits.
        assert!(out.contains("kernel:frontier"), "{out}");
        assert!(out.contains("cache:miss"), "{out}");
        assert!(out.contains("cache:hit"), "{out}");
        // The closing stats line is one JSON object.
        let json = out.lines().last().unwrap_or_default();
        assert!(json.starts_with('{'), "{out}");
        assert!(json.contains("\"queries\":6"), "{json}");
        assert!(json.contains("\"hits\":3"), "{json}");
    }

    #[test]
    fn batch_without_cache_never_hits() {
        let cmd = Command::Batch {
            file: String::new(),
            repeat: 2,
            stats_json: false,
            opts: ServiceOpts {
                cache_capacity: 0,
                ..ServiceOpts::default()
            },
        };
        let out = run_on_source(&cmd, TC).unwrap();
        assert!(out.contains("cache:bypass"), "{out}");
        assert!(!out.contains("cache:hit"), "{out}");
    }

    #[test]
    fn serve_command_is_rejected_by_the_buffered_executor() {
        let err = run_on_source(
            &Command::Serve {
                file: String::new(),
                opts: ServiceOpts::default(),
                net: None,
            },
            TC,
        )
        .unwrap_err();
        assert!(err.contains("--stdin"), "{err}");
    }

    #[test]
    fn parse_args_serve_listen() {
        assert_eq!(
            parse_args(&args(&["serve", "f.dl", "--listen", "127.0.0.1:0"])).unwrap(),
            Command::Serve {
                file: "f.dl".into(),
                opts: ServiceOpts::default(),
                net: Some(("127.0.0.1:0".into(), NetConfig::default())),
            }
        );
        // Network flags compose with service flags, in any order.
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "f.dl",
                "--max-connections",
                "8",
                "--listen",
                "127.0.0.1:4004",
                "--no-cache",
                "--drain-ms",
                "750",
                "--max-queue-wait-ms",
                "40",
                "--retry-after-ms",
                "15",
                "--idle-timeout-ms",
                "2000"
            ]))
            .unwrap(),
            Command::Serve {
                file: "f.dl".into(),
                opts: ServiceOpts {
                    cache_capacity: 0,
                    ..ServiceOpts::default()
                },
                net: Some((
                    "127.0.0.1:4004".into(),
                    NetConfig {
                        max_connections: 8,
                        idle_timeout: Duration::from_millis(2000),
                        drain_deadline: Duration::from_millis(750),
                        max_queue_wait: Duration::from_millis(40),
                        retry_after_ms: 15,
                        ..NetConfig::default()
                    }
                )),
            }
        );
        // Network flags without --listen are a usage error.
        let err = parse_args(&args(&[
            "serve",
            "f.dl",
            "--stdin",
            "--max-connections",
            "8",
        ]))
        .unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        assert!(parse_args(&args(&["serve", "f.dl", "--listen"])).is_err());
        assert!(parse_args(&args(&[
            "serve",
            "f.dl",
            "--listen",
            "x",
            "--max-connections",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "serve",
            "f.dl",
            "--listen",
            "x",
            "--drain-ms",
            "abc"
        ]))
        .is_err());
    }

    #[test]
    fn net_opts_describe_a_net_config() {
        let flags = [
            "serve",
            "f.dl",
            "--listen",
            "127.0.0.1:0",
            "--max-connections",
            "3",
            "--idle-timeout-ms",
            "1500",
            "--drain-ms",
            "900",
            "--max-queue-wait-ms",
            "35",
            "--retry-after-ms",
            "12",
            "--postmortem",
            "/tmp/pm.jsonl",
        ];
        let Command::Serve {
            opts,
            net: Some((addr, config)),
            ..
        } = parse_args(&args(&flags)).unwrap()
        else {
            panic!("expected serve --listen");
        };
        assert_eq!(addr, "127.0.0.1:0");
        assert_eq!(config.max_connections, 3);
        assert_eq!(config.idle_timeout, Duration::from_millis(1500));
        assert_eq!(config.drain_deadline, Duration::from_millis(900));
        assert_eq!(config.max_queue_wait, Duration::from_millis(35));
        assert_eq!(config.retry_after_ms, 12);
        assert_eq!(
            config.postmortem,
            Some(std::path::PathBuf::from("/tmp/pm.jsonl"))
        );
        // What no flag names keeps the front end's and the service's own
        // defaults.
        assert_eq!(config.max_frame_len, NetConfig::default().max_frame_len);
        let serve = ServeConfig::default();
        assert_eq!(opts.cache_capacity, serve.cache_capacity);
        assert_eq!(opts.max_concurrent, serve.max_concurrent);
        let err = parse_args(&args(&["serve", "f.dl", "--idle-timeout-ms", "abc"])).unwrap_err();
        assert_eq!(err, "invalid value `abc` for --idle-timeout-ms");
    }

    #[test]
    fn parse_args_trace_and_postmortem() {
        // `serve --stdin --trace FILE` is a service option.
        assert_eq!(
            parse_args(&args(&["serve", "f.dl", "--stdin", "--trace", "t.jsonl"])).unwrap(),
            Command::Serve {
                file: "f.dl".into(),
                opts: ServiceOpts {
                    trace: Some("t.jsonl".into()),
                    ..ServiceOpts::default()
                },
                net: None,
            }
        );
        // `--postmortem FILE` is a network option and lands in the NetConfig.
        match parse_args(&args(&[
            "serve",
            "f.dl",
            "--listen",
            "127.0.0.1:0",
            "--postmortem",
            "pm.jsonl",
        ]))
        .unwrap()
        {
            Command::Serve {
                net: Some((_, config)),
                ..
            } => {
                assert_eq!(config.postmortem, Some("pm.jsonl".into()));
            }
            other => panic!("expected serve --listen, got {other:?}"),
        }
        // ... and therefore requires --listen.
        let err = parse_args(&args(&[
            "serve",
            "f.dl",
            "--stdin",
            "--postmortem",
            "pm.jsonl",
        ]))
        .unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        assert!(parse_args(&args(&["serve", "f.dl", "--stdin", "--trace"])).is_err());
        assert!(parse_args(&args(&["serve", "f.dl", "--listen", "x", "--postmortem"])).is_err());
    }

    #[test]
    fn serve_trace_file_records_request_spans() {
        let dir = std::env::temp_dir().join("recurs_cli_lib_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("serve_trace_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = ServiceOpts {
            trace: Some(path.to_string_lossy().into_owned()),
            ..ServiceOpts::default()
        };
        let input = b"?- P(1, y).\n!quit\n" as &[u8];
        let mut output = Vec::new();
        let (token, drain) = (CancelToken::new(), Duration::from_secs(5));
        serve_stdin_drained(TC, &opts, token, drain, input, &mut output).unwrap();
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(!trace.trim().is_empty(), "trace file is empty");
        let mut saw_span = false;
        for line in trace.lines() {
            let v = recurs_obs::jsonl::parse(line)
                .unwrap_or_else(|e| panic!("bad trace line `{line}`: {e}"));
            if matches!(v.get("kind"), Some(recurs_obs::Value::Str(k)) if k == "span") {
                saw_span = true;
            }
        }
        assert!(saw_span, "no span events in {trace}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_listen_on_source_announces_drains_and_serves() {
        let cancel = CancelToken::new();
        let (addr_tx, addr_rx) = std::sync::mpsc::channel::<String>();
        let worker_cancel = cancel.clone();
        let server = std::thread::spawn(move || {
            // A writer that hands the announce line to the test thread.
            struct Announce(std::sync::mpsc::Sender<String>, Vec<u8>);
            impl std::io::Write for Announce {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    self.1.extend_from_slice(buf);
                    Ok(buf.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    let text = String::from_utf8_lossy(&self.1).to_string();
                    let _ = self.0.send(text);
                    Ok(())
                }
            }
            serve_listen_on_source(
                TC,
                &ServiceOpts::default(),
                "127.0.0.1:0",
                NetConfig::default(),
                worker_cancel,
                Announce(addr_tx, Vec::new()),
            )
        });
        let line = addr_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("announce line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("bad announce line: {line}"))
            .to_string();
        let mut client =
            recurs_net::Client::connect(&addr, Duration::from_secs(5)).expect("connect");
        let reply = client.roundtrip("?- P(1, y).").expect("query");
        let kind = recurs_obs::jsonl::parse(&reply).expect("a JSON reply");
        assert_eq!(
            kind.get("type").and_then(recurs_obs::Value::as_str),
            Some("answers"),
            "{reply}"
        );
        // Fire the "signal": the watcher drains and run() returns a report.
        cancel.cancel();
        let report = server.join().expect("server thread").expect("serve ok");
        assert!(!report.forced, "an idle server must drain cleanly");
    }

    #[test]
    fn serve_stdin_drained_speaks_the_protocol_without_a_signal() {
        let input = b"?- P(1, y).\n+A(4, 5).\n+E(4, 5).\n?- P(1, y).\n!quit\n" as &[u8];
        let mut output = Vec::new();
        serve_stdin_drained(
            TC,
            &ServiceOpts::default(),
            CancelToken::new(),
            Duration::from_secs(5),
            input,
            &mut output,
        )
        .unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].contains("\"count\":3"), "{text}");
        assert!(lines[1].contains("\"version\":1"), "{text}");
        assert!(lines[2].contains("\"version\":2"), "{text}");
        assert!(lines[3].contains("\"count\":4"), "{text}");
    }

    #[test]
    fn serve_stdin_drained_stops_reading_after_cancel_and_reports_a_clean_drain() {
        // A pre-cancelled token: the loop must not start any request, and
        // the idle monitor must report exit code 0 (clean drain).
        let token = CancelToken::new();
        token.cancel();
        let input = b"?- P(1, y).\n" as &[u8];
        let mut output = Vec::new();
        let (code_tx, code_rx) = std::sync::mpsc::channel::<i32>();
        serve_stdin_impl(
            TC,
            &ServiceOpts::default(),
            token,
            Duration::from_secs(5),
            input,
            &mut output,
            move |code| {
                let _ = code_tx.send(code);
            },
        )
        .unwrap();
        assert!(output.is_empty(), "no request may start after the drain");
        let code = code_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("monitor verdict");
        assert_eq!(code, 0, "an idle serve loop drains cleanly");
    }
}
