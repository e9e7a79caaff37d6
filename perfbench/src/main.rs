//! The end-to-end driver: one process, one thread, one connection, closed
//! loop. It builds the release `recurs` binary (outside any timing), drives
//! it as a child process — `recurs run FILE --engine indexed` per operation,
//! or one `recurs serve FILE --listen 127.0.0.1:0` spoken to over the
//! 4-byte-big-endian framed protocol — checks every reply against the
//! generator's closed-form answer count, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 1` it measures for half the time, then builds and runs the
//! layer probe (`perfbench/layers`) for the other half and prints the
//! per-layer metrics instead.

use perfbench::control::{self, Block};
use perfbench::gen::{self, Expect, Inputs, Op, Workload};
use perfbench::report::{self, Metric};
use perfbench::stats::{median, quantile, tail};
use perfbench::wire::Conn;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::Duration;

/// Scratch files (programs, traces) live here; ignored by git.
const OUT_DIR: &str = "perfbench/out";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// No single reply may take longer.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--calibrate"] {
        calibrate();
        return ExitCode::SUCCESS;
    }
    match run(args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the control kernel's distribution over 60 s; its p10 is what
/// [`control::CONTROL_REF_MS`] records.
fn calibrate() {
    let start = std::time::Instant::now();
    let mut samples = Vec::new();
    while start.elapsed() < Duration::from_secs(60) {
        samples.push(control::control());
    }
    println!(
        "control kernel over 60 s: n={} p10={:.3} ms p50={:.3} ms p90={:.3} ms",
        samples.len(),
        quantile(&samples, 0.1),
        median(&samples),
        quantile(&samples, 0.9)
    );
}

fn run(args: Vec<String>) -> Result<String, String> {
    let mut flags = report::flags(args.into_iter())?;
    let name: String = report::take(&mut flags, "workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = report::take(&mut flags, "seed")?;
    let seconds: f64 = report::take(&mut flags, "seconds")?;
    let trace = report::take::<u8>(&mut flags, "trace")? != 0;
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }

    // The manifest is named so that cargo cannot wander up to some other
    // workspace when this checkout has none.
    let recurs = cargo_build(
        &[
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "recurs-cli",
            "--bin",
            "recurs",
        ],
        "recurs",
    )?;
    let probe = trace
        .then(|| {
            cargo_build(
                &["--manifest-path", "perfbench/layers/Cargo.toml"],
                "perfbench-layers",
            )
        })
        .transpose()?;
    pin_to_one_cpu()?;
    let inputs = gen::inputs(workload, seed);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    oracle_check(&recurs, workload, &inputs)?;

    // Set up several times and keep the last target for the measured phase.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut target = None;
    for _ in 0..SETUP_REPEATS {
        drop(target.take());
        let (ready, blocks) = Target::setup(&recurs, workload, &inputs)?;
        setups.push(control::corrected_total_s(&blocks));
        target = Some(ready);
    }
    let mut target = target.expect("SETUP_REPEATS is positive");

    let measure_s = if trace { seconds / 2.0 } else { seconds };
    let mut next = 0usize;
    let blocks = control::run_for(measure_s, || {
        let ok = target.op(&inputs.ops[next % inputs.ops.len()]);
        next += 1;
        ok
    });
    let attempted = next;
    let failed: usize = blocks.iter().map(|b| b.failed).sum();
    let layer_hit = target.exercised_its_layer(workload)?;
    let peak_rss_mb = target.peak_rss_kb()? as f64 / 1024.0;
    drop(target);

    let corrected = control::corrected_ms(&blocks);
    let op_p50_ms = median(&corrected);
    let client = client_metrics(&blocks, &corrected);
    eprintln!(
        "perfbench: {} seed {seed}: {attempted} ops, {failed} failed; {}",
        workload.name(),
        client
            .iter()
            .map(|m| format!("{}={:.4}{}", m.name, m.value, m.unit))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let fragment = if let Some(probe) = probe {
        let layers = run_probe(&probe, workload, seed, seconds - measure_s, op_p50_ms)?;
        format!("{}, {layers}", report::metrics_fragment(&client))
    } else {
        report::metrics_fragment(&[
            Metric::new("op_p50_ms", op_p50_ms, "ms"),
            Metric::new("ops_per_s", control::ops_per_s(&blocks), "1/s"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ])
    };
    Ok(report::result_line(
        failed == 0 && layer_hit,
        attempted,
        failed,
        &fragment,
    ))
}

/// The driver's own view of the end-to-end run, reported with the layers.
fn client_metrics(blocks: &[Block], corrected: &[f64]) -> Vec<Metric> {
    let controls: Vec<f64> = blocks.iter().map(|b| b.control_ms).collect();
    let (tail_pct, tail_ms) = tail(corrected);
    vec![
        Metric::new(
            "client.raw_op_p50_ms",
            median(&control::raw_ms(blocks)),
            "ms",
        ),
        Metric::new("client.op_tail_ms", tail_ms, "ms"),
        Metric::new("client.op_tail_pct", tail_pct, "%"),
        Metric::new("client.control_p50_ms", median(&controls), "ms"),
        Metric::new(
            "client.control_p90_over_p10",
            quantile(&controls, 0.9) / quantile(&controls, 0.1),
            "ratio",
        ),
        Metric::new("client.blocks", blocks.len() as f64, "count"),
    ]
}

/// Where nested cargo builds go: the caller's `CARGO_TARGET_DIR`, or this
/// package's own `target/` so a plain `cargo run` leaves one build tree.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
}

/// Builds one release binary with a nested `cargo build` (a no-op after the
/// first run) and returns its path. Cargo's output goes to stderr: stdout
/// carries only the result line.
fn cargo_build(select: &[&str], bin: &str) -> Result<PathBuf, String> {
    let dir = target_dir();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(select)
        .env("CARGO_TARGET_DIR", &dir)
        .stdout(std::io::stderr())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of `{bin}` failed ({status})"));
    }
    Ok(dir.join("release").join(bin))
}

/// Runs the layer probe; returns its metrics as a JSON fragment.
fn run_probe(
    probe: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    e2e_op_ms: f64,
) -> Result<String, String> {
    let output = Command::new(probe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--e2e-op-ms", &e2e_op_ms.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", probe.display()))?;
    if !output.status.success() {
        return Err(format!("layer probe failed ({})", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let fragment = stdout.lines().last().unwrap_or_default().trim();
    if fragment.is_empty() {
        return Err("layer probe printed no metrics".to_string());
    }
    Ok(fragment.to_string())
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins this process, and so every child it spawns from here on, to the
/// first CPU it is allowed to run on.
///
/// The loop is closed with one client, so only one of driver and program is
/// ever runnable: one CPU loses nothing. It removes two sources of noise the
/// control kernel cannot see. Unpinned, the server's vCPU halts between
/// requests and every request pays a cross-CPU wake-up whose cost depends on
/// how busy the *host* is (hot round trips were seen at 37 µs and at 100 µs
/// for minutes at a time with the control kernel within 30%); and the
/// control kernel may run on one CPU while the operation it corrects runs
/// on the other, next to different neighbours.
fn pin_to_one_cpu() -> Result<(), String> {
    const WORDS: usize = 16; // room for 1024 CPUs
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live local of exactly the `cpusetsize` bytes
    // passed; the call writes at most that many bytes into it. Pid 0 is the
    // calling thread, and this process has only the one.
    let got = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
    let first = mask.iter().position(|&w| w != 0);
    let (0, Some(word)) = (got, first) else {
        return Err("cannot read the CPU affinity mask".to_string());
    };
    let bit = mask[word] & mask[word].wrapping_neg();
    mask = [0u64; WORDS];
    mask[word] = bit;
    // SAFETY: as above; the call only reads `cpusetsize` bytes from `mask`.
    match unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) } {
        0 => Ok(()),
        _ => Err("cannot pin to one CPU".to_string()),
    }
}

/// Confirms the generator's closed-form counts once against the program's
/// independent oracle: `recurs run --check` re-derives every answer set
/// with the naive semi-naive reference and reports agreement per query.
fn oracle_check(recurs: &Path, workload: Workload, inputs: &Inputs) -> Result<(), String> {
    let file = Path::new(OUT_DIR).join(format!("check-{}.dl", workload.name()));
    std::fs::write(&file, &inputs.check).map_err(|e| format!("write {}: {e}", file.display()))?;
    let mut cmd = Command::new(recurs);
    cmd.arg("run").arg(&file).arg("--check");
    if workload == Workload::SaturateWide {
        cmd.args(["--engine", "indexed"]);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", recurs.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let counts: Vec<usize> = stdout.lines().filter_map(answer_count).collect();
    let agrees = stdout
        .lines()
        .filter(|l| l.trim() == "oracle: agrees")
        .count();
    if !output.status.success() || counts != inputs.check_counts || agrees != counts.len() {
        return Err(format!(
            "oracle check failed ({}): expected counts {:?}, got {counts:?} with {agrees} agreeing",
            output.status, inputs.check_counts
        ));
    }
    Ok(())
}

/// Parses the `  (N answers)` line `recurs run` prints per query.
fn answer_count(line: &str) -> Option<usize> {
    let inner = line.trim().strip_prefix('(')?;
    let inner = inner
        .strip_suffix(" answers)")
        .or_else(|| inner.strip_suffix(" answer)"))?;
    inner.parse().ok()
}

/// The program under test, ready for timed operations.
struct Target {
    recurs: PathBuf,
    file: PathBuf,
    /// `None` for `saturate-wide`, whose operations are whole processes.
    server: Option<Server>,
    /// Largest `ru_maxrss` over the `recurs run` children reaped so far.
    run_max_rss_kb: u64,
}

impl Target {
    /// One timed set-up: write the program file, start the server if the
    /// workload has one, and issue the warm-up operations — each step inside
    /// a control-corrected block.
    fn setup(
        recurs: &Path,
        workload: Workload,
        inputs: &Inputs,
    ) -> Result<(Target, Vec<Block>), String> {
        let mut started = None;
        let mut blocks = vec![control::run_block(1, || {
            started = Some(Target::start(recurs, workload, &inputs.program));
            true
        })];
        let mut target = started.expect("the block ran its operation once")?;
        let mut next = 0usize;
        blocks.extend(control::run_count(inputs.warmup.len(), || {
            let ok = target.op(&inputs.warmup[next]);
            next += 1;
            ok
        }));
        match blocks.iter().map(|b| b.failed).sum::<usize>() {
            0 => Ok((target, blocks)),
            n => Err(format!("{n} warm-up operations failed")),
        }
    }

    fn start(recurs: &Path, workload: Workload, program: &str) -> Result<Target, String> {
        let file = Path::new(OUT_DIR).join(format!("{}.dl", workload.name()));
        std::fs::write(&file, program).map_err(|e| format!("write {}: {e}", file.display()))?;
        let server = match workload {
            Workload::SaturateWide => None,
            _ => Some(Server::spawn(recurs, &file)?),
        };
        Ok(Target {
            recurs: recurs.to_path_buf(),
            file,
            server,
            run_max_rss_kb: 0,
        })
    }

    /// Issues one operation and checks every reply; `false` on a transport
    /// error, an `"ok":false` reply or a wrong answer count.
    fn op(&mut self, op: &Op) -> bool {
        match &mut self.server {
            Some(server) => op.iter().all(|request| {
                let Ok(reply) = server.conn.roundtrip(&request.line) else {
                    return false;
                };
                reply.contains("\"ok\":true")
                    && match request.expect {
                        Expect::Count(n) => report::json_u64(reply, "count") == Some(n as u64),
                        Expect::Installed => reply.contains("\"type\":\"snapshot\""),
                    }
            }),
            None => {
                let Ok((stdout, rss_kb)) = run_once(&self.recurs, &self.file) else {
                    return false;
                };
                self.run_max_rss_kb = self.run_max_rss_kb.max(rss_kb);
                let counts: Vec<usize> = stdout.lines().filter_map(answer_count).collect();
                let Expect::Count(n) = op[0].expect else {
                    return false;
                };
                counts == [n]
            }
        }
    }

    /// Reads `!stats` and checks that the workload did the kind of work it
    /// is named for — otherwise its numbers describe some other layer.
    fn exercised_its_layer(&mut self, workload: Workload) -> Result<bool, String> {
        let Some(server) = &mut self.server else {
            return Ok(true);
        };
        let stats = server
            .conn
            .roundtrip("!stats")
            .map_err(|e| format!("!stats: {e}"))?
            .to_string();
        let field = |name: &str| {
            report::json_u64(&stats, name).ok_or_else(|| format!("!stats reply lacks `{name}`"))
        };
        let (hits, misses) = (field("hits")?, field("misses")?);
        let ok = match workload {
            Workload::SaturateWide => true,
            Workload::ServeHot => hits as f64 >= 0.99 * (hits + misses) as f64,
            Workload::ServeCold => hits == 0 && field("materialized")? == 0,
            Workload::ServeUpdate => field("patched")? > 0 && field("materialized")? > 0,
        };
        if !ok {
            eprintln!(
                "perfbench: {} did not exercise its layer: {stats}",
                workload.name()
            );
        }
        Ok(ok)
    }

    /// Peak resident set of the `recurs` process under test, in kB.
    fn peak_rss_kb(&self) -> Result<u64, String> {
        match &self.server {
            Some(server) => server.vm_hwm_kb(),
            None => Ok(self.run_max_rss_kb),
        }
    }
}

/// A `recurs serve --listen` child and the one connection to it. Dropping
/// it kills and reaps the child, on every exit path (panics unwind).
struct Server {
    child: Child,
    /// Held open so the server's later writes to stdout do not fail.
    _stdout: BufReader<ChildStdout>,
    conn: Conn,
}

impl Server {
    fn spawn(recurs: &Path, file: &Path) -> Result<Server, String> {
        let mut child = Command::new(recurs)
            .arg("serve")
            .arg(file)
            .args(["--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", recurs.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let connect = (|| {
            let mut line = String::new();
            stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading the server's first line: {e}"))?;
            let addr = line
                .trim()
                .strip_prefix("listening on ")
                .ok_or_else(|| format!("expected `listening on ADDR`, got `{}`", line.trim()))?;
            Conn::connect(addr, IO_TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))
        })();
        match connect {
            Ok(conn) => Ok(Server {
                child,
                _stdout: stdout,
                conn,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// The child's `VmHWM` (peak resident set) from `/proc`.
    fn vm_hwm_kb(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `recurs run FILE --engine indexed` to completion; returns its
/// stdout and peak resident set in kB. Fails on a non-zero exit.
fn run_once(recurs: &Path, file: &Path) -> Result<(String, u64), String> {
    let mut child = Command::new(recurs)
        .arg("run")
        .arg(file)
        .args(["--engine", "indexed"])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", recurs.display()))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);
    let (exited_ok, rss_kb) = reap(&child);
    read.map_err(|e| format!("reading the run's output: {e}"))?;
    if !exited_ok {
        return Err("recurs run exited abnormally".to_string());
    }
    Ok((stdout, rss_kb))
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// `ru_maxrss` (kB) and thirteen more `long`s.
#[repr(C)]
struct Rusage {
    _times: [i64; 4],
    ru_maxrss: i64,
    _rest: [i64; 13],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads `struct rusage` in its 64-bit Linux layout");

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Waits for `child` with `wait4`, the only call that reports a reaped
/// child's peak resident set (std's `wait` discards it, and `/proc` drops a
/// zombie's memory lines). Returns whether it exited with code 0, and its
/// `ru_maxrss` in kB. `child` must not be waited on again.
fn reap(child: &Child) -> (bool, u64) {
    let mut status = 0i32;
    let mut usage = Rusage {
        _times: [0; 4],
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    // SAFETY: `wait4` writes one `int` and one `struct rusage` through the
    // two pointers, both of which point at live, correctly sized and aligned
    // locals (`Rusage` mirrors the 64-bit Linux layout: 144 bytes). `pid` is
    // an unreaped child of this process, so no other process is affected.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    // WIFEXITED && WEXITSTATUS == 0 is exactly "status == 0".
    (reaped == pid && status == 0, usage.ru_maxrss.max(0) as u64)
}
