//! The fixed control kernel and the block loop that uses it to cancel host
//! drift.
//!
//! The host is a shared 2-core machine: the raw median of one unchanged
//! operation wanders by ~20% between consecutive 30 s windows (cache / SMT
//! contention from neighbours). Every measurement is therefore a sequence
//! of *blocks*: run [`control`] once, then issue operations back-to-back for
//! [`BLOCK_MS`]. An operation's corrected latency is its raw latency scaled
//! by `CONTROL_REF_MS / control time of its block`, which divides out
//! whatever slowed the control kernel at that moment.

use crate::stats::median;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// The control kernel's p10 over a 60 s calibration (`perfbench
/// --calibrate`) on the authoring host (nproc = 2). A constant on purpose:
/// re-deriving it at run time would re-introduce the drift it removes.
pub const CONTROL_REF_MS: f64 = 20.0;

/// How long one block issues operations after its control run.
pub const BLOCK_MS: f64 = 250.0;

const CONTROL_KEYS: usize = 400_000;

/// Runs the control kernel once and returns its wall time in milliseconds:
/// 400 000 xorshift64 keys inserted into a fresh `HashSet<(u32, u32)>` —
/// seed-independent, and memory-bound like the engine's tuple dedup. The
/// hasher is fixed-key so the work is identical on every call.
pub fn control() -> f64 {
    let start = Instant::now();
    let mut set: HashSet<(u32, u32), BuildHasherDefault<DefaultHasher>> = HashSet::default();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..CONTROL_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        set.insert(((x >> 32) as u32, x as u32));
    }
    std::hint::black_box(&set);
    ms_since(start)
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One control run followed by the operations it corrects.
#[derive(Debug, Clone)]
pub struct Block {
    /// Wall time of the block's control run.
    pub control_ms: f64,
    /// Raw wall time of each operation, in issue order.
    pub raw_ms: Vec<f64>,
    /// Operations whose closure reported failure (still timed).
    pub failed: usize,
}

impl Block {
    /// The factor that maps this block's raw times onto the reference host.
    pub fn scale(&self) -> f64 {
        CONTROL_REF_MS / self.control_ms
    }

    /// Sum of the block's corrected operation times, in milliseconds.
    pub fn corrected_sum_ms(&self) -> f64 {
        self.raw_ms.iter().sum::<f64>() * self.scale()
    }
}

/// Runs one block: the control kernel, then `op` back-to-back until
/// [`BLOCK_MS`] has passed or `limit` operations ran (at least one).
/// `op` returns whether the operation succeeded.
pub fn run_block(limit: usize, mut op: impl FnMut() -> bool) -> Block {
    let control_ms = control();
    let mut block = Block {
        control_ms,
        raw_ms: Vec::new(),
        failed: 0,
    };
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let ok = op();
        block.raw_ms.push(ms_since(t));
        block.failed += usize::from(!ok);
        if block.raw_ms.len() >= limit || ms_since(start) >= BLOCK_MS {
            return block;
        }
    }
}

/// Runs blocks until exactly `count` operations have been issued.
pub fn run_count(count: usize, mut op: impl FnMut() -> bool) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut left = count;
    while left > 0 {
        let block = run_block(left, &mut op);
        left -= block.raw_ms.len();
        blocks.push(block);
    }
    blocks
}

/// Runs blocks until `seconds` of wall time (control runs included) passed.
pub fn run_for(seconds: f64, mut op: impl FnMut() -> bool) -> Vec<Block> {
    let start = Instant::now();
    let mut blocks = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        blocks.push(run_block(usize::MAX, &mut op));
    }
    blocks
}

/// Every operation's corrected latency, in milliseconds.
pub fn corrected_ms(blocks: &[Block]) -> Vec<f64> {
    blocks
        .iter()
        .flat_map(|b| b.raw_ms.iter().map(move |raw| raw * b.scale()))
        .collect()
}

/// Every operation's raw latency, in milliseconds.
pub fn raw_ms(blocks: &[Block]) -> Vec<f64> {
    blocks
        .iter()
        .flat_map(|b| b.raw_ms.iter().copied())
        .collect()
}

/// Total corrected operation time of `blocks`, in seconds (control runs
/// excluded — they are the yardstick, not the work).
pub fn corrected_total_s(blocks: &[Block]) -> f64 {
    blocks.iter().map(Block::corrected_sum_ms).sum::<f64>() / 1e3
}

/// Closed-loop throughput: the median over blocks of operations per second
/// of corrected operation time, robust to a few disturbed blocks.
pub fn ops_per_s(blocks: &[Block]) -> f64 {
    let rates: Vec<f64> = blocks
        .iter()
        .map(|b| b.raw_ms.len() as f64 / (b.corrected_sum_ms() / 1e3))
        .collect();
    median(&rates)
}
