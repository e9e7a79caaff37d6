//! Interned symbols for predicate names, variable names, and constants.
//!
//! The engine manipulates names heavily (unification, renaming-apart during
//! unfolding, graph construction keyed by variables), so names are interned
//! once into a process-global table and afterwards compared as `u32` ids.
//! Interned strings are leaked; the set of distinct names in any workload is
//! small and bounded, which makes the leak a deliberate, standard trade-off
//! (it buys `&'static str` access).
//!
//! Interning takes a global lock. Reading a symbol's string does not: ids
//! index an append-only table of write-once slots, and a slot is filled,
//! under the lock, before its id is returned. Sorting answers compares
//! strings, so this read is on every served reply's path.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Slots in the string table's first segment; each later segment doubles.
const FIRST_SEGMENT: u64 = 32;

/// Segments enough for every `u32` id: 32 · (2^28 − 1) > 2^32.
const SEGMENTS: usize = 28;

/// The id → string table: segment `k` holds ids `32 · (2^k − 1)` up to
/// twice that, allocated when its first id is interned and never moved.
static STRINGS: [OnceLock<Box<[OnceLock<&'static str>]>>; SEGMENTS] =
    [const { OnceLock::new() }; SEGMENTS];

/// The segment holding `id` and the slot within it.
fn slot_of(id: u32) -> (usize, usize) {
    let n = u64::from(id) + FIRST_SEGMENT;
    let segment = (n.ilog2() - FIRST_SEGMENT.ilog2()) as usize;
    (segment, (n - (FIRST_SEGMENT << segment)) as usize)
}

/// An interned string. Two `Symbol`s are equal iff the underlying strings are.
///
/// Ordering compares the *strings* (not interner ids), so sorted iteration is
/// deterministic regardless of interning order. That order is for output and
/// for what iterates in it, not for lookups on a hot path: a `BTreeMap` keyed
/// by `Symbol` compares strings at every step, where equality and hashing
/// compare the id. The engine finds a relation, and a round its delta, by id.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

/// The string → id map, the one thing interning locks.
type Interner = HashMap<&'static str, u32>;

fn interner() -> MutexGuard<'static, Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        // A string's slot is filled before its map entry is added, and a
        // panic between the two cannot happen short of an abort, so a lock
        // poisoned by a panicking thread still guards a valid table —
        // recover it rather than propagate.
        .unwrap_or_else(PoisonError::into_inner)
}

/// Leaks `name` into the next id's slot and maps it; the caller holds the
/// lock and has checked that `name` is new. Ids count the map's entries.
fn push(map: &mut Interner, name: String) -> Symbol {
    let Ok(id) = u32::try_from(map.len()) else {
        panic!("symbol table overflow: more than u32::MAX distinct names")
    };
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    let (segment, slot) = slot_of(id);
    let strings = STRINGS[segment].get_or_init(|| {
        (0..FIRST_SEGMENT << segment)
            .map(|_| OnceLock::new())
            .collect()
    });
    if strings[slot].set(leaked).is_err() {
        panic!("symbol id {id} handed out twice");
    }
    map.insert(leaked, id);
    Symbol(id)
}

impl Symbol {
    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(name: &str) -> Symbol {
        let mut map = interner();
        match map.get(name) {
            Some(&id) => Symbol(id),
            None => push(&mut map, name.to_owned()),
        }
    }

    /// The interned string. Takes no lock.
    pub fn as_str(self) -> &'static str {
        let (segment, slot) = slot_of(self.0);
        let Some(&name) = STRINGS[segment]
            .get()
            .and_then(|strings| strings[slot].get())
        else {
            panic!("symbol {} read before its string was stored", self.0)
        };
        name
    }

    /// A fresh symbol `base_n` guaranteed distinct from every symbol interned
    /// so far. Used when renaming rules apart during unfolding.
    pub fn fresh(base: &str, counter: &mut u32) -> Symbol {
        loop {
            let candidate = format!("{base}_{counter}");
            *counter += 1;
            let mut map = interner();
            if !map.contains_key(candidate.as_str()) {
                return push(&mut map, candidate);
            }
        }
    }

    /// Raw id, stable for the process lifetime. Useful as a dense map key.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("foo");
        let b = Symbol::intern("foo");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "foo");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let a = Symbol::intern("alpha");
        let b = Symbol::intern("beta");
        assert_ne!(a, b);
    }

    #[test]
    fn fresh_symbols_never_collide() {
        let existing = Symbol::intern("x_0");
        let mut counter = 0;
        let fresh = Symbol::fresh("x", &mut counter);
        assert_ne!(fresh, existing);
        assert_ne!(fresh.as_str(), "x_0");
    }

    #[test]
    fn fresh_advances_counter() {
        let mut counter = 0;
        let a = Symbol::fresh("fresh_base", &mut counter);
        let b = Symbol::fresh("fresh_base", &mut counter);
        assert_ne!(a, b);
        assert!(counter >= 2);
    }

    #[test]
    fn ids_map_onto_segments_without_gaps() {
        assert_eq!(slot_of(0), (0, 0));
        assert_eq!(slot_of(31), (0, 31));
        assert_eq!(slot_of(32), (1, 0));
        assert_eq!(slot_of(95), (1, 63));
        assert_eq!(slot_of(96), (2, 0));
        let (last, slot) = slot_of(u32::MAX);
        assert!(last < SEGMENTS && (slot as u64) < FIRST_SEGMENT << last);
    }

    #[test]
    fn reads_race_interning_and_see_the_interned_text_in_string_order() {
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        use std::sync::{Arc, Barrier};
        // Symbols returned before the race, read throughout it.
        let known: Arc<Vec<(Symbol, String)>> = Arc::new(
            (0..200)
                .map(|i| format!("race_known_{}", (i * 7919) % 1000))
                .map(|name| (Symbol::intern(&name), name))
                .collect(),
        );
        let published = Arc::new(Mutex::new(Vec::<(Symbol, String)>::new()));
        let done = Arc::new(AtomicBool::new(false));
        // All eight threads start together, so reads overlap the interning.
        let start = Arc::new(Barrier::new(8));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let (published, start) = (Arc::clone(&published), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    // Enough fresh names to open several new segments.
                    for i in 0..3_000 {
                        let name = format!("race_w{t}_{i}");
                        let sym = Symbol::intern(&name);
                        assert_eq!(sym.as_str(), name);
                        if i % 50 == 0 {
                            published.lock().unwrap().push((sym, name));
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let (known, published, done, start) = (
                    Arc::clone(&known),
                    Arc::clone(&published),
                    Arc::clone(&done),
                    Arc::clone(&start),
                );
                std::thread::spawn(move || {
                    start.wait();
                    let mut rounds = 0usize;
                    while !done.load(Relaxed) || rounds == 0 {
                        let fresh = published.lock().unwrap().clone();
                        let all: Vec<_> = known.iter().chain(&fresh).collect();
                        for (k, (a, name_a)) in all.iter().enumerate() {
                            assert_eq!(a.as_str(), name_a.as_str());
                            let (b, name_b) = all[(k * 31 + t + rounds) % all.len()];
                            assert_eq!(a.cmp(b), name_a.cmp(name_b));
                        }
                        rounds += 1;
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer");
        }
        done.store(true, Relaxed);
        for r in readers {
            r.join().expect("reader");
        }
        assert_eq!(published.lock().unwrap().len(), 4 * 60);
    }

    #[test]
    fn display_matches_source() {
        let s = Symbol::intern("Edge");
        assert_eq!(s.to_string(), "Edge");
        assert_eq!(format!("{s:?}"), "Edge");
    }
}
