//! The event taxonomy: every event kind the workspace emits, in one
//! registry.
//!
//! [`EVENTS`] is the single source of truth for what a `kind` field may
//! say. The taxonomy test asserts that every kind each layer actually
//! emits is registered here, `obsctl validate` rejects trace files with
//! unknown kinds, and the table in DESIGN §4e is generated from
//! [`markdown_table`] so the docs cannot drift from the code.

/// One registered event kind.
#[derive(Debug, Clone, Copy)]
pub struct EventKind {
    /// The `kind` string as emitted (e.g. `engine.iteration`).
    pub kind: &'static str,
    /// The layer that emits it.
    pub layer: &'static str,
    /// What one occurrence means.
    pub doc: &'static str,
}

/// Every event kind the workspace emits, grouped by layer.
pub const EVENTS: &[EventKind] = &[
    EventKind {
        kind: "span",
        layer: "obs",
        doc: "One finished span of a traced request: `name`, `span`, `parent` (0 = root), `start_us`/`dur_us` relative to the trace context, and the `trace` id.",
    },
    EventKind {
        kind: "classify.verdict",
        layer: "cli",
        doc: "The classification verdict for a program: per-component class, `cycles` (the component's cycle rank, edges − groups + 1), an independent cycle's weight and one-directionality/rotation flags, chosen kernel, and rank bound.",
    },
    EventKind {
        kind: "engine.dispatch",
        layer: "engine",
        doc: "The engine chose a kernel for a program: class, kernel, and why.",
    },
    EventKind {
        kind: "engine.start",
        layer: "engine",
        doc: "A kernel run began: which kernel.",
    },
    EventKind {
        kind: "engine.iteration",
        layer: "engine",
        doc: "One round of the round driver (a kernel iteration or a maintenance-loop round): delta sizes in and out. Sent only when a sink keeps detail (a trace file, a test capture, `!explain`); the aggregator and the flight ring see the run's `engine.complete` and counters instead.",
    },
    EventKind {
        kind: "engine.rule",
        layer: "engine",
        doc: "One rule application inside a round: join fan-in/out. Sent only when a sink keeps detail, like `engine.iteration`.",
    },
    EventKind {
        kind: "engine.complete",
        layer: "engine",
        doc: "A kernel run reached fixpoint: iterations, tuples, and duration.",
    },
    EventKind {
        kind: "engine.truncated",
        layer: "engine",
        doc: "A kernel run stopped on budget: which ceiling tripped.",
    },
    EventKind {
        kind: "fault.injected",
        layer: "engine/ivm/serve/net",
        doc: "A fault-injection hook fired (tests only): site, fault kind, and round.",
    },
    EventKind {
        kind: "ivm.saturate",
        layer: "ivm",
        doc: "A materialization was (re)built from scratch: tuples and duration.",
    },
    EventKind {
        kind: "ivm.patch",
        layer: "ivm",
        doc: "An incremental patch was applied: maintenance path, delta sizes, and duration.",
    },
    EventKind {
        kind: "serve.query",
        layer: "serve",
        doc: "One answered query: kernel, cache outcome, queue wait, eval time, answers, and outcome.",
    },
    EventKind {
        kind: "serve.shed",
        layer: "serve",
        doc: "A query, `!explain` or `why` was shed at admission: how long it waited for a permit.",
    },
    EventKind {
        kind: "serve.update",
        layer: "serve",
        doc: "A fact update was applied: its result (the maintenance path, or `unchanged`), the snapshot version it leaves, rows inserted and deleted. Every installed snapshot is one.",
    },
    EventKind {
        kind: "serve.explain",
        layer: "serve",
        doc: "An `!explain` audit was produced: trace id, kernel, cache outcome, and span count.",
    },
    EventKind {
        kind: "serve.why",
        layer: "serve",
        doc: "A `why <fact>` provenance request: the fact, whether it was derivable (or the budget stop's `truncation`), and the time it took.",
    },
    EventKind {
        kind: "net.admission",
        layer: "net",
        doc: "A connection hit the admission gate: accepted or shed, with the active count.",
    },
    EventKind {
        kind: "net.shed",
        layer: "net",
        doc: "A request was shed by the service while the server stayed up: queue-wait details.",
    },
    EventKind {
        kind: "net.drain",
        layer: "net",
        doc: "A drain phase transition: started, forced (deadline expired), or complete.",
    },
    EventKind {
        kind: "net.frame_error",
        layer: "net",
        doc: "A connection produced an unusable frame: oversized, torn, or malformed.",
    },
    EventKind {
        kind: "net.postmortem",
        layer: "net",
        doc: "The flight recorder was dumped to a postmortem file: trigger and event count.",
    },
];

/// Whether `kind` is a registered event kind.
pub fn is_known(kind: &str) -> bool {
    EVENTS.iter().any(|e| e.kind == kind)
}

/// Looks up a registered kind.
pub fn lookup(kind: &str) -> Option<&'static EventKind> {
    EVENTS.iter().find(|e| e.kind == kind)
}

/// Renders the registry as the markdown table embedded in DESIGN §4e
/// (between the `taxonomy:begin`/`taxonomy:end` markers).
pub fn markdown_table() -> String {
    let mut out = String::from("| Kind | Layer | Meaning |\n|---|---|---|\n");
    for e in EVENTS {
        out.push_str(&format!("| `{}` | {} | {} |\n", e.kind, e.layer, e.doc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_no_duplicates() {
        for (i, a) in EVENTS.iter().enumerate() {
            for b in &EVENTS[i + 1..] {
                assert_ne!(a.kind, b.kind, "duplicate taxonomy entry {}", a.kind);
            }
        }
    }

    #[test]
    fn lookup_and_is_known_agree() {
        assert!(is_known("serve.query"));
        assert!(is_known("span"));
        assert!(!is_known("serve.unheard_of"));
        assert_eq!(lookup("net.drain").map(|e| e.layer), Some("net"));
        assert!(lookup("nope").is_none());
    }

    #[test]
    fn markdown_table_lists_every_kind_once() {
        let table = markdown_table();
        for e in EVENTS {
            assert_eq!(
                table.matches(&format!("| `{}` |", e.kind)).count(),
                1,
                "kind {} missing or duplicated in table",
                e.kind
            );
        }
        assert!(table.starts_with("| Kind | Layer | Meaning |"));
    }
}
