//! Out-of-band flow observability: stage spans and work counters.
//!
//! The study flow is deterministic and byte-identical under any worker
//! count; this module makes it *legible* without touching that
//! contract. It records two kinds of evidence, entirely off to the
//! side of the computation:
//!
//! * **Spans** ([`span`]) — named, timed stage intervals (`stage.route`,
//!   `stage.thermal`, …) tagged with the scenario label of the thread
//!   that ran them and a per-thread worker id.
//! * **Counters** ([`add`]) — monotonically increasing work totals from
//!   the hot kernels: nets routed, A* pops and expansions in the
//!   router, SOR sweeps in the thermal solver, LU factor/solve calls in
//!   the circuit engine, memo-cell hits versus computes.
//!
//! Recording is **off by default** and near-zero-cost while off: every
//! entry point starts with one relaxed atomic load, spans allocate
//! nothing, and counter bumps are skipped entirely. [`enable`] turns
//! recording on for the rest of the process (the `codesign` CLI does
//! this for `--trace`/`--stats`, the bench binaries for their
//! `"stages"` breakdown). Because the layer only *reads* clocks and
//! appends to side buffers, enabling it cannot change any serialized
//! study output — `tests/flow_determinism.rs` enforces exactly that.
//!
//! # Scenario labels
//!
//! Span attribution follows the same thread-scoped pattern as
//! [`crate::faults`]: a flow entry point installs a label with
//! [`label_scope_with`], and the [`crate::par`] fork/join helpers carry
//! the caller's label into every worker they spawn ([`current_label`] /
//! [`enter_label`]), so nested parallelism inside a scenario still
//! attributes its spans to that scenario.
//!
//! # Output
//!
//! [`chrome_trace_json`] serializes everything recorded so far as a
//! Chrome trace-event JSON document (viewable in `about:tracing` or
//! Perfetto); [`stats_table`] renders a human-readable per-stage table.
//! Both are snapshots — recording continues afterwards unless the
//! buffers are cleared with [`reset`].

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Environment variable the `codesign` CLI reads as a default trace
/// output path (equivalent to passing `--trace <path>`).
pub const TRACE_ENV: &str = "CODESIGN_TRACE";

// ---------------------------------------------------------------------
// Enable gate and process epoch.
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns recording on for the rest of the process. Idempotent. The
/// first call pins the trace epoch (timestamp zero).
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Release);
}

/// True when recording is on. One relaxed atomic load — the only cost
/// every span/counter call site pays while disabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------

/// Handle to one registered counter (see the `pub const` handles
/// below). Indexes [`COUNTER_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(usize);

/// Memo-cell cache hits ([`crate::memo::ArcMemo`]).
pub const MEMO_HIT: Counter = Counter(0);
/// Memo-cell compute-closure runs (misses).
pub const MEMO_COMPUTE: Counter = Counter(1);
/// Nets in finished routing solutions.
pub const ROUTER_NETS_ROUTED: Counter = Counter(2);
/// Red-black SOR sweeps run by the thermal solver.
pub const THERMAL_SOR_SWEEPS: Counter = Counter(3);
/// LU factorisations started by the circuit engine.
pub const CIRCUIT_LU_FACTOR: Counter = Counter(4);
/// LU back-substitution solves (one per transient time step).
pub const CIRCUIT_LU_SOLVE: Counter = Counter(5);
/// Link decks simulated by the SI engine.
pub const SI_LINKS_SIMULATED: Counter = Counter(6);
/// Priority-queue pops in the router's A* loop (including stale
/// entries skipped without expansion).
pub const ROUTER_HEAP_POPS: Counter = Counter(7);
/// Nodes actually expanded (neighbours relaxed) by the router's A*.
pub const ROUTER_EXPANSIONS: Counter = Counter(8);
/// Windowed searches that found no path inside their window, forcing
/// a wider window (the last fallback is the full grid).
pub const ROUTER_WINDOW_FALLBACKS: Counter = Counter(9);
/// Nets ripped up by the overflow-driven incremental reroute.
pub const ROUTER_INCREMENTAL_REROUTES: Counter = Counter(10);
/// Sweep requests admitted by the `codesign serve` daemon.
pub const SERVE_REQUESTS: Counter = Counter(11);
/// Sweep requests rejected at admission with 429 (queue full).
pub const SERVE_ADMISSION_REJECTS: Counter = Counter(12);
/// Serve requests that hit their deadline mid-flight.
pub const SERVE_DEADLINE_HITS: Counter = Counter(13);
/// Scenario context-pool hits (a warm `StudyContext` was reused).
pub const SERVE_CONTEXT_HITS: Counter = Counter(14);
/// Scenario context-pool misses (a fresh `StudyContext` was built).
pub const SERVE_CONTEXT_MISSES: Counter = Counter(15);
/// Serve requests fully executed (success or per-scenario error body).
pub const SERVE_COMPLETED: Counter = Counter(16);
/// Artifact-store hits served from the in-memory tier.
pub const STORE_MEM_HIT: Counter = Counter(17);
/// Artifact-store hits decoded from the on-disk tier.
pub const STORE_DISK_HIT: Counter = Counter(18);
/// Artifact-store misses (the compute closure ran).
pub const STORE_MISS: Counter = Counter(19);
/// Artifacts written to the on-disk tier.
pub const STORE_WRITE: Counter = Counter(20);
/// On-disk entries discarded as corrupt/undecodable (treated as a miss).
pub const STORE_INVALID: Counter = Counter(21);
/// Connections rejected at accept with 503 (handler pool at capacity).
pub const SERVE_CONN_REJECTED: Counter = Counter(22);
/// Connections aborted because the client exhausted a read budget
/// (slowloris headers, drip-fed bodies).
pub const SERVE_SLOW_CLIENT_ABORTS: Counter = Counter(23);
/// Responses aborted because the client stalled the write past the
/// whole-response budget.
pub const SERVE_WRITE_TIMEOUTS: Counter = Counter(24);

/// Names of every registered counter, indexed by [`Counter`] handle.
pub const COUNTER_NAMES: [&str; 25] = [
    "memo.hit",
    "memo.compute",
    "router.nets_routed",
    "thermal.sor_sweeps",
    "circuit.lu_factor",
    "circuit.lu_solve",
    "si.links_simulated",
    "router.heap_pops",
    "router.expansions",
    "router.window_fallbacks",
    "router.incremental_reroutes",
    "serve.requests",
    "serve.admission_rejects",
    "serve.deadline_hits",
    "serve.context_hits",
    "serve.context_misses",
    "serve.completed",
    "store.mem_hit",
    "store.disk_hit",
    "store.miss",
    "store.write",
    "store.invalid",
    "serve.conn_rejected",
    "serve.slow_client_aborts",
    "serve.write_timeouts",
];

static COUNTS: [AtomicU64; COUNTER_NAMES.len()] =
    [const { AtomicU64::new(0) }; COUNTER_NAMES.len()];

impl Counter {
    /// The counter's registered name.
    pub fn name(self) -> &'static str {
        COUNTER_NAMES[self.0]
    }
}

/// Adds `n` to `counter`. No-op (one atomic load) while recording is
/// disabled, one relaxed `fetch_add` while enabled — safe to call from
/// inner numeric loops.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if is_enabled() {
        COUNTS[counter.0].fetch_add(n, Ordering::Relaxed);
    }
}

/// Current totals of every registered counter, in [`COUNTER_NAMES`]
/// order (zero entries included, so the shape is stable).
pub fn counter_totals() -> Vec<(&'static str, u64)> {
    COUNTER_NAMES
        .iter()
        .zip(&COUNTS)
        .map(|(&name, count)| (name, count.load(Ordering::Relaxed)))
        .collect()
}

// ---------------------------------------------------------------------
// Thread labels and worker ids.
// ---------------------------------------------------------------------

thread_local! {
    /// The scenario label spans on this thread are attributed to.
    static LABEL: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
    /// Lazily assigned per-thread id (0 = not yet assigned).
    static WORKER: Cell<u64> = const { Cell::new(0) };
}

static NEXT_WORKER: AtomicU64 = AtomicU64::new(1);

fn worker_id() -> u64 {
    WORKER.with(|w| {
        let id = w.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
        w.set(id);
        id
    })
}

/// The calling thread's current scenario label, if recording is enabled
/// and a label scope is active. Fork/join helpers capture this in the
/// parent and [`enter_label`] it in each worker (mirroring
/// [`crate::faults::current_scope`] propagation).
pub fn current_label() -> Option<Arc<str>> {
    if !is_enabled() {
        return None;
    }
    LABEL.with(|l| l.borrow().clone())
}

/// Installs `label` as the calling thread's span-attribution label
/// until the returned guard drops (restoring the previous one). A
/// `None` label while recording is disabled is a free no-op.
pub fn enter_label(label: Option<Arc<str>>) -> LabelGuard {
    if label.is_none() && !is_enabled() {
        return LabelGuard(None);
    }
    let previous = LABEL.with(|l| l.replace(label));
    LabelGuard(Some(previous))
}

/// Builds a label only when recording is enabled (so the closure's
/// allocation is never paid on the disabled path) and installs it via
/// [`enter_label`].
pub fn label_scope_with(f: impl FnOnce() -> String) -> LabelGuard {
    if !is_enabled() {
        return LabelGuard(None);
    }
    enter_label(Some(Arc::from(f().as_str())))
}

/// RAII guard from [`enter_label`]; restores the thread's previous
/// label when dropped. Deliberately `!Send` (thread-local state).
#[derive(Debug)]
pub struct LabelGuard(Option<Option<Arc<str>>>);

impl Drop for LabelGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.0.take() {
            LABEL.with(|l| *l.borrow_mut() = previous);
        }
    }
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/// One recorded stage interval.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Stage name (`stage.route`, `route.nets`, `scenario.run`, …).
    pub stage: &'static str,
    /// Scenario label active on the recording thread, if any.
    pub label: Option<Arc<str>>,
    /// Per-thread worker id of the recording thread.
    pub worker: u64,
    /// Start, microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

fn spans() -> &'static Mutex<Vec<SpanRecord>> {
    static SPANS: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn spans_lock() -> MutexGuard<'static, Vec<SpanRecord>> {
    spans().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Starts a stage span, recorded when the returned guard drops. While
/// recording is disabled this allocates nothing and records nothing.
#[must_use = "a span measures until it is dropped"]
pub fn span(stage: &'static str) -> Span {
    if !is_enabled() {
        return Span(None);
    }
    Span(Some((stage, Instant::now())))
}

/// RAII timing guard from [`span`].
#[derive(Debug)]
pub struct Span(Option<(&'static str, Instant)>);

impl Drop for Span {
    fn drop(&mut self) {
        let Some((stage, start)) = self.0.take() else {
            return;
        };
        let dur_us = span_us(start.elapsed().as_micros());
        let start_us = span_us(start.saturating_duration_since(epoch()).as_micros());
        let record = SpanRecord {
            stage,
            label: LABEL.with(|l| l.borrow().clone()),
            worker: worker_id(),
            start_us,
            dur_us,
        };
        spans_lock().push(record);
    }
}

fn span_us(us: u128) -> u64 {
    u64::try_from(us).unwrap_or(u64::MAX)
}

/// A copy of every span recorded so far (unordered across threads).
pub fn snapshot_spans() -> Vec<SpanRecord> {
    spans_lock().clone()
}

/// Clears all recorded spans and zeroes every counter. Recording stays
/// in whatever state it was; used to scope a report to one run.
pub fn reset() {
    spans_lock().clear();
    for count in &COUNTS {
        count.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Aggregation and rendering.
// ---------------------------------------------------------------------

/// Per-(scenario, stage) aggregate of the recorded spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStat {
    /// Scenario label (empty for unlabeled spans).
    pub label: String,
    /// Stage name.
    pub stage: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Total duration, microseconds.
    pub total_us: u64,
}

/// Aggregates the recorded spans by `(label, stage)`, sorted by label
/// then stage — a deterministic summary even though raw span order
/// depends on thread completion order.
pub fn aggregate_spans() -> Vec<StageStat> {
    let mut by_key: std::collections::BTreeMap<(String, &'static str), (u64, u64)> =
        std::collections::BTreeMap::new();
    for record in snapshot_spans() {
        let label = record.label.as_deref().unwrap_or("").to_string();
        let entry = by_key.entry((label, record.stage)).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += record.dur_us;
    }
    by_key
        .into_iter()
        .map(|((label, stage), (count, total_us))| StageStat {
            label,
            stage,
            count,
            total_us,
        })
        .collect()
}

/// Renders the aggregated spans and counters as a human-readable table
/// (the `codesign --stats` output).
pub fn stats_table() -> String {
    let mut out = String::new();
    let stats = aggregate_spans();
    if stats.is_empty() {
        out.push_str("no stage spans recorded\n");
    } else {
        let _ = writeln!(
            out,
            "{:<28}{:<24}{:>8}{:>12}",
            "stage", "scenario", "calls", "total ms"
        );
        for s in &stats {
            let _ = writeln!(
                out,
                "{:<28}{:<24}{:>8}{:>12.1}",
                s.stage,
                s.label,
                s.count,
                s.total_us as f64 / 1e3
            );
        }
    }
    let _ = writeln!(out, "{:<28}{:>12}", "counter", "value");
    for (name, value) in counter_totals() {
        let _ = writeln!(out, "{name:<28}{value:>12}");
    }
    out
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes everything recorded so far as a Chrome trace-event JSON
/// document: one `"ph":"X"` duration event per span (the scenario label
/// in `args.scenario`) and one `"ph":"C"` counter event per registered
/// counter. Hand-rolled here because `techlib` depends on no JSON
/// library; the output is plain ASCII-escaped JSON.
pub fn chrome_trace_json() -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for record in snapshot_spans() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":");
        push_json_str(&mut out, record.stage);
        let _ = write!(
            out,
            ",\"cat\":\"flow\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
            record.start_us, record.dur_us, record.worker
        );
        out.push_str(",\"args\":{\"scenario\":");
        push_json_str(&mut out, record.label.as_deref().unwrap_or(""));
        out.push_str("}}");
    }
    let now_us = span_us(epoch().elapsed().as_micros());
    for (name, value) in counter_totals() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":");
        push_json_str(&mut out, name);
        let _ = write!(
            out,
            ",\"cat\":\"counters\",\"ph\":\"C\",\"ts\":{now_us},\"pid\":1,\
             \"args\":{{\"value\":{value}}}}}"
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    // Recording state is process-global, so one test drives the whole
    // lifecycle (the same pattern faults.rs uses for its global set).
    #[test]
    fn spans_counters_and_trace_round_trip() {
        // Disabled: spans are inert and counters don't move.
        assert!(!is_enabled());
        // Only counters nothing else in this crate's test binary touches
        // are asserted exactly (memo tests bump the memo counters once
        // recording is on, and tests run concurrently).
        let before = counter_totals();
        {
            let _s = span("stage.test");
            add(CIRCUIT_LU_FACTOR, 3);
        }
        assert_eq!(counter_totals(), before);
        assert!(current_label().is_none());

        enable();
        assert!(is_enabled());
        reset();

        // Labeled span + counters record and aggregate.
        {
            let _label = label_scope_with(|| "scenario-a".to_string());
            assert_eq!(current_label().as_deref(), Some("scenario-a"));
            let _s = span("stage.test");
            add(CIRCUIT_LU_FACTOR, 2);
            add(CIRCUIT_LU_SOLVE, 5);
        }
        assert!(current_label().is_none(), "label scope restores");
        {
            let _s = span("stage.test");
        }

        let spans = snapshot_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "stage.test");
        assert_eq!(spans[0].label.as_deref(), Some("scenario-a"));
        assert_eq!(spans[1].label, None);
        assert!(spans[0].worker > 0);

        let stats = aggregate_spans();
        assert_eq!(stats.len(), 2, "one row per (label, stage)");
        assert_eq!(stats[0].label, "", "unlabeled sorts first");
        assert_eq!(stats[1].label, "scenario-a");
        assert_eq!(stats[1].count, 1);

        let totals = counter_totals();
        assert!(totals.contains(&("circuit.lu_factor", 2)));
        assert!(totals.contains(&("circuit.lu_solve", 5)));

        let table = stats_table();
        assert!(table.contains("stage.test"), "{table}");
        assert!(table.contains("memo.hit"), "{table}");

        // Labels propagate by explicit handoff, as par workers do it.
        let label = {
            let _label = label_scope_with(|| "scenario-b".to_string());
            current_label()
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _g = enter_label(label.clone());
                let _s = span("stage.worker");
            });
        });
        assert!(snapshot_spans()
            .iter()
            .any(|r| r.stage == "stage.worker" && r.label.as_deref() == Some("scenario-b")));

        // The trace is structurally valid Chrome trace JSON.
        let trace = chrome_trace_json();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.ends_with("]}"));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"C\""));
        assert!(trace.contains("\"scenario\":\"scenario-a\""));
        assert!(trace.contains("\"name\":\"router.nets_routed\""));

        // Reset clears both kinds of evidence but keeps recording on
        // (checked via counters this test owns; concurrent tests may
        // bump the memo counters between reset and the assertion).
        reset();
        assert!(snapshot_spans().is_empty());
        let totals = counter_totals();
        assert!(totals.contains(&("circuit.lu_factor", 0)));
        assert!(totals.contains(&("circuit.lu_solve", 0)));
        assert!(is_enabled());
    }

    #[test]
    fn counter_names_match_their_handles() {
        assert_eq!(MEMO_HIT.name(), "memo.hit");
        assert_eq!(SI_LINKS_SIMULATED.name(), "si.links_simulated");
        assert_eq!(ROUTER_HEAP_POPS.name(), "router.heap_pops");
        assert_eq!(ROUTER_EXPANSIONS.name(), "router.expansions");
        assert_eq!(ROUTER_WINDOW_FALLBACKS.name(), "router.window_fallbacks");
        assert_eq!(
            ROUTER_INCREMENTAL_REROUTES.name(),
            "router.incremental_reroutes"
        );
        assert_eq!(SERVE_REQUESTS.name(), "serve.requests");
        assert_eq!(SERVE_ADMISSION_REJECTS.name(), "serve.admission_rejects");
        assert_eq!(SERVE_DEADLINE_HITS.name(), "serve.deadline_hits");
        assert_eq!(SERVE_CONTEXT_HITS.name(), "serve.context_hits");
        assert_eq!(SERVE_CONTEXT_MISSES.name(), "serve.context_misses");
        assert_eq!(SERVE_COMPLETED.name(), "serve.completed");
        assert_eq!(SERVE_CONN_REJECTED.name(), "serve.conn_rejected");
        assert_eq!(SERVE_SLOW_CLIENT_ABORTS.name(), "serve.slow_client_aborts");
        assert_eq!(SERVE_WRITE_TIMEOUTS.name(), "serve.write_timeouts");
        for name in COUNTER_NAMES {
            assert!(name.contains('.'), "counter {name:?} is stage-qualified");
        }
    }

    #[test]
    fn json_strings_escape_control_and_quote_characters() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }
}
