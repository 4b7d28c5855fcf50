//! Per-layer metrics: the program's own work counters (`techlib::obs`,
//! which count only once enabled) and the helpers every traced workload
//! shares.

use crate::stats::ratio;
use crate::Report;

/// A reading of every `techlib::obs` counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    /// The counters now.
    pub fn now() -> Counters {
        Counters(techlib::obs::counter_totals())
    }

    /// How far each counter moved since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .zip(&earlier.0)
                .map(|(&(name, now), &(_, then))| (name, now.saturating_sub(then)))
                .collect(),
        )
    }

    /// One counter by its `techlib::obs` name (0 when unknown).
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Records the counter-derived per-layer metrics of one traced pass.
pub fn record_counters(report: &mut Report, c: &Counters) {
    let n = |name: &str| c.get(name) as f64;
    for (metric, counter) in [
        ("router.pops", "router.heap_pops"),
        ("router.expansions", "router.expansions"),
        ("router.nets_routed", "router.nets_routed"),
        ("router.window_fallbacks", "router.window_fallbacks"),
        ("router.incremental_reroutes", "router.incremental_reroutes"),
        ("router.batch_candidates", "router.batch_candidates"),
        (
            "router.batch_conflict_rejects",
            "router.batch_conflict_rejects",
        ),
        ("thermal.sor_sweeps", "thermal.sor_sweeps"),
        ("circuit.lu_factor", "circuit.lu_factor"),
        ("circuit.lu_solve", "circuit.lu_solve"),
        ("store.mem_hit", "store.mem_hit"),
        ("store.miss", "store.miss"),
        ("store.write", "store.write"),
        ("memo.hit", "memo.hit"),
        ("memo.compute", "memo.compute"),
    ] {
        report.metric(metric, n(counter));
    }
    let candidates = n("router.batch_candidates");
    report.metric(
        "router.batch_accept_ratio",
        ratio(candidates - n("router.batch_conflict_rejects"), candidates),
    );
    let lookups = n("store.mem_hit") + n("store.disk_hit") + n("store.miss");
    report.metric(
        "store.hit_ratio",
        ratio(n("store.mem_hit") + n("store.disk_hit"), lookups),
    );
}

/// Gives every per-layer metric `BENCHMARK.json` declares that the
/// workload did not measure its not-exercised value, 0. A layer a
/// workload never calls reads 0 there.
pub fn fill_unmeasured(report: &mut Report) {
    for (name, _) in crate::declared("per_layer") {
        if !report.metrics.iter().any(|(n, _)| *n == name) {
            report.metric(name, 0.0);
        }
    }
}
