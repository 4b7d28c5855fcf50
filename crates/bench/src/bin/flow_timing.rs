//! Times the six-technology study sequentially vs in parallel and writes
//! `BENCH_flow.json` at the repository root.
//!
//! Because the flow memoizes shared artifacts (netlists, layouts, chiplet
//! reports) per process, a fair cold comparison needs fresh processes:
//! the binary re-executes itself once per mode. The sequential child is
//! pinned to one worker (`CODESIGN_THREADS=1`) and calls
//! [`codesign::flow::run_all_sequential`]; the parallel children call
//! [`codesign::flow::run_all`] at each worker count in [`WORKER_SWEEP`]
//! (explicitly pinned via `CODESIGN_THREADS`, so `parallel_cold_s`
//! measures real fan-out even on hosts whose default thread count is 1).
//! Each child also re-runs its flow warm to show what the artifact cache
//! saves, and prints a hash of the serialized studies so the parent can
//! verify every mode produced byte-identical output.
//!
//! The parallel children additionally record `techlib::obs` stage spans
//! and kernel work counters and hand them up on a `STAGES` line; they
//! land under the `"stages"` key (widest run) and the per-width
//! `"parallel_sweep"` entries of `BENCH_flow.json`. The top-level
//! `"router"` section distills the single-worker parallel child: at one
//! worker the `route.nets` spans never overlap, so their sum is the real
//! CPU cost of routing and the stable basis for the CI perf ceiling.

use codesign::flow::TechStudy;
use codesign::table5::MonitorLengths;
use codesign::FlowError;
use std::io::Write as _;
use std::time::Instant;
use techlib::spec::InterposerKind;

const CHILD_ENV: &str = "FLOW_TIMING_CHILD";
/// Comma-separated technology-label filter (case-insensitive substring
/// match against [`InterposerKind::label`], e.g. `"silicon 2.5d"`).
/// Unset runs the full six-technology study. CI's router smoke step uses
/// this to time a single technology.
const TECHS_ENV: &str = "FLOW_TIMING_TECHS";
/// Overrides the output path (default: `BENCH_flow.json` at the repo
/// root), so smoke runs don't clobber the published numbers.
const OUT_ENV: &str = "FLOW_TIMING_OUT";
/// Worker counts for the parallel children. One worker isolates the
/// router's CPU cost (no span overlap); the widest entry exercises the
/// cross-tech fan-out.
const WORKER_SWEEP: [usize; 2] = [1, 4];

/// Resolves the `FLOW_TIMING_TECHS` filter against the packaged set.
/// Children inherit the parent's environment, so both processes resolve
/// the identical list.
fn selected_techs() -> Vec<InterposerKind> {
    let Ok(filter) = std::env::var(TECHS_ENV) else {
        return InterposerKind::PACKAGED.to_vec();
    };
    let techs: Vec<InterposerKind> = filter
        .split(',')
        .map(str::trim)
        .filter(|pat| !pat.is_empty())
        .map(|pat| {
            let lower = pat.to_ascii_lowercase();
            InterposerKind::PACKAGED
                .iter()
                .copied()
                .find(|t| t.label().to_ascii_lowercase().contains(&lower))
                .unwrap_or_else(|| panic!("{TECHS_ENV}: no packaged technology matches {pat:?}"))
        })
        .collect();
    assert!(!techs.is_empty(), "{TECHS_ENV} selected no technologies");
    techs
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn child(parallel: bool) {
    // The parallel child records stage spans and work counters; the
    // sequential child stays untraced, so the parent's hash equality
    // also proves tracing never changes a study byte.
    if parallel {
        techlib::obs::enable();
    }
    let techs = selected_techs();
    let run = || -> Result<Vec<TechStudy>, FlowError> {
        if techs.len() == InterposerKind::PACKAGED.len() {
            if parallel {
                codesign::flow::run_all(MonitorLengths::Routed)
            } else {
                codesign::flow::run_all_sequential(MonitorLengths::Routed)
            }
        } else if parallel {
            codesign::exec::try_ordered_map(&techs, |&tech| {
                codesign::flow::run_tech_with(tech, MonitorLengths::Routed)
            })
        } else {
            techs
                .iter()
                .map(|&tech| codesign::flow::run_tech_with(tech, MonitorLengths::Routed))
                .collect()
        }
    };
    let t0 = Instant::now();
    let studies = run().expect("flow completes");
    let cold_s = t0.elapsed().as_secs_f64();
    // Snapshot before the warm re-run so "stages" describes the cold run.
    let stages = parallel.then(bench::stages_value);
    let t1 = Instant::now();
    let again = run().expect("warm flow completes");
    let warm_s = t1.elapsed().as_secs_f64();
    let json = serde_json::to_string(&studies).expect("studies serialize");
    assert_eq!(
        json,
        serde_json::to_string(&again).expect("studies serialize"),
        "warm re-run must reproduce the cold result"
    );
    println!(
        "RESULT cold_s={cold_s:.3} warm_s={warm_s:.3} hash={:016x} studies={}",
        fnv1a(json.as_bytes()),
        studies.len()
    );
    if let Some(stages) = stages {
        println!(
            "STAGES {}",
            serde_json::to_string(&stages).expect("stages serialize")
        );
    }
}

struct ChildResult {
    cold_s: f64,
    warm_s: f64,
    hash: String,
    /// Per-stage timing breakdown; only the traced (parallel) children
    /// print one.
    stages: Option<serde_json::Value>,
}

fn run_child(parallel: bool, workers: usize) -> ChildResult {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = std::process::Command::new(exe);
    cmd.env(CHILD_ENV, if parallel { "par" } else { "seq" });
    // Pin the width explicitly: children must not inherit the host's
    // default (or an ambient CODESIGN_THREADS) or the sweep would
    // measure whatever the machine happens to be.
    cmd.env(techlib::par::THREADS_ENV, workers.to_string());
    let out = cmd.output().expect("child runs");
    assert!(out.status.success(), "child failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("RESULT "))
        .expect("child printed RESULT");
    let field = |key: &str| -> String {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key} in {line}"))
            .to_string()
    };
    let stages = stdout
        .lines()
        .find_map(|l| l.strip_prefix("STAGES "))
        .map(|json| serde_json::from_str(json).expect("child STAGES line parses"));
    ChildResult {
        cold_s: field("cold_s").parse().expect("cold_s parses"),
        warm_s: field("warm_s").parse().expect("warm_s parses"),
        hash: field("hash"),
        stages,
    }
}

fn main() {
    if let Ok(role) = std::env::var(CHILD_ENV) {
        child(role == "par");
        return;
    }

    let techs = selected_techs();
    let widest = WORKER_SWEEP[WORKER_SWEEP.len() - 1];
    println!(
        "flow_timing: sequential (1 worker) vs parallel (workers {WORKER_SWEEP:?}), {} technologies",
        techs.len()
    );
    println!("running sequential child...");
    let seq = run_child(false, 1);
    println!("  cold {:.3} s, warm {:.3} s", seq.cold_s, seq.warm_s);
    let sweep: Vec<(usize, ChildResult)> = WORKER_SWEEP
        .iter()
        .map(|&workers| {
            println!("running parallel child ({workers} workers)...");
            let r = run_child(true, workers);
            println!("  cold {:.3} s, warm {:.3} s", r.cold_s, r.warm_s);
            (workers, r)
        })
        .collect();

    for (workers, r) in &sweep {
        assert_eq!(
            seq.hash, r.hash,
            "parallel run_all at {workers} workers must serialize \
             byte-identically to sequential"
        );
    }
    println!("determinism: OK (serialized studies hash {})", seq.hash);
    let (_, par) = sweep
        .iter()
        .find(|(w, _)| *w == widest)
        .expect("widest sweep entry exists");
    let speedup = seq.cold_s / par.cold_s;
    println!("cold speedup at {widest} workers: {speedup:.2}x");

    let sweep_value = serde_json::Value::Array(
        sweep
            .iter()
            .map(|(workers, r)| {
                serde_json::Value::Object(vec![
                    ("workers".into(), serde_json::Value::from(*workers)),
                    ("cold_s".into(), serde_json::Value::from(r.cold_s)),
                    ("warm_s".into(), serde_json::Value::from(r.warm_s)),
                    (
                        "router".into(),
                        r.stages
                            .as_ref()
                            .map_or(serde_json::Value::Null, bench::router_value),
                    ),
                ])
            })
            .collect(),
    );

    let report = serde_json::Value::Object(vec![
        ("workers".into(), serde_json::Value::from(widest)),
        (
            "sequential_cold_s".into(),
            serde_json::Value::from(seq.cold_s),
        ),
        (
            "sequential_warm_s".into(),
            serde_json::Value::from(seq.warm_s),
        ),
        (
            "parallel_cold_s".into(),
            serde_json::Value::from(par.cold_s),
        ),
        (
            "parallel_warm_s".into(),
            serde_json::Value::from(par.warm_s),
        ),
        ("cold_speedup".into(), serde_json::Value::from(speedup)),
        (
            "outputs_byte_identical".into(),
            serde_json::Value::from(sweep.iter().all(|(_, r)| r.hash == seq.hash)),
        ),
        (
            "studies_hash_fnv1a".into(),
            serde_json::Value::from(seq.hash.clone()),
        ),
        (
            "profile".into(),
            serde_json::Value::from("release: lto=thin, codegen-units=1"),
        ),
        // Sequential cold time measured with the pre-LTO profile
        // (lto=off, codegen-units=16), passed in by whoever ran that
        // baseline build; null when not provided.
        (
            "no_lto_baseline_cold_s".into(),
            std::env::var("FLOW_BASELINE_NO_LTO_S")
                .ok()
                .and_then(|v| v.parse::<f64>().ok())
                .map_or(serde_json::Value::Null, serde_json::Value::from),
        ),
        (
            "techs".into(),
            serde_json::Value::Array(
                techs
                    .iter()
                    .map(|t| serde_json::Value::from(t.label()))
                    .collect(),
            ),
        ),
        // The router's share of the single-worker parallel cold run:
        // route.nets span totals (per-tech and summed — at one worker
        // the spans never overlap, so the sum is the router's true CPU
        // cost and the basis for the CI perf ceiling) plus the hot-path
        // work counters (pops, expansions, window fallbacks, incremental
        // re-routes).
        (
            "router".into(),
            sweep
                .iter()
                .find(|(w, _)| *w == 1)
                .and_then(|(_, r)| r.stages.as_ref())
                .map_or(serde_json::Value::Null, bench::router_value),
        ),
        // One entry per sweep width: cold/warm seconds plus that width's
        // router distillation (the router's work counters are the same
        // at every width).
        ("parallel_sweep".into(), sweep_value),
        // Stage-by-stage breakdown of the widest parallel cold run,
        // recorded out-of-band by `techlib::obs` (the sequential child
        // stays untraced so the hash equality above also validates that
        // tracing is observationally transparent).
        (
            "stages".into(),
            par.stages.clone().unwrap_or(serde_json::Value::Null),
        ),
    ]);
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flow.json");
    let path = std::env::var(OUT_ENV).unwrap_or_else(|_| default_path.to_string());
    let mut f = std::fs::File::create(&path).expect("benchmark report path writable");
    writeln!(
        f,
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    )
    .expect("report written");
    println!("wrote {path}");
}
