//! The repository benchmark: one process per workload run, end-to-end
//! metrics by default, per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The
//! line before it records the run's identity (core count, width, build
//! profile, commit or source digest, seed) and per-metric sample
//! counts. Traced runs also write their spans to
//! `.bench_out/<workload>-seed<seed>-spans.json` under the working
//! directory.

mod gen;
mod http;
mod layers;
mod paper;
mod procfs;
mod serve;
mod stats;
mod sweep;
mod trace;

use serde_json::{Number, Value};
use std::path::Path;
use std::time::{Duration, Instant};

/// `BENCHMARK.json`, the one list of the workloads and of the metrics
/// each mode prints: `end_to_end` untraced, `per_layer` traced.
const DECLARED: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every entry of `BENCHMARK.json`'s `key` list (the
/// unit is empty for workloads).
pub fn declared(key: &str) -> Vec<(String, String)> {
    let doc: Value = serde_json::from_str(DECLARED).expect("BENCHMARK.json is JSON");
    let entries = doc.get(key).and_then(Value::as_array);
    entries
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|entry| {
            let field = |k| {
                entry
                    .get(k)
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Set-ups per run of `sweep_warm` and `serve_mixed`; `setup_s` is
/// their median.
pub const SETUP_REPEATS: usize = 3;

/// Runs `setup` [`SETUP_REPEATS`] times. Returns the last result and
/// the median seconds; `discard` releases each earlier result outside
/// the timing.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            discard(previous)?;
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).ok_or("no set-up ran")?;
    Ok((last.ok_or("no set-up ran")?, median))
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: Duration,
    /// Per-layer (traced) run.
    pub trace: bool,
    /// `CODESIGN_THREADS` the program runs at.
    pub width: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (studies, scenarios or requests).
    pub attempted: u64,
    /// Operations that failed their correctness gate.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
    /// Sample counts, percentiles and other context for the identity line.
    pub info: Vec<(String, Value)>,
    /// Spans of a traced run.
    pub spans: Vec<trace::Span>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Records a context entry for the identity line.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.info.push((key.into(), value.into()));
    }

    /// Records the end-to-end latency metrics of `samples_s` (seconds
    /// per operation): the median and the tail, with how many samples
    /// they rest on. With ten samples or fewer no percentile has ten
    /// beyond it, and the slowest sample stands in for the tail.
    pub fn latencies(&mut self, samples_s: &[f64]) {
        let ms: Vec<f64> = samples_s.iter().map(|s| s * 1000.0).collect();
        self.metric("latency_p50_ms", stats::median(&ms).unwrap_or(f64::NAN));
        let (pct, tail) = stats::tail(&ms, 99.0).unwrap_or_else(|| {
            (
                100.0,
                stats::sorted(&ms).last().copied().unwrap_or(f64::NAN),
            )
        });
        self.metric("latency_p99_ms", tail);
        self.note("latency_samples", ms.len());
        self.note("latency_tail_percentile", Value::Number(Number::F64(pct)));
    }
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    if !workloads.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            workloads.join(", ")
        ));
    }
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        width,
    })
}

/// The commit when the working directory is a git checkout, else a
/// digest of the sources the benchmark builds, so a result names the
/// code it measured either way.
fn code_identity() -> (String, String) {
    // Only a checkout's own `.git` counts: git would otherwise report
    // whatever repository happens to enclose the working directory.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string());
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        collect_sources(Path::new(root), &mut files);
    }
    for extra in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(Path::new(extra).to_path_buf());
    }
    files.sort();
    let mut text = Vec::new();
    for file in &files {
        text.extend_from_slice(file.to_string_lossy().as_bytes());
        text.extend(std::fs::read(file).unwrap_or_default());
    }
    (commit, format!("{:016x}", stats::fnv1a(&text)))
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path
            .extension()
            .is_some_and(|ext| ext == "rs" || ext == "toml")
        {
            out.push(path);
        }
    }
}

fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload.as_str() {
        "paper_cold" => paper::run(cfg),
        "sweep_warm" => sweep::run(cfg),
        "serve_mixed" => serve::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Checks that `report` carries exactly the metrics the mode promises
/// and attaches their units.
fn result_metrics(cfg: &Config, report: &Report) -> Result<Value, String> {
    let expected = declared(if cfg.trace { "per_layer" } else { "end_to_end" });
    let mut out = Vec::with_capacity(expected.len());
    for (name, unit) in &expected {
        let matches: Vec<f64> = report
            .metrics
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .collect();
        let [value] = matches[..] else {
            return Err(format!("metric {name} reported {} times", matches.len()));
        };
        if !stats::valid_metric_name(name) {
            return Err(format!("metric name {name:?} breaks the naming rules"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        out.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Number(Number::F64(value))),
                ("unit".into(), unit.as_str().into()),
            ]),
        ));
    }
    if let Some((extra, _)) = report
        .metrics
        .iter()
        .find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
    {
        return Err(format!("metric {extra} is not declared for this mode"));
    }
    Ok(Value::Object(out))
}

fn write_spans(cfg: &Config, spans: &[trace::Span]) -> Result<String, String> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}-spans.json", cfg.workload, cfg.seed));
    std::fs::write(&path, trace::to_json(spans).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The program runs at the machine's width, fixed before any of its
    // thread pools read the setting.
    std::env::set_var(techlib::par::THREADS_ENV, cfg.width.to_string());
    let steal_before = procfs::steal_s();
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            std::process::exit(1);
        }
    };
    let metrics = match result_metrics(&cfg, &report) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let (commit, source_digest) = code_identity();
    let mut identity: Vec<(String, Value)> = vec![
        ("workload".into(), cfg.workload.as_str().into()),
        ("seed".into(), cfg.seed.into()),
        (
            "seconds".into(),
            Value::Number(Number::F64(cfg.seconds.as_secs_f64())),
        ),
        ("trace".into(), cfg.trace.into()),
        ("nproc".into(), cfg.width.into()),
        ("width".into(), cfg.width.into()),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("commit".into(), commit.into()),
        ("source_digest".into(), source_digest.into()),
    ];
    if cfg.trace {
        match write_spans(&cfg, &report.spans) {
            Ok(path) => identity.push(("spans".into(), path.into())),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                std::process::exit(1);
            }
        }
    }
    if let (Some(before), Some(after)) = (steal_before, procfs::steal_s()) {
        identity.push((
            "host_steal_s".into(),
            Value::Number(Number::F64(after - before)),
        ));
    }
    identity.extend(report.info);
    println!(
        "{}",
        Value::Object(vec![("run".into(), Value::Object(identity))])
    );
    let result = Value::Object(vec![
        ("correct".into(), (report.failed == 0).into()),
        ("attempted".into(), report.attempted.into()),
        ("failed".into(), report.failed.into()),
        ("metrics".into(), metrics),
    ]);
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names = declared("end_to_end");
        names.extend(declared("per_layer"));
        for (name, _) in &names {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), names.len());
        assert!(declared("per_layer").len() <= 128);
        let workloads: Vec<_> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, ["paper_cold", "sweep_warm", "serve_mixed"]);
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cfg = parse_args(&args(
            "--workload sweep_warm --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((cfg.seed, cfg.trace), (7, true));
        assert_eq!(cfg.seconds, Duration::from_secs(3));
        let rest = " --seed 1 --seconds 3 --trace 0";
        assert!(parse_args(&args(&format!("--workload nope{rest}"))).is_err());
        assert!(parse_args(&args(&format!("--workload paper_cold{rest} --trace 2"))).is_err());
        assert!(parse_args(&args(&format!("--workload paper_cold{rest} --seconds 0"))).is_err());
        assert!(parse_args(&args(&format!("--workload paper_cold{rest}"))).is_ok());
        // Every flag is required.
        for drop in ["--workload", "--seed", "--seconds", "--trace"] {
            let mut partial = args(&format!("--workload paper_cold{rest}"));
            let at = partial.iter().position(|a| a == drop).unwrap();
            partial.drain(at..at + 2);
            assert!(parse_args(&partial).is_err(), "{drop}");
        }
    }
}
