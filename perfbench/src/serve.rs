//! `serve_mixed`: one in-process `codesign serve` daemon
//! (`ServeConfig::default()`, in-memory store) over loopback, driven by
//! a closed loop of clients that each wait for their answer before
//! sending the next one-scenario `/sweep`.

use crate::gen::{base_requests, Class, Request, ServeGen};
use crate::layers::{self, Counters};
use crate::trace::Tracer;
use crate::{http, procfs, repeat_setup, stats, Config, Report};
use codesign::batch;
use codesign::scenario::scenarios_from_json;
use codesign::serve::{ServeConfig, Server};
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use techlib::store::ArtifactStore;

/// Closed-loop clients (capped at the machine's width).
const CLIENTS: usize = 2;

/// Requests after which `peak_rss_mb` is read. The daemon's store and
/// context pool keep every distinct scenario, so memory grows with every
/// new request; reading it at a fixed count (under the 1377 requests of
/// the slowest baseline run) keeps it independent of how fast requests
/// are answered. A run continues past `--seconds` until it gets there.
const RSS_AT_REQUESTS: u64 = 1000;

/// A daemon serving on a loopback port from its own thread.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds, starts serving and answers the warm-up requests (the
    /// paper scenario of every sweep technology).
    fn start() -> Result<Daemon, String> {
        let server =
            Server::bind("127.0.0.1:0", ServeConfig::default()).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let daemon = Daemon {
            addr,
            thread: std::thread::spawn(move || server.run()),
        };
        for warm in base_requests() {
            let response = http::request(addr, "POST", "/sweep", &warm.body)?;
            if response.status != 200 {
                return Err(format!(
                    "warm-up {} answered {}",
                    warm.name, response.status
                ));
            }
        }
        Ok(daemon)
    }

    /// Drains the daemon and waits for it to exit.
    fn stop(self) -> Result<(), String> {
        let response = http::request(self.addr, "POST", "/shutdown", "")?;
        if response.status != 200 {
            return Err(format!("/shutdown answered {}", response.status));
        }
        match self.thread.join() {
            Ok(result) => result.map_err(|e| e.to_string()),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }

    /// Numeric fields of `GET /stats`.
    fn stats(&self) -> Result<HashMap<String, f64>, String> {
        let response = http::request(self.addr, "GET", "/stats", "")?;
        match serde_json::from_str(&response.body).map_err(|e| e.to_string())? {
            Value::Object(fields) => Ok(fields
                .into_iter()
                .filter_map(|(k, v)| Some((k, v.as_f64()?)))
                .collect()),
            _ => Err("/stats is not an object".to_string()),
        }
    }
}

/// One answered (or failed) request.
#[derive(Debug)]
struct Record {
    request: Request,
    /// HTTP status, or `None` when the exchange itself failed.
    status: Option<u16>,
    latency_s: f64,
    body_hash: u64,
}

/// What one closed-loop window produced.
struct Window {
    /// Records in completion order per client.
    records: Vec<Record>,
    wall_s: f64,
    /// `VmHWM` when the `rss_at`-th request completed.
    hwm_kb: Option<Result<u64, String>>,
}

/// One closed-loop window of at least `seconds`, and of at least
/// `rss_at` requests when that is given.
fn closed_loop(
    addr: SocketAddr,
    gens: &mut [ServeGen],
    tracer: &Tracer,
    seconds: Duration,
    first_op: u64,
    rss_at: Option<u64>,
) -> Window {
    let start = Instant::now();
    let completed = AtomicU64::new(0);
    let hwm_kb = OnceLock::new();
    let at_least = rss_at.unwrap_or(0);
    let logs: Vec<Vec<Record>> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(client, gen)| {
                let (completed, hwm_kb) = (&completed, &hwm_kb);
                scope.spawn(move || {
                    let mut log = Vec::new();
                    let mut op = first_op + (client as u64) * 1_000_000;
                    while start.elapsed() < seconds || completed.load(Ordering::Relaxed) < at_least
                    {
                        let request = gen.next_request();
                        let t = Instant::now();
                        let (answer, _) =
                            tracer.span("serve.request", request.class.name(), op, None, |_| {
                                http::request(addr, "POST", "/sweep", &request.body)
                            });
                        let latency_s = t.elapsed().as_secs_f64();
                        if Some(completed.fetch_add(1, Ordering::Relaxed) + 1) == rss_at {
                            let _ = hwm_kb.set(procfs::sample().map(|s| s.hwm_kb));
                        }
                        op += 1;
                        let (status, body_hash) = match answer {
                            Ok(r) => (Some(r.status), stats::fnv1a(r.body.as_bytes())),
                            Err(e) => {
                                eprintln!("perfbench: {} failed: {e}", request.name);
                                (None, 0)
                            }
                        };
                        log.push(Record {
                            request,
                            status,
                            latency_s,
                            body_hash,
                        });
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    Window {
        records: logs.into_iter().flatten().collect(),
        wall_s: start.elapsed().as_secs_f64(),
        hwm_kb: hwm_kb.into_inner(),
    }
}

fn ok(record: &Record) -> bool {
    record.status == Some(200)
}

/// The latency a failed request is counted with: it misses every limit,
/// yet stays finite so the result line can still be printed.
const FAILED_LATENCY_S: f64 = 1e12;

/// Request latencies in seconds.
fn latencies(records: &[Record], class: Option<Class>) -> Vec<f64> {
    records
        .iter()
        .filter(|r| class.is_none_or(|c| r.request.class == c))
        .map(|r| if ok(r) { r.latency_s } else { FAILED_LATENCY_S })
        .collect()
}

/// The correctness gate: every answer is 200, and its body equals the
/// in-process `batch::sweep_json` bytes of its scenario, computed on a
/// store of the harness's own. Returns the failed-request count and the
/// reference store (warm for every scenario requested).
fn verify(records: &[Record]) -> Result<(u64, Arc<ArtifactStore>), String> {
    let mut seen = HashSet::new();
    let distinct: Vec<&Request> = records
        .iter()
        .map(|r| &r.request)
        .filter(|req| seen.insert(req.name.as_str()))
        .collect();
    let mut scenarios = Vec::with_capacity(distinct.len());
    for req in &distinct {
        scenarios.extend(scenarios_from_json(&req.body).map_err(|e| e.to_string())?);
    }
    let store = Arc::new(ArtifactStore::in_memory());
    let outcomes =
        batch::run_with_store(&scenarios, Some(Arc::clone(&store))).map_err(|e| e.to_string())?;
    let mut expected = HashMap::new();
    for (i, scenario) in scenarios.iter().enumerate() {
        let body = batch::sweep_json(
            std::slice::from_ref(scenario),
            std::slice::from_ref(&outcomes[i]),
        )
        .map_err(|e| e.to_string())?;
        expected.insert(
            scenario.name().to_string(),
            stats::fnv1a((body + "\n").as_bytes()),
        );
    }
    let mut failed = 0;
    for r in records {
        let good = ok(r) && expected.get(&r.request.name) == Some(&r.body_hash);
        if !good {
            eprintln!(
                "perfbench: {} answered {:?} with bytes that differ from in-process",
                r.request.name, r.status
            );
            failed += 1;
        }
    }
    Ok((failed, store))
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let (daemon, setup_s) = repeat_setup(Daemon::start, Daemon::stop)?;
    let clients = CLIENTS.min(cfg.width).max(1);
    let mut gens: Vec<ServeGen> = (0..clients)
        .map(|c| ServeGen::new(cfg.seed, c, clients))
        .collect();
    report.note("clients", clients);
    let records = if cfg.trace {
        traced(cfg, &daemon, &mut gens, &mut report)?
    } else {
        report.metric("setup_s", setup_s);
        let before = procfs::sample()?;
        let window = closed_loop(
            daemon.addr,
            &mut gens,
            &Tracer::new(false),
            cfg.seconds,
            0,
            Some(RSS_AT_REQUESTS),
        );
        let (cpu, _) = procfs::delta(&before, &procfs::sample()?);
        let records = window.records;
        let n = records.len() as f64;
        report.metric("ops_per_s", n / window.wall_s);
        report.latencies(&latencies(&records, None));
        report.metric("cpu_ms_per_op", 1000.0 * cpu.as_secs_f64() / n);
        let hwm_kb = window
            .hwm_kb
            .ok_or("the window ended before reading VmHWM")??;
        report.metric("peak_rss_mb", hwm_kb as f64 / 1024.0);
        report.note("peak_rss_at_requests", RSS_AT_REQUESTS);
        records
    };
    daemon.stop()?;
    report.attempted = records.len() as u64;
    let (failed, reference) = verify(&records)?;
    report.failed = failed;
    if cfg.trace {
        edge(&records, &reference, &mut report)?;
        layers::fill_unmeasured(&mut report);
    }
    for class in [Class::Hit, Class::Links, Class::Upstream] {
        let ms: Vec<f64> = latencies(&records, Some(class))
            .iter()
            .map(|s| 1000.0 * s)
            .collect();
        report.note(format!("requests_{}", class.name()), ms.len());
        let median = stats::median(&ms).unwrap_or(0.0);
        report.note(format!("latency_p50_ms_{}", class.name()), median);
    }
    Ok(report)
}

/// Half the run untraced, half with the program's counters on and a
/// span per request; `/stats` is scraped only at the traced half's
/// start and end.
fn traced(
    cfg: &Config,
    daemon: &Daemon,
    gens: &mut [ServeGen],
    report: &mut Report,
) -> Result<Vec<Record>, String> {
    let half = cfg.seconds / 2;
    let before = procfs::sample()?;
    let plain = closed_loop(daemon.addr, gens, &Tracer::new(false), half, 0, None);
    let (mut records, plain_wall) = (plain.records, plain.wall_s);
    let (cpu, switches) = procfs::delta(&before, &procfs::sample()?);
    let plain_n = records.len() as f64;
    report.metric(
        "par.cpu_util",
        cpu.as_secs_f64() / (plain_wall * cfg.width as f64),
    );
    report.metric("par.ctx_switches", switches as f64 / plain_n);

    techlib::obs::enable();
    let tracer = Tracer::new(true);
    let counters = Counters::now();
    let stats0 = daemon.stats()?;
    let rss0 = procfs::sample()?.rss_kb as f64;
    let window = closed_loop(daemon.addr, gens, &tracer, half, 1 << 40, None);
    let (traced, traced_wall) = (window.records, window.wall_s);
    let rss1 = procfs::sample()?.rss_kb as f64;
    let stats1 = daemon.stats()?;
    let moved = Counters::now().since(&counters);
    let delta = |key: &str| {
        stats1.get(key).copied().unwrap_or(0.0) - stats0.get(key).copied().unwrap_or(0.0)
    };

    let per_request = |wall: f64, n: usize| wall / n.max(1) as f64;
    report.metric(
        "trace.overhead_ratio",
        per_request(traced_wall, traced.len()) / per_request(plain_wall, records.len()) - 1.0,
    );
    let p50_ms =
        |class| stats::median(&latencies(&traced, Some(class))).map_or(0.0, |s| 1000.0 * s);
    report.metric("serve.hit_latency_p50_ms", p50_ms(Class::Hit));
    report.metric("serve.miss_latency_p50_ms", p50_ms(Class::Links));
    let (hits, misses) = (delta("context_hits"), delta("context_misses"));
    report.metric("serve.context_hit_ratio", stats::ratio(hits, hits + misses));
    report.metric("serve.contexts_pooled", delta("contexts_pooled"));
    report.metric("serve.rejected", delta("rejected"));
    report.metric("serve.conn_rejected", delta("conn_rejected"));
    report.metric(
        "serve.rss_per_context_kb",
        stats::ratio(rss1 - rss0, delta("contexts_pooled")),
    );
    layers::record_counters(report, &moved);
    report.spans = tracer.spans();
    records.extend(traced);
    Ok(records)
}

/// `serve.edge_ms`: hit latency minus the same warm scenarios rendered
/// in-process (through `batch::run_with_store` on the warm reference
/// store, then `sweep_json`).
fn edge(records: &[Record], store: &Arc<ArtifactStore>, report: &mut Report) -> Result<(), String> {
    let hit_p50 = report
        .metrics
        .iter()
        .find(|(n, _)| n == "serve.hit_latency_p50_ms")
        .map_or(0.0, |(_, v)| *v);
    let mut names = std::collections::BTreeSet::new();
    let mut in_process_ms = Vec::new();
    for r in records.iter().filter(|r| r.request.class == Class::Hit) {
        if names.len() >= 16 || !names.insert(r.request.name.as_str()) {
            continue;
        }
        let scenarios = scenarios_from_json(&r.request.body).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let outcomes = batch::run_with_store(&scenarios, Some(Arc::clone(store)))
            .map_err(|e| e.to_string())?;
        let body = batch::sweep_json(&scenarios, &outcomes).map_err(|e| e.to_string())?;
        std::hint::black_box(body);
        in_process_ms.push(1000.0 * t.elapsed().as_secs_f64());
    }
    let in_process = stats::median(&in_process_ms).unwrap_or(0.0);
    report.metric("serve.edge_ms", hit_p50 - in_process);
    report.note("in_process_hit_ms", in_process);
    Ok(())
}
