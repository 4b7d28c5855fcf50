//! `paper_cold`: the paper's six technologies, cold on every iteration
//! (a fresh `StudyContext::paper()`, no store), through
//! `flow::run_all_in`. Fixed inputs: the seed is not used.

use crate::gen::slug;
use crate::layers::{self, Counters};
use crate::trace::Tracer;
use crate::{procfs, stats, Config, Report};
use codesign::flow::{self, TechStudy};
use codesign::table5::MonitorLengths;
use codesign::{FlowError, StudyContext};
use std::time::Instant;
use techlib::spec::InterposerKind;

/// FNV-1a of the serialized six-technology studies: the repository's
/// pinned output contract.
pub const PINNED_STUDIES_HASH: u64 = 0xc134_daec_37b2_9ea7;

const MODE: MonitorLengths = MonitorLengths::Routed;

/// Timed studies after which `peak_rss_mb` is read, so it describes the
/// same work however many studies fit in the window (the slowest
/// baseline run fitted two). A run continues past `--seconds` until it
/// gets there.
const RSS_AT_STUDIES: usize = 2;

fn hash_ok(studies: Result<Vec<TechStudy>, FlowError>) -> bool {
    match studies.map(|s| serde_json::to_string(&s)) {
        Ok(Ok(json)) => {
            let hash = stats::fnv1a(json.as_bytes());
            if hash != PINNED_STUDIES_HASH {
                eprintln!(
                    "perfbench: studies hash {hash:016x} != pinned {PINNED_STUDIES_HASH:016x}"
                );
            }
            hash == PINNED_STUDIES_HASH
        }
        Ok(Err(e)) => {
            eprintln!("perfbench: studies do not serialize: {e}");
            false
        }
        Err(e) => {
            eprintln!("perfbench: study failed: {e}");
            false
        }
    }
}

/// One cold study: `(passed its gate, wall seconds, CPU seconds,
/// context switches)`.
fn cold_study() -> Result<(bool, f64, f64, u64), String> {
    let ctx = StudyContext::paper();
    let before = procfs::sample()?;
    let t = Instant::now();
    let studies = flow::run_all_in(&ctx, MODE);
    let wall = t.elapsed().as_secs_f64();
    let after = procfs::sample()?;
    let (cpu, switches) = procfs::delta(&before, &after);
    Ok((hash_ok(studies), wall, cpu.as_secs_f64(), switches))
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    if cfg.trace {
        return traced(cfg);
    }
    let mut report = Report::default();
    // Set-up: the process's first study, run before timing so the timed
    // iterations find the heap grown, the code paged in and any lazy
    // process-wide state initialised; each timed iteration is still cold
    // in its own fresh context. It runs once, as one study takes
    // seconds; the front end alone takes microseconds, which host noise
    // swamps.
    let (ok, setup_s, _, _) = cold_study()?;
    report.attempted += 1;
    report.failed += u64::from(!ok);
    report.metric("setup_s", setup_s);
    let (mut walls, mut cpu, mut hwm_kb) = (Vec::new(), 0.0, 0);
    let start = Instant::now();
    while walls.len() < RSS_AT_STUDIES || start.elapsed() < cfg.seconds {
        let (ok, wall, cpu_s, _) = cold_study()?;
        report.attempted += 1;
        report.failed += u64::from(!ok);
        walls.push(wall);
        cpu += cpu_s;
        if walls.len() == RSS_AT_STUDIES {
            hwm_kb = procfs::sample()?.hwm_kb;
        }
    }
    let n = walls.len() as f64;
    report.metric("ops_per_s", n / walls.iter().sum::<f64>());
    report.latencies(&walls);
    report.metric("cpu_ms_per_op", 1000.0 * cpu / n);
    report.metric("peak_rss_mb", hwm_kb as f64 / 1024.0);
    report.note("peak_rss_at_studies", RSS_AT_STUDIES);
    Ok(report)
}

/// Per-technology layer timings of one staged pass.
#[derive(Debug)]
struct Staged {
    ok: bool,
    seconds: f64,
    build_ms: f64,
    front_ms: f64,
    /// Per `PACKAGED` technology: reports, layout, links, thermal (ms).
    stages: Vec<[f64; 4]>,
    /// Per technology: router pops and expansions of its layout call.
    router: Vec<(u64, u64)>,
    counters: Counters,
}

/// The flow's stages, called one technology at a time through the
/// `StudyContext` entry points (at the program's width inside each
/// stage), then `run_tech_in` on the now-warm context to check that the
/// study bytes did not change.
fn staged(tracer: &Tracer) -> Result<Staged, String> {
    let err = |e: FlowError| e.to_string();
    let start = Instant::now();
    let before = Counters::now();
    let (ctx, build_ms) = tracer.span("context.build", "paper", 0, None, |_| StudyContext::paper());
    let (front, front_ms) = tracer.span("netlist.front", "paper", 0, None, |id| {
        tracer.span("context.design", "paper", 0, id, |_| ctx.design());
        tracer
            .span("context.split", "paper", 0, id, |_| ctx.split())
            .0?;
        tracer
            .span("context.chiplet_netlists", "paper", 0, id, |_| {
                ctx.chiplet_netlists()
            })
            .0
    });
    front.map_err(err)?;
    let mut stages = Vec::new();
    let mut router = Vec::new();
    for (i, &tech) in InterposerKind::PACKAGED.iter().enumerate() {
        let op = i as u64 + 1;
        let tag = slug(tech);
        let (tech_stages, _) = tracer.span("flow.tech_stages", tag, op, None, |id| {
            let reports = tracer.span("context.chiplet_reports", tag, op, id, |_| {
                ctx.chiplet_reports(tech).map(drop)
            });
            reports.0.map_err(err)?;
            let mut layout_ms = 0.0;
            let mut work = (0, 0);
            if InterposerKind::INTERPOSER_BASED.contains(&tech) {
                let before = Counters::now();
                let layout = tracer.span("context.layout", tag, op, id, |_| {
                    ctx.layout(tech).map(drop)
                });
                layout.0.map_err(err)?;
                let moved = Counters::now().since(&before);
                work = (
                    moved.get("router.heap_pops"),
                    moved.get("router.expansions"),
                );
                layout_ms = layout.1;
            }
            let links = tracer.span("context.links_row", tag, op, id, |_| {
                ctx.links_row(tech, MODE).map(drop)
            });
            links.0.map_err(err)?;
            let thermal = tracer.span("context.thermal_report", tag, op, id, |_| {
                ctx.thermal_report(tech).map(drop)
            });
            thermal.0.map_err(err)?;
            Ok::<_, String>(([reports.1, layout_ms, links.1, thermal.1], work))
        });
        let (ms, work) = tech_stages?;
        stages.push(ms);
        router.push(work);
    }
    let counters = Counters::now().since(&before);
    let (studies, _) = tracer.span("flow.run_tech_in", "warm", 0, None, |_| {
        InterposerKind::PACKAGED
            .iter()
            .map(|&tech| flow::run_tech_in(&ctx, tech, MODE))
            .collect::<Result<Vec<_>, _>>()
    });
    Ok(Staged {
        ok: hash_ok(studies),
        seconds: start.elapsed().as_secs_f64(),
        build_ms,
        front_ms,
        stages,
        router,
        counters,
    })
}

/// The traced run: one untraced cold study for the executor's figures,
/// one untraced staged pass, then the same staged pass with the
/// program's counters on and spans kept. The two staged passes give
/// `trace.overhead_ratio`.
fn traced(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let (ok, wall, cpu, switches) = cold_study()?;
    report.attempted += 1;
    report.failed += u64::from(!ok);
    report.metric("par.cpu_util", cpu / (wall * cfg.width as f64));
    report.metric("par.ctx_switches", switches as f64);

    let plain = staged(&Tracer::new(false))?;
    techlib::obs::enable();
    let tracer = Tracer::new(true);
    let pass = staged(&tracer)?;
    for ok in [plain.ok, pass.ok] {
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    report.metric("trace.overhead_ratio", pass.seconds / plain.seconds - 1.0);
    report.note("untraced_staged_s", plain.seconds);
    report.note("traced_staged_s", pass.seconds);

    let mut links_ms = 0.0;
    let mut thermal_ms = 0.0;
    let mut reports_ms = 0.0;
    let mut critical = (0.0, "none");
    for (i, &tech) in InterposerKind::PACKAGED.iter().enumerate() {
        let [reports, layout, links, thermal] = pass.stages[i];
        let tag = slug(tech);
        if InterposerKind::INTERPOSER_BASED.contains(&tech) {
            report.metric(format!("interposer.layout_ms.{tag}"), layout);
            report.metric(format!("router.pops.{tag}"), pass.router[i].0 as f64);
            report.metric(format!("router.expansions.{tag}"), pass.router[i].1 as f64);
        }
        report.metric(format!("thermal.report_ms.{tag}"), thermal);
        links_ms += links;
        thermal_ms += thermal;
        reports_ms += reports;
        // run_tech_in overlaps links with thermal after the layout.
        let chain = pass.front_ms + reports + layout + links.max(thermal);
        if chain > critical.0 {
            critical = (chain, tag);
        }
    }
    let counters = &pass.counters;
    let sweeps = counters.get("thermal.sor_sweeps") as f64;
    report.metric(
        "thermal.us_per_sweep",
        stats::ratio(1000.0 * thermal_ms, sweeps),
    );
    report.metric("si.links_ms", links_ms);
    report.metric(
        "si.links_ms_per_scenario",
        links_ms / InterposerKind::PACKAGED.len() as f64,
    );
    report.metric("netlist.front_ms", pass.front_ms);
    report.metric("chiplet.reports_ms", reports_ms);
    report.metric("flow.critical_path_ms", critical.0);
    report.note("critical_path_tech", critical.1);
    report.metric("context.build_ms", pass.build_ms);
    layers::record_counters(&mut report, counters);
    layers::fill_unmeasured(&mut report);
    report.spans = tracer.spans();
    Ok(report)
}
