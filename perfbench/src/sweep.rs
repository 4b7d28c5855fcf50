//! `sweep_warm`: seeded loss-tangent sweeps over the four
//! `SWEEP_TECHS`, batch after batch through `batch::run_with_store` on
//! one in-memory store that set-up warmed with the paper scenarios. The
//! router and the thermal solver do no work here; links transients,
//! store lookups, context construction and rendering do all of it.

use crate::gen::{slug, SweepGen, SWEEP_BATCH, SWEEP_TECHS};
use crate::layers::{self, Counters};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{procfs, repeat_setup, Config, Report};
use codesign::batch;
use codesign::context::FrontEnd;
use codesign::flow::{self, TechStudy};
use codesign::scenario::Scenario;
use codesign::{FlowError, StudyContext};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use techlib::spec::InterposerKind;
use techlib::store::ArtifactStore;

type Outcomes = Vec<Result<TechStudy, FlowError>>;

/// Scenarios after which `peak_rss_mb` is read. The store keeps every
/// result, so memory grows with every batch; reading it at a fixed
/// count (150 batches, under the 197 of the slowest baseline run) keeps
/// it independent of how fast the batches run. A run continues past
/// `--seconds` until it gets there.
const RSS_AT_SCENARIOS: u64 = 150 * SWEEP_BATCH as u64;

/// Set-up: a fresh in-memory store warmed with the paper scenario of
/// every sweep technology.
fn setup() -> Result<Arc<ArtifactStore>, String> {
    let paper: Vec<Scenario> = SWEEP_TECHS.iter().map(|&t| Scenario::paper(t)).collect();
    let store = Arc::new(ArtifactStore::in_memory());
    let outcomes =
        batch::run_with_store(&paper, Some(Arc::clone(&store))).map_err(|e| e.to_string())?;
    match outcomes.into_iter().find_map(Result::err) {
        Some(e) => Err(format!("store warm-up failed: {e}")),
        None => Ok(store),
    }
}

/// A seeded sample of the sweep's outcomes, one scenario per
/// technology (reservoir sampling), checked afterwards against a
/// store-less run of the same scenarios.
struct Sample {
    rng: Rng,
    seen: HashMap<InterposerKind, u64>,
    kept: HashMap<InterposerKind, (Scenario, String)>,
}

impl Sample {
    fn new(seed: u64) -> Sample {
        Sample {
            rng: Rng::new(seed, 0x5a3b1e),
            seen: HashMap::new(),
            kept: HashMap::new(),
        }
    }

    fn offer(&mut self, scenario: &Scenario, study: &TechStudy) -> Result<(), String> {
        let seen = self.seen.entry(scenario.tech()).or_insert(0);
        *seen += 1;
        if self.rng.below(*seen as usize) == 0 {
            let json = serde_json::to_string(study).map_err(|e| e.to_string())?;
            self.kept.insert(scenario.tech(), (scenario.clone(), json));
        }
        Ok(())
    }

    /// Scenarios whose store-backed bytes differ from the store-less
    /// reference.
    fn mismatches(self) -> Result<(u64, usize), String> {
        let (scenarios, expected): (Vec<Scenario>, Vec<String>) = self.kept.into_values().unzip();
        let reference = batch::run(&scenarios).map_err(|e| e.to_string())?;
        let mut bad = 0;
        for ((scenario, want), got) in scenarios.iter().zip(&expected).zip(reference) {
            let got = got.map_err(|e| e.to_string())?;
            if serde_json::to_string(&got).map_err(|e| e.to_string())? != *want {
                eprintln!(
                    "perfbench: {} differs from its store-less run",
                    scenario.name()
                );
                bad += 1;
            }
        }
        Ok((bad, scenarios.len()))
    }
}

/// One timed batch: outcomes, rendered body, run and render seconds.
fn run_batch(
    store: &Arc<ArtifactStore>,
    scenarios: &[Scenario],
    tracer: &Tracer,
    op: u64,
) -> Result<(Outcomes, f64, f64), String> {
    let (outcomes, run_ms) = tracer.span("batch.run_with_store", "sweep", op, None, |_| {
        batch::run_with_store(scenarios, Some(Arc::clone(store)))
    });
    let outcomes = outcomes.map_err(|e| e.to_string())?;
    let (body, render_ms) = tracer.span("batch.sweep_json", "sweep", op, None, |_| {
        batch::sweep_json(scenarios, &outcomes)
    });
    std::hint::black_box(body.map_err(|e| e.to_string())?);
    Ok((outcomes, run_ms / 1000.0, render_ms / 1000.0))
}

/// Totals of one measured pass.
#[derive(Debug, Default)]
struct Pass {
    /// Seconds per scenario, one sample per batch (batch wall ÷ size).
    per_scenario_s: Vec<f64>,
    busy_s: f64,
    render_s: f64,
    scenarios: u64,
    cpu_s: f64,
    switches: u64,
    /// `VmHWM` once the pass reached its `rss_at` scenarios.
    hwm_kb: Option<u64>,
}

fn pass(
    store: &Arc<ArtifactStore>,
    gen: &mut SweepGen,
    sample: &mut Sample,
    report: &mut Report,
    tracer: &Tracer,
    seconds: Duration,
    rss_at: Option<u64>,
) -> Result<Pass, String> {
    let mut out = Pass::default();
    let start = Instant::now();
    let before = procfs::sample()?;
    let mut op = 0;
    let at_least = rss_at.unwrap_or(1);
    while out.scenarios < at_least || start.elapsed() < seconds {
        let scenarios = gen.next_batch();
        let (outcomes, run_s, render_s) = run_batch(store, &scenarios, tracer, op)?;
        op += 1;
        let wall = run_s + render_s;
        out.per_scenario_s.push(wall / scenarios.len() as f64);
        out.busy_s += wall;
        out.render_s += render_s;
        out.scenarios += scenarios.len() as u64;
        for (scenario, outcome) in scenarios.iter().zip(&outcomes) {
            report.attempted += 1;
            match outcome {
                Ok(study) => sample.offer(scenario, study)?,
                Err(e) => {
                    eprintln!("perfbench: {} failed: {e}", scenario.name());
                    report.failed += 1;
                }
            }
        }
        if out.hwm_kb.is_none() && rss_at.is_some_and(|n| out.scenarios >= n) {
            out.hwm_kb = Some(procfs::sample()?.hwm_kb);
        }
    }
    let (cpu, switches) = procfs::delta(&before, &procfs::sample()?);
    out.cpu_s = cpu.as_secs_f64();
    out.switches = switches;
    Ok(out)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let (store, setup_s) = repeat_setup(setup, |_| Ok(()))?;
    let mut gen = SweepGen::new(cfg.seed);
    let mut sample = Sample::new(cfg.seed);
    if cfg.trace {
        traced(cfg, &store, &mut gen, &mut sample, &mut report)?;
    } else {
        report.metric("setup_s", setup_s);
        let off = Tracer::new(false);
        let p = pass(
            &store,
            &mut gen,
            &mut sample,
            &mut report,
            &off,
            cfg.seconds,
            Some(RSS_AT_SCENARIOS),
        )?;
        let n = p.scenarios as f64;
        report.metric("ops_per_s", n / p.busy_s);
        report.latencies(&p.per_scenario_s);
        report.metric("cpu_ms_per_op", 1000.0 * p.cpu_s / n);
        let hwm_kb = p.hwm_kb.ok_or("the pass ended before reading VmHWM")?;
        report.metric("peak_rss_mb", hwm_kb as f64 / 1024.0);
        report.note("batch_size", SWEEP_BATCH);
        report.note("peak_rss_at_scenarios", RSS_AT_SCENARIOS);
    }
    let (bad, checked) = sample.mismatches()?;
    report.failed += bad;
    report.note("store_less_checked", checked);
    Ok(report)
}

/// Half the run untraced, half traced with the program's counters on;
/// then a sample of scenarios called layer by layer.
fn traced(
    cfg: &Config,
    store: &Arc<ArtifactStore>,
    gen: &mut SweepGen,
    sample: &mut Sample,
    report: &mut Report,
) -> Result<(), String> {
    let half = cfg.seconds / 2;
    let plain = pass(store, gen, sample, report, &Tracer::new(false), half, None)?;
    techlib::obs::enable();
    let tracer = Tracer::new(true);
    let before = Counters::now();
    let traced = pass(store, gen, sample, report, &tracer, half, None)?;
    let counters = Counters::now().since(&before);
    let per = |p: &Pass| p.busy_s / p.scenarios as f64;
    report.metric("trace.overhead_ratio", per(&traced) / per(&plain) - 1.0);
    report.metric(
        "par.cpu_util",
        plain.cpu_s / (plain.busy_s * cfg.width as f64),
    );
    report.metric(
        "par.ctx_switches",
        plain.switches as f64 / plain.scenarios as f64,
    );
    report.metric(
        "batch.render_ms",
        1000.0 * traced.render_s / traced.scenarios as f64,
    );
    layers::record_counters(report, &counters);
    layer_by_layer(&tracer, store, gen, report)?;
    layers::fill_unmeasured(report);
    report.spans = tracer.spans();
    Ok(())
}

/// Calls one batch's scenarios through the `StudyContext` entry points
/// one at a time, the way `batch::run_with_store` composes them, to
/// split a scenario's time by layer.
fn layer_by_layer(
    tracer: &Tracer,
    store: &Arc<ArtifactStore>,
    gen: &mut SweepGen,
    report: &mut Report,
) -> Result<(), String> {
    let err = |e: FlowError| e.to_string();
    let frontend = Arc::new(FrontEnd::with_store(Some(Arc::clone(store))));
    let (front, front_ms) = tracer.span("netlist.front", "sweep", 0, None, |_| {
        frontend.chiplet_netlists().map(drop)
    });
    front.map_err(err)?;
    report.metric("netlist.front_ms", front_ms);
    // Whole batches until every sweep technology has appeared, so each
    // one's lookups are measured.
    let mut scenarios = gen.next_batch();
    while !SWEEP_TECHS
        .iter()
        .all(|t| scenarios.iter().any(|s| s.tech() == *t))
    {
        scenarios.extend(gen.next_batch());
    }
    let mut sums: HashMap<&str, (f64, u64)> = HashMap::new();
    let mut add = |key: &'static str, ms: f64| {
        let e = sums.entry(key).or_insert((0.0, 0));
        e.0 += ms;
        e.1 += 1;
    };
    let mut layout_ms: HashMap<InterposerKind, Vec<f64>> = HashMap::new();
    let mut thermal_ms: HashMap<InterposerKind, Vec<f64>> = HashMap::new();
    let mut critical: f64 = 0.0;
    for (i, scenario) in scenarios.iter().enumerate() {
        let op = 1000 + i as u64;
        let tech = scenario.tech();
        let tag = slug(tech);
        let (chain, chain_ms) = tracer.span("scenario", tag, op, None, |id| {
            let (ctx, build) = tracer.span("context.build", tag, op, id, |_| {
                StudyContext::for_scenario_with(
                    scenario,
                    Arc::clone(&frontend),
                    Some(Arc::clone(store)),
                )
            });
            add("build", build);
            let (r, ms) = tracer.span("context.chiplet_reports", tag, op, id, |_| {
                ctx.chiplet_reports(tech).map(drop)
            });
            r.map_err(err)?;
            add("reports", ms);
            add("lookup", ms);
            if InterposerKind::INTERPOSER_BASED.contains(&tech) {
                let (r, ms) = tracer.span("context.layout", tag, op, id, |_| {
                    ctx.layout(tech).map(drop)
                });
                r.map_err(err)?;
                add("lookup", ms);
                layout_ms.entry(tech).or_default().push(ms);
            }
            let (r, ms) = tracer.span("context.thermal_report", tag, op, id, |_| {
                ctx.thermal_report(tech).map(drop)
            });
            r.map_err(err)?;
            add("lookup", ms);
            thermal_ms.entry(tech).or_default().push(ms);
            let (r, ms) = tracer.span("context.links_row", tag, op, id, |_| {
                ctx.links_row(tech, scenario.mode()).map(drop)
            });
            r.map_err(err)?;
            add("links", ms);
            let (study, _) = tracer.span("flow.run_tech_in", tag, op, id, |_| {
                flow::run_tech_in(&ctx, tech, scenario.mode())
            });
            let outcome = [study];
            let (body, ms) = tracer.span("batch.sweep_json", tag, op, id, |_| {
                batch::sweep_json(std::slice::from_ref(scenario), &outcome)
            });
            std::hint::black_box(body.map_err(err)?);
            add("render", ms);
            let [study] = outcome;
            study.map(drop).map_err(err)
        });
        chain?;
        critical = critical.max(chain_ms);
    }
    let mean = |key: &str| {
        sums.get(key)
            .map_or(0.0, |&(s, n)| stats::ratio(s, n as f64))
    };
    let total = |key: &str| sums.get(key).map_or(0.0, |&(s, _)| s);
    report.metric("context.build_ms", mean("build"));
    report.metric("store.lookup_ms", mean("lookup"));
    report.metric("chiplet.reports_ms", total("reports"));
    report.metric("si.links_ms", total("links"));
    report.metric("si.links_ms_per_scenario", mean("links"));
    report.metric("flow.critical_path_ms", critical);
    for tech in SWEEP_TECHS {
        let med =
            |m: &HashMap<InterposerKind, Vec<f64>>| m.get(&tech).and_then(|v| stats::median(v));
        if let Some(ms) = med(&layout_ms) {
            report.metric(format!("interposer.layout_ms.{}", slug(tech)), ms);
        }
        if let Some(ms) = med(&thermal_ms) {
            report.metric(format!("thermal.report_ms.{}", slug(tech)), ms);
        }
    }
    report.note("layer_by_layer_scenarios", scenarios.len());
    Ok(())
}
