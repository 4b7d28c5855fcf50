//! Per-technology thermal reports (Figs. 16–18).

use crate::model::ThermalModel;
use crate::solver::{solve, SolveConfig, TemperatureField};
use crate::ThermalError;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use techlib::memo::ArcMemo;
use techlib::spec::{InterposerKind, InterposerSpec};
use techlib::store::{ArtifactStore, Codec, SpecField, StoreKey};

/// Peak chiplet and interposer temperatures for one assembly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThermalReport {
    /// Technology.
    pub tech: InterposerKind,
    /// Hottest logic-chiplet temperature, °C.
    pub logic_peak_c: f64,
    /// Hottest memory-chiplet temperature, °C.
    pub mem_peak_c: f64,
    /// Hotspot of the whole assembly, °C.
    pub assembly_peak_c: f64,
    /// Per-die peaks (label, °C).
    pub per_die_c: Vec<(String, f64)>,
}

impl ThermalReport {
    /// Builds the report from a solved field.
    pub fn from_field(model: &ThermalModel, field: &TemperatureField) -> ThermalReport {
        let mut per_die = Vec::new();
        let mut logic_peak = f64::NEG_INFINITY;
        let mut mem_peak = f64::NEG_INFINITY;
        for die in &model.dies {
            let t = field.peak_in(die.z_layer, die.x_range, die.y_range);
            if die.is_logic {
                logic_peak = logic_peak.max(t);
            } else {
                mem_peak = mem_peak.max(t);
            }
            per_die.push((die.label.clone(), t));
        }
        ThermalReport {
            tech: model.tech,
            logic_peak_c: logic_peak,
            mem_peak_c: mem_peak,
            assembly_peak_c: field.peak(),
            per_die_c: per_die,
        }
    }
}

/// Algorithm version of the thermal stage (model build + SOR solve).
/// Bump whenever the mesh, boundary conditions, solver tolerances, or
/// the serialized shape of [`ThermalReport`] changes.
pub const THERMAL_STAGE_VERSION: u32 = 1;

/// The spec fields the thermal stage actually consumes. The model is
/// built from the stacking style and the technology's fixed geometry
/// (`ThermalModel::for_spec` reads nothing else), so every electrical
/// override — loss tangent, wire rules, dielectric constant — shares
/// one solve.
pub const THERMAL_PROJECTION: &[SpecField] = &[SpecField::Kind, SpecField::Stacking];

/// The thermal stage's store key for `spec`.
pub fn thermal_store_key(spec: &InterposerSpec) -> StoreKey {
    techlib::store::projection_key(
        "thermal",
        THERMAL_STAGE_VERSION,
        spec,
        THERMAL_PROJECTION,
        &[],
    )
}

/// JSON codec for persisted thermal reports.
fn thermal_codec() -> Codec<ThermalReport> {
    Codec {
        encode: |report| serde_json::to_string(report).ok(),
        decode: |text| serde_json::from_str_typed(text).ok(),
    }
}

/// A per-scenario thermal-report cache: one memo cell per technology
/// (the field is deterministic, and one solve runs 690–1,360 SOR
/// sweeps, 17–160 ms on a 2-vCPU host). Only
/// **successes** are memoised — an error (including one injected at the
/// `thermal.solve` fault site) is returned to the caller and the next
/// call re-solves, so failures never poison the cache.
#[derive(Debug, Default)]
pub struct ThermalCache {
    cells: [ArcMemo<ThermalReport>; InterposerKind::COUNT],
    computes: AtomicUsize,
}

impl ThermalCache {
    /// Creates an empty cache.
    pub const fn new() -> ThermalCache {
        ThermalCache {
            cells: [const { ArcMemo::new() }; InterposerKind::COUNT],
            computes: AtomicUsize::new(0),
        }
    }

    /// The cached report for `spec` (keyed by `spec.kind`), solving on
    /// first use.
    ///
    /// # Errors
    ///
    /// Same as [`ThermalModel::for_spec`] and [`solve`], plus the
    /// `thermal.solve` fault site (checked before the cache so an armed
    /// fault always fires).
    pub fn analyze(&self, spec: &InterposerSpec) -> Result<Arc<ThermalReport>, ThermalError> {
        self.analyze_via(spec, None)
    }

    /// [`analyze`](ThermalCache::analyze) with an optional shared
    /// artifact store behind this cache's own cell, keyed by
    /// [`thermal_store_key`]. The `thermal.solve` fault site stays ahead
    /// of *both* tiers, so an armed fault fires without ever touching
    /// shared state — fault-armed scenarios are additionally given no
    /// store at all by the batch layer.
    ///
    /// # Errors
    ///
    /// Same as [`analyze`](ThermalCache::analyze); errors reach neither
    /// the cache nor the store.
    pub fn analyze_via(
        &self,
        spec: &InterposerSpec,
        store: Option<&ArtifactStore>,
    ) -> Result<Arc<ThermalReport>, ThermalError> {
        if techlib::faults::armed("thermal.solve") {
            return Err(ThermalError::NoConvergence {
                iterations: 0,
                residual_k: f64::INFINITY,
                tolerance_k: SolveConfig::default().tolerance_k,
            });
        }
        let cell = &self.cells[spec.kind.index()];
        let compute = || {
            self.computes.fetch_add(1, Ordering::Relaxed);
            let model = ThermalModel::for_spec(spec)?;
            let field = solve(&model, &SolveConfig::default())?;
            Ok(ThermalReport::from_field(&model, &field))
        };
        match store {
            Some(store) => cell.get_or_try_arc(|| {
                store
                    .get_or_compute(thermal_store_key(spec), &thermal_codec(), compute)
                    .map(|(report, _)| report)
            }),
            None => cell.get_or_try_arc(|| compute().map(Arc::new)),
        }
    }

    /// How many thermal solves this cache has actually run (cache hits
    /// — local or store — don't count; failed computes do).
    pub fn compute_count(&self) -> usize {
        self.computes.load(Ordering::Relaxed)
    }

    /// Forgets every cached report so the next call re-solves.
    /// Outstanding [`Arc`] handles stay valid on their own.
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.reset();
        }
    }
}

/// The process-wide cache behind [`analyze_tech`], serving the **paper
/// default** specs. The default study context clones this handle, so the
/// legacy path and the default-scenario path share one set of solves.
pub fn default_thermal_cache() -> Arc<ThermalCache> {
    static DEFAULT: OnceLock<Arc<ThermalCache>> = OnceLock::new();
    Arc::clone(DEFAULT.get_or_init(|| Arc::new(ThermalCache::new())))
}

/// Solves and reports one technology through the shared default cache.
/// Shim over [`default_thermal_cache`] — scenario code uses a
/// per-scenario [`ThermalCache`] instead.
///
/// # Errors
///
/// Same as [`ThermalCache::analyze`].
pub fn analyze_tech(tech: InterposerKind) -> Result<ThermalReport, ThermalError> {
    default_thermal_cache()
        .analyze(&InterposerSpec::for_kind(tech))
        .map(|r| (*r).clone())
}

/// Forgets every report in the **default** cache so the next
/// [`analyze_tech`] call re-solves. Test-only escape hatch.
pub fn reset_report_cache_for_tests() {
    default_thermal_cache().reset();
}

/// The full Fig. 17 family (all six packaged assemblies).
///
/// # Errors
///
/// Returns the first [`ThermalError`] encountered, in Fig. 17 order.
pub fn figure17() -> Result<Vec<ThermalReport>, ThermalError> {
    [
        InterposerKind::Glass25D,
        InterposerKind::Glass3D,
        InterposerKind::Silicon25D,
        InterposerKind::Silicon3D,
        InterposerKind::Shinko,
        InterposerKind::Apx,
    ]
    .iter()
    .map(|&t| analyze_tech(t))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AMBIENT_C;

    #[test]
    fn glass3d_memory_is_the_hottest_chiplet_of_the_study() {
        // Fig. 17: embedded memory at 34 °C versus 22–23 °C elsewhere.
        let g3 = analyze_tech(InterposerKind::Glass3D).unwrap();
        for other in [
            InterposerKind::Glass25D,
            InterposerKind::Silicon25D,
            InterposerKind::Shinko,
            InterposerKind::Apx,
        ] {
            let r = analyze_tech(other).unwrap();
            assert!(
                g3.mem_peak_c > r.mem_peak_c,
                "{other}: {} vs {}",
                g3.mem_peak_c,
                r.mem_peak_c
            );
        }
    }

    #[test]
    fn glass3d_temperatures_match_fig17_scale() {
        let g3 = analyze_tech(InterposerKind::Glass3D).unwrap();
        // Paper: memory 34 °C, logic 27 °C at 20 °C-class ambient.
        assert!(
            (28.0..42.0).contains(&g3.mem_peak_c),
            "mem = {}",
            g3.mem_peak_c
        );
        assert!(
            (23.0..33.0).contains(&g3.logic_peak_c),
            "logic = {}",
            g3.logic_peak_c
        );
        assert!(g3.mem_peak_c > g3.logic_peak_c + 2.0);
    }

    #[test]
    fn logic_chiplets_sit_in_the_27_to_29_band() {
        for tech in [
            InterposerKind::Glass25D,
            InterposerKind::Silicon25D,
            InterposerKind::Shinko,
            InterposerKind::Apx,
        ] {
            let r = analyze_tech(tech).unwrap();
            assert!(
                (23.0..33.0).contains(&r.logic_peak_c),
                "{tech}: logic = {}",
                r.logic_peak_c
            );
            assert!(r.logic_peak_c > r.mem_peak_c, "{tech}");
        }
    }

    #[test]
    fn non_glass3d_memory_stays_cool() {
        // Fig. 17: 22–23 °C for side-by-side memory chiplets.
        for tech in [InterposerKind::Silicon25D, InterposerKind::Shinko] {
            let r = analyze_tech(tech).unwrap();
            assert!(
                (AMBIENT_C + 1.0..AMBIENT_C + 7.0).contains(&r.mem_peak_c),
                "{tech}: mem = {}",
                r.mem_peak_c
            );
        }
    }

    #[test]
    fn si3d_stack_runs_hotter_than_si25d() {
        // The conclusion's trade-off: Silicon 3D "suffers from higher
        // thermal dissipation".
        let s3 = analyze_tech(InterposerKind::Silicon3D).unwrap();
        let s25 = analyze_tech(InterposerKind::Silicon25D).unwrap();
        assert!(s3.assembly_peak_c > s25.assembly_peak_c);
    }

    #[test]
    fn silicon_interposer_spreads_heat_best_among_25d() {
        // Fig. 18: silicon's hotspots merge and flatten; glass traps heat
        // under the chiplets.
        let si = analyze_tech(InterposerKind::Silicon25D).unwrap();
        let gl = analyze_tech(InterposerKind::Glass25D).unwrap();
        assert!(si.assembly_peak_c < gl.assembly_peak_c);
    }
}

#[cfg(test)]
mod diag {
    use super::*;
    #[test]
    fn print_all_temps() {
        for r in figure17().unwrap() {
            eprintln!(
                "{:<14} logic {:>6.2} mem {:>6.2} assembly {:>6.2}",
                r.tech.label(),
                r.logic_peak_c,
                r.mem_peak_c,
                r.assembly_peak_c
            );
        }
    }
}
