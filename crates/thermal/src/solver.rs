//! Finite-volume steady-state conduction solver.
//!
//! Classic 7-point stencil with harmonic-mean inter-cell conductances,
//! convection boundaries, and successive over-relaxation. Cell sizes are
//! uniform in x/y and non-uniform in z.
//!
//! Sweeps use **red-black ordering**: cells are two-coloured by
//! `(x + y + z) % 2`, and each half-sweep updates one colour. Under the
//! 7-point stencil every neighbour of a cell has the opposite colour, so
//! the updates within a half-sweep are independent and their order does
//! not change a bit. Every conductance is computed once per solve; the
//! sweeps then run inline on one flat field padded by a layer of ambient
//! ghost cells, which stand in for the convection boundaries. Grids are
//! small (1.8k–17k cells), so parallelism lives a level up, across
//! technologies and scenarios.

use crate::model::{ThermalModel, CELL_XY_M};
use crate::{ThermalError, AMBIENT_C};

/// Fixed lateral "board spreading" conductance distributed over the
/// bottom face, W/K — models heat escaping into the motherboard beyond
/// the package shadow (so small packages are not starved of cooling).
///
/// Provenance: calibrated once so the Glass 3D logic die lands in the
/// paper's 27 °C band while the embedded memory die stays trapped.
pub const BOARD_SPREAD_W_PER_K: f64 = 0.005;

/// Side-wall convection coefficient, W/(m²·K).
pub const H_SIDE_W_M2K: f64 = 10.0;

/// Convection/spreading boundary coefficients.
#[derive(Debug, Clone, Copy)]
pub struct Boundaries {
    /// Top-side convection over non-die area, W/(m²·K).
    pub h_top: f64,
    /// Effective coefficient over exposed die backs, W/(m²·K) — the
    /// enclosure/case path the paper's IcePak model provides. Calibrated
    /// once so 2.5D logic chiplets land in the 27–29 °C band of Fig. 17.
    pub h_top_die: f64,
    /// Bottom-side effective coefficient (ball field + board), W/(m²·K).
    pub h_bottom: f64,
    /// Side-wall convection, W/(m²·K).
    pub h_side: f64,
    /// Fixed board-spreading conductance over the bottom face, W/K.
    pub board_spread_w_per_k: f64,
}

impl Default for Boundaries {
    fn default() -> Self {
        Boundaries {
            h_top: crate::H_TOP_W_M2K,
            h_top_die: crate::H_TOP_DIE_W_M2K,
            h_bottom: crate::H_BOTTOM_W_M2K,
            h_side: H_SIDE_W_M2K,
            board_spread_w_per_k: BOARD_SPREAD_W_PER_K,
        }
    }
}

impl Boundaries {
    /// Boundaries for a given top-side air speed, m/s, using the flat-
    /// plate forced-convection estimate h ≈ 5 + 30·√v (the paper's study
    /// point is 0.1 m/s).
    pub fn with_airspeed(v_m_s: f64) -> Boundaries {
        let scale = (v_m_s.max(1e-3) / 0.1).sqrt();
        Boundaries {
            h_top: 5.0 + 30.0 * v_m_s.max(0.0).sqrt(),
            h_top_die: crate::H_TOP_DIE_W_M2K * scale,
            ..Boundaries::default()
        }
    }
}

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolveConfig {
    /// Over-relaxation factor (1.0 = Gauss-Seidel).
    pub omega: f64,
    /// Convergence threshold on the max per-sweep update, K.
    pub tolerance_k: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            omega: 1.85,
            tolerance_k: 1e-5,
            max_iters: 20_000,
        }
    }
}

/// The temperature field, °C, indexed `[z][y*nx+x]`.
#[derive(Debug, Clone)]
pub struct TemperatureField {
    /// Grid x size.
    pub nx: usize,
    /// Grid y size.
    pub ny: usize,
    /// Per-layer temperature maps.
    pub layers: Vec<Vec<f64>>,
    /// Iterations used.
    pub iterations: usize,
}

impl TemperatureField {
    /// Peak temperature in a region of one layer, °C.
    pub fn peak_in(&self, z: usize, x: (usize, usize), y: (usize, usize)) -> f64 {
        let mut peak = f64::NEG_INFINITY;
        for yy in y.0..y.1 {
            for xx in x.0..x.1 {
                peak = peak.max(self.layers[z][yy * self.nx + xx]);
            }
        }
        peak
    }

    /// Global peak, °C.
    pub fn peak(&self) -> f64 {
        self.layers
            .iter()
            .flatten()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Solves the steady-state field of `model` with default boundaries.
///
/// # Errors
///
/// Returns [`ThermalError::NoConvergence`] if the SOR sweep hits
/// `config.max_iters` before the max per-sweep update drops below
/// `config.tolerance_k`.
pub fn solve(model: &ThermalModel, config: &SolveConfig) -> Result<TemperatureField, ThermalError> {
    solve_with_boundaries(model, config, &Boundaries::default())
}

/// Solves with explicit boundary coefficients (airflow studies).
///
/// # Errors
///
/// Same as [`solve`], plus the `thermal.sor` fault site (which reports a
/// zero-iteration non-convergence without sweeping).
pub fn solve_with_boundaries(
    model: &ThermalModel,
    config: &SolveConfig,
    bounds: &Boundaries,
) -> Result<TemperatureField, ThermalError> {
    if techlib::faults::armed("thermal.sor") {
        return Err(ThermalError::NoConvergence {
            iterations: 0,
            residual_k: f64::INFINITY,
            tolerance_k: config.tolerance_k,
        });
    }
    let (field, residual_k) = sor_sweeps(model, config, bounds);
    if residual_k < config.tolerance_k {
        Ok(field)
    } else {
        Err(ThermalError::NoConvergence {
            iterations: field.iterations,
            residual_k,
            tolerance_k: config.tolerance_k,
        })
    }
}

/// Runs the SOR sweeps and returns whatever field the iteration cap
/// allows, converged or not — the escape hatch for tests and benchmarks
/// that deliberately under-iterate. Prefer [`solve_with_boundaries`],
/// which turns a non-converged field into a typed error.
pub fn solve_capped(
    model: &ThermalModel,
    config: &SolveConfig,
    bounds: &Boundaries,
) -> TemperatureField {
    sor_sweeps(model, config, bounds).0
}

/// Red-black SOR core: returns the field plus the max per-sweep update
/// of the last iteration (`INFINITY` when `max_iters == 0`).
///
/// The field is padded by one ghost cell on every face, held at
/// [`AMBIENT_C`]. `gx[n]`, `gy[n]` and `gz[n]` are the conductances from
/// cell `n` to its x+1, y+1 and z+1 neighbour; a link into a ghost cell
/// carries the boundary term, so `g * t[ghost]` is exactly the
/// `g * AMBIENT_C` of the boundary. Conductances, `g_sum` (summed x+1,
/// x−1, y+1, y−1, z+1, z−1) and the sweep's `flux` accumulation keep
/// the expressions and addition order of the per-cell stencil, so the
/// field is bit-identical to recomputing them every sweep.
fn sor_sweeps(
    model: &ThermalModel,
    config: &SolveConfig,
    bounds: &Boundaries,
) -> (TemperatureField, f64) {
    let (nx, ny, nz) = (model.nx, model.ny, model.nz());
    let a_xy = CELL_XY_M * CELL_XY_M;
    let bottom = bounds.h_bottom * a_xy + bounds.board_spread_w_per_k / (nx * ny) as f64;
    let (sy, sz) = (nx + 2, (nx + 2) * (ny + 2));
    let len = sz * (nz + 2);
    let at = |x: usize, y: usize, z: usize| (z + 1) * sz + (y + 1) * sy + x + 1;

    let (mut gx, mut gy, mut gz) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
    let (mut g_sum, mut power) = (vec![0.0; len], vec![0.0; len]);
    for z in 0..nz {
        let (k, dz) = (&model.k_xy[z], model.dz_m[z]);
        // Lateral harmonic mean over dx; side-wall convection at walls.
        let area = dz * CELL_XY_M;
        let lateral =
            |i: usize, j: usize| area / (CELL_XY_M / (2.0 * k[i]) + CELL_XY_M / (2.0 * k[j]));
        let side = bounds.h_side * dz * CELL_XY_M;
        for y in 0..ny {
            for x in 0..nx {
                let (i, n) = (y * nx + x, at(x, y, z));
                if x == 0 {
                    gx[n - 1] = side;
                }
                if y == 0 {
                    gy[n - sy] = side;
                }
                if z == 0 {
                    gz[n - sz] = bottom;
                }
                gx[n] = if x + 1 < nx { lateral(i, i + 1) } else { side };
                gy[n] = if y + 1 < ny { lateral(i, i + nx) } else { side };
                gz[n] = if z + 1 < nz {
                    let (k1, k2) = (model.k_z[z][i], model.k_z[z + 1][i]);
                    a_xy / (dz / (2.0 * k1) + model.dz_m[z + 1] / (2.0 * k2))
                } else if model.top_die_mask[i] {
                    bounds.h_top_die * a_xy
                } else {
                    bounds.h_top * a_xy
                };
                // The x−1, y−1 and z−1 links were set at earlier cells.
                g_sum[n] = 0.0 + gx[n] + gx[n - 1] + gy[n] + gy[n - sy] + gz[n] + gz[n - sz];
                power[n] = model.power[z][i];
            }
        }
    }

    let mut t = vec![AMBIENT_C; len];
    let mut iterations = 0;
    let mut last_delta = f64::INFINITY;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let mut max_delta: f64 = 0.0;
        for color in 0..2 {
            for z in 0..nz {
                for y in 0..ny {
                    let row = at(0, y, z);
                    for n in (row + (color + y + z) % 2..row + nx).step_by(2) {
                        let mut flux = power[n];
                        flux += gx[n] * t[n + 1];
                        flux += gx[n - 1] * t[n - 1];
                        flux += gy[n] * t[n + sy];
                        flux += gy[n - sy] * t[n - sy];
                        flux += gz[n] * t[n + sz];
                        flux += gz[n - sz] * t[n - sz];
                        let t_old = t[n];
                        let t_relaxed = t_old + config.omega * (flux / g_sum[n] - t_old);
                        max_delta = max_delta.max((t_relaxed - t_old).abs());
                        t[n] = t_relaxed;
                    }
                }
            }
        }
        last_delta = max_delta;
        if max_delta < config.tolerance_k {
            break;
        }
    }

    techlib::obs::add(techlib::obs::THERMAL_SOR_SWEEPS, iterations as u64);
    let layers = (0..nz)
        .map(|z| {
            (0..ny)
                .flat_map(|y| t[at(0, y, z)..at(0, y, z) + nx].iter().copied())
                .collect()
        })
        .collect();
    (
        TemperatureField {
            nx,
            ny,
            layers,
            iterations,
        },
        last_delta,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use techlib::spec::InterposerKind;

    #[test]
    fn temperatures_exceed_ambient_everywhere_heat_flows() {
        let model = ThermalModel::for_tech(InterposerKind::Silicon25D).unwrap();
        let field = solve(&model, &SolveConfig::default()).unwrap();
        for layer in &field.layers {
            for &t in layer {
                assert!(t >= AMBIENT_C - 1e-6);
            }
        }
        assert!(field.peak() > AMBIENT_C + 1.0);
    }

    #[test]
    fn zero_power_gives_ambient() {
        let mut model = ThermalModel::for_tech(InterposerKind::Silicon25D).unwrap();
        for p in &mut model.power {
            p.iter_mut().for_each(|x| *x = 0.0);
        }
        let field = solve(&model, &SolveConfig::default()).unwrap();
        assert!((field.peak() - AMBIENT_C).abs() < 1e-6);
    }

    #[test]
    fn doubling_power_roughly_doubles_rise() {
        let model = ThermalModel::for_tech(InterposerKind::Glass25D).unwrap();
        let base = solve(&model, &SolveConfig::default()).unwrap().peak() - AMBIENT_C;
        let mut doubled = model.clone();
        for p in &mut doubled.power {
            p.iter_mut().for_each(|x| *x *= 2.0);
        }
        let twice = solve(&doubled, &SolveConfig::default()).unwrap().peak() - AMBIENT_C;
        assert!((twice / base - 2.0).abs() < 1e-3, "{twice} vs {base}");
    }

    #[test]
    fn hotspot_sits_on_a_die() {
        let model = ThermalModel::for_tech(InterposerKind::Shinko).unwrap();
        let field = solve(&model, &SolveConfig::default()).unwrap();
        let global = field.peak();
        let on_dies = model
            .dies
            .iter()
            .map(|d| field.peak_in(d.z_layer, d.x_range, d.y_range))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((global - on_dies).abs() < 1e-9);
    }

    #[test]
    fn more_airflow_cools_the_assembly() {
        let model = ThermalModel::for_tech(InterposerKind::Glass3D).unwrap();
        let still = solve_with_boundaries(
            &model,
            &SolveConfig::default(),
            &Boundaries::with_airspeed(0.1),
        )
        .unwrap()
        .peak();
        let breezy = solve_with_boundaries(
            &model,
            &SolveConfig::default(),
            &Boundaries::with_airspeed(5.0),
        )
        .unwrap()
        .peak();
        assert!(breezy < still, "{breezy} vs {still}");
    }

    #[test]
    fn one_dimensional_slab_matches_hand_calculation() {
        // Analytic validation: a single-column stack with adiabatic sides
        // and top, power P injected at the top layer, cooled only through
        // the bottom boundary. The exact rise is
        // P · (Σ dz/(k·A) with half-cells at the ends + 1/(h_eff·A)).
        use crate::model::{DieRegion, ThermalModel, CELL_XY_M};
        let nx = 1;
        let ny = 1;
        let k = 10.0;
        let dz = 100e-6;
        let p_w = 0.01;
        let layers = 4;
        let model = ThermalModel {
            tech: techlib::spec::InterposerKind::Silicon25D,
            nx,
            ny,
            dz_m: vec![dz; layers],
            k_xy: vec![vec![k]; layers],
            k_z: vec![vec![k]; layers],
            power: {
                let mut p = vec![vec![0.0]; layers];
                p[layers - 1][0] = p_w;
                p
            },
            dies: vec![DieRegion {
                label: "slab".into(),
                is_logic: true,
                z_layer: layers - 1,
                x_range: (0, 1),
                y_range: (0, 1),
            }],
            top_die_mask: vec![false],
        };
        let bounds = Boundaries {
            h_top: 0.0,
            h_top_die: 0.0,
            h_side: 0.0,
            h_bottom: 1_000.0,
            board_spread_w_per_k: 0.0,
        };
        let field = solve_with_boundaries(&model, &SolveConfig::default(), &bounds).unwrap();
        let a = CELL_XY_M * CELL_XY_M;
        // Centre-to-centre conduction: (layers-1) full cells, plus half a
        // cell from the bottom centre to the boundary face.
        let r_cond = ((layers - 1) as f64 * dz + dz / 2.0) / (k * a);
        let r_conv = 1.0 / (1_000.0 * a);
        let expect = AMBIENT_C + p_w * (r_cond + r_conv);
        let got = field.layers[layers - 1][0];
        assert!(
            (got - expect).abs() / (expect - AMBIENT_C) < 0.01,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn solver_converges_within_budget() {
        let model = ThermalModel::for_tech(InterposerKind::Glass3D).unwrap();
        let field = solve(&model, &SolveConfig::default()).unwrap();
        assert!(field.iterations < SolveConfig::default().max_iters);
    }

    /// The per-cell stencil the solver started from: every conductance is
    /// recomputed as a harmonic mean on every sweep, boundaries are
    /// branches, and both half-sweeps walk the grid in row order. The
    /// production kernel must reproduce it bit for bit.
    fn reference_sweeps(
        model: &ThermalModel,
        config: &SolveConfig,
        bounds: &Boundaries,
    ) -> TemperatureField {
        let (nx, ny, nz) = (model.nx, model.ny, model.nz());
        let a_xy = CELL_XY_M * CELL_XY_M;
        let n_bottom = (nx * ny) as f64;
        let g_lat = |z: usize, i: usize, j: usize| -> f64 {
            let k1 = model.k_xy[z][i];
            let k2 = model.k_xy[z][j];
            let area = model.dz_m[z] * CELL_XY_M;
            area / (CELL_XY_M / (2.0 * k1) + CELL_XY_M / (2.0 * k2))
        };
        let g_vert = |z: usize, i: usize| -> f64 {
            let k1 = model.k_z[z][i];
            let k2 = model.k_z[z + 1][i];
            a_xy / (model.dz_m[z] / (2.0 * k1) + model.dz_m[z + 1] / (2.0 * k2))
        };
        let side = |z: usize| bounds.h_side * model.dz_m[z] * CELL_XY_M;

        let cells = nx * ny;
        let mut field = vec![AMBIENT_C; nz * cells];
        let mut iterations = 0;
        for iter in 0..config.max_iters {
            iterations = iter + 1;
            let mut max_delta: f64 = 0.0;
            for color in 0..2usize {
                for z in 0..nz {
                    let zoff = z * cells;
                    for y in 0..ny {
                        let mut x = (color + y + z) % 2;
                        while x < nx {
                            let i = y * nx + x;
                            let mut g_sum = 0.0;
                            let mut flux = model.power[z][i];
                            let mut add = |g: f64, t: f64| {
                                g_sum += g;
                                flux += g * t;
                            };
                            if x + 1 < nx {
                                add(g_lat(z, i, i + 1), field[zoff + i + 1]);
                            } else {
                                add(side(z), AMBIENT_C);
                            }
                            if x > 0 {
                                add(g_lat(z, i - 1, i), field[zoff + i - 1]);
                            } else {
                                add(side(z), AMBIENT_C);
                            }
                            if y + 1 < ny {
                                add(g_lat(z, i, i + nx), field[zoff + i + nx]);
                            } else {
                                add(side(z), AMBIENT_C);
                            }
                            if y > 0 {
                                add(g_lat(z, i - nx, i), field[zoff + i - nx]);
                            } else {
                                add(side(z), AMBIENT_C);
                            }
                            if z + 1 < nz {
                                add(g_vert(z, i), field[zoff + cells + i]);
                            } else {
                                let h = if model.top_die_mask[i] {
                                    bounds.h_top_die
                                } else {
                                    bounds.h_top
                                };
                                add(h * a_xy, AMBIENT_C);
                            }
                            if z > 0 {
                                add(g_vert(z - 1, i), field[zoff - cells + i]);
                            } else {
                                let g =
                                    bounds.h_bottom * a_xy + bounds.board_spread_w_per_k / n_bottom;
                                add(g, AMBIENT_C);
                            }

                            let t_old = field[zoff + i];
                            let t_new = flux / g_sum;
                            let t_relaxed = t_old + config.omega * (t_new - t_old);
                            max_delta = max_delta.max((t_relaxed - t_old).abs());
                            field[zoff + i] = t_relaxed;
                            x += 2;
                        }
                    }
                }
            }
            if max_delta < config.tolerance_k {
                break;
            }
        }
        TemperatureField {
            nx,
            ny,
            layers: field.chunks(cells).map(<[f64]>::to_vec).collect(),
            iterations,
        }
    }

    fn assert_bit_identical(tech: InterposerKind, config: &SolveConfig, bounds: &Boundaries) {
        let model = ThermalModel::for_tech(tech).unwrap();
        let want = reference_sweeps(&model, config, bounds);
        let got = solve_capped(&model, config, bounds);
        assert_eq!(got.iterations, want.iterations, "{tech:?}");
        assert_eq!(got.layers.len(), want.layers.len(), "{tech:?}");
        for (z, (a, b)) in got.layers.iter().zip(&want.layers).enumerate() {
            assert_eq!(a.len(), b.len(), "{tech:?} layer {z}");
            for (i, (ta, tb)) in a.iter().zip(b).enumerate() {
                assert!(
                    ta.to_bits() == tb.to_bits(),
                    "{tech:?} layer {z} cell {i}: {ta} != {tb}"
                );
            }
        }
    }

    #[test]
    fn kernel_matches_the_per_cell_reference_bit_for_bit() {
        let capped = SolveConfig {
            max_iters: 400,
            ..SolveConfig::default()
        };
        for tech in InterposerKind::PACKAGED {
            assert_bit_identical(tech, &capped, &Boundaries::default());
            assert_bit_identical(tech, &capped, &Boundaries::with_airspeed(5.0));
        }
        for tech in [InterposerKind::Glass3D, InterposerKind::Silicon3D] {
            assert_bit_identical(tech, &SolveConfig::default(), &Boundaries::default());
        }
    }
}
