//! Transient analysis (trapezoidal integration).
//!
//! The circuits this workspace simulates are linear (behavioural drivers
//! are Thevenin sources), so the MNA matrix with trapezoidal companion
//! models is constant over time: it is factored once and re-solved per
//! step — the property that makes 100k-step eye-diagram runs cheap. Each
//! solve walks only the factors' nonzero entries (see [`crate::matrix`]),
//! and a run records only the waveforms its caller probes.

use crate::matrix::{Lu, Matrix};
use crate::mna::MnaLayout;
use crate::netlist::{Circuit, Element, NodeId, Waveform};
use crate::CircuitError;

/// Transient run configuration.
#[derive(Debug, Clone, Copy)]
pub struct TranConfig {
    /// Stop time, s.
    pub t_stop: f64,
    /// Fixed time step, s.
    pub dt: f64,
}

/// A waveform for [`simulate`] to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Voltage of a node (ground records a zero waveform).
    Voltage(NodeId),
    /// Branch current of the element at this index, which must be an
    /// inductor or a voltage source.
    Current(usize),
}

/// Transient results: time points and the probed waveforms.
#[derive(Debug, Clone)]
pub struct TranResult {
    /// Time points, s.
    pub times: Vec<f64>,
    /// One waveform per probe, in the order the probes were given; each
    /// has one sample per time point.
    pub waves: Vec<Vec<f64>>,
}

/// Runs the transient analysis, recording the waveforms of `probes`.
///
/// Counts one `circuit.lu_factor` and, once per run, one
/// `circuit.lu_solve` per time step.
///
/// # Errors
///
/// Rejects non-positive or non-finite `dt`/`t_stop`, a step count that
/// does not fit a `usize`, and probes of nodes or branches the circuit
/// does not have; propagates singular-matrix errors.
pub fn simulate(
    circuit: &Circuit,
    config: &TranConfig,
    probes: &[Probe],
) -> Result<TranResult, CircuitError> {
    if config.dt <= 0.0 || !config.dt.is_finite() {
        return Err(CircuitError::InvalidParameter { parameter: "dt" });
    }
    if !config.t_stop.is_finite() || config.t_stop <= config.dt {
        return Err(CircuitError::InvalidParameter {
            parameter: "t_stop",
        });
    }
    let layout = MnaLayout::new(circuit);
    let n = layout.dim();
    let dt = config.dt;
    let (steps, samples) =
        step_count(config.t_stop / dt).ok_or(CircuitError::InvalidParameter {
            parameter: "t_stop",
        })?;
    // The MNA row each probe reads (`None` for ground).
    let probe_rows = probes
        .iter()
        .map(|probe| match *probe {
            Probe::Voltage(node) if node.0 < circuit.node_count() => Ok(layout.node_index(node)),
            Probe::Voltage(_) => Err(CircuitError::InvalidParameter { parameter: "probe" }),
            Probe::Current(ei) => Ok(Some(layout.branch_index(layout.branch_of(ei)?))),
        })
        .collect::<Result<Vec<Option<usize>>, CircuitError>>()?;

    // Build the constant system matrix, and resolve each reactive
    // element and source to the MNA rows its per-step work touches.
    let mut m = Matrix::<f64>::zeros(n);
    let mut companions = Vec::new();
    let node_row = |node: &NodeId| layout.node_index(*node);
    for (ei, e) in circuit.elements().iter().enumerate() {
        match e {
            Element::Resistor { a, b, ohms } => {
                crate::dc::stamp_conductance(&mut m, &layout, *a, *b, 1.0 / ohms);
            }
            Element::Capacitor { a, b, farads } => {
                let g = 2.0 * farads / dt;
                crate::dc::stamp_conductance(&mut m, &layout, *a, *b, g);
                companions.push(Companion::Capacitor {
                    a: node_row(a),
                    b: node_row(b),
                    g,
                    v_prev: 0.0,
                    i_prev: 0.0,
                });
            }
            Element::Inductor { a, b, henries } => {
                let br = layout.branch_of(ei)?;
                let r_eq = 2.0 * henries / dt;
                crate::dc::stamp_branch(&mut m, &layout, *a, *b, br, r_eq);
                companions.push(Companion::Inductor {
                    a: node_row(a),
                    b: node_row(b),
                    row: layout.branch_index(br),
                    r_eq,
                    v_prev: 0.0,
                    i_prev: 0.0,
                });
            }
            Element::VSource { a, b, wave } => {
                let br = layout.branch_of(ei)?;
                crate::dc::stamp_branch(&mut m, &layout, *a, *b, br, 0.0);
                companions.push(Companion::VSource {
                    row: layout.branch_index(br),
                    wave,
                });
            }
            Element::ISource { a, b, wave } => {
                companions.push(Companion::ISource {
                    a: node_row(a),
                    b: node_row(b),
                    wave,
                });
            }
        }
    }
    let lu: Lu<f64> = m.lu()?;

    let mut waves: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); probes.len()];
    let mut times = Vec::with_capacity(samples);
    let mut x = vec![0.0; n];
    let record = |waves: &mut [Vec<f64>], x: &[f64]| {
        for (w, row) in waves.iter_mut().zip(&probe_rows) {
            w.push(row.map_or(0.0, |i| x[i]));
        }
    };
    // Record t = 0 state (all zeros: caps discharged, inductors relaxed).
    times.push(0.0);
    record(&mut waves, &x);

    // One rhs buffer for the whole run; `solve_into` likewise reuses `x`.
    // The rhs is assembled in element order, so every row sums its
    // contributions in the same order on every step.
    let mut rhs = vec![0.0; n];
    for step in 1..=steps {
        let t = step as f64 * dt;
        rhs.fill(0.0);
        for companion in &companions {
            match *companion {
                Companion::Capacitor {
                    a,
                    b,
                    g,
                    v_prev,
                    i_prev,
                } => {
                    // Companion current source into node a.
                    let ieq = g * v_prev + i_prev;
                    if let Some(i) = a {
                        rhs[i] += ieq;
                    }
                    if let Some(j) = b {
                        rhs[j] -= ieq;
                    }
                }
                Companion::Inductor {
                    row,
                    r_eq,
                    v_prev,
                    i_prev,
                    ..
                } => rhs[row] = -(r_eq * i_prev + v_prev),
                Companion::VSource { row, wave } => rhs[row] = wave.at(t),
                Companion::ISource { a, b, wave } => {
                    let i = wave.at(t);
                    if let Some(ia) = a {
                        rhs[ia] -= i;
                    }
                    if let Some(ib) = b {
                        rhs[ib] += i;
                    }
                }
            }
        }
        lu.solve_into(&rhs, &mut x);

        // Update companion states.
        let v_across =
            |a: Option<usize>, b: Option<usize>| a.map_or(0.0, |i| x[i]) - b.map_or(0.0, |j| x[j]);
        for companion in &mut companions {
            match companion {
                Companion::Capacitor {
                    a,
                    b,
                    g,
                    v_prev,
                    i_prev,
                } => {
                    let v = v_across(*a, *b);
                    let i_new = *g * (v - *v_prev) - *i_prev;
                    *v_prev = v;
                    *i_prev = i_new;
                }
                Companion::Inductor {
                    a,
                    b,
                    row,
                    v_prev,
                    i_prev,
                    ..
                } => {
                    *v_prev = v_across(*a, *b);
                    *i_prev = x[*row];
                }
                Companion::VSource { .. } | Companion::ISource { .. } => {}
            }
        }

        times.push(t);
        record(&mut waves, &x);
    }
    techlib::obs::add(techlib::obs::CIRCUIT_LU_SOLVE, steps as u64);

    Ok(TranResult { times, waves })
}

/// An element's per-step work in the trapezoidal stepper, with its MNA
/// rows resolved once per run (`None` is ground).
enum Companion<'c> {
    /// Companion conductance `g = 2C/dt` between `a` and `b`, with the
    /// previous step's voltage and current.
    Capacitor {
        a: Option<usize>,
        b: Option<usize>,
        g: f64,
        v_prev: f64,
        i_prev: f64,
    },
    /// Companion resistance `r_eq = 2L/dt` on branch row `row`, with the
    /// previous step's voltage and current.
    Inductor {
        a: Option<usize>,
        b: Option<usize>,
        row: usize,
        r_eq: f64,
        v_prev: f64,
        i_prev: f64,
    },
    /// Source voltage on branch row `row`.
    VSource { row: usize, wave: &'c Waveform },
    /// Source current from `a` to `b`.
    ISource {
        a: Option<usize>,
        b: Option<usize>,
        wave: &'c Waveform,
    },
}

/// The step count `ceil(ratio)` of a run and its sample count (one more,
/// for t = 0), or `None` when either does not fit a `usize`.
fn step_count(ratio: f64) -> Option<(usize, usize)> {
    let steps = ratio.ceil();
    // `as` saturates, and `usize::MAX as f64` is the first value it
    // clamps, so only counts below it convert exactly (NaN fails too).
    let steps = (steps < usize::MAX as f64).then_some(steps as usize)?;
    Some((steps, steps.checked_add(1)?))
}

/// First time `wave` crosses `level` in the given direction at or after
/// `after`, with linear interpolation. Returns `None` if it never does.
pub fn cross_time(
    times: &[f64],
    wave: &[f64],
    level: f64,
    rising: bool,
    after: f64,
) -> Option<f64> {
    for i in 1..wave.len() {
        if times[i] < after {
            continue;
        }
        let (a, b) = (wave[i - 1], wave[i]);
        let crossed = if rising {
            a < level && b >= level
        } else {
            a > level && b <= level
        };
        if crossed {
            let frac = (level - a) / (b - a);
            return Some(times[i - 1] + frac * (times[i] - times[i - 1]));
        }
    }
    None
}

/// Index of the sample with the largest value, using a total order so
/// NaN samples (e.g. from a diverging or degenerate run) never panic:
/// under `f64::total_cmp` positive NaN sorts *above* every finite
/// value, so a polluted waveform reports a NaN sample rather than
/// aborting the caller. Ties keep the last of equally-maximal samples
/// (`max_by`). Returns `None` only for an empty waveform.
pub fn peak_index(wave: &[f64]) -> Option<usize> {
    wave.iter()
        .enumerate()
        .max_by(|x, y| x.1.total_cmp(y.1))
        .map(|(i, _)| i)
}

/// 50 %-to-50 % propagation delay between two waveforms swinging 0..`vdd`.
pub fn delay_50(times: &[f64], input: &[f64], output: &[f64], vdd: f64) -> Option<f64> {
    let t_in = cross_time(times, input, vdd / 2.0, true, 0.0)?;
    let t_out = cross_time(times, output, vdd / 2.0, true, t_in)?;
    Some(t_out - t_in)
}

/// Average of `v(t) · i(t)` over the simulated interval, W.
pub fn average_power(times: &[f64], v: &[f64], i: &[f64]) -> f64 {
    if times.len() < 2 {
        return 0.0;
    }
    let mut energy = 0.0;
    for k in 1..times.len() {
        let p0 = v[k - 1] * i[k - 1];
        let p1 = v[k] * i[k];
        energy += 0.5 * (p0 + p1) * (times[k] - times[k - 1]);
    }
    energy / (times[times.len() - 1] - times[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Waveform;

    #[test]
    fn superposition_of_single_source_decks_matches_joint_simulation() {
        // Two sources driving a coupled RLC bridge: the sum of the
        // per-source responses must equal the joint response (linearity),
        // which is what lets the eye decks run one transient per source.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let mid = c.node("mid");
        c.vsource(a, Circuit::GND, Waveform::step(1.0, 0.0, 50e-12));
        c.vsource(b, Circuit::GND, Waveform::clock(0.8, 1e9, 40e-12));
        c.resistor(a, mid, 100.0);
        c.inductor(b, mid, 1e-9);
        c.capacitor(mid, Circuit::GND, 2e-12);
        c.resistor(mid, Circuit::GND, 500.0);
        let cfg = TranConfig {
            t_stop: 4e-9,
            dt: 2e-12,
        };
        let probes = [Probe::Voltage(mid)];
        let joint = simulate(&c, &cfg, &probes).unwrap();
        let vj = &joint.waves[0];
        let mut sum = vec![0.0; vj.len()];
        for s in c.source_indices() {
            let part = simulate(&c.single_source(s), &cfg, &probes).unwrap();
            for (acc, v) in sum.iter_mut().zip(&part.waves[0]) {
                *acc += v;
            }
        }
        for (k, (&a, &b)) in vj.iter().zip(&sum).enumerate() {
            assert!((a - b).abs() < 1e-9, "step {k}: joint {a} vs sum {b}");
        }
    }

    #[test]
    fn rc_step_time_constant() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(inp, Circuit::GND, Waveform::step(1.0, 0.0, 1e-12));
        c.resistor(inp, out, 1_000.0);
        c.capacitor(out, Circuit::GND, 1e-12); // τ = 1 ns
        let r = simulate(
            &c,
            &TranConfig {
                t_stop: 5e-9,
                dt: 2e-12,
            },
            &[Probe::Voltage(out)],
        )
        .unwrap();
        let v = &r.waves[0];
        // At t = τ the response is 1 - 1/e ≈ 0.632.
        let idx = r.times.iter().position(|&t| t >= 1e-9).unwrap();
        assert!((v[idx] - 0.632).abs() < 0.01, "v(τ) = {}", v[idx]);
        assert!((v.last().unwrap() - 1.0).abs() < 0.01);
    }

    #[test]
    fn lc_oscillation_period() {
        // Series RLC with tiny R: period 2π√(LC) = 6.28 ns for 1nH/1µF...
        // use 10nH, 10pF → T = 1.987 ns.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Circuit::GND, Waveform::step(1.0, 0.0, 1e-12));
        c.inductor(a, b, 10e-9);
        c.capacitor(b, Circuit::GND, 10e-12);
        c.resistor(b, Circuit::GND, 1e6);
        let r = simulate(
            &c,
            &TranConfig {
                t_stop: 6e-9,
                dt: 1e-12,
            },
            &[Probe::Voltage(b)],
        )
        .unwrap();
        let v = &r.waves[0];
        // Under-damped: output overshoots toward 2.0.
        let peak = v.iter().cloned().fold(0.0, f64::max);
        assert!(peak > 1.8, "peak = {peak}");
        // First peak at half a period ≈ 0.99 ns.
        let idx = peak_index(v).unwrap();
        let t_peak = r.times[idx];
        assert!((t_peak - 0.99e-9).abs() < 0.15e-9, "t_peak = {t_peak}");
    }

    #[test]
    fn peak_index_survives_nan_and_degenerate_waveforms() {
        // A healthy waveform: plain argmax.
        assert_eq!(peak_index(&[0.0, 1.5, 0.7]), Some(1));
        // All-equal (flat) waveform: a stable, deterministic answer
        // (max_by keeps the last of equally-maximal samples).
        assert_eq!(peak_index(&[2.0, 2.0, 2.0]), Some(2));
        // Signed zeros are ordered (-0.0 < +0.0 under total_cmp).
        assert_eq!(peak_index(&[-0.0, 0.0]), Some(1));
        // NaN-polluted waveform — the shape a diverging solve produces.
        // The old partial_cmp(..).unwrap() comparator panicked here;
        // total_cmp ranks NaN above every finite sample instead.
        let polluted = [0.0, f64::INFINITY, f64::NAN, 3.0];
        assert_eq!(peak_index(&polluted), Some(2));
        // Empty waveform: no panic, just None.
        assert_eq!(peak_index(&[]), None);
    }

    #[test]
    fn delay_measurement_on_rc() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(inp, Circuit::GND, Waveform::step(1.0, 0.5e-9, 1e-12));
        c.resistor(inp, out, 1_000.0);
        c.capacitor(out, Circuit::GND, 1e-12);
        let r = simulate(
            &c,
            &TranConfig {
                t_stop: 8e-9,
                dt: 1e-12,
            },
            &[Probe::Voltage(inp), Probe::Voltage(out)],
        )
        .unwrap();
        let d = delay_50(&r.times, &r.waves[0], &r.waves[1], 1.0).unwrap();
        // RC step 50 % delay = τ ln 2 = 0.693 ns.
        assert!((d - 0.693e-9).abs() < 0.02e-9, "d = {d}");
    }

    #[test]
    fn average_power_of_resistor_load() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Circuit::GND, Waveform::Dc(2.0));
        c.resistor(a, Circuit::GND, 100.0);
        let r = simulate(
            &c,
            &TranConfig {
                t_stop: 1e-9,
                dt: 1e-12,
            },
            &[Probe::Current(0), Probe::Voltage(a)],
        )
        .unwrap();
        // Source delivers 40 mW (branch current flows a→b inside source).
        let p = average_power(&r.times, &r.waves[1], &r.waves[0]).abs();
        assert!((p - 0.04).abs() < 0.002, "p = {p}");
    }

    #[test]
    fn transient_sine_matches_ac_analysis() {
        // Physics crosscheck: drive the RC low-pass with a sine at its
        // corner frequency; the steady-state transient amplitude must
        // match the AC solution (1/√2) within integration error.
        let f3 = 1.0 / (2.0 * std::f64::consts::PI * 1_000.0 * 1e-9);
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(
            inp,
            Circuit::GND,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                freq_hz: f3,
            },
        );
        c.resistor(inp, out, 1_000.0);
        c.capacitor(out, Circuit::GND, 1e-9);
        let period = 1.0 / f3;
        let r = simulate(
            &c,
            &TranConfig {
                t_stop: 12.0 * period,
                dt: period / 400.0,
            },
            &[Probe::Voltage(out)],
        )
        .unwrap();
        // Amplitude over the last two periods.
        let v = &r.waves[0];
        let tail = &v[v.len() - 800..];
        let amp = tail.iter().cloned().fold(0.0f64, f64::max);
        let ac = crate::ac::solve_at(&c, f3).unwrap().voltage(out).abs();
        assert!((amp - ac).abs() / ac < 0.01, "tran {amp} vs ac {ac}");
        assert!((ac - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, Circuit::GND, 1.0);
        let run = |t_stop: f64, dt: f64, probes: &[Probe]| {
            simulate(&c, &TranConfig { t_stop, dt }, probes).err()
        };
        let bad = |parameter| Some(CircuitError::InvalidParameter { parameter });
        assert_eq!(run(1e-9, 0.0, &[]), bad("dt"));
        assert_eq!(run(0.0, 1e-12, &[]), bad("t_stop"));
        assert_eq!(run(f64::NAN, 1e-12, &[]), bad("t_stop"));
        // An infinite stop time used to saturate the step count to
        // `usize::MAX` and overflow the sample count.
        assert_eq!(run(f64::INFINITY, 1e-12, &[]), bad("t_stop"));
        // Finite, but more steps than a `usize` holds.
        assert_eq!(run(1e21, 1.0, &[]), bad("t_stop"));
        // Probes of a node or a branch the circuit does not have.
        assert_eq!(run(1e-9, 1e-12, &[Probe::Voltage(NodeId(2))]), bad("probe"));
        assert!(matches!(
            run(1e-9, 1e-12, &[Probe::Current(0)]),
            Some(CircuitError::InvalidElement { .. })
        ));
        // Ground is a valid probe: a zero waveform.
        let r = simulate(
            &c,
            &TranConfig {
                t_stop: 1e-11,
                dt: 1e-12,
            },
            &[Probe::Voltage(Circuit::GND), Probe::Voltage(a)],
        )
        .unwrap();
        assert_eq!(r.times.len(), 11);
        assert_eq!(r.waves[0], [0.0; 11]);
        assert_eq!(r.waves[1].len(), 11);
    }

    #[test]
    fn cross_time_interpolates() {
        let times = [0.0, 1.0, 2.0];
        let wave = [0.0, 1.0, 0.0];
        let t = cross_time(&times, &wave, 0.5, true, 0.0).unwrap();
        assert!((t - 0.5).abs() < 1e-12);
        let t = cross_time(&times, &wave, 0.5, false, 0.0).unwrap();
        assert!((t - 1.5).abs() < 1e-12);
        assert!(cross_time(&times, &wave, 2.0, true, 0.0).is_none());
    }
}
