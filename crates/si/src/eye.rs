//! PRBS eye diagrams with switching aggressors (Fig. 14).
//!
//! The victim carries a PRBS-7 stream at 0.7 Gbps; the two adjacent
//! aggressors carry independently seeded PRBS streams. The received
//! waveform is folded at the unit interval and the eye opening measured:
//! height as the vertical gap between the lowest "1" and highest "0"
//! sample in the centre window, width as the horizontal span over which
//! the eye remains open at the mid level.

use crate::rlgc;
use circuit::driver::{add_rx, add_tx, prbs_data};
use circuit::netlist::{prbs7_bit, Circuit, NodeId};
use circuit::tran::{simulate, Probe, TranConfig, TranResult};
use circuit::CircuitError;
use serde::Serialize;
use techlib::bump::BumpModel;
use techlib::calib;
use techlib::iodriver::IoDriver;
use techlib::spec::{InterposerKind, InterposerSpec};
use techlib::via::stacked_via_column;

/// A measured eye opening.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EyeReport {
    /// Horizontal opening, ns (unit interval is 1.429 ns at 0.7 Gbps).
    pub width_ns: f64,
    /// Vertical opening, V.
    pub height_v: f64,
    /// Bits simulated.
    pub bits: usize,
}

/// Eye-diagram deck configuration.
#[derive(Debug, Clone)]
pub struct EyeConfig {
    /// Number of PRBS bits to simulate.
    pub bits: usize,
    /// Include the two aggressors.
    pub aggressors: bool,
    /// Receiver termination, Ω. `None` models the capacitive AIB input;
    /// `Some(50.0)` reproduces the paper's 50 Ω-I/O ADS deck, where the
    /// resistive divider against the line resistance sets the eye height.
    pub rx_termination_ohm: Option<f64>,
    /// Data rate, bit/s (the study's point is 0.7 Gbps; higher rates
    /// stress the channel for design-space exploration).
    pub data_rate_bps: f64,
}

impl Default for EyeConfig {
    fn default() -> Self {
        EyeConfig {
            bits: 96,
            aggressors: true,
            rx_termination_ohm: None,
            data_rate_bps: calib::DATA_RATE_BPS,
        }
    }
}

impl EyeConfig {
    /// The paper's deck: 50 Ω I/O impedance at the receiver.
    pub fn paper_deck() -> EyeConfig {
        EyeConfig {
            rx_termination_ohm: Some(50.0),
            ..EyeConfig::default()
        }
    }
}

/// Simulates the eye of a lateral coupled channel of `length_um` on
/// `tech`.
///
/// # Errors
///
/// Propagates transient-solver failures.
pub fn lateral_eye(
    tech: InterposerKind,
    length_um: f64,
    config: &EyeConfig,
) -> Result<EyeReport, CircuitError> {
    let (c, probe) = lateral_eye_deck(tech, length_um, config);
    measure_eye(&c, probe, config.bits, 11, config.data_rate_bps)
}

/// The deck [`lateral_eye`] simulates and its receiver probe node.
pub fn lateral_eye_deck(
    tech: InterposerKind,
    length_um: f64,
    config: &EyeConfig,
) -> (Circuit, NodeId) {
    let spec = InterposerSpec::for_kind(tech);
    let triple = rlgc::extract_coupled(&spec, length_um * 1e-6);
    let driver = IoDriver::aib();
    let bump = BumpModel::microbump(&spec);
    let mut c = Circuit::new();
    let segments = ((length_um / 250.0).ceil() as usize).clamp(4, 24);
    let nodes = triple.add_to_circuit(&mut c, segments);

    // Victim: TX → bump → line → bump → RX.
    let (vin, vout) = nodes.victim;
    attach_ends(&mut c, &driver, &bump, vin, vout, 11, config.data_rate_bps);
    if let Some(r) = config.rx_termination_ohm {
        c.resistor(vout, Circuit::GND, r);
    }
    if config.aggressors {
        for (seed, (ain, aout)) in [(0x2du8, nodes.aggressor1), (0x47u8, nodes.aggressor2)] {
            attach_ends(
                &mut c,
                &driver,
                &bump,
                ain,
                aout,
                seed,
                config.data_rate_bps,
            );
        }
    } else {
        // Quiet terminations.
        for (ain, aout) in [nodes.aggressor1, nodes.aggressor2] {
            c.resistor(ain, Circuit::GND, 50.0);
            c.resistor(aout, Circuit::GND, 50.0);
        }
    }
    let probe = vout_probe(&c, vout);
    (c, probe)
}

/// Simulates the Glass 3D vertical (stacked-via) eye: the victim column
/// with two neighbouring columns as aggressors, coupled through the
/// 35 µm-pitch pad field.
///
/// # Errors
///
/// Propagates transient-solver failures.
pub fn stacked_via_eye(config: &EyeConfig) -> Result<EyeReport, CircuitError> {
    let spec = InterposerSpec::for_kind(InterposerKind::Glass3D);
    let driver = IoDriver::aib();
    let bump = BumpModel::microbump(&spec);
    let (r, cap, l, _) = stacked_via_column(&spec, 3);
    let mut c = Circuit::new();
    let mut outs = Vec::new();
    for (i, seed) in [(0usize, 11u8), (1, 0x2d), (2, 0x47)] {
        let pad = c.node(format!("pad{i}"));
        let mid = c.node(format!("mid{i}"));
        let out = c.node(format!("out{i}"));
        if i == 0 || config.aggressors {
            add_tx(
                &mut c,
                &driver,
                pad,
                prbs_data(calib::VDD, config.data_rate_bps, seed),
            );
        } else {
            c.resistor(pad, Circuit::GND, 50.0);
        }
        c.capacitor(pad, Circuit::GND, bump.capacitance_f);
        c.resistor(pad, mid, r.max(1e-4));
        c.inductor(mid, out, l.max(1e-15));
        c.capacitor(out, Circuit::GND, cap.max(1e-18));
        add_rx(&mut c, &driver, out);
        if i == 0 {
            if let Some(rt) = config.rx_termination_ohm {
                c.resistor(out, Circuit::GND, rt);
            }
        }
        outs.push(out);
    }
    // Neighbour coupling across the via field (same fringe model as the
    // bump pads).
    let cm = bump.capacitance_f * 0.4;
    c.capacitor(outs[0], outs[1], cm);
    c.capacitor(outs[0], outs[2], cm);
    measure_eye(&c, outs[0], config.bits, 11, config.data_rate_bps)
}

fn attach_ends(
    c: &mut Circuit,
    driver: &IoDriver,
    bump: &BumpModel,
    input: NodeId,
    output: NodeId,
    seed: u8,
    rate_bps: f64,
) {
    let pad = c.node("pad");
    add_tx(c, driver, pad, prbs_data(calib::VDD, rate_bps, seed));
    c.capacitor(pad, Circuit::GND, bump.capacitance_f);
    c.resistor(pad, input, bump.resistance_ohm.max(1e-4));
    c.capacitor(output, Circuit::GND, bump.capacitance_f);
    add_rx(c, driver, output);
}

fn vout_probe(_c: &Circuit, out: NodeId) -> NodeId {
    out
}

fn measure_eye(
    c: &Circuit,
    probe: NodeId,
    bits: usize,
    victim_seed: u8,
    rate_bps: f64,
) -> Result<EyeReport, CircuitError> {
    let ui = 1.0 / rate_bps;
    let dt = 2e-12;
    let config = TranConfig {
        t_stop: bits as f64 * ui,
        dt,
    };
    // The decks are linear (Thevenin drivers, R/L/C channel), so the
    // received waveform decomposes exactly by superposition: one
    // transient per source with every other source zeroed — the same MNA
    // matrix, so each run factors the identical system. The independent
    // per-source runs fan out across workers; summing in fixed source
    // order keeps the result identical for any worker count.
    let sources = c.source_indices();
    let probes = [Probe::Voltage(probe)];
    let run = |deck: &Circuit| {
        simulate(deck, &config, &probes).map(|r| {
            let TranResult { times, mut waves } = r;
            (times, waves.swap_remove(0))
        })
    };
    let (times, v) = if sources.len() <= 1 {
        run(c)?
    } else {
        let per = techlib::par::ordered_map(&sources, |&s| run(&c.single_source(s)));
        let mut acc: Option<(Vec<f64>, Vec<f64>)> = None;
        for trace in per {
            let (t, w) = trace?;
            match &mut acc {
                None => acc = Some((t, w)),
                Some((_, total)) => {
                    for (a, b) in total.iter_mut().zip(&w) {
                        *a += b;
                    }
                }
            }
        }
        acc.ok_or(CircuitError::InvalidParameter {
            parameter: "sources",
        })?
    };
    let times = &times;

    // Fold into the UI, skipping the first 4 warm-up bits. For each
    // sample classify the *current* bit from the PRBS sequence; track the
    // per-phase min of ones and max of zeros.
    let phases = 64usize;
    let mut one_min = vec![f64::INFINITY; phases];
    let mut zero_max = vec![f64::NEG_INFINITY; phases];
    for (k, &t) in times.iter().enumerate() {
        // The final sample lands exactly on `t == bits · ui` (the
        // transient's t_stop), where the raw quotient is `bits` — one
        // past the last generated PRBS bit. Clamp before any use as a
        // pattern index; the warm-up/tail guard below then drops the
        // clamped tail samples, so retained samples are unchanged.
        let bit_idx = ((t / ui) as usize).min(bits.saturating_sub(1));
        if bit_idx < 4 || bit_idx + 1 >= bits {
            continue;
        }
        let phase = (((t / ui) - bit_idx as f64) * phases as f64) as usize % phases;
        // Account for the line's latency being well under one UI: the
        // received symbol at phase p of bit n is bit n.
        if prbs7_bit(victim_seed, bit_idx) {
            one_min[phase] = one_min[phase].min(v[k]);
        } else {
            zero_max[phase] = zero_max[phase].max(v[k]);
        }
    }

    // Eye height: the *worst-case* vertical opening across the central
    // sampling band (±10 % of the UI around the centre) — what a receiver
    // sampling there actually sees.
    let centre_band = (phases * 2 / 5)..(phases * 3 / 5);
    let mut height = f64::INFINITY;
    for p in centre_band {
        if one_min[p].is_finite() && zero_max[p].is_finite() {
            height = height.min(one_min[p] - zero_max[p]);
        }
    }
    if !height.is_finite() {
        height = 0.0;
    }
    // Eye width: contiguous span of phases where the eye is open at the
    // decision threshold — halfway between the received one/zero levels
    // (for a terminated receiver the "1" level is the resistive divider,
    // not the rail).
    let centre = (phases * 2 / 5)..(phases * 3 / 5);
    let v_hi = centre
        .clone()
        .map(|p| one_min[p])
        .filter(|v| v.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    let v_lo = centre
        .map(|p| zero_max[p])
        .filter(|v| v.is_finite())
        .fold(f64::INFINITY, f64::min);
    let mid = if v_hi.is_finite() && v_lo.is_finite() {
        (v_hi + v_lo) / 2.0
    } else {
        calib::VDD / 2.0
    };
    let open: Vec<bool> = (0..phases)
        .map(|p| {
            one_min[p].is_finite()
                && zero_max[p].is_finite()
                && one_min[p] > mid
                && zero_max[p] < mid
        })
        .collect();
    // Longest circular run of open phases.
    let mut best = 0usize;
    let mut run = 0usize;
    for i in 0..2 * phases {
        if open[i % phases] {
            run += 1;
            best = best.max(run.min(phases));
        } else {
            run = 0;
        }
    }
    Ok(EyeReport {
        width_ns: best as f64 / phases as f64 * ui * 1e9,
        height_v: height.max(0.0),
        bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> EyeConfig {
        EyeConfig {
            bits: 48,
            aggressors: true,
            ..EyeConfig::default()
        }
    }

    #[test]
    fn short_glass_link_has_wide_open_eye() {
        let eye = lateral_eye(InterposerKind::Glass25D, 500.0, &quick()).unwrap();
        // Nearly the full 1.429 ns UI and most of the 0.9 V swing.
        assert!(eye.width_ns > 1.0, "width = {}", eye.width_ns);
        assert!(eye.height_v > 0.5, "height = {}", eye.height_v);
    }

    #[test]
    fn long_silicon_link_has_degraded_eye() {
        let short = lateral_eye(InterposerKind::Silicon25D, 300.0, &quick()).unwrap();
        let long = lateral_eye(InterposerKind::Silicon25D, 3_000.0, &quick()).unwrap();
        assert!(long.height_v < short.height_v);
        assert!(long.width_ns <= short.width_ns + 0.05);
    }

    #[test]
    fn aggressors_close_the_eye() {
        let with = lateral_eye(InterposerKind::Silicon25D, 2_000.0, &quick()).unwrap();
        let without = lateral_eye(
            InterposerKind::Silicon25D,
            2_000.0,
            &EyeConfig {
                bits: 48,
                aggressors: false,
                ..EyeConfig::default()
            },
        )
        .unwrap();
        assert!(
            with.height_v < without.height_v,
            "crosstalk must reduce height: {} vs {}",
            with.height_v,
            without.height_v
        );
    }

    #[test]
    fn stacked_via_eye_is_nearly_ideal() {
        // Fig. 14: Glass 3D shows the widest L2M eye (1.415 ns, 0.89 V).
        let eye = stacked_via_eye(&quick()).unwrap();
        assert!(eye.width_ns > 1.25, "width = {}", eye.width_ns);
        assert!(eye.height_v > 0.75, "height = {}", eye.height_v);
    }

    #[test]
    fn higher_data_rate_closes_the_eye() {
        // Design-space extension: the same silicon channel that is clean
        // at 0.7 Gbps degrades visibly at 7 Gbps (UI 143 ps vs ~50 ps of
        // channel RC).
        let slow = lateral_eye(InterposerKind::Silicon25D, 2_000.0, &quick()).unwrap();
        let fast = lateral_eye(
            InterposerKind::Silicon25D,
            2_000.0,
            &EyeConfig {
                data_rate_bps: 7e9,
                ..quick()
            },
        )
        .unwrap();
        // Normalised to the UI, the fast eye is fractionally narrower.
        let slow_frac = slow.width_ns / (1e9 / 0.7e9);
        let fast_frac = fast.width_ns / (1e9 / 7e9);
        assert!(fast_frac < slow_frac, "{fast_frac} vs {slow_frac}");
    }

    #[test]
    fn eye_width_never_exceeds_ui() {
        let eye = lateral_eye(InterposerKind::Shinko, 1_000.0, &quick()).unwrap();
        assert!(eye.width_ns <= 1.0 / 0.7 + 1e-9);
    }

    #[test]
    fn trace_end_sample_stays_inside_the_prbs_pattern() {
        // The transient's last sample sits exactly at t_stop = bits · ui,
        // where the raw bit index is `bits` — one past the final PRBS
        // bit. With a minimal bit count (just above the 4 warm-up bits)
        // the tail dominates the trace; the fold must clamp and drop it
        // rather than classify against an out-of-pattern bit.
        let eye = lateral_eye(
            InterposerKind::Glass25D,
            500.0,
            &EyeConfig {
                bits: 6,
                aggressors: false,
                ..EyeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(eye.bits, 6);
        assert!(eye.height_v >= 0.0);
        assert!(eye.width_ns >= 0.0 && eye.width_ns <= 1.0 / 0.7 + 1e-9);
    }
}
