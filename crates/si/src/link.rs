//! Inter-chiplet link delay and power (Table V).
//!
//! Each link deck is: AIB TX (Thevenin behind 47.4 Ω) → TX micro-bump →
//! channel → RX micro-bump → AIB RX load, simulated in the time domain.
//! The *interconnect delay* is the 50 % arrival shift relative to a
//! zero-length baseline deck (driver + bumps + RX only), matching the
//! paper's driver/interconnect split where the driver column is constant
//! per technology. Interconnect power comes from the charge the source
//! delivers per transition, scaled to the 0.7 Gbps toggle pattern.

use circuit::netlist::{Circuit, NodeId};
use circuit::tran::{cross_time, simulate, Probe, TranConfig};
use circuit::CircuitError;
use serde::{Deserialize, Serialize};
use techlib::bump::BumpModel;
use techlib::calib;
use techlib::iodriver::IoDriver;
use techlib::spec::{InterposerKind, InterposerSpec};
use techlib::via::{stacked_via_column, ViaKind, ViaModel};

/// The physical channel of an inter-chiplet link.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ChannelKind {
    /// Lateral RDL trace of the given length on the technology.
    RdlTrace {
        /// Technology the trace is on.
        tech: InterposerKind,
        /// Routed length, µm.
        length_um: f64,
    },
    /// Glass 3D stacked-via column down to the embedded die.
    StackedViaColumn {
        /// Via levels in the column.
        levels: usize,
    },
    /// Silicon 3D tier-to-tier micro-bump.
    MicroBump,
    /// Silicon 3D back-to-back mini-TSV pair (inter-tile, Fig. 13b).
    BackToBackTsv,
}

impl ChannelKind {
    /// The technology whose bumps terminate this channel.
    pub fn tech(&self) -> InterposerKind {
        match self {
            ChannelKind::RdlTrace { tech, .. } => *tech,
            ChannelKind::StackedViaColumn { .. } => InterposerKind::Glass3D,
            ChannelKind::MicroBump | ChannelKind::BackToBackTsv => InterposerKind::Silicon3D,
        }
    }

    /// Physical channel length, µm (via-column height, bump standoff, or
    /// trace length — the Table V "WL" column).
    pub fn length_um(&self) -> f64 {
        self.length_um_with(&InterposerSpec::for_kind(self.tech()))
    }

    /// [`ChannelKind::length_um`] against an explicit (possibly
    /// overridden) spec for this channel's technology.
    pub fn length_um_with(&self, spec: &InterposerSpec) -> f64 {
        match self {
            ChannelKind::RdlTrace { length_um, .. } => *length_um,
            ChannelKind::StackedViaColumn { levels } => stacked_via_column(spec, *levels).3,
            ChannelKind::MicroBump => BumpModel::microbump(spec).height_um,
            ChannelKind::BackToBackTsv => {
                2.0 * ViaModel::canonical(ViaKind::MiniTsv, spec).height_um
            }
        }
    }
}

/// Delay/power result of one link (one Table V row half).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkReport {
    /// Driver (TX+RX) delay including local bump loading, ps.
    pub driver_delay_ps: f64,
    /// Interconnect delay beyond the zero-length baseline, ps.
    pub interconnect_delay_ps: f64,
    /// Driver power at the data rate, µW.
    pub driver_power_uw: f64,
    /// Interconnect (channel charging) power, µW.
    pub interconnect_power_uw: f64,
    /// Channel length, µm.
    pub length_um: f64,
}

impl LinkReport {
    /// Total link delay, ps.
    pub fn total_delay_ps(&self) -> f64 {
        self.driver_delay_ps + self.interconnect_delay_ps
    }

    /// Total link power, µW.
    pub fn total_power_uw(&self) -> f64 {
        self.driver_power_uw + self.interconnect_power_uw
    }
}

const STEP_DELAY_S: f64 = 50e-12;
/// Driver output edge time (see [`circuit::driver::step_data`]).
const STEP_EDGE_S: f64 = 20e-12;

/// A transient link deck: TX → bumps → channel → RX.
#[derive(Debug, Clone)]
pub struct LinkDeck {
    /// The circuit.
    pub circuit: Circuit,
    /// Element index of the TX source, whose branch current is the
    /// charge the link draws.
    pub source: usize,
    /// The RX pad, where the 50 % arrival is measured.
    pub rx: NodeId,
}

/// Builds the deck of `channel` on `spec`, or with `None` the zero-length
/// baseline deck (driver + bumps + RX only).
pub fn link_deck(channel: Option<&ChannelKind>, spec: &InterposerSpec) -> LinkDeck {
    let driver = IoDriver::aib();
    let bump = BumpModel::microbump(spec);
    let mut c = Circuit::new();
    let tx_pad = c.node("tx_pad");
    let src = circuit::driver::add_tx(
        &mut c,
        &driver,
        tx_pad,
        circuit::driver::step_data(calib::VDD, STEP_DELAY_S),
    );
    // TX bump: series L+R, shunt C.
    c.capacitor(tx_pad, Circuit::GND, bump.capacitance_f);
    let ch_in = c.node("ch_in");
    c.resistor(tx_pad, ch_in, bump.resistance_ohm.max(1e-4));
    let ch_out = match channel {
        None => ch_in,
        Some(ChannelKind::RdlTrace { length_um, .. }) => {
            let line = crate::rlgc::extract_line(spec, length_um * 1e-6);
            let out = c.node("ch_out");
            let segments = ((length_um / 200.0).ceil() as usize).clamp(4, 40);
            line.add_to_circuit(&mut c, ch_in, out, segments);
            out
        }
        Some(ChannelKind::StackedViaColumn { levels }) => {
            let (r, cap, l, _) = stacked_via_column(spec, *levels);
            let out = c.node("ch_out");
            let mid = c.node("ch_mid");
            c.resistor(ch_in, mid, r.max(1e-4));
            c.inductor(mid, out, l.max(1e-15));
            c.capacitor(out, Circuit::GND, cap.max(1e-18));
            out
        }
        Some(ChannelKind::MicroBump) => {
            let b = BumpModel::microbump(spec);
            let out = c.node("ch_out");
            let mid = c.node("ch_mid");
            c.resistor(ch_in, mid, b.resistance_ohm.max(1e-4));
            c.inductor(mid, out, b.inductance_h.max(1e-15));
            c.capacitor(out, Circuit::GND, b.capacitance_f);
            out
        }
        Some(ChannelKind::BackToBackTsv) => {
            let tsv = ViaModel::canonical(ViaKind::MiniTsv, spec);
            let mut prev = ch_in;
            for i in 0..2 {
                let mid = c.node(format!("tsv_m{i}"));
                let out = c.node(format!("tsv_o{i}"));
                c.resistor(prev, mid, tsv.resistance_ohm.max(1e-4));
                c.inductor(mid, out, tsv.inductance_h.max(1e-15));
                c.capacitor(out, Circuit::GND, tsv.capacitance_f.max(1e-18));
                prev = out;
            }
            prev
        }
    };
    // RX bump + receiver.
    let rx_pad = c.node("rx_pad");
    c.resistor(ch_out, rx_pad, bump.resistance_ohm.max(1e-4));
    c.capacitor(rx_pad, Circuit::GND, bump.capacitance_f);
    circuit::driver::add_rx(&mut c, &IoDriver::aib(), rx_pad);
    LinkDeck {
        circuit: c,
        source: src,
        rx: rx_pad,
    }
}

/// The 50 % arrival (relative to the source's own 50 % point) and the
/// charge the source delivers, of one deck.
fn deck_t50_and_charge(deck: &LinkDeck) -> Result<(f64, f64), CircuitError> {
    let result = simulate(
        &deck.circuit,
        &TranConfig {
            t_stop: 3e-9,
            dt: 0.5e-12,
        },
        &[Probe::Voltage(deck.rx), Probe::Current(deck.source)],
    )?;
    let times = &result.times;
    // Reference the source waveform's own 50 % point (delay + half edge).
    let t50 = cross_time(times, &result.waves[0], calib::VDD / 2.0, true, 0.0)
        .ok_or(CircuitError::InvalidParameter { parameter: "t50" })?
        - (STEP_DELAY_S + STEP_EDGE_S / 2.0);
    // Charge drawn by the source over the transition.
    let i = &result.waves[1];
    let mut charge = 0.0;
    for k in 1..times.len() {
        charge += 0.5 * (i[k] + i[k - 1]) * (times[k] - times[k - 1]);
    }
    Ok((t50, charge.abs()))
}

/// The zero-length baseline deck's measurements on one spec. Every link
/// on that spec is reported relative to them, so links that share a spec
/// can share one baseline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBaseline {
    /// 50 % arrival at the RX pad, s.
    t50_s: f64,
    /// Charge the source delivers over the transition, C.
    charge_c: f64,
}

impl LinkBaseline {
    /// Simulates the baseline deck on `spec`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from the transient analysis.
    pub fn simulate(spec: &InterposerSpec) -> Result<LinkBaseline, CircuitError> {
        let (t50_s, charge_c) = deck_t50_and_charge(&link_deck(None, spec))?;
        Ok(LinkBaseline { t50_s, charge_c })
    }
}

/// Simulates one link and reports the Table V delay/power split.
///
/// # Errors
///
/// Propagates solver failures from the transient analysis.
pub fn simulate_link(channel: &ChannelKind) -> Result<LinkReport, CircuitError> {
    simulate_link_with(channel, &InterposerSpec::for_kind(channel.tech()))
}

/// [`simulate_link`] against an explicit (possibly overridden) spec for
/// the channel's technology, the form scenario contexts use.
///
/// # Errors
///
/// Propagates solver failures from the transient analysis.
pub fn simulate_link_with(
    channel: &ChannelKind,
    spec: &InterposerSpec,
) -> Result<LinkReport, CircuitError> {
    simulate_link_from(channel, spec, &LinkBaseline::simulate(spec)?)
}

/// [`simulate_link_with`] relative to a baseline already simulated on
/// the same `spec`.
///
/// # Errors
///
/// Propagates solver failures from the transient analysis.
pub fn simulate_link_from(
    channel: &ChannelKind,
    spec: &InterposerSpec,
    baseline: &LinkBaseline,
) -> Result<LinkReport, CircuitError> {
    if techlib::faults::armed("si.link") {
        // Injected fault: report the link deck as singular, the same
        // error a degenerate MNA system would produce.
        return Err(CircuitError::SingularMatrix { pivot: 0 });
    }
    techlib::obs::add(techlib::obs::SI_LINKS_SIMULATED, 1);
    let driver = IoDriver::aib();
    let LinkBaseline {
        t50_s: t50_base,
        charge_c: q_base,
    } = *baseline;
    let (t50_chan, q_chan) = deck_t50_and_charge(&link_deck(Some(channel), spec))?;
    let toggle_rate = 0.5 * calib::DATA_RATE_BPS * calib::TABLE5_LINK_ACTIVITY;
    let e_base = q_base * calib::VDD;
    let e_chan = q_chan * calib::VDD;
    // The local-bump loading stays in the driver column, as the paper
    // has it (driver delay is constant per technology).
    Ok(LinkReport {
        driver_delay_ps: driver.intrinsic_delay_ps + t50_base * 1e12,
        interconnect_delay_ps: ((t50_chan - t50_base) * 1e12).max(0.0),
        driver_power_uw: (driver.full_rate_power_w() + e_base * toggle_rate) * 1e6,
        interconnect_power_uw: (e_chan - e_base).max(0.0) * toggle_rate * 1e6,
        length_um: channel.length_um_with(spec),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rdl(tech: InterposerKind, len: f64) -> LinkReport {
        simulate_link(&ChannelKind::RdlTrace {
            tech,
            length_um: len,
        })
        .unwrap()
    }

    #[test]
    fn driver_delay_is_near_constant_39ps() {
        // Table V: 39.47–39.79 ps for every design.
        for tech in [
            InterposerKind::Glass25D,
            InterposerKind::Silicon25D,
            InterposerKind::Apx,
        ] {
            let r = rdl(tech, 1_000.0);
            assert!(
                (37.0..44.0).contains(&r.driver_delay_ps),
                "{tech}: {}",
                r.driver_delay_ps
            );
        }
    }

    #[test]
    fn silicon_3d_links_are_fastest() {
        // Table V: micro-bump 0.29 ps, B2B TSV 1.53 ps.
        let ub = simulate_link(&ChannelKind::MicroBump).unwrap();
        let tsv = simulate_link(&ChannelKind::BackToBackTsv).unwrap();
        assert!(
            ub.interconnect_delay_ps < 2.0,
            "{}",
            ub.interconnect_delay_ps
        );
        assert!(
            tsv.interconnect_delay_ps < 5.0,
            "{}",
            tsv.interconnect_delay_ps
        );
        assert!(ub.interconnect_delay_ps < tsv.interconnect_delay_ps);
    }

    #[test]
    fn glass_3d_stacked_via_beats_any_lateral_route() {
        let col = simulate_link(&ChannelKind::StackedViaColumn { levels: 3 }).unwrap();
        let lateral = rdl(InterposerKind::Glass25D, 2_000.0);
        assert!(col.interconnect_delay_ps < lateral.interconnect_delay_ps);
        assert!(
            col.interconnect_delay_ps < 3.0,
            "{}",
            col.interconnect_delay_ps
        );
    }

    #[test]
    fn silicon_25d_paper_length_matches_table5_scale() {
        // Paper: 1,952 µm silicon L2M → 17.77 ps interconnect delay.
        let r = rdl(InterposerKind::Silicon25D, 1_952.0);
        assert!(
            (10.0..28.0).contains(&r.interconnect_delay_ps),
            "{}",
            r.interconnect_delay_ps
        );
        // Paper: 65.82 µW interconnect power.
        assert!(
            (35.0..110.0).contains(&r.interconnect_power_uw),
            "{}",
            r.interconnect_power_uw
        );
    }

    #[test]
    fn glass_beats_silicon_per_unit_delay_at_paper_lengths() {
        // The Table V claim: glass's thick wires carry a 3x longer net
        // with *less* delay than silicon's.
        let glass = rdl(InterposerKind::Glass25D, 5_980.0);
        let si = rdl(InterposerKind::Silicon25D, 1_952.0);
        let glass_per_mm = glass.interconnect_delay_ps / 5.98;
        let si_per_mm = si.interconnect_delay_ps / 1.952;
        assert!(glass_per_mm < si_per_mm, "{glass_per_mm} vs {si_per_mm}");
    }

    #[test]
    fn delay_and_power_grow_with_length() {
        let a = rdl(InterposerKind::Shinko, 1_000.0);
        let b = rdl(InterposerKind::Shinko, 3_000.0);
        assert!(b.interconnect_delay_ps > a.interconnect_delay_ps);
        assert!(b.interconnect_power_uw > a.interconnect_power_uw);
    }

    #[test]
    fn lengths_match_channel_geometry() {
        assert!((40.0..90.0).contains(&ChannelKind::StackedViaColumn { levels: 3 }.length_um()));
        assert_eq!(ChannelKind::BackToBackTsv.length_um(), 40.0);
        assert_eq!(
            ChannelKind::RdlTrace {
                tech: InterposerKind::Apx,
                length_um: 3500.0
            }
            .length_um(),
            3500.0
        );
    }
}
