//! Behavioural AIB driver stages for transient decks.
//!
//! The transmitter is a Thevenin source (data waveform with finite edges
//! behind the 47.4 Ω output impedance); the receiver is its input
//! capacitance plus the chiplet pad parasitic. This is the linearised
//! version of the inverter chain of Fig. 6 — adequate because the paper's
//! decks also fix TX/RX strengths (128X/16X) for every experiment.

use crate::netlist::{Circuit, NodeId, Waveform};
use techlib::iodriver::IoDriver;

/// Instantiates the transmitter: `data` behind the driver impedance.
/// Returns the element index of the source (for current/power probes).
pub fn add_tx(circuit: &mut Circuit, driver: &IoDriver, out: NodeId, data: Waveform) -> usize {
    let internal = circuit.node("tx_int");
    circuit.vsource(internal, Circuit::GND, data);
    let src_index = circuit.elements().len() - 1;
    circuit.resistor(internal, out, driver.output_impedance_ohm);
    src_index
}

/// Instantiates the receiver load (RX input + pad capacitance) at `node`.
pub fn add_rx(circuit: &mut Circuit, driver: &IoDriver, node: NodeId) {
    circuit.capacitor(node, Circuit::GND, driver.rx_input_cap_f);
}

/// The step waveform the Table V decks drive: 0→VDD at `delay` with the
/// driver's 20 ps output edge.
pub fn step_data(vdd: f64, delay: f64) -> Waveform {
    Waveform::step(vdd, delay, 20e-12)
}

/// The PRBS-7 waveform the eye-diagram decks drive at `rate_bps`.
pub fn prbs_data(vdd: f64, rate_bps: f64, seed: u8) -> Waveform {
    Waveform::Prbs {
        v0: 0.0,
        v1: vdd,
        bit: 1.0 / rate_bps,
        edge: 40e-12,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tran::{cross_time, simulate, Probe, TranConfig};

    #[test]
    fn tx_drives_a_load_through_rout() {
        let mut c = Circuit::new();
        let pad = c.node("pad");
        let drv = IoDriver::aib();
        add_tx(&mut c, &drv, pad, step_data(0.9, 10e-12));
        add_rx(&mut c, &drv, pad);
        let r = simulate(
            &c,
            &TranConfig {
                t_stop: 1e-9,
                dt: 1e-12,
            },
            &[Probe::Voltage(pad)],
        )
        .unwrap();
        let v = &r.waves[0];
        assert!((v.last().unwrap() - 0.9).abs() < 1e-3);
        // RC = 47.4 × 55 fF = 2.6 ps: essentially instant at this scale.
        let t = cross_time(&r.times, v, 0.45, true, 0.0).unwrap();
        assert!(t < 60e-12, "t = {t}");
    }

    #[test]
    fn source_index_probes_current() {
        let mut c = Circuit::new();
        let pad = c.node("pad");
        let drv = IoDriver::aib();
        let src = add_tx(&mut c, &drv, pad, Waveform::Dc(0.9));
        c.resistor(pad, Circuit::GND, 47.4);
        let r = simulate(
            &c,
            &TranConfig {
                t_stop: 0.1e-9,
                dt: 1e-12,
            },
            &[Probe::Current(src)],
        )
        .unwrap();
        let i = &r.waves[0];
        // Divider: 0.9 V over 94.8 Ω ≈ 9.5 mA.
        assert!((i.last().unwrap().abs() - 0.0095).abs() < 0.0002);
    }

    #[test]
    fn prbs_data_uses_bit_period() {
        let w = prbs_data(0.9, 0.7e9, 7);
        if let Waveform::Prbs { bit, .. } = w {
            assert!((bit - 1.0 / 0.7e9).abs() < 1e-18);
        } else {
            panic!("expected PRBS waveform");
        }
    }
}
