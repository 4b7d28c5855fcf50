//! Lossy RLGC transmission lines as discretised ladders.
//!
//! Interposer traces are electrically short at 0.7 Gbps (the longest net is
//! ~6 mm against a ~300 mm wavelength), so an N-section RC/RLC ladder is an
//! accurate time-domain model. Coupled victim/aggressor triples add mutual
//! capacitance at each ladder joint — the dominant crosstalk mechanism in
//! thin-dielectric RDL stacks.

use crate::netlist::{Circuit, NodeId};
use serde::Serialize;

/// Per-unit-length transmission-line parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RlgcLine {
    /// Series resistance, Ω/m.
    pub r_per_m: f64,
    /// Series inductance, H/m.
    pub l_per_m: f64,
    /// Shunt conductance, S/m.
    pub g_per_m: f64,
    /// Shunt capacitance, F/m.
    pub c_per_m: f64,
    /// Physical length, m.
    pub length_m: f64,
}

impl RlgcLine {
    /// Total series resistance, Ω.
    pub fn total_r(&self) -> f64 {
        self.r_per_m * self.length_m
    }

    /// Total capacitance, F.
    pub fn total_c(&self) -> f64 {
        self.c_per_m * self.length_m
    }

    /// Total inductance, H.
    pub fn total_l(&self) -> f64 {
        self.l_per_m * self.length_m
    }

    /// Elmore delay of the line driven by `r_source` into `c_load`, s.
    ///
    /// `0.5·R·C` distributed term plus source-resistance charging of the
    /// full line and load capacitance.
    pub fn elmore_delay(&self, r_source: f64, c_load: f64) -> f64 {
        let r = self.total_r();
        let c = self.total_c();
        0.693 * (r_source * (c + c_load) + r * (0.5 * c + c_load))
    }

    /// Adds the line to `circuit` as `segments` RLC π-sections between
    /// `input` and `output`. Returns the internal joint nodes.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn add_to_circuit(
        &self,
        circuit: &mut Circuit,
        input: NodeId,
        output: NodeId,
        segments: usize,
    ) -> Vec<NodeId> {
        assert!(segments > 0, "need at least one segment");
        let n = segments as f64;
        let r_seg = self.total_r() / n;
        let l_seg = self.total_l() / n;
        let c_seg = self.total_c() / n;
        let g_seg = self.g_per_m * self.length_m / n;

        let mut joints = Vec::with_capacity(segments - 1);
        // Half-capacitance at the input end.
        if c_seg > 0.0 {
            circuit.capacitor(input, Circuit::GND, c_seg / 2.0);
        }
        let mut prev = input;
        for s in 0..segments {
            let next = if s == segments - 1 {
                output
            } else {
                let j = circuit.node(format!("tl{}", s));
                joints.push(j);
                j
            };
            // Series R + L through an intermediate node.
            if l_seg > 1e-18 {
                let mid = circuit.node(format!("tlm{}", s));
                circuit.resistor(prev, mid, r_seg.max(1e-6));
                circuit.inductor(mid, next, l_seg);
            } else {
                circuit.resistor(prev, next, r_seg.max(1e-6));
            }
            // Shunt C (full at internal joints, half at the far end).
            let c_here = if s == segments - 1 {
                c_seg / 2.0
            } else {
                c_seg
            };
            if c_here > 0.0 {
                circuit.capacitor(next, Circuit::GND, c_here);
            }
            if g_seg > 0.0 {
                circuit.resistor(next, Circuit::GND, 1.0 / g_seg);
            }
            prev = next;
        }
        joints
    }
}

/// A coupled three-line bundle: one victim between two aggressors, with
/// mutual capacitance `cm_per_m` to each neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CoupledTriple {
    /// The per-line RLGC parameters.
    pub line: RlgcLine,
    /// Victim-to-aggressor mutual capacitance, F/m.
    pub cm_per_m: f64,
}

/// Node pairs returned by [`CoupledTriple::add_to_circuit`].
#[derive(Debug, Clone)]
pub struct CoupledNodes {
    /// Victim (input, output).
    pub victim: (NodeId, NodeId),
    /// Aggressor 1 (input, output).
    pub aggressor1: (NodeId, NodeId),
    /// Aggressor 2 (input, output).
    pub aggressor2: (NodeId, NodeId),
}

impl CoupledTriple {
    /// Builds the three coupled ladders in `circuit`, returning the six
    /// terminal nodes. Mutual capacitance is lumped at each ladder joint.
    pub fn add_to_circuit(&self, circuit: &mut Circuit, segments: usize) -> CoupledNodes {
        assert!(segments > 0, "need at least one segment");
        let vi = circuit.node("victim_in");
        let vo = circuit.node("victim_out");
        let a1i = circuit.node("agg1_in");
        let a1o = circuit.node("agg1_out");
        let a2i = circuit.node("agg2_in");
        let a2o = circuit.node("agg2_out");
        let jv = self.line.add_to_circuit(circuit, vi, vo, segments);
        let j1 = self.line.add_to_circuit(circuit, a1i, a1o, segments);
        let j2 = self.line.add_to_circuit(circuit, a2i, a2o, segments);
        // Mutual capacitance at each internal joint plus the endpoints.
        let cm_total = self.cm_per_m * self.line.length_m;
        let points = jv.len() + 2;
        let cm_each = cm_total / points as f64;
        if cm_each > 0.0 {
            let v_pts: Vec<NodeId> = std::iter::once(vi)
                .chain(jv.iter().copied())
                .chain(std::iter::once(vo))
                .collect();
            let a1_pts: Vec<NodeId> = std::iter::once(a1i)
                .chain(j1.iter().copied())
                .chain(std::iter::once(a1o))
                .collect();
            let a2_pts: Vec<NodeId> = std::iter::once(a2i)
                .chain(j2.iter().copied())
                .chain(std::iter::once(a2o))
                .collect();
            for k in 0..points {
                circuit.capacitor(v_pts[k], a1_pts[k], cm_each);
                circuit.capacitor(v_pts[k], a2_pts[k], cm_each);
            }
        }
        CoupledNodes {
            victim: (vi, vo),
            aggressor1: (a1i, a1o),
            aggressor2: (a2i, a2o),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Waveform;
    use crate::tran::{delay_50, simulate, Probe, TranConfig};

    fn test_line() -> RlgcLine {
        // Glass-like: 2 mm of 2µm × 4µm copper, ~140 fF/mm.
        RlgcLine {
            r_per_m: 2_150.0,
            l_per_m: 4e-7,
            g_per_m: 0.0,
            c_per_m: 140e-12,
            length_m: 2e-3,
        }
    }

    #[test]
    fn totals_scale_with_length() {
        let l = test_line();
        assert!((l.total_r() - 4.3).abs() < 0.01);
        assert!((l.total_c() - 280e-15).abs() < 1e-18);
    }

    #[test]
    fn ladder_delay_close_to_elmore() {
        // RC-only comparison: Elmore ignores inductance, so drop L here.
        let line = RlgcLine {
            l_per_m: 1e-12,
            ..test_line()
        };
        let r_src = 47.4;
        let c_load = 55e-15;
        let mut c = Circuit::new();
        let src = c.node("src");
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource(src, Circuit::GND, Waveform::step(0.9, 10e-12, 20e-12));
        c.resistor(src, inp, r_src);
        line.add_to_circuit(&mut c, inp, out, 10);
        c.capacitor(out, Circuit::GND, c_load);
        let r = simulate(
            &c,
            &TranConfig {
                t_stop: 2e-9,
                dt: 0.5e-12,
            },
            &[Probe::Voltage(src), Probe::Voltage(out)],
        )
        .unwrap();
        let d = delay_50(&r.times, &r.waves[0], &r.waves[1], 0.9).unwrap();
        let elmore = line.elmore_delay(r_src, c_load);
        // Simulated delay within 40 % of the Elmore estimate.
        assert!(
            (d - elmore).abs() / elmore < 0.4,
            "sim {d} vs elmore {elmore}"
        );
    }

    #[test]
    fn longer_line_longer_delay() {
        let mut delays = Vec::new();
        for len_mm in [1.0, 2.0, 4.0] {
            let line = RlgcLine {
                length_m: len_mm * 1e-3,
                ..test_line()
            };
            let mut c = Circuit::new();
            let src = c.node("src");
            let inp = c.node("in");
            let out = c.node("out");
            c.vsource(src, Circuit::GND, Waveform::step(0.9, 10e-12, 20e-12));
            c.resistor(src, inp, 47.4);
            line.add_to_circuit(&mut c, inp, out, 10);
            c.capacitor(out, Circuit::GND, 55e-15);
            let r = simulate(
                &c,
                &TranConfig {
                    t_stop: 4e-9,
                    dt: 1e-12,
                },
                &[Probe::Voltage(src), Probe::Voltage(out)],
            )
            .unwrap();
            delays.push(delay_50(&r.times, &r.waves[0], &r.waves[1], 0.9).unwrap());
        }
        assert!(delays[0] < delays[1] && delays[1] < delays[2], "{delays:?}");
    }

    #[test]
    fn coupled_triple_produces_crosstalk() {
        let triple = CoupledTriple {
            line: test_line(),
            cm_per_m: 40e-12,
        };
        let mut c = Circuit::new();
        let nodes = triple.add_to_circuit(&mut c, 8);
        // Victim held low through a 50 Ω termination; aggressors switch.
        c.resistor(nodes.victim.0, Circuit::GND, 50.0);
        c.resistor(nodes.victim.1, Circuit::GND, 1e4);
        for (i, (inp, out)) in [nodes.aggressor1, nodes.aggressor2].iter().enumerate() {
            let src = c.node(format!("asrc{i}"));
            c.vsource(src, Circuit::GND, Waveform::step(0.9, 50e-12, 30e-12));
            c.resistor(src, *inp, 47.4);
            c.capacitor(*out, Circuit::GND, 55e-15);
        }
        let r = simulate(
            &c,
            &TranConfig {
                t_stop: 1e-9,
                dt: 0.5e-12,
            },
            &[Probe::Voltage(nodes.victim.1)],
        )
        .unwrap();
        let v = &r.waves[0];
        let peak = v.iter().cloned().fold(0.0f64, |m, x| m.max(x.abs()));
        assert!(peak > 0.01, "expected visible crosstalk, peak = {peak}");
        assert!(peak < 0.45, "crosstalk must stay below half swing, {peak}");
    }

    #[test]
    #[should_panic(expected = "segment")]
    fn zero_segments_panics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        test_line().add_to_circuit(&mut c, a, b, 0);
    }
}
