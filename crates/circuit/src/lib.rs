#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
//! SPICE-lite circuit simulation.
//!
//! This crate stands in for the HSPICE / Keysight ADS / HyperLynx solver
//! chain the paper uses. It provides:
//!
//! * [`complex`] — complex arithmetic (no external linear-algebra crates).
//! * [`matrix`] — LU factorisation over `f64` and complex, solving with
//!   only the factors' nonzero entries.
//! * [`netlist`] — circuit description: R, L, C, sources with DC / pulse /
//!   PWL / PRBS waveforms.
//! * [`mna`] — modified nodal analysis stamping shared by the analyses.
//! * [`dc`] — operating-point analysis.
//! * [`ac`] — complex frequency sweeps (PDN impedance profiles).
//! * [`tran`] — trapezoidal transient analysis with one-time factorisation
//!   (linear circuits) that records only the probed waveforms, plus
//!   waveform measurement helpers.
//! * [`tline`] — lossy RLGC transmission-line ladders, including coupled
//!   victim/aggressor triples for crosstalk studies.
//! * [`twoport`] — ABCD-matrix two-ports and S-parameter conversion (the
//!   "extract S-parameters, then simulate" flow of Fig. 13).
//! * [`driver`] — the behavioural AIB output stage (Thevenin source with
//!   finite slew and 47.4 Ω output impedance).
//!
//! # Example: RC low-pass step response
//!
//! ```
//! use circuit::netlist::{Circuit, Waveform};
//! use circuit::tran::{Probe, TranConfig, simulate};
//!
//! let mut c = Circuit::new();
//! let inp = c.node("in");
//! let out = c.node("out");
//! c.vsource(inp, Circuit::GND, Waveform::step(1.0, 1e-9, 10e-12));
//! c.resistor(inp, out, 1_000.0);
//! c.capacitor(out, Circuit::GND, 1e-12); // τ = 1 ns
//! let config = TranConfig { t_stop: 10e-9, dt: 5e-12 };
//! let result = simulate(&c, &config, &[Probe::Voltage(out)])?;
//! let v_end = result.waves[0].last().copied().unwrap();
//! assert!((v_end - 1.0).abs() < 0.01);
//! # Ok::<(), circuit::CircuitError>(())
//! ```

pub mod ac;
pub mod complex;
pub mod dc;
pub mod driver;
pub mod matrix;
pub mod mna;
pub mod netlist;
pub mod parser;
pub mod tline;
pub mod tran;
pub mod twoport;

pub use complex::Complex64;
pub use netlist::{Circuit, NodeId, Waveform};

/// Errors produced by circuit construction and simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// The MNA matrix was singular (floating node, shorted source loop...).
    SingularMatrix {
        /// Pivot index where elimination failed.
        pivot: usize,
    },
    /// A simulation parameter was invalid (non-positive step, empty sweep).
    InvalidParameter {
        /// Parameter name.
        parameter: &'static str,
    },
    /// An element value was invalid (negative resistance...).
    InvalidElement {
        /// Description of the problem.
        reason: &'static str,
    },
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::SingularMatrix { pivot } => {
                write!(f, "singular MNA matrix at pivot {pivot} (floating node?)")
            }
            CircuitError::InvalidParameter { parameter } => {
                write!(f, "invalid simulation parameter {parameter}")
            }
            CircuitError::InvalidElement { reason } => write!(f, "invalid element: {reason}"),
        }
    }
}

impl std::error::Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CircuitError>();
        assert!(!CircuitError::SingularMatrix { pivot: 3 }
            .to_string()
            .is_empty());
        assert!(!CircuitError::InvalidParameter { parameter: "dt" }
            .to_string()
            .is_empty());
    }
}
