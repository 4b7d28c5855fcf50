//! The `circuit.lu_solve` counter: a transient run adds its step count
//! once, and a one-shot solve adds one. Counters are process-wide, so
//! this file is a test binary of its own with a single test.

use circuit::netlist::{Circuit, Waveform};
use circuit::tran::{simulate, Probe, TranConfig};
use techlib::obs;

fn count(name: &str) -> u64 {
    obs::counter_totals()
        .into_iter()
        .find(|&(counter, _)| counter == name)
        .map_or(0, |(_, value)| value)
}

#[test]
fn a_transient_run_counts_one_solve_per_step() {
    obs::enable();
    let mut c = Circuit::new();
    let inp = c.node("in");
    let out = c.node("out");
    c.vsource(inp, Circuit::GND, Waveform::step(1.0, 0.0, 1e-12));
    c.resistor(inp, out, 1_000.0);
    c.capacitor(out, Circuit::GND, 1e-12);
    let factors = count("circuit.lu_factor");
    let solves = count("circuit.lu_solve");

    let config = TranConfig {
        t_stop: 1e-9,
        dt: 2e-12,
    };
    let run = simulate(&c, &config, &[Probe::Voltage(out)]).unwrap();
    let steps = run.times.len() as u64 - 1;
    assert!(steps >= 500, "{steps} steps");
    assert_eq!(count("circuit.lu_factor"), factors + 1);
    assert_eq!(count("circuit.lu_solve"), solves + steps);

    // A DC operating point factors once and solves once.
    circuit::dc::solve(&c).unwrap();
    assert_eq!(count("circuit.lu_factor"), factors + 2);
    assert_eq!(count("circuit.lu_solve"), solves + steps + 1);
}
