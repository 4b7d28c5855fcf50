//! A small SPICE-deck text parser.
//!
//! The paper's methodology converts every extracted model "into a SPICE
//! netlist for timing and power simulation". This parser accepts that
//! interchange format for the element subset the workspace uses, so decks
//! can be stored as plain text and replayed against [`crate::tran`] /
//! [`crate::ac`]:
//!
//! ```text
//! * comment
//! R1 in out 47.4
//! C1 out 0 55f
//! L1 out rx 1n
//! V1 in 0 PULSE(0 0.9 50p 20p 20p 1 1)
//! I1 0 out DC 1m
//! ```
//!
//! Node `0` (or `gnd`) is ground; other node names are allocated in order
//! of first appearance. Engineering suffixes `f p n u m k meg g t` are
//! supported.

use crate::netlist::{Circuit, NodeId, Waveform};
use std::collections::{HashMap, HashSet};

/// Parse failures, with the offending line number (1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// A parsed deck: the circuit plus the name→node map for probing.
#[derive(Debug, Clone)]
pub struct Deck {
    /// The circuit.
    pub circuit: Circuit,
    /// Node name → id.
    pub nodes: HashMap<String, NodeId>,
}

impl Deck {
    /// Looks up a node by its deck name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        if is_ground(name) {
            return Some(Circuit::GND);
        }
        self.nodes.get(&name.to_ascii_lowercase()).copied()
    }
}

fn is_ground(name: &str) -> bool {
    name == "0" || name.eq_ignore_ascii_case("gnd")
}

/// Parses an engineering-notation value: `47.4`, `55f`, `1n`, `2.2meg`.
pub fn parse_value(token: &str) -> Option<f64> {
    let t = token.trim().to_ascii_lowercase();
    let (mult, digits) = if let Some(d) = t.strip_suffix("meg") {
        (1e6, d)
    } else if let Some(d) = t.strip_suffix('f') {
        (1e-15, d)
    } else if let Some(d) = t.strip_suffix('p') {
        (1e-12, d)
    } else if let Some(d) = t.strip_suffix('n') {
        (1e-9, d)
    } else if let Some(d) = t.strip_suffix('u') {
        (1e-6, d)
    } else if let Some(d) = t.strip_suffix('m') {
        (1e-3, d)
    } else if let Some(d) = t.strip_suffix('k') {
        (1e3, d)
    } else if let Some(d) = t.strip_suffix('g') {
        (1e9, d)
    } else if let Some(d) = t.strip_suffix('t') {
        (1e12, d)
    } else {
        (1.0, t.as_str())
    };
    digits.parse::<f64>().ok().map(|v| v * mult)
}

/// Parses a deck from text.
///
/// # Errors
///
/// Returns the first offending line with a human-readable reason.
pub fn parse(text: &str) -> Result<Deck, ParseError> {
    let mut circuit = Circuit::new();
    let mut nodes: HashMap<String, NodeId> = HashMap::new();
    let mut seen_names: HashSet<String> = HashSet::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') || trimmed.starts_with('.') {
            continue;
        }
        let err = |reason: &str| ParseError {
            line,
            reason: reason.to_string(),
        };
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        let Some((&name, _)) = tokens.split_first() else {
            // A trimmed non-empty line always tokenizes, but keep the
            // parser total rather than rely on that here.
            continue;
        };
        let Some(kind) = name.chars().next().map(|c| c.to_ascii_uppercase()) else {
            return Err(err("empty element name"));
        };
        if !seen_names.insert(name.to_ascii_lowercase()) {
            return Err(err(&format!("duplicate element name {name:?}")));
        }
        if tokens.len() < 4 {
            return Err(err("element needs at least 2 nodes and a value"));
        }
        let mut get_node = |tok: &str| -> NodeId {
            if is_ground(tok) {
                return Circuit::GND;
            }
            let key = tok.to_ascii_lowercase();
            *nodes
                .entry(key.clone())
                .or_insert_with(|| circuit.node(key))
        };
        let a = get_node(tokens[1]);
        let b = get_node(tokens[2]);
        match kind {
            'R' => {
                let v = parse_value(tokens[3]).ok_or_else(|| err("bad resistance"))?;
                if v.is_nan() || v <= 0.0 {
                    return Err(err("resistance must be positive"));
                }
                circuit.resistor(a, b, v);
            }
            'C' => {
                let v = parse_value(tokens[3]).ok_or_else(|| err("bad capacitance"))?;
                if v.is_nan() || v <= 0.0 {
                    return Err(err("capacitance must be positive"));
                }
                circuit.capacitor(a, b, v);
            }
            'L' => {
                let v = parse_value(tokens[3]).ok_or_else(|| err("bad inductance"))?;
                if v.is_nan() || v <= 0.0 {
                    return Err(err("inductance must be positive"));
                }
                circuit.inductor(a, b, v);
            }
            'V' | 'I' => {
                let wave = parse_source(&tokens[3..]).ok_or_else(|| err("bad source spec"))?;
                if kind == 'V' {
                    circuit.vsource(a, b, wave);
                } else {
                    circuit.isource(a, b, wave);
                }
            }
            other => {
                return Err(err(&format!("unsupported element type {other:?}")));
            }
        }
    }
    Ok(Deck { circuit, nodes })
}

/// Parses `DC <v>`, a bare value, `PULSE(v0 v1 delay rise fall width
/// period)` or `SIN(offset amplitude freq)`.
fn parse_source(tokens: &[&str]) -> Option<Waveform> {
    let joined = tokens.join(" ");
    let upper = joined.to_ascii_uppercase();
    if let Some(rest) = upper.strip_prefix("DC") {
        return parse_value(rest.trim()).map(Waveform::Dc);
    }
    if upper.starts_with("PULSE") {
        let args = arg_list(&joined)?;
        if args.len() != 7 {
            return None;
        }
        return Some(Waveform::Pulse {
            v0: args[0],
            v1: args[1],
            delay: args[2],
            rise: args[3],
            fall: args[4],
            width: args[5],
            period: args[6],
        });
    }
    if upper.starts_with("SIN") {
        let args = arg_list(&joined)?;
        if args.len() != 3 {
            return None;
        }
        return Some(Waveform::Sine {
            offset: args[0],
            amplitude: args[1],
            freq_hz: args[2],
        });
    }
    parse_value(&joined).map(Waveform::Dc)
}

fn arg_list(spec: &str) -> Option<Vec<f64>> {
    let open = spec.find('(')?;
    let close = spec.rfind(')')?;
    spec[open + 1..close]
        .split_whitespace()
        .map(parse_value)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tran::{simulate, Probe, TranConfig};

    #[test]
    fn parses_and_simulates_a_divider() {
        let deck = parse(
            "* divider\n\
             V1 top 0 DC 10\n\
             R1 top mid 1k\n\
             R2 mid 0 3k\n",
        )
        .unwrap();
        let sol = crate::dc::solve(&deck.circuit).unwrap();
        let mid = deck.node("mid").unwrap();
        assert!((sol.voltage(mid) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn engineering_suffixes() {
        assert!((parse_value("55f").unwrap() - 55e-15).abs() < 1e-27);
        assert_eq!(parse_value("1n"), Some(1e-9));
        assert_eq!(parse_value("2.2meg"), Some(2.2e6));
        assert_eq!(parse_value("47.4"), Some(47.4));
        assert_eq!(parse_value("10k"), Some(1e4));
        assert_eq!(parse_value("xyz"), None);
    }

    #[test]
    fn pulse_source_round_trips_through_transient() {
        let deck = parse(
            "V1 in 0 PULSE(0 0.9 50p 20p 20p 1 1)\n\
             R1 in out 1k\n\
             C1 out 0 1p\n",
        )
        .unwrap();
        let r = simulate(
            &deck.circuit,
            &TranConfig {
                t_stop: 10e-9,
                dt: 5e-12,
            },
            &[Probe::Voltage(deck.node("out").unwrap())],
        )
        .unwrap();
        let v = &r.waves[0];
        assert!((v.last().unwrap() - 0.9).abs() < 0.01);
    }

    #[test]
    fn sine_source_parses() {
        let deck = parse("V1 a 0 SIN(0 1 1g)\nR1 a 0 50\n").unwrap();
        match &deck.circuit.elements()[0] {
            crate::netlist::Element::VSource { wave, .. } => {
                assert_eq!(
                    wave,
                    &Waveform::Sine {
                        offset: 0.0,
                        amplitude: 1.0,
                        freq_hz: 1e9
                    }
                );
            }
            other => panic!("expected source, got {other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("R1 a 0 1k\nQ1 a 0 b x\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.reason.contains("unsupported"));
        let e = parse("R1 a 0\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn duplicate_element_names_are_rejected() {
        let e = parse("R1 a 0 1k\nr1 b 0 2k\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.reason.contains("duplicate"), "reason: {}", e.reason);
        assert!(e.reason.contains("r1"), "reason names the element");
    }

    #[test]
    fn ground_aliases() {
        let deck = parse("R1 a gnd 1k\nV1 a 0 DC 1\n").unwrap();
        assert_eq!(deck.node("gnd"), Some(Circuit::GND));
        assert_eq!(deck.node("0"), Some(Circuit::GND));
        let sol = crate::dc::solve(&deck.circuit).unwrap();
        assert!((sol.voltage(deck.node("a").unwrap()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn comments_and_directives_are_skipped() {
        let deck = parse("* title\n.tran 1n 10n\nR1 a 0 1k\nV1 a 0 DC 2\n").unwrap();
        assert_eq!(deck.circuit.elements().len(), 2);
    }
}
