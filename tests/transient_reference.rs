//! The sparse LU solve and the probed transient stepper against a dense
//! reference.
//!
//! `Matrix::lu` keeps only the nonzero entries of the L and U factors and
//! `Lu::solve_into` walks only those, and `tran::simulate` records only
//! the waveforms it is asked for. Both must reproduce the dense solver
//! they replaced bit for bit. The reference below is that dense solver:
//! its factorisation, its forward/back substitution loops and its
//! transient stepper, copied verbatim apart from reaching the matrix
//! through `Matrix`'s public accessors.
//!
//! * On the production decks (the Table V link decks of every channel
//!   kind at every RDL segment count, a Fig. 14 eye deck and the Table IV
//!   PDN deck), every unknown at every time step must match by
//!   `to_bits()`, signed zeros included.
//! * On random sparse systems (`f64` and `Complex64`, rows shuffled so
//!   partial pivoting must swap), every nonzero solution component must
//!   match by `to_bits()`. A zero component may differ only in its sign,
//!   since `-0 - -0 = +0` while a skipped term leaves `-0`, so zeros
//!   are compared by `==`.

use circuit::matrix::{Matrix, Scalar};
use circuit::mna::MnaLayout;
use circuit::netlist::{Circuit, Element, NodeId};
use circuit::tran::{simulate, Probe, TranConfig};
use circuit::Complex64;
use proptest::prelude::*;
use si::eye::{lateral_eye_deck, EyeConfig};
use si::link::{link_deck, ChannelKind};
use techlib::spec::{InterposerKind, InterposerSpec};

// ---------------------------------------------------------------------
// The dense reference.
// ---------------------------------------------------------------------

/// Dense Doolittle LU with partial pivoting: the factored matrix (unit L
/// below the diagonal, U on and above it) and the row permutation.
fn dense_lu<T: Scalar>(mut m: Matrix<T>) -> (Matrix<T>, Vec<usize>) {
    let n = m.dim();
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Pivot.
        let mut p = k;
        let mut best = m.get(k, k).magnitude();
        for r in (k + 1)..n {
            let mag = m.get(r, k).magnitude();
            if mag > best {
                best = mag;
                p = r;
            }
        }
        assert!(best >= 1e-300, "singular at pivot {k}");
        if p != k {
            for c in 0..n {
                let a = m.get(k, c);
                let b = m.get(p, c);
                m.set(k, c, b);
                m.set(p, c, a);
            }
            perm.swap(k, p);
        }
        let pivot = m.get(k, k);
        for r in (k + 1)..n {
            let factor = m.get(r, k) / pivot;
            m.set(r, k, factor);
            for c in (k + 1)..n {
                let v = m.get(r, c) - factor * m.get(k, c);
                m.set(r, c, v);
            }
        }
    }
    (m, perm)
}

/// Dense forward and back substitution over every entry of the factors.
fn dense_solve_into<T: Scalar>(m: &Matrix<T>, perm: &[usize], b: &[T], x: &mut [T]) {
    let n = m.dim();
    // Apply permutation.
    for (xi, &p) in x.iter_mut().zip(perm) {
        *xi = b[p];
    }
    // Forward substitution (L has unit diagonal).
    for r in 1..n {
        let mut acc = x[r];
        for (c, &xc) in x.iter().enumerate().take(r) {
            acc = acc - m.get(r, c) * xc;
        }
        x[r] = acc;
    }
    // Back substitution.
    for r in (0..n).rev() {
        let mut acc = x[r];
        for (c, &xc) in x.iter().enumerate().skip(r + 1) {
            acc = acc - m.get(r, c) * xc;
        }
        x[r] = acc / m.get(r, r);
    }
}

fn stamp_conductance(m: &mut Matrix<f64>, layout: &MnaLayout, a: NodeId, b: NodeId, g: f64) {
    if let Some(i) = layout.node_index(a) {
        m.add(i, i, g);
    }
    if let Some(j) = layout.node_index(b) {
        m.add(j, j, g);
    }
    if let (Some(i), Some(j)) = (layout.node_index(a), layout.node_index(b)) {
        m.add(i, j, -g);
        m.add(j, i, -g);
    }
}

fn stamp_branch(
    m: &mut Matrix<f64>,
    layout: &MnaLayout,
    a: NodeId,
    b: NodeId,
    branch: usize,
    r_eq: f64,
) {
    let row = layout.branch_index(branch);
    if let Some(i) = layout.node_index(a) {
        m.add(row, i, 1.0);
        m.add(i, row, 1.0);
    }
    if let Some(j) = layout.node_index(b) {
        m.add(row, j, -1.0);
        m.add(j, row, -1.0);
    }
    if r_eq != 0.0 {
        m.add(row, row, -r_eq);
    }
}

/// The dense trapezoidal stepper: time points and every MNA unknown's
/// waveform, indexed `[unknown][step]`.
fn dense_simulate(circuit: &Circuit, config: &TranConfig) -> (Vec<f64>, Vec<Vec<f64>>) {
    let layout = MnaLayout::new(circuit);
    let n = layout.dim();
    let dt = config.dt;
    let steps = (config.t_stop / dt).ceil() as usize;
    let branch_of = |ei: usize| layout.branch_of(ei).unwrap();

    // Build the constant system matrix.
    let mut m = Matrix::<f64>::zeros(n);
    for (ei, e) in circuit.elements().iter().enumerate() {
        match e {
            Element::Resistor { a, b, ohms } => {
                stamp_conductance(&mut m, &layout, *a, *b, 1.0 / ohms);
            }
            Element::Capacitor { a, b, farads } => {
                stamp_conductance(&mut m, &layout, *a, *b, 2.0 * farads / dt);
            }
            Element::Inductor { a, b, henries } => {
                stamp_branch(&mut m, &layout, *a, *b, branch_of(ei), 2.0 * henries / dt);
            }
            Element::VSource { a, b, .. } => {
                stamp_branch(&mut m, &layout, *a, *b, branch_of(ei), 0.0);
            }
            Element::ISource { .. } => {}
        }
    }
    let (lu, perm) = dense_lu(m);

    // Element state for companion models: (v_prev, i_prev).
    let mut cap_state: Vec<(f64, f64)> = Vec::new();
    let mut ind_state: Vec<(f64, f64)> = Vec::new();
    for e in circuit.elements() {
        match e {
            Element::Capacitor { .. } => cap_state.push((0.0, 0.0)),
            Element::Inductor { .. } => ind_state.push((0.0, 0.0)),
            _ => {}
        }
    }

    let mut waves: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); n];
    let mut times = Vec::with_capacity(steps + 1);
    let mut x = vec![0.0; n];
    times.push(0.0);
    for (w, &xi) in waves.iter_mut().zip(&x) {
        w.push(xi);
    }
    let node_v = |x: &[f64], node: NodeId| layout.node_index(node).map_or(0.0, |i| x[i]);

    let mut rhs = vec![0.0; n];
    for step in 1..=steps {
        let t = step as f64 * dt;
        rhs.fill(0.0);
        let mut ci = 0usize;
        let mut li = 0usize;
        for (ei, e) in circuit.elements().iter().enumerate() {
            match e {
                Element::Capacitor { a, b, farads } => {
                    let (v_prev, i_prev) = cap_state[ci];
                    ci += 1;
                    let g = 2.0 * farads / dt;
                    let ieq = g * v_prev + i_prev;
                    if let Some(i) = layout.node_index(*a) {
                        rhs[i] += ieq;
                    }
                    if let Some(j) = layout.node_index(*b) {
                        rhs[j] -= ieq;
                    }
                }
                Element::Inductor { henries, .. } => {
                    let (v_prev, i_prev) = ind_state[li];
                    li += 1;
                    let r_eq = 2.0 * henries / dt;
                    rhs[layout.branch_index(branch_of(ei))] = -(r_eq * i_prev + v_prev);
                }
                Element::VSource { wave, .. } => {
                    rhs[layout.branch_index(branch_of(ei))] = wave.at(t);
                }
                Element::ISource { a, b, wave } => {
                    let i = wave.at(t);
                    if let Some(ia) = layout.node_index(*a) {
                        rhs[ia] -= i;
                    }
                    if let Some(ib) = layout.node_index(*b) {
                        rhs[ib] += i;
                    }
                }
                Element::Resistor { .. } => {}
            }
        }
        dense_solve_into(&lu, &perm, &rhs, &mut x);

        let mut ci = 0usize;
        let mut li = 0usize;
        for (ei, e) in circuit.elements().iter().enumerate() {
            match e {
                Element::Capacitor { a, b, farads } => {
                    let g = 2.0 * farads / dt;
                    let v = node_v(&x, *a) - node_v(&x, *b);
                    let st = &mut cap_state[ci];
                    ci += 1;
                    let i_new = g * (v - st.0) - st.1;
                    *st = (v, i_new);
                }
                Element::Inductor { a, b, .. } => {
                    let v = node_v(&x, *a) - node_v(&x, *b);
                    ind_state[li] = (v, x[layout.branch_index(branch_of(ei))]);
                    li += 1;
                }
                _ => {}
            }
        }

        times.push(t);
        for (w, &xi) in waves.iter_mut().zip(&x) {
            w.push(xi);
        }
    }
    (times, waves)
}

// ---------------------------------------------------------------------
// Production decks.
// ---------------------------------------------------------------------

/// Runs `circuit` through `simulate`, probing every MNA unknown in MNA
/// order, and requires every sample to equal the dense reference's by
/// `to_bits()`.
fn assert_bit_exact(what: &str, circuit: &Circuit, config: &TranConfig) {
    let layout = MnaLayout::new(circuit);
    let probes: Vec<Probe> = (1..circuit.node_count())
        .map(|i| Probe::Voltage(NodeId(i)))
        .chain(
            (0..circuit.elements().len())
                .filter(|&ei| layout.branch_of(ei).is_ok())
                .map(Probe::Current),
        )
        .collect();
    assert_eq!(probes.len(), layout.dim());
    let sparse = simulate(circuit, config, &probes).unwrap();
    let (times, dense) = dense_simulate(circuit, config);
    assert_eq!(sparse.times.len(), times.len(), "{what}: sample count");
    for (k, (a, b)) in sparse.times.iter().zip(&times).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: time point {k}");
    }
    for (u, (got, want)) in sparse.waves.iter().zip(&dense).enumerate() {
        for (step, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: unknown {u} at step {step}: sparse {a:e}, dense {b:e}"
            );
        }
    }
}

/// The link decks' transient (see `si::link`).
const LINK_TRAN: TranConfig = TranConfig {
    t_stop: 3e-9,
    dt: 0.5e-12,
};

#[test]
fn link_decks_of_every_channel_kind_match_the_dense_solve() {
    let spec = InterposerSpec::for_kind(InterposerKind::Glass3D);
    assert_bit_exact("baseline", &link_deck(None, &spec).circuit, &LINK_TRAN);
    let column = ChannelKind::StackedViaColumn { levels: 3 };
    assert_bit_exact(
        "via column",
        &link_deck(Some(&column), &spec).circuit,
        &LINK_TRAN,
    );
    let spec = InterposerSpec::for_kind(InterposerKind::Silicon3D);
    for channel in [ChannelKind::MicroBump, ChannelKind::BackToBackTsv] {
        let deck = link_deck(Some(&channel), &spec);
        assert_bit_exact(&format!("{channel:?}"), &deck.circuit, &LINK_TRAN);
    }
}

#[test]
fn rdl_link_decks_at_every_segment_count_match_the_dense_solve() {
    // The link deck cuts an RDL trace into ceil(length / 200 µm) ladder
    // segments, clamped to 4..=40; the technologies take turns.
    let techs = [
        InterposerKind::Glass25D,
        InterposerKind::Silicon25D,
        InterposerKind::Shinko,
        InterposerKind::Apx,
        InterposerKind::Glass3D,
    ];
    for segments in 4..=40usize {
        let tech = techs[segments % techs.len()];
        let channel = ChannelKind::RdlTrace {
            tech,
            length_um: 200.0 * segments as f64,
        };
        let deck = link_deck(Some(&channel), &InterposerSpec::for_kind(tech));
        assert_bit_exact(&format!("{tech} x{segments}"), &deck.circuit, &LINK_TRAN);
    }
}

#[test]
fn eye_deck_matches_the_dense_solve() {
    // The Fig. 14 Glass 2.5D deck with both aggressors, over its first
    // eight unit intervals at the eye runs' 2 ps step.
    let config = EyeConfig::paper_deck();
    let (deck, _) = lateral_eye_deck(InterposerKind::Glass25D, 5_980.0, &config);
    let tran = TranConfig {
        t_stop: 8.0 / config.data_rate_bps,
        dt: 2e-12,
    };
    assert_bit_exact("glass 2.5D eye", &deck, &tran);
}

#[test]
fn pdn_transient_deck_matches_the_dense_solve() {
    // The Table IV 125 MHz switching-load deck, with its own transient.
    let model = pi::pdn_model::PdnCircuit::build(
        InterposerKind::Silicon3D,
        pi::pdn_model::Excitation::SwitchingLoad,
    )
    .unwrap();
    let tran = TranConfig {
        t_stop: 20e-6,
        dt: 1e-9,
    };
    assert_bit_exact("silicon 3D PDN", &model.circuit, &tran);
}

// ---------------------------------------------------------------------
// Random sparse systems.
// ---------------------------------------------------------------------

/// A 64-bit LCG: deterministic per proptest case.
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random sparse diagonally dominant system with its rows shuffled, so
/// partial pivoting has to swap rows back, and a right-hand side with
/// exact zeros in it.
fn random_system<T: Scalar>(
    n: usize,
    density: f64,
    seed: u64,
    value: impl Fn(&mut Lcg) -> T,
) -> (Matrix<T>, Vec<T>) {
    let mut rng = Lcg(seed);
    let mut rows: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_unit() * (i + 1) as f64) as usize;
        rows.swap(i, j.min(i));
    }
    // Keep at least one swap.
    if rows.iter().enumerate().all(|(i, &r)| i == r) {
        rows.swap(0, n - 1);
    }
    let four = T::one() + T::one() + T::one() + T::one();
    let mut a = Matrix::<T>::zeros(n);
    for (r, &row) in rows.iter().enumerate() {
        for c in 0..n {
            if c == r {
                a.set(row, c, value(&mut rng) + four);
            } else if rng.next_unit() < density {
                a.set(row, c, value(&mut rng));
            }
        }
    }
    let b = (0..n)
        .map(|_| {
            if rng.next_unit() < 0.3 {
                T::zero()
            } else {
                value(&mut rng)
            }
        })
        .collect();
    (a, b)
}

/// Solves with `Matrix::lu` and with the dense reference and compares.
fn compare_solves<T: Scalar + std::fmt::Debug>(
    a: Matrix<T>,
    b: &[T],
    bits: impl Fn(T) -> Vec<u64>,
) -> Result<(), TestCaseError> {
    let sparse = a.clone().lu().unwrap().solve(b);
    let (lu, perm) = dense_lu(a);
    let mut dense = vec![T::zero(); b.len()];
    dense_solve_into(&lu, &perm, b, &mut dense);
    for (i, (&s, &d)) in sparse.iter().zip(&dense).enumerate() {
        if d == T::zero() {
            prop_assert!(s == T::zero(), "x[{}]: sparse {:?}, dense {:?}", i, s, d);
        } else {
            prop_assert_eq!(bits(s), bits(d), "x[{}]: sparse {:?}, dense {:?}", i, s, d);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sparse_f64_solve_matches_the_dense_reference(n in 2usize..24, density in 0.05f64..0.5, seed in 0u64..1_000_000) {
        let (a, b) = random_system(n, density, seed, |rng| rng.next_unit() - 0.5);
        compare_solves(a, &b, |v: f64| vec![v.to_bits()])?;
    }

    #[test]
    fn sparse_complex_solve_matches_the_dense_reference(n in 2usize..24, density in 0.05f64..0.5, seed in 0u64..1_000_000) {
        let (a, b) = random_system(n, density, seed, |rng| {
            Complex64::new(rng.next_unit() - 0.5, rng.next_unit() - 0.5)
        });
        compare_solves(a, &b, |v: Complex64| vec![v.re.to_bits(), v.im.to_bits()])?;
    }
}
