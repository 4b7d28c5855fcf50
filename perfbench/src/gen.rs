//! Seeded input generators. The seed belongs to the benchmark; the
//! program only ever sees the scenarios generated from it.

use crate::stats::Rng;
use codesign::scenario::{Scenario, ScenarioOverrides};
use codesign::table5::MonitorLengths;
use techlib::spec::InterposerKind;

/// CLI-style name of a technology.
pub fn slug(tech: InterposerKind) -> &'static str {
    match tech {
        InterposerKind::Glass25D => "glass25d",
        InterposerKind::Glass3D => "glass3d",
        InterposerKind::Silicon25D => "silicon25d",
        InterposerKind::Silicon3D => "silicon3d",
        InterposerKind::Shinko => "shinko",
        InterposerKind::Apx => "apx",
        InterposerKind::Monolithic2D => "monolithic2d",
    }
}

/// Technologies the sweep and serve workloads draw from. The organic
/// substrates (Shinko, APX) route for seconds each, which would swamp
/// set-up; `paper_cold` covers them.
pub const SWEEP_TECHS: [InterposerKind; 4] = [
    InterposerKind::Glass25D,
    InterposerKind::Glass3D,
    InterposerKind::Silicon25D,
    InterposerKind::Silicon3D,
];

/// Technologies whose upstream knobs the serve workload perturbs; both
/// re-route in well under a second, so that class stays steady.
pub const REROUTE_TECHS: [InterposerKind; 2] =
    [InterposerKind::Glass3D, InterposerKind::Silicon25D];

/// Scenarios per sweep batch.
pub const SWEEP_BATCH: usize = 16;

/// Distinct loss tangents per batch; with [`SWEEP_BATCH`] draws, about
/// a third of each batch repeats a links result computed earlier in it.
/// No two batches share a loss tangent, so that share stays the same
/// however many batches a run gets through.
const SWEEP_MENU: usize = 6;

/// The values `lo`, `lo + step`, … up to `hi`, visited in a seeded
/// order without repeats: index `i` maps to step `(a·i + c) mod len`
/// with `a` coprime to `len`, a permutation of the steps. Indices at or
/// beyond `len` wrap around and repeat.
#[derive(Debug, Clone)]
pub struct Distinct {
    lo: f64,
    step: f64,
    len: u64,
    a: u64,
    c: u64,
}

impl Distinct {
    /// The sequence over `[lo, hi]` in steps of `step`, ordered by `rng`.
    pub fn new(rng: &mut Rng, lo: f64, hi: f64, step: f64) -> Distinct {
        let len = ((hi - lo) / step).round() as u64 + 1;
        let gcd = |mut x: u64, mut y: u64| {
            while y != 0 {
                (x, y) = (y, x % y);
            }
            x
        };
        let mut a = 1 + rng.next_u64() % len.max(1);
        while gcd(a, len) != 1 {
            a += 1;
        }
        Distinct {
            lo,
            step,
            len,
            a,
            c: rng.next_u64() % len,
        }
    }

    /// The `i`-th value, rounded so it prints exactly as it parses.
    pub fn get(&self, i: u64) -> f64 {
        let k = (u128::from(self.a) * u128::from(i) + u128::from(self.c)) % u128::from(self.len);
        let v = self.lo + k as f64 * self.step;
        format!("{v:.6}").parse().unwrap_or(v)
    }
}

/// Loss tangents the sweep and serve workloads draw from: 29 501 values.
fn loss_tangents(rng: &mut Rng) -> Distinct {
    Distinct::new(rng, 0.0005, 0.03, 0.000001)
}

/// The sweep generator: batch after batch of loss-tangent variants of
/// the four [`SWEEP_TECHS`], each batch with its own small menu.
#[derive(Debug, Clone)]
pub struct SweepGen {
    rng: Rng,
    tangents: Distinct,
    batch: u64,
}

impl SweepGen {
    /// The generator for `seed`.
    pub fn new(seed: u64) -> SweepGen {
        let mut rng = Rng::new(seed, 0x5eed);
        SweepGen {
            tangents: loss_tangents(&mut rng),
            rng,
            batch: 0,
        }
    }

    /// The next batch of [`SWEEP_BATCH`] scenarios.
    pub fn next_batch(&mut self) -> Vec<Scenario> {
        let batch = self.batch;
        self.batch += 1;
        let first = batch * SWEEP_MENU as u64;
        let menu: Vec<f64> = (first..first + SWEEP_MENU as u64)
            .map(|i| self.tangents.get(i))
            .collect();
        (0..SWEEP_BATCH)
            .map(|i| {
                let tech = SWEEP_TECHS[self.rng.below(SWEEP_TECHS.len())];
                let overrides = ScenarioOverrides {
                    loss_tangent: Some(menu[self.rng.below(SWEEP_MENU)]),
                    ..ScenarioOverrides::default()
                };
                Scenario::new(
                    format!("b{batch}-s{i}-{}", slug(tech)),
                    tech,
                    MonitorLengths::Routed,
                    overrides,
                    Vec::new(),
                )
                .expect("generated loss tangents are in range")
            })
            .collect()
    }
}

/// What a serve request asks of the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A scenario this client already had answered: context-pool and
    /// store hit.
    Hit,
    /// A new loss tangent: links compute plus store writes.
    Links,
    /// A new metal thickness or die spacing: a re-route plus writes.
    Upstream,
}

impl Class {
    /// Short name for spans and reports.
    pub fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Links => "links",
            Class::Upstream => "upstream",
        }
    }
}

/// One `/sweep` request: a one-scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Scenario name (unique per distinct scenario).
    pub name: String,
    /// JSON request body.
    pub body: String,
    /// Request class.
    pub class: Class,
}

fn request(name: String, tech: InterposerKind, knob: Option<(&str, f64)>, class: Class) -> Request {
    let overrides = knob.map_or(String::new(), |(key, value)| {
        format!(",\"overrides\":{{\"{key}\":{value}}}")
    });
    let body = format!(
        "[{{\"name\":\"{name}\",\"tech\":\"{}\"{overrides}}}]",
        slug(tech)
    );
    Request { name, body, class }
}

/// The paper scenario of every [`SWEEP_TECHS`] technology — the daemon's
/// warm-up requests.
pub fn base_requests() -> Vec<Request> {
    SWEEP_TECHS
        .iter()
        .map(|&tech| request(format!("base-{}", slug(tech)), tech, None, Class::Hit))
        .collect()
}

/// Requests per scheduling block: in every block each client sends
/// exactly 15 repeats, 4 new loss tangents and 1 re-route, in a seeded
/// order, so every seed and run length sees the same mix (about 75 %,
/// 20 % and 5 %). The re-route alternates between the two
/// [`REROUTE_TECHS`] block by block, and between its two knobs every
/// other block.
const BLOCK: [Class; 20] = {
    let mut block = [Class::Hit; 20];
    block[15] = Class::Links;
    block[16] = Class::Links;
    block[17] = Class::Links;
    block[18] = Class::Links;
    block[19] = Class::Upstream;
    block
};

/// New-scenario values shared by every client of one seed. Client `c`
/// of `n` takes indices `c`, `c + n`, `c + 2n`, … of each sequence, so
/// no request meant as new repeats one sent before, by any client.
#[derive(Debug, Clone)]
struct Fresh {
    tangents: Distinct,
    /// Metal thicknesses, one sequence per [`REROUTE_TECHS`] entry.
    thickness: Vec<Distinct>,
    spacing: Distinct,
}

impl Fresh {
    fn new(seed: u64) -> Fresh {
        let mut rng = Rng::new(seed, 0xf7e5);
        Fresh {
            tangents: loss_tangents(&mut rng),
            thickness: REROUTE_TECHS
                .iter()
                .map(|&tech| {
                    let base = techlib::spec::InterposerSpec::for_kind(tech).metal_thickness_um;
                    Distinct::new(&mut rng, 0.75 * base, 1.25 * base, 0.0005)
                })
                .collect(),
            spacing: Distinct::new(&mut rng, 80.0, 140.0, 0.01),
        }
    }
}

/// One closed-loop client's request stream. Clients draw from their own
/// streams, so the sequence each sends depends only on the seed.
#[derive(Debug, Clone)]
pub struct ServeGen {
    rng: Rng,
    client: usize,
    clients: usize,
    fresh: Fresh,
    known: Vec<Request>,
    links: u64,
    upstream: u64,
    block: u64,
    pending: Vec<Class>,
}

impl ServeGen {
    /// Client `client`'s stream (of `clients`) for `seed`; it starts out
    /// knowing the warm-up scenarios.
    pub fn new(seed: u64, client: usize, clients: usize) -> ServeGen {
        ServeGen {
            rng: Rng::new(seed, 0xc11e_0000 + client as u64),
            client,
            clients,
            fresh: Fresh::new(seed),
            known: base_requests(),
            links: 0,
            upstream: 0,
            block: 0,
            pending: Vec::new(),
        }
    }

    /// This client's index into the shared sequences for its `k`-th
    /// draw.
    fn index(&self, k: u64) -> u64 {
        k * self.clients as u64 + self.client as u64
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        if self.pending.is_empty() {
            self.pending = BLOCK.to_vec();
            // Fisher-Yates, popped from the back.
            for i in (1..self.pending.len()).rev() {
                let j = self.rng.below(i + 1);
                self.pending.swap(i, j);
            }
            self.block += 1;
        }
        let class = self.pending.pop().expect("a refilled block is not empty");
        if class == Class::Hit {
            let mut hit = self.known[self.rng.below(self.known.len())].clone();
            hit.class = Class::Hit;
            return hit;
        }
        let name = format!("c{}-n{}", self.client, self.links + self.upstream);
        let fresh = if class == Class::Links {
            let tech = SWEEP_TECHS[self.rng.below(SWEEP_TECHS.len())];
            let tangent = self.fresh.tangents.get(self.index(self.links));
            self.links += 1;
            request(name, tech, Some(("loss_tangent", tangent)), Class::Links)
        } else {
            let slot = (self.block as usize + self.client) % REROUTE_TECHS.len();
            let i = self.index(self.upstream);
            self.upstream += 1;
            let knob = if (self.block / 2).is_multiple_of(2) {
                ("metal_thickness_um", self.fresh.thickness[slot].get(i))
            } else {
                ("die_to_die_spacing_um", self.fresh.spacing.get(i))
            };
            request(name, REROUTE_TECHS[slot], Some(knob), Class::Upstream)
        };
        self.known.push(fresh.clone());
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign::scenario::scenarios_from_json;

    #[test]
    fn sweep_batches_are_deterministic_per_seed_and_differ_across_seeds() {
        let take = |seed| {
            let mut gen = SweepGen::new(seed);
            (0..3).flat_map(|_| gen.next_batch()).collect::<Vec<_>>()
        };
        assert_eq!(take(1), take(1));
        assert_ne!(take(1), take(2));
        let batch = SweepGen::new(3).next_batch();
        assert_eq!(batch.len(), SWEEP_BATCH);
        assert!(batch.iter().all(|s| SWEEP_TECHS.contains(&s.tech())));
        let names: std::collections::BTreeSet<_> = batch.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), SWEEP_BATCH, "names are unique");
    }

    #[test]
    fn serve_streams_are_deterministic_per_seed_and_client() {
        let take = |seed, client| {
            let mut gen = ServeGen::new(seed, client, 2);
            (0..200).map(|_| gen.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(take(5, 0), take(5, 0));
        assert_ne!(take(5, 0), take(6, 0));
        assert_ne!(take(5, 0), take(5, 1));
        // Whole blocks hold the mix exactly, whatever the seed.
        for seed in [5, 6, 7] {
            let reqs = take(seed, 0);
            let count = |c| reqs.iter().filter(|r| r.class == c).count();
            assert_eq!(count(Class::Hit), 150);
            assert_eq!(count(Class::Links), 40);
            assert_eq!(count(Class::Upstream), 10);
        }
    }

    #[test]
    fn serve_bodies_parse_and_repeats_are_byte_identical() {
        let mut gen = ServeGen::new(9, 1, 2);
        let mut first_body = std::collections::HashMap::new();
        for req in (0..300).map(|_| gen.next_request()) {
            let scenarios = scenarios_from_json(&req.body).unwrap();
            assert_eq!(scenarios.len(), 1);
            assert_eq!(scenarios[0].name(), req.name);
            let body = first_body
                .entry(req.name.clone())
                .or_insert(req.body.clone());
            assert_eq!(*body, req.body, "a repeat resends the same bytes");
            if req.class == Class::Upstream {
                assert!(REROUTE_TECHS.contains(&scenarios[0].tech()));
            }
        }
        for base in base_requests() {
            assert!(scenarios_from_json(&base.body).unwrap()[0]
                .overrides()
                .is_empty());
        }
    }

    #[test]
    fn distinct_visits_every_step_once_before_repeating() {
        let seq = Distinct::new(&mut Rng::new(4, 0), 80.0, 140.0, 0.01);
        assert_eq!(seq.len, 6001);
        let values: std::collections::BTreeSet<u64> =
            (0..seq.len).map(|i| seq.get(i).to_bits()).collect();
        assert_eq!(values.len(), 6001);
        for i in 0..seq.len {
            let v = seq.get(i);
            assert!((80.0..=140.0).contains(&v));
            assert_eq!(v.to_string().parse::<f64>().unwrap(), v);
        }
        assert_eq!(seq.get(seq.len), seq.get(0), "then it wraps");
    }

    #[test]
    fn no_two_sweep_batches_share_a_loss_tangent() {
        let mut gen = SweepGen::new(11);
        let mut owner = std::collections::HashMap::new();
        for batch in 0..400 {
            for s in gen.next_batch() {
                let tangent = s.overrides().loss_tangent.unwrap().to_bits();
                assert_eq!(*owner.entry(tangent).or_insert(batch), batch);
            }
        }
    }

    #[test]
    fn no_client_repeats_a_new_scenario() {
        let mut sent = std::collections::HashSet::new();
        for client in 0..2 {
            let mut gen = ServeGen::new(12, client, 2);
            for req in (0..2000).map(|_| gen.next_request()) {
                if req.class != Class::Hit {
                    // The body minus its name: tech and knob.
                    let spec = req.body.replacen(&req.name, "", 1);
                    assert!(sent.insert(spec), "{} repeats a scenario", req.name);
                }
            }
        }
        assert_eq!(sent.len(), 2 * 500);
    }
}
