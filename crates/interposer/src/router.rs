//! PathFinder-style congestion-negotiated A* routing.
//!
//! Every lateral net is routed by A* over the gcell grid; gcell usage is
//! tracked per layer, and rip-up-and-reroute iterations raise history
//! costs on over-subscribed gcells until the solution fits (or the
//! iteration budget is spent). Layers carry a small cost bias so routing
//! stays low in the stack unless congestion pushes it up — which is what
//! makes the "metal layers used" statistic of Table IV emerge from track
//! supply rather than being an input.
//!
//! # Hot-path architecture
//!
//! The A* inner loop is most of the flow's runtime, so it is built
//! around these mechanisms (the exactness arguments live in DESIGN.md
//! §16):
//!
//! * **Monotone bucket frontier** ([`crate::bucket::BucketQueue`]) —
//!   the open set is a Dial-style ring of cost-tick slots scanned by a
//!   monotone cursor instead of a global binary heap, with per-slot
//!   mini-heaps reproducing the exact `(total_cmp f, node)` pop order
//!   of the historical `BinaryHeap`. The old heap survives in test
//!   builds as a differential oracle.
//! * **Fused cost field** ([`crate::congestion::CostField`]) — the
//!   history + present-overflow penalty is folded into one per-node
//!   array maintained incrementally as paths commit (same expression,
//!   same rounding), halving the random-access traffic of the
//!   relaxation loop.
//! * **Reusable search scratch** (`SearchScratch`) — per-node search
//!   state is allocated once per [`route_all`] call and *epoch-stamped*:
//!   a search begins by bumping a generation counter, so resetting costs
//!   O(1) instead of re-initialising `node_count` floats per net; the
//!   bucket frontier resets the same way. Frontier entries carry their
//!   `g` value and stale pops (entries superseded by a later relaxation)
//!   are skipped; `dist` is monotone non-increasing, so the skipped
//!   expansion would have relaxed nothing — results are bit-identical.
//! * **Windowed search** — each net searches a bounding box around its
//!   endpoints inflated by [`INITIAL_WINDOW_MARGIN`] gcells and takes
//!   the path it finds. Blockage and congestion are soft penalties, so a
//!   window containing both endpoints always contains *a* path; only if
//!   the window yields none does the margin grow geometrically
//!   ([`WINDOW_GROWTH`]) until it covers the grid — the windowed router
//!   therefore routes every net the full-grid search routes. Each
//!   widening counts as one `router.window_fallbacks`. A detour wider
//!   than the margin cannot fix a fabric whose cut capacity is short;
//!   PathFinder history, not search breadth, is what resolves genuine
//!   overflow.
//! * **Overflow-driven incremental reroute** — after the first routing
//!   pass, only nets whose committed paths cross an over-capacity gcell
//!   are ripped up and re-negotiated against the still-committed usage
//!   of every other net; untouched nets keep their paths. Classic
//!   full-reroute PathFinder re-routes every net every iteration.
//!
//! # Determinism
//!
//! [`route_all`] routes nets one at a time, strictly in order, on the
//! calling thread: the worker count does not enter it, so its result —
//! and its work counters — are the same at every `CODESIGN_THREADS`.
//! Parallelism lives a level up, across technology studies and
//! scenarios. (Speculative intra-technology batching was removed after
//! it measured slower than this loop at two workers; DESIGN.md §12 keeps
//! the data.)

use crate::bucket::{BucketQueue, FrontierItem, FrontierQueue};
use crate::congestion::CostField;
use crate::diemap::{DiePlacement, NetClass};
use crate::grid::{GridWindow, RoutingGrid};
use crate::RouteError;
use serde::{Deserialize, Serialize};

/// Cost of a via between adjacent layers, in µm-equivalent wirelength.
pub const VIA_COST_UM: f64 = 30.0;
/// Penalty multiplier for non-preferred-direction moves.
pub const NONPREF_PENALTY: f64 = 1.5;
/// Present-congestion penalty per unit overflow, µm-equivalent.
pub const PRESENT_PENALTY_UM: f64 = 200.0;
/// Per-layer cost bias, µm-equivalent per layer index: keeps routing low
/// in the stack unless congestion pushes it up.
pub const LAYER_BIAS_UM: f64 = 0.5;
/// History increment per overflowed gcell per iteration, µm-equivalent.
pub const HISTORY_INC_UM: f64 = 60.0;
/// Rip-up-and-reroute iterations.
pub const MAX_ITERATIONS: usize = 3;
/// Initial window margin: gcells added around a net's endpoint bounding
/// box for the first windowed A* attempt.
pub const INITIAL_WINDOW_MARGIN: usize = 8;
/// Geometric growth factor applied to the window margin when an attempt
/// finds no path at all.
pub const WINDOW_GROWTH: usize = 4;

/// One routed net.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoutedNet {
    /// Net id (index into the placement's net list).
    pub id: usize,
    /// Lateral wirelength, µm.
    pub length_um: f64,
    /// Via count (layer changes plus the two bump microvias).
    pub vias: usize,
    /// Highest signal layer touched (0-based).
    pub max_layer: usize,
    /// Path as (x, y, layer) gcell steps.
    pub path: Vec<(usize, usize, usize)>,
}

/// Pre-seeds gcell usage with the blockage that exists before any signal
/// is routed: every bump pad occupies the top layer at its gcell, and
/// every P/G bump's stacked via (down to the power planes below the
/// routing stack) blocks all signal layers. On glass, one 22 µm via
/// consumes more than an entire gcell-layer of 4 µm-pitch tracks — the
/// physical cause of the serpentine escapes and long worst-case nets of
/// Table IV.
pub fn base_blockage(placement: &DiePlacement, grid: &RoutingGrid) -> Vec<f64> {
    let mut usage = vec![0.0; grid.node_count()];
    for die in &placement.dies {
        for bump in &die.bumps.bumps {
            let (gx, gy) = grid.gcell_of(die.origin_um.0 + bump.x_um, die.origin_um.1 + bump.y_um);
            // Pad on the top routing layer.
            usage[grid.index(gx, gy, 0)] += grid.pad_block_tracks;
            if !matches!(bump.role, chiplet::bumpmap::BumpRole::Signal(_)) {
                // P/G stacked via through every signal layer below.
                for l in 1..grid.layers {
                    usage[grid.index(gx, gy, l)] += grid.via_block_tracks;
                }
            }
        }
    }
    usage
}

/// Adds the track demand of one committed `path` to `usage`: a via step
/// blocks `via_block_tracks` on both layers, a lateral step one track on
/// its destination gcell. This is exactly what [`route_all`] commits per
/// net, shared here so congestion analysis and capacity checks stay in
/// sync with the router.
pub fn accumulate_path(grid: &RoutingGrid, path: &[(usize, usize, usize)], usage: &mut [f64]) {
    for w in path.windows(2) {
        let (x0, y0, l0) = w[0];
        let (x1, y1, l1) = w[1];
        if l0 != l1 {
            usage[grid.index(x0, y0, l0)] += grid.via_block_tracks;
            usage[grid.index(x1, y1, l1)] += grid.via_block_tracks;
        } else {
            usage[grid.index(x1, y1, l1)] += 1.0;
        }
    }
}

// ---------------------------------------------------------------------
// Reusable search state.
// ---------------------------------------------------------------------

/// Work counters accumulated locally per scratch and flushed to
/// [`techlib::obs`] once per [`route_all`] call (so the hot loop never
/// touches an atomic).
#[derive(Debug, Default, Clone, Copy)]
struct SearchCounters {
    pops: u64,
    expansions: u64,
    window_fallbacks: u64,
}

/// Per-node search state, packed so one relaxation touches a single
/// 16-byte record instead of three parallel arrays (three cache lines).
/// `dist`/`prev` are valid only where `stamp` equals the scratch's
/// current generation.
#[derive(Clone, Copy)]
struct NodeState {
    dist: f64,
    prev: u32,
    stamp: u32,
}

/// Reusable, epoch-stamped A* state: one allocation for the lifetime of
/// a [`route_all`] call instead of two `node_count`-sized vectors per
/// net.
///
/// `nodes[i]` is valid only where `nodes[i].stamp == generation`;
/// [`SearchScratch::begin_search`] bumps the generation, invalidating
/// the whole state in O(1) — and the frontier queue (the bucket ring;
/// the binary-heap oracle in tests) resets the same way.
struct SearchScratch<Q: FrontierQueue = BucketQueue> {
    nodes: Vec<NodeState>,
    generation: u32,
    frontier: Q,
    counters: SearchCounters,
}

impl<Q: FrontierQueue> SearchScratch<Q> {
    fn new(nodes: usize) -> SearchScratch<Q> {
        SearchScratch {
            nodes: vec![
                NodeState {
                    dist: f64::INFINITY,
                    prev: u32::MAX,
                    stamp: 0,
                };
                nodes
            ],
            generation: 0,
            frontier: Q::new(),
            counters: SearchCounters::default(),
        }
    }

    /// Invalidates all per-search state in O(1) (amortised: the stamp
    /// fields are re-zeroed only when the 32-bit generation wraps).
    fn begin_search(&mut self) {
        self.frontier.begin();
        if self.generation == u32::MAX {
            for state in &mut self.nodes {
                state.stamp = 0;
            }
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }
}

// ---------------------------------------------------------------------
// The A* kernel.
// ---------------------------------------------------------------------

/// Division by a loop-invariant divisor via the ceiling-reciprocal
/// trick (Granlund–Montgomery / Lemire): with `m = ⌈2⁶⁴ / d⌉`
/// (computed as `⌊(2⁶⁴−1)/d⌋ + 1` for `d ≥ 2`; exact for powers of
/// two), `⌊n / d⌋ == (m · n) >> 64` for every `n < 2³²` — the error
/// term `n·(m·d − 2⁶⁴)/(d·2⁶⁴)` stays below `1/d`. Node indices are far
/// below 2³², and the A* expansion loop decomposes one per pop — this
/// turns the three hardware divisions per expansion into two widening
/// multiplies (the release-build divisors are runtime grid dimensions,
/// so LLVM cannot strength-reduce them itself).
struct FastDiv {
    d: u64,
    m: u64,
}

impl FastDiv {
    fn new(d: u64) -> FastDiv {
        debug_assert!(d >= 2, "reciprocal needs d >= 2; d == 1 is identity");
        FastDiv {
            d,
            m: u64::MAX / d + 1,
        }
    }

    /// `n / self.d` for `n < 2³²`.
    #[inline]
    fn div(&self, n: u64) -> u64 {
        debug_assert!(n < (1 << 32));
        let q = ((u128::from(self.m) * u128::from(n)) >> 64) as u64;
        debug_assert_eq!(q, n / self.d);
        q
    }
}

/// One A* search from `start` to `goal`, restricted laterally to `win`.
/// Returns whether the goal was settled, leaving the `prev` chain in
/// `scratch` for reconstruction. Identical pop order and relaxation
/// sequence to the historical full-grid router when `win` covers the
/// grid.
fn astar<Q: FrontierQueue>(
    scratch: &mut SearchScratch<Q>,
    grid: &RoutingGrid,
    cost: &CostField,
    start: usize,
    goal: usize,
    target: (usize, usize),
    win: &GridWindow,
) -> bool {
    scratch.begin_search();
    let SearchScratch {
        nodes,
        generation,
        frontier,
        counters,
    } = scratch;
    let gen = *generation;
    let (tx, ty) = target;
    let penalty = &cost.penalty[..];

    // Integer |Δ| is exact for gcell coordinates (≪ 2^53), so this is
    // the bit-identical Manhattan/octile distance of the historical
    // float-subtract form, minus the float abs work.
    let h = |x: usize, y: usize| -> f64 {
        let dx = x.abs_diff(tx) as f64;
        let dy = y.abs_diff(ty) as f64;
        if grid.diagonal {
            (dx.max(dy) + (std::f64::consts::SQRT_2 - 1.0) * dx.min(dy)) * grid.gcell_um
        } else {
            (dx + dy) * grid.gcell_um
        }
    };

    nodes[start] = NodeState {
        dist: 0.0,
        prev: u32::MAX,
        stamp: gen,
    };
    frontier.push(FrontierItem {
        f: 0.0,
        g: 0.0,
        node: start,
    });

    // Reciprocal divisors for the per-pop index decomposition. `cols >= 2`
    // implies `per >= 2`, so both reciprocals are well-defined; degenerate
    // single-column grids (never produced by real footprints) fall back to
    // the hardware-division decompose.
    let per_layer = grid.rows * grid.cols;
    let fast = if grid.cols >= 2 {
        Some((
            FastDiv::new(per_layer as u64),
            FastDiv::new(grid.cols as u64),
        ))
    } else {
        None
    };

    let mut pops = 0u64;
    let mut expansions = 0u64;
    let mut found = false;
    while let Some(FrontierItem { f: _, g, node }) = frontier.pop() {
        pops += 1;
        if node == goal {
            found = true;
            break;
        }
        // Stale entry: a later relaxation already improved this node, so
        // its (earlier-popped) fresh entry performed every relaxation
        // this one could; skipping is result-identical.
        if g > nodes[node].dist {
            continue;
        }
        expansions += 1;
        let (x, y, layer) = match &fast {
            Some((fper, fcols)) => {
                let layer = fper.div(node as u64) as usize;
                let rem = node - layer * per_layer;
                let y = fcols.div(rem as u64) as usize;
                (rem - y * grid.cols, y, layer)
            }
            None => grid.decompose(node),
        };
        let d = nodes[node].dist;
        // `layer as f64 * LAYER_BIAS_UM`, hoisted: every probe of this
        // expansion but the two via moves adds exactly this term.
        let layer_bias = layer as f64 * LAYER_BIAS_UM;

        // Lateral probe: the destination layer is the popped node's, so
        // the layer bounds check is vacuous and the flattened index is
        // the popped node's plus a precomputed ±1 (x) / ±cols (y)
        // offset. Off-grid and off-window handling — and every float
        // operation — match the historical all-purpose try_move
        // bit-for-bit.
        let mut lateral = |nx: i64, ny: i64, delta: i64, step: f64, frontier: &mut Q| {
            if nx < 0 || ny < 0 || nx >= grid.cols as i64 || ny >= grid.rows as i64 {
                return;
            }
            let (nx, ny) = (nx as usize, ny as usize);
            if nx < win.x0 || ny < win.y0 || nx > win.x1 || ny > win.y1 {
                return;
            }
            let ni = (node as i64 + delta) as usize;
            // Small upper-layer bias keeps routing low when uncongested.
            // `penalty[ni]` is the identical expression the historical
            // congestion closure computed (see `CostField`).
            let nd = d + step + penalty[ni] + layer_bias;
            let state = &mut nodes[ni];
            let cur = if state.stamp == gen {
                state.dist
            } else {
                f64::INFINITY
            };
            if nd < cur {
                *state = NodeState {
                    dist: nd,
                    prev: node as u32,
                    stamp: gen,
                };
                frontier.push(FrontierItem {
                    f: nd + h(nx, ny),
                    g: nd,
                    node: ni,
                });
            }
        };

        let hp = grid.horizontal_preferred(layer);
        let hx = if hp { 1.0 } else { NONPREF_PENALTY };
        let hy = if hp { NONPREF_PENALTY } else { 1.0 };
        let g = grid.gcell_um;
        let cols = grid.cols as i64;
        lateral(x as i64 + 1, y as i64, 1, g * hx, frontier);
        lateral(x as i64 - 1, y as i64, -1, g * hx, frontier);
        lateral(x as i64, y as i64 + 1, cols, g * hy, frontier);
        lateral(x as i64, y as i64 - 1, -cols, g * hy, frontier);
        if grid.diagonal {
            let gd = g * std::f64::consts::SQRT_2;
            lateral(x as i64 + 1, y as i64 + 1, cols + 1, gd, frontier);
            lateral(x as i64 + 1, y as i64 - 1, -cols + 1, gd, frontier);
            lateral(x as i64 - 1, y as i64 + 1, cols - 1, gd, frontier);
            lateral(x as i64 - 1, y as i64 - 1, -cols - 1, gd, frontier);
        }

        // Via probe: (x, y) is unchanged and already in-window (it was
        // relaxed there), so the historical window check was vacuously
        // false for layer moves — only the layer bound remains. The
        // heuristic at the unchanged gcell is hoisted once for both
        // directions.
        let h_here = h(x, y);
        let per = (grid.cols * grid.rows) as i64;
        let mut via = |nl: i64, delta: i64, frontier: &mut Q| {
            if nl < 0 || nl >= grid.layers as i64 {
                return;
            }
            let ni = (node as i64 + delta) as usize;
            let nd = d + VIA_COST_UM + penalty[ni] + nl as f64 * LAYER_BIAS_UM;
            let state = &mut nodes[ni];
            let cur = if state.stamp == gen {
                state.dist
            } else {
                f64::INFINITY
            };
            if nd < cur {
                *state = NodeState {
                    dist: nd,
                    prev: node as u32,
                    stamp: gen,
                };
                frontier.push(FrontierItem {
                    f: nd + h_here,
                    g: nd,
                    node: ni,
                });
            }
        };
        via(layer as i64 + 1, per, frontier);
        via(layer as i64 - 1, -per, frontier);
    }
    counters.pops += pops;
    counters.expansions += expansions;
    found
}

/// Routes one net with the windowed search: a bounding-box attempt whose
/// path is taken as found, with geometrically growing margins (up to the
/// full grid) only when a window yields no path at all.
/// `initial_margin = usize::MAX` forces a single full-grid search (the
/// historical behaviour; used by the coverage tests as the reference).
fn route_with_margin<Q: FrontierQueue>(
    placement: &DiePlacement,
    grid: &RoutingGrid,
    net: &crate::diemap::NetSpec,
    cost: &CostField,
    scratch: &mut SearchScratch<Q>,
    initial_margin: usize,
) -> Option<RoutedNet> {
    let s = placement.dies[net.from.0].signal_position(net.from.1)?;
    let t = placement.dies[net.to.0].signal_position(net.to.1)?;
    let (sx, sy) = grid.gcell_of(s.0, s.1);
    let (tx, ty) = grid.gcell_of(t.0, t.1);
    let start = grid.index(sx, sy, 0);
    let goal = grid.index(tx, ty, 0);

    let mut margin = initial_margin;
    loop {
        let win = grid.window((sx, sy), (tx, ty), margin);
        if astar(scratch, grid, cost, start, goal, (tx, ty), &win) {
            break;
        }
        if win.covers(grid) {
            return None;
        }
        // No path inside the window (unreachable on a connected grid —
        // blockage is soft — but the safety net keeps windowing
        // strictly weaker than the full search): widen geometrically
        // and retry.
        scratch.counters.window_fallbacks += 1;
        margin = margin.saturating_mul(WINDOW_GROWTH).max(1);
    }

    // Reconstruct and measure in one pass: steps are single gcells, so a
    // lateral step is `gcell_um` long (× √2 when it moves both axes,
    // which only diagonal grids produce).
    let mut path = Vec::new();
    let mut cur = goal;
    loop {
        let (x, y, layer) = grid.decompose(cur);
        path.push((x, y, layer));
        if cur == start {
            break;
        }
        cur = scratch.nodes[cur].prev as usize;
    }
    path.reverse();

    let mut length = 0.0;
    let mut vias = 2; // bump microvia at each end
    let mut max_layer = 0;
    for w in path.windows(2) {
        let (x0, y0, l0) = w[0];
        let (x1, y1, l1) = w[1];
        if l0 != l1 {
            vias += 1;
        } else if x0 != x1 && y0 != y1 {
            length += std::f64::consts::SQRT_2 * grid.gcell_um;
        } else {
            length += grid.gcell_um;
        }
        max_layer = max_layer.max(l1).max(l0);
    }

    Some(RoutedNet {
        id: net.id,
        length_um: length,
        vias,
        max_layer,
        path,
    })
}

// ---------------------------------------------------------------------
// Rip-up bookkeeping.
// ---------------------------------------------------------------------

/// Removes a previously committed path from the usage map (rip-up for
/// the incremental reroute). Exact mirror of [`accumulate_path`]'s
/// additions, in the same per-node order.
fn uncommit(grid: &RoutingGrid, net: &RoutedNet, usage: &mut [f64]) {
    for w in net.path.windows(2) {
        let (x0, y0, l0) = w[0];
        let (x1, y1, l1) = w[1];
        if l0 != l1 {
            usage[grid.index(x0, y0, l0)] -= grid.via_block_tracks;
            usage[grid.index(x1, y1, l1)] -= grid.via_block_tracks;
        } else {
            usage[grid.index(x1, y1, l1)] -= 1.0;
        }
    }
}

/// True when `net`'s committed path touches any overflowed node — the
/// rip-up criterion of the incremental reroute. Checks exactly the
/// nodes [`accumulate_path`] charged.
fn crosses_overflow(grid: &RoutingGrid, net: &RoutedNet, overflowed: &[bool]) -> bool {
    net.path.windows(2).any(|w| {
        let (x0, y0, l0) = w[0];
        let (x1, y1, l1) = w[1];
        if l0 != l1 {
            overflowed[grid.index(x0, y0, l0)] || overflowed[grid.index(x1, y1, l1)]
        } else {
            overflowed[grid.index(x1, y1, l1)]
        }
    })
}

// ---------------------------------------------------------------------
// The negotiation loop.
// ---------------------------------------------------------------------

/// Rip-up policy of the negotiation loop; [`route_all`] always uses
/// [`Reroute::Incremental`], the full variant is kept for the
/// convergence-equivalence tests and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reroute {
    /// Rip up only nets crossing over-capacity gcells.
    Incremental,
    /// Reset usage and reroute every net each iteration (classic
    /// PathFinder, the pre-overhaul behaviour).
    #[cfg_attr(not(test), allow(dead_code))]
    Full,
}

/// Routes all lateral nets of `placement` on `grid`, one net at a time
/// in a fixed order (see the module docs).
///
/// # Errors
///
/// Returns [`RouteError::Unroutable`] if a net has no path at all (should
/// not happen on a connected grid).
pub fn route_all(
    placement: &DiePlacement,
    grid: &RoutingGrid,
) -> Result<Vec<RoutedNet>, RouteError> {
    route_all_impl(placement, grid, Reroute::Incremental)
}

fn route_all_impl(
    placement: &DiePlacement,
    grid: &RoutingGrid,
    strategy: Reroute,
) -> Result<Vec<RoutedNet>, RouteError> {
    if techlib::faults::armed("router.escape") {
        // Injected fault: the escape/channel router gives up on the first
        // net, the same typed error a congested grid would produce.
        return Err(RouteError::Unroutable { net: 0 });
    }
    let n = grid.node_count();
    let base = base_blockage(placement, grid);
    let mut usage: Vec<f64> = base.clone();
    let mut history: Vec<f64> = vec![0.0; n];

    // Lateral nets only, longest first (hardest nets claim resources
    // first; PathFinder history resolves the rest).
    let mut order: Vec<&crate::diemap::NetSpec> = placement
        .nets
        .iter()
        .filter(|net| net.class != NetClass::IntraTileStackedVia)
        .collect();
    // `total_cmp` keeps this sort a strict weak ordering even for
    // degenerate lengths (a zero-length net whose endpoints share a
    // gcell still compares consistently); `sort_by` with an
    // inconsistent comparator may panic or scramble the deterministic
    // net order the whole flow depends on.
    order.sort_by(|a, b| {
        placement
            .net_manhattan_um(b)
            .total_cmp(&placement.net_manhattan_um(a))
            .then_with(|| a.id.cmp(&b.id))
    });

    // The fused penalty field every search reads; maintained
    // incrementally per commit/rip-up and rebuilt at iteration
    // boundaries (history bumps touch arbitrary node sets).
    let mut cost = CostField::build(grid, &usage, &history);
    let mut scratch: SearchScratch = SearchScratch::new(n);

    // `routed[k]` stays aligned with `order[k]` until the final sort.
    let mut routed: Vec<RoutedNet> = Vec::with_capacity(order.len());
    let mut overflowed = vec![false; n];
    let mut incremental_reroutes = 0u64;

    for iteration in 0..MAX_ITERATIONS {
        let targets: Vec<usize> = if iteration == 0 {
            (0..order.len()).collect()
        } else {
            // History rises wherever total demand exceeds capacity and
            // some of it is wire (the historical negotiation pressure);
            // rip-up targets only *wire-demand* overflow — a pad gcell
            // is over capacity from fixed blockage alone, and a net
            // cannot avoid its own endpoints, so re-routing it for that
            // would degenerate every iteration into a full reroute.
            let mut any = false;
            overflowed.fill(false);
            for i in 0..n {
                if usage[i] > grid.capacity && usage[i] > base[i] {
                    history[i] += HISTORY_INC_UM * (usage[i] - grid.capacity).min(10.0);
                    any = true;
                    if usage[i] - base[i] > grid.capacity {
                        overflowed[i] = true;
                    }
                }
            }
            if !any {
                break;
            }
            let targets = match strategy {
                Reroute::Full => {
                    usage.copy_from_slice(&base);
                    routed.clear();
                    (0..order.len()).collect()
                }
                Reroute::Incremental => {
                    let targets: Vec<usize> = (0..routed.len())
                        .filter(|&k| crosses_overflow(grid, &routed[k], &overflowed))
                        .collect();
                    if targets.is_empty() {
                        break;
                    }
                    // Rip up only the offenders; everyone else's demand
                    // stays committed and steers the re-negotiation.
                    for &k in &targets {
                        uncommit(grid, &routed[k], &mut usage);
                    }
                    incremental_reroutes += targets.len() as u64;
                    targets
                }
            };
            // History bumps and rip-ups touched arbitrary nodes: rebuild
            // the fused field wholesale before the pass reads it.
            cost.rebuild(grid, &usage, &history);
            targets
        };

        for k in targets {
            let net = order[k];
            let r = route_with_margin(
                placement,
                grid,
                net,
                &cost,
                &mut scratch,
                INITIAL_WINDOW_MARGIN,
            )
            .ok_or(RouteError::Unroutable { net: net.id })?;
            accumulate_path(grid, &r.path, &mut usage);
            cost.refresh_path(grid, &r.path, &usage, &history);
            // First pass (and full reroutes) append; incremental
            // re-routes overwrite their slot.
            if k == routed.len() {
                routed.push(r);
            } else {
                routed[k] = r;
            }
        }
    }
    routed.sort_by_key(|r| r.id);

    // Flush the locally accumulated work counters out-of-band.
    let totals = scratch.counters;
    techlib::obs::add(techlib::obs::ROUTER_NETS_ROUTED, routed.len() as u64);
    techlib::obs::add(techlib::obs::ROUTER_HEAP_POPS, totals.pops);
    techlib::obs::add(techlib::obs::ROUTER_EXPANSIONS, totals.expansions);
    techlib::obs::add(
        techlib::obs::ROUTER_WINDOW_FALLBACKS,
        totals.window_fallbacks,
    );
    techlib::obs::add(
        techlib::obs::ROUTER_INCREMENTAL_REROUTES,
        incremental_reroutes,
    );
    Ok(routed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diemap::place_dies;
    use proptest::prelude::*;
    use techlib::spec::{InterposerKind, InterposerSpec};

    fn route(tech: InterposerKind) -> (DiePlacement, Vec<RoutedNet>) {
        let l = crate::report::cached_layout(tech).unwrap();
        (l.placement.clone(), l.routed_nets.clone())
    }

    #[test]
    fn silicon_routes_all_530_nets() {
        let (p, r) = route(InterposerKind::Silicon25D);
        assert_eq!(r.len(), p.nets.len());
        for net in &r {
            assert!(net.length_um > 0.0);
            assert!(net.vias >= 2);
        }
    }

    #[test]
    fn glass_3d_routes_only_intertile_nets() {
        let (_, r) = route(InterposerKind::Glass3D);
        assert_eq!(r.len(), 68);
    }

    #[test]
    fn routed_length_at_least_manhattan() {
        let (p, r) = route(InterposerKind::Silicon25D);
        for net in &r {
            let spec = &p.nets[net.id];
            let manhattan = p.net_manhattan_um(spec);
            // Gcell quantisation allows ~2 gcells of slack.
            assert!(
                net.length_um + 2.0 * 20.0 >= manhattan * 0.8,
                "net {} routed {} vs manhattan {manhattan}",
                net.id,
                net.length_um
            );
        }
    }

    #[test]
    fn glass_uses_more_layers_than_silicon() {
        // 5 tracks/gcell/layer vs 25: glass must spill upward.
        let (_, rg) = route(InterposerKind::Glass25D);
        let (_, rs) = route(InterposerKind::Silicon25D);
        let max_g = rg.iter().map(|n| n.max_layer).max().unwrap();
        let max_s = rs.iter().map(|n| n.max_layer).max().unwrap();
        assert!(max_g > max_s, "glass {max_g} vs silicon {max_s}");
    }

    #[test]
    fn diagonal_shortens_organic_routes() {
        let (ps, rs) = route(InterposerKind::Shinko);
        let total: f64 = rs.iter().map(|n| n.length_um).sum();
        let manhattan: f64 = ps
            .nets
            .iter()
            .filter(|n| n.class != crate::diemap::NetClass::IntraTileStackedVia)
            .map(|n| ps.net_manhattan_um(n))
            .sum();
        // Diagonal routing beats pure Manhattan lower bound × detour.
        assert!(
            total < manhattan * 1.3,
            "total {total} vs manhattan {manhattan}"
        );
    }

    #[test]
    fn routing_is_deterministic() {
        let (_, a) = route(InterposerKind::Glass25D);
        let (_, b) = route(InterposerKind::Glass25D);
        let ta: f64 = a.iter().map(|n| n.length_um).sum();
        let tb: f64 = b.iter().map(|n| n.length_um).sum();
        assert_eq!(ta, tb);
    }

    #[test]
    fn bucket_frontier_reproduces_heap_frontier_paths() {
        // Full-layout differential oracle: route every net of the glass
        // workload (serpentine congestion, the hardest frontier
        // schedules we have) with the bucket frontier and the retained
        // binary heap, committing the bucket result so both see
        // evolving congestion. Paths must match node-for-node.
        use crate::bucket::HeapFrontier;
        let p = place_dies(InterposerKind::Glass25D);
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let grid = RoutingGrid::new(p.footprint_um, &spec).unwrap();
        let n = grid.node_count();
        let mut usage = base_blockage(&p, &grid);
        let history = vec![0.0; n];
        let mut cost = CostField::build(&grid, &usage, &history);
        let mut bucket: SearchScratch = SearchScratch::new(n);
        let mut heap: SearchScratch<HeapFrontier> = SearchScratch::new(n);
        for net in &p.nets {
            let a = route_with_margin(&p, &grid, net, &cost, &mut bucket, INITIAL_WINDOW_MARGIN);
            let b = route_with_margin(&p, &grid, net, &cost, &mut heap, INITIAL_WINDOW_MARGIN);
            match (&a, &b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.path, b.path, "net {}", net.id);
                    assert!(a.length_um == b.length_um && a.vias == b.vias);
                }
                (None, None) => {}
                _ => panic!("net {}: routability diverged", net.id),
            }
            if let Some(a) = a {
                accumulate_path(&grid, &a.path, &mut usage);
                cost.refresh_path(&grid, &a.path, &usage, &history);
            }
        }
        // Identical pop order means identical pop counts.
        assert!(bucket.counters.pops > 0);
        assert_eq!(bucket.counters.pops, heap.counters.pops);
    }

    #[test]
    fn no_gcell_exceeds_capacity_after_negotiation_on_silicon() {
        let p = place_dies(InterposerKind::Silicon25D);
        let spec = InterposerSpec::for_kind(InterposerKind::Silicon25D);
        let grid = RoutingGrid::new(p.footprint_um, &spec).unwrap();
        let r = route_all(&p, &grid).unwrap();
        // Wire demand alone (pads and P/G stacks are fixed blockage the
        // router cannot avoid at its own endpoints) must fit the tracks.
        let mut usage = vec![0.0; grid.node_count()];
        for net in &r {
            accumulate_path(&grid, &net.path, &mut usage);
        }
        let overflow = usage.iter().filter(|&&u| u > grid.capacity).count();
        assert_eq!(overflow, 0, "silicon has 25 tracks/gcell: no overflow");
    }

    fn micro_placement() -> DiePlacement {
        // Two 4-signal dies a few hundred µm apart on a tiny synthetic
        // package; every net crosses the same gap.
        micro_placement_at(4, 50.0, 350.0, (600.0, 300.0))
    }

    fn micro_placement_at(
        signals: usize,
        x0: f64,
        x1: f64,
        footprint_um: (f64, f64),
    ) -> DiePlacement {
        use chiplet::bumpmap::BumpPlan;
        use netlist::chiplet_netlist::ChipletKind;
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let bumps = BumpPlan::with_counts(signals, 2, &spec);
        let mk = |tile: usize, x: f64| crate::diemap::DieSite {
            tile,
            kind: ChipletKind::Logic,
            origin_um: (x, 50.0),
            width_um: bumps.bump_limited_width_um(),
            embedded: false,
            bumps: bumps.clone(),
            signal_map: (0..signals).collect(),
        };
        let nets = (0..signals)
            .map(|i| crate::diemap::NetSpec {
                id: i,
                class: crate::diemap::NetClass::IntraTileLateral,
                from: (0, i),
                to: (1, i),
            })
            .collect();
        DiePlacement {
            tech: InterposerKind::Glass25D,
            footprint_um,
            dies: vec![mk(0, x0), mk(1, x1)],
            nets,
        }
    }

    #[test]
    fn micro_placement_routes_every_net() {
        let p = micro_placement();
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let grid = RoutingGrid::new(p.footprint_um, &spec).unwrap();
        let routed = route_all(&p, &grid).unwrap();
        assert_eq!(routed.len(), 4);
        for net in &routed {
            // Dies are ~300 µm apart: every route crosses the gap.
            assert!(net.length_um >= 200.0, "net {}: {}", net.id, net.length_um);
            assert!(net.vias >= 2);
        }
    }

    #[test]
    fn coincident_endpoints_route_to_zero_length() {
        // A net whose endpoints share a gcell must not panic and must
        // report zero lateral wire (bump vias only).
        let mut p = micro_placement();
        p.nets = vec![crate::diemap::NetSpec {
            id: 0,
            class: crate::diemap::NetClass::IntraTileLateral,
            from: (0, 0),
            to: (0, 0),
        }];
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let grid = RoutingGrid::new(p.footprint_um, &spec).unwrap();
        let routed = route_all(&p, &grid).unwrap();
        assert_eq!(routed.len(), 1);
        assert_eq!(routed[0].length_um, 0.0);
        assert_eq!(routed[0].vias, 2);
    }

    #[test]
    fn degenerate_net_ordering_is_total_and_deterministic() {
        // Several zero-length nets tie at Manhattan length 0 and rely
        // entirely on the id tiebreak; `total_cmp` guarantees the sort
        // comparator stays a strict weak ordering even for such
        // degenerate keys (the old `partial_cmp(..).unwrap_or(Equal)`
        // pattern could silently violate it for non-finite lengths).
        let mut p = micro_placement();
        let normal = p.nets.clone();
        p.nets = (0..3)
            .map(|i| crate::diemap::NetSpec {
                id: i,
                class: crate::diemap::NetClass::IntraTileLateral,
                from: (0, i),
                to: (0, i),
            })
            .collect();
        for (offset, net) in normal.into_iter().enumerate() {
            p.nets.push(crate::diemap::NetSpec {
                id: 3 + offset,
                ..net
            });
        }
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let grid = RoutingGrid::new(p.footprint_um, &spec).unwrap();
        let routed = route_all(&p, &grid).unwrap();
        assert_eq!(routed.len(), 7);
        for net in &routed[..3] {
            assert_eq!(net.length_um, 0.0, "net {} is degenerate", net.id);
        }
    }

    #[test]
    fn glass_blockage_saturates_pad_gcells() {
        let p = place_dies(InterposerKind::Glass25D);
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let grid = RoutingGrid::new(p.footprint_um, &spec).unwrap();
        let base = base_blockage(&p, &grid);
        // 22 µm vias on a 4 µm pitch: one pad exceeds a gcell-layer.
        assert!(grid.via_block_tracks > grid.capacity);
        let blocked = base.iter().filter(|&&u| u >= grid.capacity).count();
        assert!(blocked > 500, "blocked gcells = {blocked}");
    }

    #[test]
    fn glass_worst_net_detours_beyond_silicon() {
        // The Table IV / Table V effect: glass escapes serpentine around
        // blocked gcells, so its worst L2M net is much longer than
        // silicon's on the same die placement.
        let (pg, rg) = route(InterposerKind::Glass25D);
        let (ps, rs) = route(InterposerKind::Silicon25D);
        let worst = |p: &DiePlacement, r: &[RoutedNet]| -> f64 {
            r.iter()
                .filter(|n| p.nets[n.id].class == crate::diemap::NetClass::IntraTileLateral)
                .map(|n| n.length_um)
                .fold(0.0, f64::max)
        };
        assert!(
            worst(&pg, &rg) > worst(&ps, &rs),
            "glass {} vs silicon {}",
            worst(&pg, &rg),
            worst(&ps, &rs)
        );
    }

    // -----------------------------------------------------------------
    // Hot-path overhaul invariants.
    // -----------------------------------------------------------------

    /// Routes every net of `p` twice per net — windowed vs forced
    /// full-grid — asserting the windowed search routes exactly the nets
    /// the full-grid search routes, with well-formed paths between the
    /// same endpoints, while committing the (windowed) result so later
    /// nets see realistic congestion. Windowed paths may legitimately
    /// differ from full-grid ones when the window clips a congestion
    /// detour, so the aggregate wirelength is only required to stay
    /// within a band of the full-grid reference.
    fn assert_windowed_covers_full_grid(p: &DiePlacement) {
        let spec = InterposerSpec::for_kind(p.tech);
        let grid = RoutingGrid::new(p.footprint_um, &spec).unwrap();
        let n = grid.node_count();
        let base = base_blockage(p, &grid);
        let mut usage = base.clone();
        let history = vec![0.0; n];
        let mut cost = CostField::build(&grid, &usage, &history);
        let mut scratch: SearchScratch = SearchScratch::new(n);
        let (mut len_win, mut len_full) = (0.0f64, 0.0f64);
        for net in &p.nets {
            let windowed =
                route_with_margin(p, &grid, net, &cost, &mut scratch, INITIAL_WINDOW_MARGIN);
            let full = route_with_margin(p, &grid, net, &cost, &mut scratch, usize::MAX);
            match (&windowed, &full) {
                (Some(w), Some(f)) => {
                    assert_eq!(w.path.first(), f.path.first(), "net {} start", net.id);
                    assert_eq!(w.path.last(), f.path.last(), "net {} goal", net.id);
                    // Every step moves one gcell laterally or one layer.
                    for pair in w.path.windows(2) {
                        let (x0, y0, l0) = pair[0];
                        let (x1, y1, l1) = pair[1];
                        let lateral = x0.abs_diff(x1).max(y0.abs_diff(y1));
                        assert!(
                            (lateral == 1 && l0 == l1) || (lateral == 0 && l0.abs_diff(l1) == 1),
                            "net {}: malformed step {:?} -> {:?}",
                            net.id,
                            pair[0],
                            pair[1]
                        );
                    }
                    len_win += w.length_um;
                    len_full += f.length_um;
                }
                (None, None) => {}
                _ => panic!(
                    "net {}: windowed routability {} != full-grid routability {}",
                    net.id,
                    windowed.is_some(),
                    full.is_some()
                ),
            }
            if let Some(w) = windowed {
                accumulate_path(&grid, &w.path, &mut usage);
                cost.refresh_path(&grid, &w.path, &usage, &history);
            }
        }
        if len_full > 0.0 {
            let ratio = len_win / len_full;
            assert!(
                (0.75..=1.25).contains(&ratio),
                "windowed aggregate wirelength drifted: {len_win:.0} vs {len_full:.0} ({ratio:.3}x)"
            );
        }
    }

    #[test]
    fn windowed_search_covers_full_grid_on_the_silicon_layout() {
        assert_windowed_covers_full_grid(&place_dies(InterposerKind::Silicon25D));
    }

    #[test]
    fn incremental_reroute_matches_full_reroute_overflow_on_silicon() {
        let p = place_dies(InterposerKind::Silicon25D);
        let spec = InterposerSpec::for_kind(InterposerKind::Silicon25D);
        let grid = RoutingGrid::new(p.footprint_um, &spec).unwrap();
        let overflow = |r: &[RoutedNet]| {
            let mut usage = vec![0.0; grid.node_count()];
            for net in r {
                accumulate_path(&grid, &net.path, &mut usage);
            }
            usage.iter().filter(|&&u| u > grid.capacity).count()
        };
        let inc = route_all_impl(&p, &grid, Reroute::Incremental).unwrap();
        let full = route_all_impl(&p, &grid, Reroute::Full).unwrap();
        assert_eq!(overflow(&inc), overflow(&full));
        assert_eq!(overflow(&inc), 0);
    }

    /// Deterministic PRNG for the randomized placements (the proptest
    /// stub's strategies are uniform ranges; this derives the rest).
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A randomized two-die micro placement: die positions, signal count
    /// and footprint all derived from `seed`.
    fn random_micro_placement(seed: u64) -> DiePlacement {
        let r = |k: u64| splitmix64(seed ^ k);
        let signals = 2 + (r(1) % 11) as usize; // 2..=12
        let x0 = 30.0 + (r(2) % 120) as f64; // 30..150
        let gap = 150.0 + (r(3) % 300) as f64; // 150..450
        let width = (x0 + gap + 400.0).max(600.0);
        let height = 240.0 + (r(4) % 200) as f64;
        micro_placement_at(signals, x0, x0 + gap, (width, height))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// (a) The windowed search + fallback routes exactly the nets
        /// the full-grid search routes — well-formed paths between the
        /// same endpoints, aggregate length within a band of the
        /// full-grid reference — on randomized placements under
        /// evolving congestion.
        #[test]
        fn windowed_covers_full_grid_on_random_placements(seed in 0u64..(1u64 << 48)) {
            assert_windowed_covers_full_grid(&random_micro_placement(seed));
        }

        /// (b) Incremental reroute converges to the same overflow count
        /// as classic full reroute on randomized placements.
        #[test]
        fn incremental_matches_full_reroute_overflow(seed in 0u64..(1u64 << 48)) {
            let p = random_micro_placement(seed);
            let spec = InterposerSpec::for_kind(p.tech);
            let grid = RoutingGrid::new(p.footprint_um, &spec).unwrap();
            let overflow = |r: &[RoutedNet]| {
                let mut usage = vec![0.0; grid.node_count()];
                for net in r {
                    accumulate_path(&grid, &net.path, &mut usage);
                }
                usage.iter().filter(|&&u| u > grid.capacity).count()
            };
            let inc = route_all_impl(&p, &grid, Reroute::Incremental).unwrap();
            let full = route_all_impl(&p, &grid, Reroute::Full).unwrap();
            prop_assert_eq!(overflow(&inc), overflow(&full));
        }
    }

    #[test]
    fn scratch_generations_isolate_searches() {
        let mut s: SearchScratch = SearchScratch::new(128);
        s.begin_search();
        let gen = s.generation;
        s.nodes[5].dist = 1.5;
        s.nodes[5].stamp = gen;
        s.begin_search();
        assert_ne!(s.nodes[5].stamp, s.generation, "stale stamp invalidated");
    }

    #[test]
    fn fast_div_is_exact_for_32_bit_operands() {
        // Exhaustive-ish sweep over awkward divisors (powers of two,
        // odd primes, grid-typical per-layer sizes) and boundary
        // numerators. The debug_assert inside `div` cross-checks every
        // call against hardware division as well.
        let divisors = [2u64, 3, 4, 7, 64, 110, 12100, 110 * 110 * 7, 65537];
        for &d in &divisors {
            let f = FastDiv::new(d);
            for n in [
                0u64,
                1,
                d - 1,
                d,
                d + 1,
                7 * d + 3,
                u32::MAX as u64 - 1,
                u32::MAX as u64,
            ] {
                assert_eq!(f.div(n), n / d, "n={n} d={d}");
            }
        }
    }
}
