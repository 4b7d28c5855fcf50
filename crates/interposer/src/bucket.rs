//! Monotone bucket (Dial-style) frontier for the router's A* loop.
//!
//! A* with a consistent heuristic pops keys in non-decreasing order, so
//! the frontier never spans more than one maximum-edge-cost worth of
//! key space at a time. [`BucketQueue`] exploits that: keys are
//! quantized into fixed-point *ticks* of [`TICK_UM`] µm and hashed into
//! a ring of `RING` tick slots; a pop scans forward from a monotone
//! cursor to the first occupied slot instead of sifting a global binary
//! heap. Each slot holds a tiny [`BinaryHeap`] ordered by the exact
//! `(f, node)` key, so ties *within* a tick (common: grid costs are
//! dyadic) still pop in the precise total order.
//!
//! # Exactness
//!
//! The pop order is **bit-for-bit identical** to a global
//! `BinaryHeap<FrontierItem>` (the pre-overhaul router's queue), not
//! merely equivalent-cost. Three invariants carry the argument:
//!
//! 1. *Quantization is monotone*: `f1 <= f2 ⇒ tick(f1) <= tick(f2)`, so
//!    slot order refines key order and the first occupied slot from the
//!    cursor holds the global minimum — which the slot-local heap then
//!    selects exactly.
//! 2. *Late cheap pushes clamp to the cursor*: floating-point rounding
//!    can push a key an ulp below the last popped one. Such entries
//!    join the slot the next pop scans first, where the slot heap
//!    restores their priority — the global heap would pop them next,
//!    and so does the ring.
//! 3. *The overflow tier is a strict suffix*: entries beyond the ring
//!    horizon wait in `overflow`, and once anything overflows, every
//!    later push at or past the smallest overflowed tick overflows too
//!    (`overflow_min`). Ring ticks therefore stay strictly below every
//!    overflow tick, so draining the ring before rebasing onto the
//!    overflow minimum preserves the global order.
//!
//! The retained binary heap (`HeapFrontier`, compiled for tests only)
//! is the differential oracle: the proptests below drive both queues
//! with the same random bounded-cost push/pop schedules — tie storms
//! included — and demand identical pop sequences.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Quantization tick, µm of path cost per ring slot. `1/TICK_UM` must
/// be a power of two so the tick computation is exact (no rounding in
/// `f * TICK_INV`), keeping quantization a pure monotone function of
/// the key bits.
pub const TICK_UM: f64 = 0.5;
const TICK_INV: f64 = 1.0 / TICK_UM;
/// Ring capacity in ticks (8 192 µm of key span at [`TICK_UM`]). Wide
/// enough that congestion-priced edges rarely overflow; the overflow
/// tier keeps correctness when they do.
const RING: usize = 16_384;

/// One frontier entry: the A* key `f`, the `g` value it was pushed
/// with (stale-pop detection), and the node index.
#[derive(Debug, Clone, Copy)]
pub struct FrontierItem {
    /// Priority key (`g` + heuristic).
    pub f: f64,
    /// The `dist` value this entry was pushed with.
    pub g: f64,
    /// Flattened grid node index.
    pub node: usize,
}

impl PartialEq for FrontierItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for FrontierItem {}

impl Ord for FrontierItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-order on f (so a max-BinaryHeap pops the smallest f),
        // larger node index first among exact f ties. `g` is not part
        // of the key: two entries with equal (f, node) were pushed by
        // relaxations of the same node under the same heuristic, hence
        // carry equal g and are fully interchangeable.
        //
        // `total_cmp` keeps this a total order even for the NaN/-0.0
        // corners `Ord` must survive (see the HeapItem note this
        // ordering was lifted from).
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for FrontierItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The priority-queue interface the A* kernel is generic over. Both
/// implementations pop in the identical total order; only the constant
/// factors differ.
pub trait FrontierQueue {
    /// An empty queue. Allocation happens here; [`FrontierQueue::begin`]
    /// reuses it.
    fn new() -> Self;

    /// Resets for a fresh search in O(1) amortised (generation stamp).
    fn begin(&mut self);

    /// Inserts an entry. Keys must be finite and non-negative.
    fn push(&mut self, item: FrontierItem);

    /// Removes and returns the minimum entry by `(f` [`f64::total_cmp`]`,
    /// node descending)`, exactly as `BinaryHeap<FrontierItem>` would.
    fn pop(&mut self) -> Option<FrontierItem>;

    /// Entries currently queued.
    fn len(&self) -> usize;

    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[inline]
fn tick(f: f64) -> u64 {
    // `f * 2` is exact for finite f (power-of-two scale); the as-cast
    // floors, saturating NaN/negatives to 0 and +inf to u64::MAX —
    // callers promise finite non-negative keys, the saturation is just
    // the no-UB backstop.
    (f * TICK_INV) as u64
}

/// The monotone bucket queue: a generation-stamped ring of per-tick
/// mini-heaps plus an overflow tier for beyond-horizon entries. See the
/// module docs for the exactness argument.
pub struct BucketQueue {
    /// `ring[t % RING]` holds the entries of absolute tick `t` for the
    /// ticks inside the current horizon.
    ring: Vec<BinaryHeap<FrontierItem>>,
    /// Slot validity stamps: a slot is live only when its stamp equals
    /// `generation`, which makes [`BucketQueue::begin`] O(1).
    slot_gen: Vec<u32>,
    generation: u32,
    /// Absolute tick the pop scan resumes from; monotone within one
    /// search.
    cursor: u64,
    /// Entries currently in the ring.
    ring_len: usize,
    /// Entries whose tick was beyond the ring horizon at push time.
    overflow: Vec<FrontierItem>,
    /// Smallest tick in `overflow` (`u64::MAX` when empty). Ring
    /// admission stays strictly below it so the ring is always a
    /// prefix of the key order.
    overflow_min: u64,
    len: usize,
}

impl BucketQueue {
    /// Moves every overflow entry inside the new horizon into the ring
    /// after advancing the cursor to the smallest overflowed tick.
    /// Called only when the ring is empty, so no ring entry can be
    /// overtaken.
    fn rebase(&mut self) {
        debug_assert_eq!(self.ring_len, 0);
        debug_assert!(!self.overflow.is_empty());
        self.cursor = self.overflow_min.max(self.cursor);
        let mut i = 0;
        while i < self.overflow.len() {
            let t = tick(self.overflow[i].f).max(self.cursor);
            if t - self.cursor < RING as u64 {
                let item = self.overflow.swap_remove(i);
                self.slot_push(t, item);
                self.ring_len += 1;
            } else {
                i += 1;
            }
        }
        // Everything retained is at or beyond the horizon, so the new
        // minimum is again an upper bound for ring admission.
        self.overflow_min = self
            .overflow
            .iter()
            .map(|it| tick(it.f))
            .min()
            .unwrap_or(u64::MAX);
    }

    #[inline]
    fn slot_push(&mut self, t: u64, item: FrontierItem) {
        let slot = (t % RING as u64) as usize;
        if self.slot_gen[slot] != self.generation {
            self.ring[slot].clear();
            self.slot_gen[slot] = self.generation;
        }
        self.ring[slot].push(item);
    }
}

impl FrontierQueue for BucketQueue {
    fn new() -> Self {
        BucketQueue {
            ring: (0..RING).map(|_| BinaryHeap::new()).collect(),
            slot_gen: vec![0; RING],
            generation: 1,
            cursor: 0,
            ring_len: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            len: 0,
        }
    }

    fn begin(&mut self) {
        if self.generation == u32::MAX {
            self.slot_gen.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
        self.cursor = 0;
        self.ring_len = 0;
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.len = 0;
    }

    #[inline]
    fn push(&mut self, item: FrontierItem) {
        debug_assert!(
            item.f >= 0.0 && item.f.is_finite(),
            "frontier keys must be finite and non-negative, got {}",
            item.f
        );
        // A key an ulp below the cursor (floating-point slack on a
        // zero-slack edge) clamps to the cursor slot, which is scanned
        // next — the slot heap restores its priority exactly.
        let t = tick(item.f).max(self.cursor);
        if t - self.cursor >= RING as u64 || t >= self.overflow_min {
            self.overflow_min = self.overflow_min.min(t);
            self.overflow.push(item);
        } else {
            self.slot_push(t, item);
            self.ring_len += 1;
        }
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<FrontierItem> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.ring_len == 0 {
                self.rebase();
            }
            let slot = (self.cursor % RING as u64) as usize;
            if self.slot_gen[slot] == self.generation {
                if let Some(item) = self.ring[slot].pop() {
                    self.len -= 1;
                    self.ring_len -= 1;
                    return Some(item);
                }
            }
            self.cursor += 1;
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The retained global binary heap, kept in test builds as the
/// differential oracle. Pop order is the reference the bucket queue
/// must reproduce bit-for-bit.
#[cfg(test)]
pub struct HeapFrontier(BinaryHeap<FrontierItem>);

#[cfg(test)]
impl FrontierQueue for HeapFrontier {
    fn new() -> Self {
        HeapFrontier(BinaryHeap::new())
    }

    fn begin(&mut self) {
        self.0.clear();
    }

    fn push(&mut self, item: FrontierItem) {
        self.0.push(item);
    }

    fn pop(&mut self) -> Option<FrontierItem> {
        self.0.pop()
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn item(f: f64, node: usize) -> FrontierItem {
        // g derived from the key so equal (f, node) entries are fully
        // interchangeable, matching the router's invariant (g = f - h
        // for a fixed per-node h).
        FrontierItem {
            f,
            g: f * 0.5,
            node,
        }
    }

    fn assert_same_pop(b: &mut BucketQueue, h: &mut HeapFrontier) {
        let (x, y) = (b.pop(), h.pop());
        match (x, y) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert!(
                    a.f.to_bits() == b.f.to_bits()
                        && a.g.to_bits() == b.g.to_bits()
                        && a.node == b.node,
                    "bucket popped ({}, {}, {}), heap popped ({}, {}, {})",
                    a.f,
                    a.g,
                    a.node,
                    b.f,
                    b.g,
                    b.node
                );
            }
            (a, b) => panic!("bucket popped {a:?}, heap popped {b:?}"),
        }
    }

    #[test]
    fn pops_in_key_order_with_exact_tie_break() {
        let mut q = BucketQueue::new();
        q.begin();
        // A tie storm: many entries share f; larger node pops first.
        for node in [3usize, 9, 1, 7] {
            q.push(item(20.0, node));
        }
        q.push(item(19.5, 0));
        q.push(item(20.5, 100));
        let order: Vec<(f64, usize)> =
            std::iter::from_fn(|| q.pop().map(|i| (i.f, i.node))).collect();
        assert_eq!(
            order,
            vec![
                (19.5, 0),
                (20.0, 9),
                (20.0, 7),
                (20.0, 3),
                (20.0, 1),
                (20.5, 100)
            ]
        );
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn zero_length_degenerate_single_push() {
        // The coincident-endpoints net from PR 6: one push at f = 0,
        // popped immediately, then empty.
        let mut q = BucketQueue::new();
        q.begin();
        q.push(item(0.0, 42));
        let popped = q.pop().unwrap();
        assert_eq!((popped.f, popped.node), (0.0, 42));
        assert!(q.pop().is_none());
    }

    #[test]
    fn below_cursor_push_clamps_and_pops_first() {
        let mut q = BucketQueue::new();
        let mut h = HeapFrontier::new();
        q.begin();
        h.begin();
        for it in [item(100.0, 1), item(105.0, 2)] {
            q.push(it);
            h.push(it);
        }
        assert_same_pop(&mut q, &mut h); // 100 → cursor is now at tick 200
                                         // An ulp-ish late push below the cursor must still win the next
                                         // pop, exactly like the global heap.
        for it in [item(99.999, 3), item(101.0, 4)] {
            q.push(it);
            h.push(it);
        }
        for _ in 0..3 {
            assert_same_pop(&mut q, &mut h);
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn overflow_and_rebase_preserve_order() {
        let mut q = BucketQueue::new();
        let mut h = HeapFrontier::new();
        q.begin();
        h.begin();
        // Span far beyond the 8 192 µm ring horizon, interleaved so the
        // overflow tier and its strict-suffix invariant are exercised.
        let keys = [
            0.0, 9_000.0, 3.5, 8_192.0, 8_191.5, 20_000.0, 16_500.0, 40.0,
        ];
        for (n, &f) in keys.iter().enumerate() {
            q.push(item(f, n));
            h.push(item(f, n));
        }
        // Pop a few, then push more past the (advanced) horizon.
        for _ in 0..3 {
            assert_same_pop(&mut q, &mut h);
        }
        for (n, &f) in [55.0, 30_000.0, 8_192.5].iter().enumerate() {
            q.push(item(f, 100 + n));
            h.push(item(f, 100 + n));
        }
        while q.len() > 0 || h.len() > 0 {
            assert_same_pop(&mut q, &mut h);
        }
    }

    #[test]
    fn begin_isolates_searches() {
        let mut q = BucketQueue::new();
        q.begin();
        q.push(item(7.0, 1));
        q.push(item(9_999.0, 2)); // parked in overflow
        q.begin();
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        q.push(item(1.0, 3));
        assert_eq!(q.pop().unwrap().node, 3);
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential oracle: a random bounded-cost push/pop schedule
        /// — coarse dyadic keys for tie storms, occasional huge keys
        /// for the overflow tier, interleaved pops — must produce the
        /// bit-identical pop sequence from both queues, including the
        /// final drain.
        #[test]
        fn matches_binary_heap_on_random_schedules(seed in 0u64..(1u64 << 48)) {
            let mut q = BucketQueue::new();
            let mut h = HeapFrontier::new();
            q.begin();
            h.begin();
            for step in 0..400u64 {
                let r = splitmix64(seed ^ step);
                if r % 4 == 3 {
                    assert_same_pop(&mut q, &mut h);
                } else {
                    // Keys quantized to 0.25 µm so many collide exactly
                    // (the dyadic tie storm of real grid costs); ~6 % jump
                    // past the ring horizon.
                    let mut f = ((r >> 8) % 512) as f64 * 0.25;
                    if (r >> 24).is_multiple_of(16) {
                        f += 9_000.0 + ((r >> 28) % 4) as f64 * 8_192.0;
                    }
                    let node = ((r >> 40) % 64) as usize;
                    q.push(item(f, node));
                    h.push(item(f, node));
                }
                prop_assert_eq!(q.len(), h.len());
            }
            while q.len() > 0 || h.len() > 0 {
                assert_same_pop(&mut q, &mut h);
            }
            prop_assert!(q.pop().is_none() && h.pop().is_none());
        }
    }
}
