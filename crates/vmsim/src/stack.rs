//! LRU stack-distance analysis.
//!
//! LRU is a stack algorithm: one pass over the trace computes the stack
//! distance of every reference, which yields the fault count for *every*
//! allocation simultaneously (Mattson et al.). The experiment sweeps use
//! this to pick allocations, and the property tests use it to verify the
//! inclusion property of the direct LRU simulation.
//!
//! The pass is the Bennett–Kruskal/Olken tree algorithm: a Fenwick tree
//! over last-use times counts, in `O(log P)` per reference, how many
//! *distinct* pages were touched since the current page's previous use —
//! which is exactly its LRU stack distance. Time slots are compacted
//! back to one-per-distinct-page whenever the tree fills, so the whole
//! profile costs `O(R log P)` for `R` references over `P` pages and the
//! tree never grows beyond `2P` slots. (The old move-to-front list was
//! `O(R·s)` in the mean stack depth `s`; it survives as the test
//! oracle.)

use cdmm_trace::{EventSource, PageId, Run, RunRef};

/// The LRU fault-count profile of one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackProfile {
    /// `faults[m]` = LRU faults with an allocation of `m` pages
    /// (`faults[0]` is unused and equals the reference count).
    faults: Vec<u64>,
    /// References in the trace.
    refs: u64,
    /// Distinct pages (= allocation beyond which faults stay minimal).
    distinct: usize,
}

/// Fenwick (binary indexed) tree over 1-based positions; `add` marks or
/// unmarks a position, `prefix` counts marks in `[1, i]`.
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    #[inline]
    fn add(&mut self, mut i: usize, delta: i32) {
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u32);
            i += i & i.wrapping_neg();
        }
    }

    #[inline]
    fn prefix(&self, mut i: usize) -> u32 {
        let mut s = 0u32;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    fn reset(&mut self) {
        self.tree.fill(0);
    }
}

/// Per-page last-use bookkeeping for the tree pass: `last[p]` is the
/// 1-based time slot of page `p`'s most recent reference (0 = never).
struct LastUse {
    slot: Vec<u32>,
}

impl LastUse {
    fn with_capacity(pages: usize) -> LastUse {
        LastUse {
            slot: vec![0; pages],
        }
    }

    #[inline]
    fn get(&mut self, page: usize) -> u32 {
        if page >= self.slot.len() {
            self.slot.resize(page + 1, 0);
        }
        self.slot[page]
    }

    #[inline]
    fn set(&mut self, page: usize, t: u32) {
        self.slot[page] = t;
    }
}

/// The tree pass's working state, split out so the run-level driver can
/// mix per-reference steps with batched stride-0 spans. `pub(crate)` so
/// the one-pass curve kernel in [`crate::curve`] can share the pass and
/// read the raw histogram out of it.
pub(crate) struct TreePass {
    fen: Fenwick,
    last: LastUse,
    /// Marked slots in chronological order: `slot_page[i]` = page whose
    /// last use occupies slot `i+1`, or [`TreePass::NONE`] if superseded.
    slot_page: Vec<u32>,
    /// `hist[d]` = refs at stack distance `d` (1-based).
    pub(crate) hist: Vec<u64>,
    pub(crate) cold: u64,
    pub(crate) refs: u64,
    pub(crate) distinct: usize,
    /// `cold_time[k]` = 1-based reference tick of the `k+1`-th cold
    /// fault. The distinct-pages-so-far step function is fully
    /// determined by these ticks, which is what lets the curve kernel
    /// reconstruct `Σ_t min(D(t), m)` for every allocation `m` from one
    /// pass — batched spans (stride-0 repeats, folded cycle iterations)
    /// never contain cold faults, so the vector stays exact under all
    /// the run-level shortcuts below.
    pub(crate) cold_time: Vec<u64>,
    /// Slots consumed so far.
    now: usize,
}

impl TreePass {
    const NONE: u32 = u32::MAX;

    pub(crate) fn new(hint: usize) -> TreePass {
        // Tree over time slots; sized to 2× the page hint so compaction
        // (an O(P) renumbering) amortizes to O(1) per reference.
        let fen = Fenwick::new(hint * 2);
        let cap = fen.len();
        TreePass {
            fen,
            last: LastUse::with_capacity(hint),
            slot_page: Vec::with_capacity(cap),
            hist: Vec::new(),
            cold: 0,
            refs: 0,
            distinct: 0,
            cold_time: Vec::new(),
            now: 0,
        }
    }

    /// Processes one page reference: the Bennett–Kruskal step.
    fn step(&mut self, page: PageId) {
        self.refs += 1;
        let p = page.0 as usize;
        if self.now == self.fen.len() {
            // Compact: renumber the live slots 1..=distinct.
            let mut t = 0u32;
            let live: Vec<u32> = self
                .slot_page
                .iter()
                .copied()
                .filter(|&q| q != Self::NONE)
                .collect();
            self.fen.reset();
            self.slot_page.clear();
            for q in live {
                t += 1;
                self.last.set(q as usize, t);
                self.fen.add(t as usize, 1);
                self.slot_page.push(q);
            }
            self.now = t as usize;
            // Growth keeps the 2× slack for traces whose distinct set
            // itself keeps growing.
            if self.now * 2 > self.fen.len() {
                let new_len = self.now * 2;
                self.fen = Fenwick::new(new_len);
                for (i, _) in self.slot_page.iter().enumerate() {
                    self.fen.add(i + 1, 1);
                }
            }
        }
        let prev = self.last.get(p);
        self.now += 1;
        let t = self.now as u32;
        if prev == 0 {
            self.cold += 1;
            self.distinct += 1;
            self.cold_time.push(self.refs);
        } else {
            // Stack distance = distinct pages used at or after the
            // previous use of `p` = marks in [prev, now-1].
            let dist =
                (self.fen.prefix(self.now - 1) - self.fen.prefix(prev as usize - 1)) as usize;
            if self.hist.len() <= dist {
                self.hist.resize(dist + 1, 0);
            }
            self.hist[dist] += 1;
            self.fen.add(prev as usize, -1);
            self.slot_page[prev as usize - 1] = Self::NONE;
        }
        self.last.set(p, t);
        self.fen.add(self.now, 1);
        self.slot_page.push(page.0);
    }

    /// Batches `n` immediate re-references of the page [`step`](Self::step)
    /// just processed. Each such reference has stack distance exactly 1
    /// (its previous use is the topmost mark), and per-ref it would
    /// supersede its own slot — a net no-op on the live set — so the
    /// whole span collapses to a histogram bump with no tree work and
    /// no slot consumption (stride-0 spans can never trigger
    /// compaction).
    fn repeat_top(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.refs += n;
        if self.hist.len() <= 1 {
            self.hist.resize(2, 0);
        }
        self.hist[1] += n;
    }

    /// Decodes one constant-stride run through the pass.
    fn run(&mut self, start: PageId, stride: i32, len: u32) {
        if stride == 0 {
            // One page `len` times: first reference settles the
            // distance, the rest hit the top of the stack.
            self.step(start);
            self.repeat_top(len as u64 - 1);
        } else {
            let mut p = start.0 as i64;
            for _ in 0..len {
                self.step(PageId(p as u32));
                p += stride as i64;
            }
        }
    }

    /// Processes a cycle in `O(2 · period)` regardless of `reps`: two
    /// decoded iterations, then a histogram batch.
    ///
    /// From the second iteration on, every reference's reuse window lies
    /// entirely inside the cycle, so its stack distance is a pure
    /// function of the body — iteration 1's histogram contribution
    /// repeats verbatim for iterations `2..reps`. Marks and slots are
    /// deliberately left at their iteration-1 positions: the skipped
    /// iterations touch only body pages, whose (stale) marks still sit
    /// inside any later reuse window, so a post-cycle reference counts
    /// exactly the same distinct-page set either way.
    fn cycle(&mut self, body: &[Run], reps: u32) {
        if reps < 3 {
            for _ in 0..reps {
                for r in body {
                    self.run(r.start, r.stride, r.len);
                }
            }
            return;
        }
        for r in body {
            self.run(r.start, r.stride, r.len); // iteration 0: cold faults
        }
        let hist_before = self.hist.clone();
        let refs_before = self.refs;
        for r in body {
            self.run(r.start, r.stride, r.len); // iteration 1: periodic profile
        }
        let period = self.refs - refs_before;
        let k = (reps - 2) as u64;
        for (d, h) in self.hist.iter_mut().enumerate() {
            let before = hist_before.get(d).copied().unwrap_or(0);
            *h += (*h - before) * k;
        }
        self.refs += period * k;
    }

    /// Dispatches one streamed run-level op into the pass.
    pub(crate) fn feed(&mut self, run: RunRef<'_>) {
        match run {
            RunRef::Run { start, stride, len } => self.run(start, stride, len),
            RunRef::Cycle { body, reps } => self.cycle(body, reps),
            RunRef::Directive(_) => {}
        }
    }
}

impl StackProfile {
    /// Computes the profile with a Fenwick tree over last-use times, in
    /// `O(runs log P)` for a [`cdmm_trace::CompressedTrace`] whose
    /// stride-0 runs dominate (each run is one tree step plus a
    /// histogram bump) and `O(R log P)` in general. Accepts anything
    /// that can stream page references — a plain [`cdmm_trace::Trace`]
    /// or a compressed one.
    pub fn compute<S: EventSource + ?Sized>(trace: &S) -> StackProfile {
        let hint = trace.page_count_hint().max(16);
        let mut pass = TreePass::new(hint);
        trace.for_each_run(|run| pass.feed(run));
        Self::from_histogram(pass.hist, pass.cold, pass.refs, pass.distinct)
    }

    /// Builds the profile from a finished [`TreePass`] — the curve
    /// kernel shares the pass and wraps the resulting profile.
    pub(crate) fn from_pass(pass: TreePass) -> StackProfile {
        Self::from_histogram(pass.hist, pass.cold, pass.refs, pass.distinct)
    }

    /// Builds the profile from a stack-distance histogram:
    /// `faults(m) = cold + Σ_{d > m} hist[d]`.
    fn from_histogram(hist: Vec<u64>, cold: u64, refs: u64, distinct: usize) -> StackProfile {
        let max_m = distinct.max(1);
        let mut faults = vec![0u64; max_m + 1];
        let mut tail: u64 = hist.iter().sum();
        faults[0] = refs;
        for m in 1..=max_m {
            if m < hist.len() {
                tail -= hist[m];
            }
            faults[m] = cold + tail;
        }
        StackProfile {
            faults,
            refs,
            distinct,
        }
    }

    /// The original move-to-front implementation (`O(R·s)` in the mean
    /// stack depth `s`), kept as the property-test oracle for the tree
    /// pass.
    #[cfg(test)]
    pub(crate) fn compute_naive(trace: &cdmm_trace::Trace) -> StackProfile {
        use cdmm_trace::PageId;
        let mut stack: Vec<PageId> = Vec::new();
        let mut hist: Vec<u64> = Vec::new();
        let mut cold = 0u64;
        let mut refs = 0u64;
        for page in trace.refs() {
            refs += 1;
            match stack.iter().position(|&p| p == page) {
                None => {
                    cold += 1;
                    stack.insert(0, page);
                }
                Some(d) => {
                    stack.remove(d);
                    stack.insert(0, page);
                    let dist = d + 1;
                    if hist.len() <= dist {
                        hist.resize(dist + 1, 0);
                    }
                    hist[dist] += 1;
                }
            }
        }
        let distinct = stack.len();
        Self::from_histogram(hist, cold, refs, distinct)
    }

    /// LRU faults for an allocation of `m` pages (`m >= 1`).
    pub fn faults_at(&self, m: usize) -> u64 {
        if m == 0 {
            return self.refs;
        }
        let idx = m.min(self.faults.len() - 1);
        self.faults[idx]
    }

    /// Smallest allocation whose fault count is `<= budget`, if any.
    pub fn min_alloc_for(&self, budget: u64) -> Option<usize> {
        (1..self.faults.len()).find(|&m| self.faults[m] <= budget)
    }

    /// Number of distinct pages in the trace.
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// References in the trace.
    pub fn refs(&self) -> u64 {
        self.refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::lru::Lru;
    use crate::policy::Policy;
    use cdmm_trace::{synth, Trace};

    fn direct_lru_faults(trace: &Trace, m: usize) -> u64 {
        let mut lru = Lru::new(m);
        trace.refs().filter(|&p| lru.reference(p)).count() as u64
    }

    #[test]
    fn profile_matches_direct_simulation() {
        for seed in 0..3 {
            let t = synth::uniform(20, 3_000, seed);
            let prof = StackProfile::compute(&t);
            for m in [1, 2, 5, 10, 20, 25] {
                assert_eq!(
                    prof.faults_at(m),
                    direct_lru_faults(&t, m),
                    "mismatch at m={m}, seed={seed}"
                );
            }
        }
    }

    #[test]
    fn tree_profile_equals_naive_oracle_on_random_traces() {
        for seed in 0..8 {
            // Few pages and many refs forces heavy slot compaction.
            let t = synth::uniform(5 + (seed as u32 % 40), 4_000, seed);
            assert_eq!(
                StackProfile::compute(&t),
                StackProfile::compute_naive(&t),
                "seed={seed}"
            );
        }
        for (pages, len) in [(1, 500), (3, 1), (100, 100), (64, 10_000)] {
            let t = synth::uniform(pages, len, 42);
            assert_eq!(StackProfile::compute(&t), StackProfile::compute_naive(&t));
        }
    }

    #[test]
    fn tree_profile_equals_naive_oracle_on_structured_traces() {
        for t in [
            synth::cyclic(12, 40),
            synth::cyclic(1, 100),
            synth::phased(
                &[
                    synth::Phase {
                        base: 0,
                        pages: 8,
                        refs: 200,
                    },
                    synth::Phase {
                        base: 8,
                        pages: 5,
                        refs: 150,
                    },
                ],
                3,
            ),
            synth::nested_loops(6, 4, 10, 2),
        ] {
            assert_eq!(StackProfile::compute(&t), StackProfile::compute_naive(&t));
        }
    }

    #[test]
    fn run_level_tree_equals_naive_oracle_on_compressed_traces() {
        use cdmm_trace::{CompressedTrace, Event, PageId};
        // Seeded SplitMix64 run generator: constant-stride runs over a
        // deliberately small page universe so the tree pass is forced
        // through slot compaction many times, interleaved with stride-0
        // spans that exercise the batched histogram path.
        for seed in 0..12u64 {
            let mut state = 0x9e3779b97f4a7c15u64.wrapping_mul(seed + 1);
            let mut next = move || {
                state = state.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            let pages = 4 + (next() % 28) as u32;
            let mut events = Vec::new();
            for _ in 0..200 {
                let start = (next() % pages as u64) as i64;
                let stride = (next() % 7) as i64 - 3; // -3..=3, 0 included
                let len = 1 + (next() % 60) as u32;
                let mut p = start;
                for _ in 0..len {
                    events.push(Event::Ref(PageId(p.rem_euclid(pages as i64) as u32)));
                    p += stride;
                }
            }
            let t = Trace::from_events(events);
            let c = CompressedTrace::from_trace(&t);
            let naive = StackProfile::compute_naive(&t);
            assert_eq!(StackProfile::compute(&c), naive, "compressed, seed={seed}");
            assert_eq!(StackProfile::compute(&t), naive, "flat, seed={seed}");
        }
    }

    #[test]
    fn stride_zero_spans_keep_compaction_honest() {
        use cdmm_trace::{CompressedTrace, Event, PageId};
        // Two pages, long repeat spans: per-ref this consumes a slot per
        // reference and compacts constantly; run-level it must produce
        // the identical profile from two tree steps per alternation.
        let mut events = Vec::new();
        for i in 0..400u32 {
            let page = i % 2;
            for _ in 0..50 {
                events.push(Event::Ref(PageId(page)));
            }
        }
        // A length-1 tail run straddling the alternation pattern.
        events.push(Event::Ref(PageId(7)));
        let t = Trace::from_events(events);
        let c = CompressedTrace::from_trace(&t);
        let naive = StackProfile::compute_naive(&t);
        assert_eq!(StackProfile::compute(&c), naive);
        assert_eq!(StackProfile::compute(&t), naive);
        assert_eq!(naive.faults_at(2), 3, "pages 0 and 1 cold-fault, then 7");
    }

    #[test]
    fn faults_monotone_nonincreasing() {
        let t = synth::uniform(30, 5_000, 7);
        let prof = StackProfile::compute(&t);
        let mut last = u64::MAX;
        for m in 1..=30 {
            let f = prof.faults_at(m);
            assert!(f <= last, "inclusion property violated at m={m}");
            last = f;
        }
    }

    #[test]
    fn full_allocation_gives_cold_faults() {
        let t = synth::cyclic(12, 40);
        let prof = StackProfile::compute(&t);
        assert_eq!(prof.faults_at(12), 12);
        assert_eq!(prof.faults_at(100), 12, "beyond distinct pages: flat");
        assert_eq!(prof.distinct(), 12);
    }

    #[test]
    fn cyclic_trace_thrashes_below_cycle_size() {
        let t = synth::cyclic(10, 10);
        let prof = StackProfile::compute(&t);
        for m in 1..10 {
            assert_eq!(prof.faults_at(m), 100, "LRU faults on every ref, m={m}");
        }
        assert_eq!(prof.faults_at(10), 10);
    }

    #[test]
    fn min_alloc_for_budget() {
        let t = synth::cyclic(10, 10);
        let prof = StackProfile::compute(&t);
        assert_eq!(prof.min_alloc_for(10), Some(10));
        assert_eq!(prof.min_alloc_for(9), None, "cold faults are unavoidable");
        assert_eq!(prof.min_alloc_for(1_000), Some(1));
    }

    #[test]
    fn empty_trace_profile() {
        let t = Trace::default();
        let prof = StackProfile::compute(&t);
        assert_eq!(prof.refs(), 0);
        assert_eq!(prof.faults_at(1), 0);
        assert!(prof.min_alloc_for(0).is_some());
    }
}
