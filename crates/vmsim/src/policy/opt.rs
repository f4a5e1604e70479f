//! Belady's OPT: the offline-optimal fixed-allocation policy.
//!
//! OPT evicts the resident page whose next use is farthest in the future.
//! It needs the whole reference string in advance, so [`Opt::for_trace`]
//! precomputes a next-use chain; the policy then must be driven over
//! exactly that trace. OPT lower-bounds every demand-paging fixed-
//! allocation policy and anchors the LRU sweeps in the test suite.

use std::collections::BinaryHeap;

use cdmm_trace::interp::POLL_INTERVAL;
use cdmm_trace::{EventSource, PageId, Run, RunRef};

use crate::error::SimError;
use crate::metrics::Tally;
use crate::policy::{classify_run, cycle_period, warm_up_cycle, Policy, RunClass, SlotTable};

const NEVER: u64 = u64::MAX;

/// `next_use[i]` = position of the next reference to the same page
/// after reference `i` (`NEVER` if none). Shared by OPT and VMIN.
///
/// One forward pass, 8 bytes per reference: each reference patches its
/// page's previous entry through a flat last-position table indexed by
/// the dense page id. `keep_going` is polled before anything is
/// allocated and then every [`POLL_INTERVAL`] references — inside runs
/// too, since one stride-0 run can hold millions of references. Returns
/// `None` when the poll stopped the pass.
pub(crate) fn next_use_chain_while<S: EventSource + ?Sized>(
    trace: &S,
    mut keep_going: impl FnMut() -> bool,
) -> Option<Vec<u64>> {
    if !keep_going() {
        return None;
    }
    let mut next_use: Vec<u64> = Vec::with_capacity(trace.ref_count() as usize);
    let mut last_pos = vec![NEVER; trace.page_count_hint()];
    let mut budget = POLL_INTERVAL;
    let mut feed = |run: &Run| -> bool {
        let mut p = run.start.0 as i64;
        let stride = run.stride as i64;
        let mut left = run.len as u64;
        while left > 0 {
            let n = left.min(budget);
            for _ in 0..n {
                let idx = p as u32 as usize;
                if idx >= last_pos.len() {
                    last_pos.resize(idx + 1, NEVER);
                }
                let i = next_use.len() as u64;
                let prev = last_pos[idx];
                if prev != NEVER {
                    next_use[prev as usize] = i;
                }
                next_use.push(NEVER);
                last_pos[idx] = i;
                p += stride;
            }
            left -= n;
            budget -= n;
            if budget == 0 {
                budget = POLL_INTERVAL;
                if !keep_going() {
                    return false;
                }
            }
        }
        true
    };
    let mut stopped = false;
    trace.for_each_run(|run| {
        if stopped {
            return;
        }
        stopped = !match run {
            RunRef::Run { start, stride, len } => feed(&Run { start, stride, len }),
            RunRef::Cycle { body, reps } => (0..reps).all(|_| body.iter().all(&mut feed)),
            RunRef::Directive(_) => true,
        };
    });
    (!stopped).then_some(next_use)
}

/// Offline-optimal replacement for a fixed allocation.
///
/// State is dense: a resident list of frames keyed by next use, with a
/// page → slot table. A hit only rewrites its frame's key, so hits cost
/// O(1) whatever the allocation. Evictions pop a lazily maintained
/// max-heap of `(next use, page)` in O(log frames) amortized — exactly
/// the order of a sorted set, so among pages never used again (the only
/// possible ties) the highest page id goes.
#[derive(Debug, Clone)]
pub struct Opt {
    frames: usize,
    /// `next_use[i]` = position of the next reference to the same page
    /// after position `i` (`NEVER` if none).
    next_use: Vec<u64>,
    /// Current position in the reference string.
    pos: usize,
    /// Resident pages, in no particular order.
    resident: Vec<Frame>,
    slot: SlotTable,
    /// Eviction candidates. Holds the current key of every resident
    /// frame not listed in `requeue`, plus stale entries (an older key,
    /// or a page since evicted) that an eviction discards as it meets
    /// them.
    heap: BinaryHeap<(u64, PageId)>,
    /// Slots of the frames whose current key the heap lacks: new pages
    /// and pages re-keyed by a hit since the last eviction. Slots stay
    /// put until an eviction, which drains this list first.
    requeue: Vec<u32>,
}

/// One resident page and the position of its next use.
#[derive(Debug, Clone, Copy)]
struct Frame {
    key: u64,
    page: PageId,
    /// Does `Opt::heap` hold `(key, page)`?
    queued: bool,
}

impl Opt {
    /// Builds OPT for a specific trace (any [`EventSource`]) and
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn for_trace<S: EventSource + ?Sized>(trace: &S, frames: usize) -> Self {
        Self::for_trace_while(trace, frames, || true).expect("an idle poll never stops the build")
    }

    /// [`Opt::for_trace`] under a cooperative poll: `keep_going` is
    /// consulted before the lookahead allocates and then at least every
    /// [`POLL_INTERVAL`] references of the pass. Returns `None` when the
    /// poll stopped the build.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn for_trace_while<S: EventSource + ?Sized>(
        trace: &S,
        frames: usize,
        keep_going: impl FnMut() -> bool,
    ) -> Option<Self> {
        if frames == 0 {
            panic!("{}", SimError::ZeroFrames { what: "OPT" });
        }
        let next_use = next_use_chain_while(trace, keep_going)?;
        Some(Opt {
            frames,
            next_use,
            pos: 0,
            resident: Vec::new(),
            slot: SlotTable::default(),
            heap: BinaryHeap::new(),
            requeue: Vec::new(),
        })
    }

    /// The next use of the reference at position `i`. References past
    /// the precomputed horizon have no known next use; treating them as
    /// never-reused keeps the policy total instead of panicking on an
    /// over-long drive.
    fn next_use_at(&self, i: usize) -> u64 {
        self.next_use.get(i).copied().unwrap_or(NEVER)
    }

    /// Sets the key of the resident frame at `slot`; the heap learns of
    /// it at the next eviction.
    #[inline]
    fn rekey(&mut self, slot: usize, key: u64) {
        let frame = &mut self.resident[slot];
        frame.key = key;
        if frame.queued {
            frame.queued = false;
            self.requeue.push(slot as u32);
        }
    }

    /// Evicts the resident page with the largest `(next use, page id)`.
    ///
    /// Once `requeue` is pushed, the heap holds every resident frame's
    /// current key. A page's key only grows — a hit moves it to a later
    /// use, and an evicted page returns exactly at its old key — so a
    /// resident page's current entry pops before any stale one of its
    /// own, and the first popped entry whose page is resident is the
    /// maximum. Entries of evicted pages are dropped as they pop. The
    /// heap is rebuilt from the resident list whenever stale entries
    /// outnumber live ones, which keeps it within twice the allocation
    /// and each push O(log frames) amortized.
    fn evict_farthest(&mut self) {
        for slot in self.requeue.drain(..) {
            let frame = &mut self.resident[slot as usize];
            frame.queued = true;
            self.heap.push((frame.key, frame.page));
        }
        if self.heap.len() > 2 * self.resident.len() {
            self.heap.clear();
            self.heap
                .extend(self.resident.iter().map(|frame| (frame.key, frame.page)));
        }
        while let Some((_, victim)) = self.heap.pop() {
            let Some(at) = self.slot.get(victim) else {
                continue;
            };
            self.resident.swap_remove(at);
            self.slot.remove(victim);
            if let Some(moved) = self.resident.get(at) {
                self.slot.set(moved.page, at);
            }
            return;
        }
    }
}

impl Policy for Opt {
    fn label(&self) -> String {
        format!("OPT({})", self.frames)
    }

    fn reference(&mut self, page: PageId) -> bool {
        let next = self.next_use_at(self.pos);
        self.pos += 1;
        if let Some(slot) = self.slot.get(page) {
            self.rekey(slot, next);
            return false;
        }
        if self.resident.len() >= self.frames {
            self.evict_farthest();
        }
        let slot = self.resident.len();
        self.slot.set(page, slot);
        self.resident.push(Frame {
            key: next,
            page,
            queued: false,
        });
        self.requeue.push(slot as u32);
        true
    }

    fn resident(&self) -> usize {
        self.resident.len()
    }

    fn reference_run(&mut self, start: PageId, stride: i32, len: u32, tally: &mut Tally<'_>) {
        if len <= 1 {
            return crate::policy::reference_run_per_ref(self, start, stride, len, tally);
        }
        if stride == 0 {
            // The first reference settles residency; the rest are hits,
            // and the page's key ends at the next use of the last one.
            let fault = self.reference(start);
            tally.record(self.resident.len(), fault);
            self.pos += (len - 1) as usize;
            let key = self.next_use_at(self.pos - 1);
            let slot = self.slot.get(start).expect("just referenced");
            self.rekey(slot, key);
            tally.record_hits(self.resident.len(), (len - 1) as u64);
            return;
        }
        match classify_run(start, stride, len, |p| self.slot.contains(p)) {
            RunClass::AllHit => {
                // Distinct pages, all hits: each key comes straight from
                // the chain.
                Run { start, stride, len }.for_each_page(|p| {
                    let key = self.next_use_at(self.pos);
                    self.pos += 1;
                    let slot = self.slot.get(p).expect("classified AllHit");
                    self.rekey(slot, key);
                });
                tally.record_hits(self.resident.len(), len as u64);
            }
            RunClass::AllMiss | RunClass::Mixed => {
                crate::policy::reference_run_per_ref(self, start, stride, len, tally)
            }
        }
    }

    fn reference_cycle(&mut self, body: &[Run], reps: u32, tally: &mut Tally<'_>) {
        let rest = warm_up_cycle(self, body, reps, tally);
        if rest == 0 {
            return;
        }
        // Every remaining iteration hits everywhere, so no eviction
        // reads a key until the cycle ends. Skip to the last iteration
        // and replay only it: that leaves each body page's key at the
        // next use of its final reference, as the per-ref loop does.
        let skipped = (rest - 1) as u64 * cycle_period(body);
        self.pos += skipped as usize;
        tally.record_hits(self.resident.len(), skipped);
        for r in body {
            self.reference_run(r.start, r.stride, r.len, tally);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::lru::Lru;
    use crate::policy::{check_kernels, run};
    use cdmm_trace::{synth, Event, Trace};

    fn faults(trace: &Trace, mut p: impl Policy) -> u64 {
        trace.refs().filter(|&r| p.reference(r)).count() as u64
    }

    #[test]
    fn opt_beats_lru_on_cyclic_sweep() {
        let t = synth::cyclic(5, 20);
        let lru_faults = faults(&t, Lru::new(4));
        let opt_faults = faults(&t, Opt::for_trace(&t, 4));
        assert_eq!(lru_faults, 100, "LRU thrashes");
        assert!(opt_faults < lru_faults / 2, "OPT keeps most of the cycle");
    }

    #[test]
    fn opt_never_worse_than_lru() {
        for seed in 0..5 {
            let t = synth::uniform(12, 2_000, seed);
            for frames in [1, 3, 6, 12] {
                let l = faults(&t, Lru::new(frames));
                let o = faults(&t, Opt::for_trace(&t, frames));
                assert!(o <= l, "OPT({frames}) {o} > LRU {l} on seed {seed}");
            }
        }
    }

    #[test]
    fn full_allocation_only_cold_faults() {
        let t = synth::uniform(8, 1_000, 3);
        let o = faults(&t, Opt::for_trace(&t, 8));
        assert_eq!(o, 8);
    }

    #[test]
    fn textbook_example() {
        // Belady's example: 1,2,3,4,1,2,5,1,2,3,4,5 with 3 frames: OPT = 7.
        let t = Trace::from_events(
            [1u32, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
                .iter()
                .map(|&p| Event::Ref(PageId(p)))
                .collect(),
        );
        assert_eq!(faults(&t, Opt::for_trace(&t, 3)), 7);
    }

    #[test]
    fn driving_past_trace_degrades_gracefully() {
        let t = synth::cyclic(2, 1);
        let mut o = Opt::for_trace(&t, 2);
        // Two in-trace references, then one past the horizon: no panic,
        // and the extra reference behaves like a never-reused page.
        o.reference(PageId(0));
        o.reference(PageId(1));
        assert!(!o.reference(PageId(0)), "past-horizon re-reference hits");
        assert!(o.reference(PageId(7)), "past-horizon new page faults");
        assert_eq!(o.resident(), 2);
    }

    fn trace_of(pages: &[u32]) -> Trace {
        Trace::from_events(pages.iter().map(|&p| Event::Ref(PageId(p))).collect())
    }

    #[test]
    fn stride_zero_run_keys_the_page_by_its_last_reference() {
        // After the run, 1's next use (position 8) lies beyond 0's (7):
        // the fault on 2 must evict 1, not 0.
        let t = trace_of(&[0, 1, 1, 1, 1, 1, 2, 0, 1]);
        let script: &[(&[Run], u32)] = &[(&[run(0, 0, 1)], 1), (&[run(1, 0, 5)], 1)];
        let (_, m, probe) = check_kernels(Opt::for_trace(&t, 2), script, &[2, 0, 1]);
        assert_eq!((m.refs, m.faults), (6, 2));
        assert_eq!(probe, vec![true, false, true]);
    }

    #[test]
    fn all_hit_run_rekeys_every_page_from_the_chain() {
        // The reversed run leaves 2 used farthest ahead (position 9).
        let t = trace_of(&[0, 1, 2, 2, 1, 0, 3, 0, 1, 2]);
        let script: &[(&[Run], u32)] = &[(&[run(0, 1, 3)], 1), (&[run(2, -1, 3)], 1)];
        let (_, m, probe) = check_kernels(Opt::for_trace(&t, 3), script, &[3, 0, 1, 2]);
        assert_eq!((m.refs, m.faults), (6, 3));
        assert_eq!(probe, vec![true, false, false, true]);
    }

    #[test]
    fn steady_cycle_then_fault_evicts_by_the_last_iteration_keys() {
        // After five [0, 1] iterations, 0's next use (12) lies beyond
        // 1's (11): the fault on 2 must evict 0. Keys from an earlier
        // iteration would point inside the cycle and evict 1.
        let t = trace_of(&[0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 1, 0]);
        let script: &[(&[Run], u32)] = &[(&[run(0, 1, 2)], 5)];
        let (_, m, probe) = check_kernels(Opt::for_trace(&t, 2), script, &[2, 1, 0]);
        assert_eq!((m.refs, m.faults), (10, 2));
        assert_eq!(probe, vec![true, false, true]);
    }

    #[test]
    fn ties_among_never_reused_pages_evict_the_highest_id() {
        for (start, stride) in [(3, 2), (5, -2)] {
            let first = [start, (start as i32 + stride) as u32];
            let t = trace_of(&[first[0], first[1], 1, 1, 1]);
            let script: &[(&[Run], u32)] = &[(&[run(start, stride, 2)], 1), (&[run(1, 0, 3)], 1)];
            let (_, m, probe) = check_kernels(Opt::for_trace(&t, 2), script, &[3, 5]);
            assert_eq!(m.faults, 3);
            assert_eq!(probe, vec![false, true], "5 went, whatever the order");
        }
    }

    #[test]
    fn past_the_horizon_the_highest_resident_page_goes() {
        // With no lookahead every key is NEVER, so each eviction takes
        // the highest resident id, however many duplicate and stale
        // heap entries the hits have left behind.
        let empty = Trace::from_events(Vec::new());
        for frames in [2, 3, 5] {
            let mut o = Opt::for_trace(&empty, frames);
            let mut model: Vec<u32> = Vec::new();
            for p in synth::uniform(12, 5_000, 9).refs() {
                let fault = !model.contains(&p.0);
                if fault {
                    if model.len() == frames {
                        let highest = model.iter().copied().max().expect("full");
                        model.retain(|&q| q != highest);
                    }
                    model.push(p.0);
                }
                assert_eq!(o.reference(p), fault, "OPT({frames}) at page {}", p.0);
            }
        }
    }

    #[test]
    fn the_eviction_heap_stays_within_twice_the_allocation() {
        // Hits re-key frames without touching the heap; the stale
        // entries they leave behind must not pile up across evictions.
        let t = synth::uniform(64, 20_000, 11);
        for frames in [1, 8, 40] {
            let mut o = Opt::for_trace(&t, frames);
            for p in t.refs() {
                o.reference(p);
                assert!(o.heap.len() <= 2 * frames, "OPT({frames})");
                assert!(o.requeue.len() <= o.resident.len(), "OPT({frames})");
            }
        }
    }

    #[test]
    fn a_refusing_poll_stops_the_build_at_its_first_call() {
        let t = synth::cyclic(4, 100);
        let mut calls = 0;
        let built = Opt::for_trace_while(&t, 2, || {
            calls += 1;
            false
        });
        assert!(built.is_none());
        assert_eq!(calls, 1, "polled before allocating, then stopped");
    }

    #[test]
    fn the_build_polls_inside_one_long_run() {
        let mut b = cdmm_trace::TraceBuilder::new();
        b.push_run(PageId(0), 0, 10 * POLL_INTERVAL as u32);
        let t = b.finish(1);
        assert_eq!(t.op_count(), 1);
        let mut calls = 0;
        let built = Opt::for_trace_while(&t, 2, || {
            calls += 1;
            calls < 2
        });
        assert!(built.is_none());
        assert_eq!(calls, 2, "stopped {POLL_INTERVAL} references into the run");
    }
}
