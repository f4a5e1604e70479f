//! Fixed-allocation Least Recently Used replacement.

use cdmm_trace::{PageId, Run};

use crate::metrics::Tally;
use crate::observe::{Detail, SimEvent};
use crate::policy::{
    batch_all_hit, batch_all_miss, classify_run, cycle_period, warm_up_cycle, Policy, RunClass,
};
use crate::recency::RecencySet;

/// LRU with a fixed frame allocation (the paper's static baseline).
///
/// Frames fill on demand; once `frames` pages are resident, each fault
/// evicts the least recently used page.
#[derive(Debug, Clone)]
pub struct Lru {
    frames: usize,
    set: RecencySet,
    evictions: u64,
    /// Decision-level tracing: `Evict` events, per-reference kernels.
    tracing: bool,
    events: Vec<SimEvent>,
}

impl Lru {
    /// Creates an LRU policy with `frames` page frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "LRU needs at least one frame");
        Lru {
            frames,
            set: RecencySet::new(),
            evictions: 0,
            tracing: false,
            events: Vec::new(),
        }
    }

    /// The fixed allocation.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Releases every resident page (used when the multiprogramming
    /// driver swaps the process out). Keeps the set's page table so
    /// swapping back in allocates nothing.
    pub fn swap_out(&mut self) {
        self.set.clear();
    }
}

impl Policy for Lru {
    fn label(&self) -> String {
        format!("LRU({})", self.frames)
    }

    fn reference(&mut self, page: PageId) -> bool {
        let hit = self.set.touch(page);
        if hit {
            return false;
        }
        if self.set.len() > self.frames {
            // The just-touched page is the most recent; pop_lru removes a
            // different (older) page.
            if let Some(page) = self.set.pop_lru() {
                self.evictions += 1;
                if self.tracing {
                    self.events.push(SimEvent::Evict { page });
                }
            }
        }
        true
    }

    fn resident(&self) -> usize {
        self.set.len()
    }

    fn swap_out(&mut self) {
        Lru::swap_out(self);
    }

    fn set_detail(&mut self, detail: Detail) {
        self.tracing = detail >= Detail::Decisions;
        if !self.tracing {
            self.events.clear();
        }
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn drain_events(&mut self, out: &mut Vec<SimEvent>) {
        out.append(&mut self.events);
    }

    fn reference_run(&mut self, start: PageId, stride: i32, len: u32, tally: &mut Tally<'_>) {
        // Tracing needs per-eviction events with per-ref interleaving;
        // short runs are not worth classifying.
        if self.tracing || len <= 1 {
            return crate::policy::reference_run_per_ref(self, start, stride, len, tally);
        }
        if stride == 0 {
            // One page touched `len` times: after the first reference
            // settles residency, the rest are hits at constant size.
            let fault = self.reference(start);
            tally.record(self.set.len(), fault);
            tally.record_hits(self.set.len(), (len - 1) as u64);
            return;
        }
        match classify_run(start, stride, len, |p| self.set.contains(p)) {
            RunClass::AllHit => batch_all_hit(&mut self.set, start, stride, len, tally),
            RunClass::AllMiss => {
                let cap = self.frames as u64;
                self.evictions += batch_all_miss(&mut self.set, start, stride, len, cap, tally);
            }
            RunClass::Mixed => {
                crate::policy::reference_run_per_ref(self, start, stride, len, tally)
            }
        }
    }

    fn reference_cycle(&mut self, body: &[Run], reps: u32, tally: &mut Tally<'_>) {
        if self.tracing {
            return crate::policy::reference_cycle_per_run(self, body, reps, tally);
        }
        // Steady state: a fault-free iteration leaves the body's pages
        // resident, and LRU hits never evict, so replaying the same
        // touch sequence is idempotent — every further iteration hits
        // everywhere at a constant resident size and reproduces exactly
        // this recency order.
        let rest = warm_up_cycle(self, body, reps, tally);
        tally.record_hits(self.set.len(), rest as u64 * cycle_period(body));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(policy: &mut Lru, pages: &[u32]) -> Vec<bool> {
        pages.iter().map(|&p| policy.reference(PageId(p))).collect()
    }

    #[test]
    fn cold_faults_then_hits() {
        let mut lru = Lru::new(2);
        let f = run(&mut lru, &[1, 2, 1, 2, 1]);
        assert_eq!(f, vec![true, true, false, false, false]);
        assert_eq!(lru.resident(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        run(&mut lru, &[1, 2, 1]);
        // 2 is LRU; referencing 3 evicts it.
        assert!(lru.reference(PageId(3)));
        assert!(lru.reference(PageId(2)), "2 was evicted");
        assert!(!lru.reference(PageId(3)), "3 is still resident");
    }

    #[test]
    fn cyclic_sweep_thrashes_when_undersized() {
        let mut lru = Lru::new(3);
        let pages: Vec<u32> = (0..4).cycle().take(40).collect();
        let faults = run(&mut lru, &pages);
        assert!(faults.iter().all(|&f| f), "every reference faults");
    }

    #[test]
    fn never_exceeds_allocation() {
        let mut lru = Lru::new(3);
        for p in 0..100u32 {
            lru.reference(PageId(p));
            assert!(lru.resident() <= 3);
        }
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        Lru::new(0);
    }

    #[test]
    fn label_shows_frames() {
        assert_eq!(Lru::new(26).label(), "LRU(26)");
    }
}
