//! Fixed-allocation Least Recently Used replacement.

use cdmm_trace::{PageId, Run};

use crate::metrics::Tally;
use crate::observe::{Detail, SimEvent};
use crate::policy::{
    batch_all_miss, kernel_cycle, kernel_run, EventBuffer, HitsNeverEvict, Policy,
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
    events: EventBuffer,
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
            events: EventBuffer::default(),
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
                self.events.emit(SimEvent::Evict { page });
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
        self.events.set_detail(detail);
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn drain_events(&mut self, out: &mut Vec<SimEvent>) {
        self.events.drain(out);
    }

    fn reference_run(&mut self, start: PageId, stride: i32, len: u32, tally: &mut Tally<'_>) {
        kernel_run(self, start, stride, len, tally);
    }

    fn reference_cycle(&mut self, body: &[Run], reps: u32, tally: &mut Tally<'_>) {
        kernel_cycle(self, body, reps, tally);
    }
}

impl HitsNeverEvict for Lru {
    fn holds(&self, page: PageId) -> bool {
        self.set.contains(page)
    }

    fn hit(&mut self, page: PageId) {
        let hit = self.set.touch(page);
        debug_assert!(hit, "a hit on a resident page");
    }

    fn all_miss(&mut self, run: Run, tally: &mut Tally<'_>) -> bool {
        self.evictions += batch_all_miss(&mut self.set, run, self.frames as u64, tally);
        true
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
