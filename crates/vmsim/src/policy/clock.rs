//! Clock (second-chance) replacement — the cheap LRU approximation real
//! kernels of the paper's era actually shipped.

use cdmm_trace::{PageId, Run};

use crate::metrics::Tally;
use crate::policy::{classify_run, cycle_period, warm_up_cycle, Policy, RunClass, SlotTable};

/// Fixed-allocation Clock with one use bit per frame.
///
/// The frame table grows on demand up to the allocation, so a huge
/// allocation costs only the frames the trace actually fills. Until
/// the table is full the hand always sits on the next empty frame, so
/// growing it changes nothing about the schedule. A dense page → frame
/// table, grown by page id, answers membership.
#[derive(Debug, Clone)]
pub struct Clock {
    frames: Vec<(PageId, bool)>,
    capacity: usize,
    slot: SlotTable,
    hand: usize,
}

impl Clock {
    /// Creates a Clock policy with `frames` page frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "Clock needs at least one frame");
        Clock {
            frames: Vec::new(),
            capacity: frames,
            slot: SlotTable::default(),
            hand: 0,
        }
    }

    fn advance(&mut self) {
        self.hand = (self.hand + 1) % self.capacity;
    }
}

impl Policy for Clock {
    fn label(&self) -> String {
        format!("CLOCK({})", self.capacity)
    }

    fn reference(&mut self, page: PageId) -> bool {
        if let Some(slot) = self.slot.get(page) {
            // Hit: set the use bit.
            self.frames[slot].1 = true;
            return false;
        }
        if self.frames.len() < self.capacity {
            // An empty frame is free, and the hand is on it.
            self.frames.push((page, true));
        } else {
            // Fault: sweep the hand, clearing use bits, until a victim
            // frame with its use bit already clear appears.
            while self.frames[self.hand].1 {
                self.frames[self.hand].1 = false;
                self.advance();
            }
            let (old, _) = self.frames[self.hand];
            self.slot.remove(old);
            self.frames[self.hand] = (page, true);
        }
        self.slot.set(page, self.hand);
        self.advance();
        true
    }

    fn resident(&self) -> usize {
        self.frames.len()
    }

    fn reference_run(&mut self, start: PageId, stride: i32, len: u32, tally: &mut Tally<'_>) {
        if len <= 1 {
            return crate::policy::reference_run_per_ref(self, start, stride, len, tally);
        }
        if stride == 0 {
            // The first reference settles residency and sets the use
            // bit; the rest are hits that set it again.
            let fault = self.reference(start);
            tally.record(self.frames.len(), fault);
            tally.record_hits(self.frames.len(), (len - 1) as u64);
            return;
        }
        match classify_run(start, stride, len, |p| self.slot.contains(p)) {
            RunClass::AllHit => {
                // Hits only set use bits; the hand stays put.
                Run { start, stride, len }.for_each_page(|p| {
                    if let Some(slot) = self.slot.get(p) {
                        self.frames[slot].1 = true;
                    }
                });
                tally.record_hits(self.frames.len(), len as u64);
            }
            RunClass::AllMiss | RunClass::Mixed => {
                crate::policy::reference_run_per_ref(self, start, stride, len, tally)
            }
        }
    }

    fn reference_cycle(&mut self, body: &[Run], reps: u32, tally: &mut Tally<'_>) {
        // A fault-free iteration left every body page's use bit set, so
        // each remaining iteration sets bits that are already set.
        let rest = warm_up_cycle(self, body, reps, tally);
        tally.record_hits(self.frames.len(), rest as u64 * cycle_period(body));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::lru::Lru;
    use crate::policy::{check_kernels, run};
    use cdmm_trace::synth;

    fn faults(trace: &cdmm_trace::Trace, mut p: impl Policy) -> u64 {
        trace.refs().filter(|&r| p.reference(r)).count() as u64
    }

    #[test]
    fn hits_after_cold_faults() {
        let mut c = Clock::new(2);
        assert!(c.reference(PageId(1)));
        assert!(c.reference(PageId(2)));
        assert!(!c.reference(PageId(1)));
        assert!(!c.reference(PageId(2)));
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn second_chance_spares_used_pages() {
        let mut c = Clock::new(2);
        c.reference(PageId(1));
        c.reference(PageId(2));
        c.reference(PageId(1)); // use bit set for 1
                                // Fault on 3: hand clears 1's bit, should evict 2 eventually.
        assert!(c.reference(PageId(3)));
        // Either 1 or 2 was evicted; with the hand starting at frame 0,
        // 1's bit is cleared, then 2 (bit set from its load... ) — check
        // behaviourally: exactly one of them faults.
        let f1 = c.reference(PageId(1));
        let f2 = c.reference(PageId(2));
        assert!(f1 ^ f2 || (f1 && f2), "at least one was evicted");
    }

    #[test]
    fn never_exceeds_allocation() {
        let t = synth::uniform(32, 3_000, 11);
        let mut c = Clock::new(5);
        for p in t.refs() {
            c.reference(p);
            assert!(c.resident() <= 5);
        }
    }

    #[test]
    fn tracks_lru_closely_on_loopy_traces() {
        let t = synth::nested_loops(30, 2, 6, 5);
        let m = 8;
        let clock = faults(&t, Clock::new(m));
        let lru = faults(&t, Lru::new(m));
        // Clock approximates LRU: within 2x on this structured trace.
        assert!(clock <= lru * 2, "clock {clock} vs lru {lru}");
        // And with full allocation both see cold faults only.
        let clock_full = faults(&t, Clock::new(8));
        assert_eq!(clock_full, 8);
    }

    #[test]
    fn huge_allocations_fill_only_the_frames_they_use() {
        let t = synth::uniform(32, 3_000, 11);
        let mut c = Clock::new(1 << 40);
        let faults = t.refs().filter(|&p| c.reference(p)).count();
        assert_eq!(faults, 32, "cold faults only");
        assert_eq!(c.resident(), 32);
        assert_eq!(c.label(), "CLOCK(1099511627776)");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        Clock::new(0);
    }

    #[test]
    fn stride_zero_run_settles_once_then_hits() {
        let script: &[(&[Run], u32)] = &[(&[run(4, 0, 50)], 1)];
        let (_, m, probe) = check_kernels(Clock::new(2), script, &[5, 6, 4]);
        assert_eq!((m.refs, m.faults, m.mem_integral), (50, 1, 50));
        assert_eq!(probe, vec![true, true, true]);
    }

    #[test]
    fn all_hit_run_sets_use_bits() {
        // 0..=3 fault in; 3's fault clears every bit and replaces 0, so
        // the hand rests on page 1. The all-hit run over 1 and 3 sets
        // 1's bit again: the next fault spares 1 and takes 2.
        let script: &[(&[Run], u32)] = &[(&[run(0, 1, 4)], 1), (&[run(1, 2, 2)], 1)];
        let (_, m, probe) = check_kernels(Clock::new(3), script, &[4, 1, 2]);
        assert_eq!((m.refs, m.faults), (6, 4));
        assert_eq!(probe, vec![true, false, true], "1 got its second chance");
    }

    #[test]
    fn steady_cycle_then_fault_sweeps_the_set_bits() {
        let script: &[(&[Run], u32)] = &[(&[run(0, 1, 2)], 5)];
        let (_, m, probe) = check_kernels(Clock::new(2), script, &[2, 1, 0]);
        assert_eq!((m.refs, m.faults), (10, 2));
        assert_eq!(probe, vec![true, false, true]);
    }
}
