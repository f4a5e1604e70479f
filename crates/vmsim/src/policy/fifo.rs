//! Fixed-allocation First-In First-Out replacement.

use std::collections::VecDeque;

use cdmm_trace::{PageId, Run};

use crate::metrics::Tally;
use crate::policy::{kernel_cycle, kernel_run, HitsNeverEvict, PageSet, Policy};

/// FIFO with a fixed frame allocation.
///
/// Kept as a baseline and for demonstrating Belady's anomaly (more frames
/// can fault *more* under FIFO — see the tests). Residency is a flat
/// table indexed by the dense page id.
#[derive(Debug, Clone)]
pub struct Fifo {
    frames: usize,
    queue: VecDeque<PageId>,
    /// The pages in `queue`.
    resident: PageSet,
}

impl Fifo {
    /// Creates a FIFO policy with `frames` page frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "FIFO needs at least one frame");
        Fifo {
            frames,
            queue: VecDeque::new(),
            resident: PageSet::default(),
        }
    }
}

impl Policy for Fifo {
    fn label(&self) -> String {
        format!("FIFO({})", self.frames)
    }

    fn reference(&mut self, page: PageId) -> bool {
        if self.resident.contains(page) {
            return false;
        }
        if self.queue.len() >= self.frames {
            if let Some(victim) = self.queue.pop_front() {
                self.resident.remove(victim);
            }
        }
        self.resident.insert(page);
        self.queue.push_back(page);
        true
    }

    fn resident(&self) -> usize {
        self.queue.len()
    }

    fn reference_run(&mut self, start: PageId, stride: i32, len: u32, tally: &mut Tally<'_>) {
        kernel_run(self, start, stride, len, tally);
    }

    fn reference_cycle(&mut self, body: &[Run], reps: u32, tally: &mut Tally<'_>) {
        kernel_cycle(self, body, reps, tally);
    }
}

/// A FIFO hit changes nothing at all.
impl HitsNeverEvict for Fifo {
    fn holds(&self, page: PageId) -> bool {
        self.resident.contains(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{check_kernels, run};

    fn fault_count(frames: usize, pages: &[u32]) -> u64 {
        let mut f = Fifo::new(frames);
        pages.iter().filter(|&&p| f.reference(PageId(p))).count() as u64
    }

    #[test]
    fn basic_eviction_order() {
        let mut f = Fifo::new(2);
        assert!(f.reference(PageId(1)));
        assert!(f.reference(PageId(2)));
        assert!(!f.reference(PageId(1)), "1 still resident");
        // 1 is the oldest despite being just referenced: FIFO ignores use.
        assert!(f.reference(PageId(3)));
        assert!(f.reference(PageId(1)), "1 was evicted first-in-first-out");
    }

    #[test]
    fn beladys_anomaly_reproduces() {
        // The classic anomaly string.
        let s = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
        let f3 = fault_count(3, &s);
        let f4 = fault_count(4, &s);
        assert_eq!(f3, 9);
        assert_eq!(f4, 10, "more frames, more faults");
    }

    #[test]
    fn respects_allocation() {
        let mut f = Fifo::new(3);
        for p in 0..50u32 {
            f.reference(PageId(p % 7));
            assert!(f.resident() <= 3);
        }
    }

    #[test]
    fn stride_zero_run_settles_once_then_hits() {
        let script: &[(&[Run], u32)] = &[(&[run(5, 0, 100)], 1)];
        let (_, m, probe) = check_kernels(Fifo::new(2), script, &[6, 7, 5]);
        assert_eq!((m.refs, m.faults, m.mem_integral), (100, 1, 100));
        assert_eq!(probe, vec![true, true, true], "7 pushed out first-in 5");
    }

    #[test]
    fn all_hit_run_leaves_the_queue_alone() {
        // 0, 1, 2 fault in; the reversed run hits every page and must not
        // reorder the queue, so 3 still evicts first-in 0.
        let script: &[(&[Run], u32)] = &[(&[run(0, 1, 3)], 1), (&[run(2, -1, 3)], 1)];
        let (_, m, probe) = check_kernels(Fifo::new(3), script, &[3, 0, 2]);
        assert_eq!((m.refs, m.faults), (6, 3));
        assert_eq!(probe, vec![true, true, false]);
    }

    #[test]
    fn steady_cycle_then_fault_evicts_first_in() {
        let script: &[(&[Run], u32)] = &[(&[run(0, 1, 2)], 6)];
        let (_, m, probe) = check_kernels(Fifo::new(2), script, &[2, 0, 2]);
        assert_eq!((m.refs, m.faults, m.mem_integral), (12, 2, 1 + 2 * 11));
        assert_eq!(probe, vec![true, true, false]);
    }
}
