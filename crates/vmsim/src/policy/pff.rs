//! The Page Fault Frequency policy (Chu & Opderbeck, 1972).
//!
//! PFF adjusts allocation only at fault times: if the time since the last
//! fault exceeds the threshold `T`, the faulting program is considered to
//! have left its locality, and every page not referenced since the last
//! fault is released; otherwise the resident set simply grows. The paper
//! cites PFF as cheaper than WS but weaker and anomalous.

use cdmm_trace::{PageId, Run};

use crate::metrics::Tally;
use crate::policy::{kernel_cycle, kernel_run, HitsNeverEvict, PageSet, Policy};

/// PFF with interfault threshold `T` (in references).
///
/// State is dense and indexed by page id: a resident list with a
/// membership table, and a per-page stamp of the fault epoch in which
/// the page was last referenced. A page was used since the last fault
/// exactly when its stamp equals `last_fault`, so starting a new epoch
/// at a fault clears every use mark at once.
#[derive(Debug, Clone)]
pub struct Pff {
    threshold: u64,
    clock: u64,
    last_fault: u64,
    /// Resident pages, in no particular order.
    resident: Vec<PageId>,
    /// The pages in `resident`.
    members: PageSet,
    /// `used[p]`: the value of `last_fault` when page `p` was last
    /// referenced.
    used: Vec<u64>,
}

impl Pff {
    /// Creates a PFF policy with threshold `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: u64) -> Self {
        assert!(threshold > 0, "PFF threshold must be positive");
        Pff {
            threshold,
            clock: 0,
            last_fault: 0,
            resident: Vec::new(),
            members: PageSet::default(),
            used: Vec::new(),
        }
    }

    /// Releases every resident page not referenced since the last
    /// fault, in one walk over the resident list.
    fn shrink(&mut self) {
        let (used, epoch, members) = (&self.used, self.last_fault, &mut self.members);
        self.resident.retain(|&page| {
            let keep = used[page.0 as usize] == epoch;
            if !keep {
                members.remove(page);
            }
            keep
        });
    }
}

impl Policy for Pff {
    fn label(&self) -> String {
        format!("PFF({})", self.threshold)
    }

    fn reference(&mut self, page: PageId) -> bool {
        self.clock += 1;
        let idx = page.0 as usize;
        if self.members.contains(page) {
            self.used[idx] = self.last_fault;
            return false;
        }
        // Fault: shrink if the interfault interval was long.
        if self.clock - self.last_fault > self.threshold {
            self.shrink();
        }
        self.last_fault = self.clock;
        self.members.insert(page);
        self.resident.push(page);
        if idx >= self.used.len() {
            self.used.resize(idx + 1, 0);
        }
        self.used[idx] = self.last_fault;
        true
    }

    fn resident(&self) -> usize {
        self.resident.len()
    }

    fn reference_run(&mut self, start: PageId, stride: i32, len: u32, tally: &mut Tally<'_>) {
        kernel_run(self, start, stride, len, tally);
    }

    fn reference_cycle(&mut self, body: &[Run], reps: u32, tally: &mut Tally<'_>) {
        kernel_cycle(self, body, reps, tally);
    }
}

/// A PFF hit marks its page used in the current fault epoch and
/// advances the reference clock, which decides whether the next fault
/// shrinks the resident set — so skipped hits must advance it too.
impl HitsNeverEvict for Pff {
    fn holds(&self, page: PageId) -> bool {
        self.members.contains(page)
    }

    fn hit(&mut self, page: PageId) {
        self.used[page.0 as usize] = self.last_fault;
        self.clock += 1;
    }

    fn pass(&mut self, n: u64) {
        self.clock += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{check_kernels, run};
    use cdmm_trace::synth;

    #[test]
    fn grows_during_frequent_faults() {
        let mut pff = Pff::new(100);
        for p in 0..10u32 {
            assert!(pff.reference(PageId(p)));
        }
        assert_eq!(pff.resident(), 10, "back-to-back faults only grow");
    }

    #[test]
    fn shrinks_after_quiet_period() {
        let mut pff = Pff::new(5);
        for p in 0..4u32 {
            pff.reference(PageId(p));
        }
        // A long quiet period touching only pages 0 and 1.
        for _ in 0..20 {
            pff.reference(PageId(0));
            pff.reference(PageId(1));
        }
        // The next fault shrinks to the pages used since the last fault —
        // {0, 1} plus page 3 (whose own fault set its use bit) — and then
        // adds the new page.
        assert!(pff.reference(PageId(9)));
        assert_eq!(pff.resident(), 4);
    }

    #[test]
    fn tracks_single_locality_tightly() {
        let t = synth::uniform(4, 2_000, 5);
        let mut pff = Pff::new(50);
        for p in t.refs() {
            pff.reference(p);
        }
        assert!(pff.resident() <= 4);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_panics() {
        Pff::new(0);
    }

    #[test]
    fn stride_zero_run_advances_the_clock() {
        // 0, 1, 2 fault in (last fault at clock 3); twenty hits on 0 push
        // the clock to 23, so the fault on 9 shrinks to {2, 0} first.
        let script: &[(&[Run], u32)] = &[(&[run(0, 1, 3)], 1), (&[run(0, 0, 20)], 1)];
        let (pff, m, probe) = check_kernels(Pff::new(5), script, &[9]);
        assert_eq!((m.refs, m.faults), (23, 3));
        assert_eq!(probe, vec![true]);
        assert_eq!(pff.resident(), 3, "shrunk to {{2, 0}} plus 9");
    }

    #[test]
    fn all_hit_run_marks_pages_used_and_advances_the_clock() {
        // 0..=8 fault in; the all-hit run touches 8 down to 2, so the
        // next fault (interval 8 > 5) releases only 0 and 1.
        let script: &[(&[Run], u32)] = &[(&[run(0, 1, 9)], 1), (&[run(8, -1, 7)], 1)];
        let (pff, m, probe) = check_kernels(Pff::new(5), script, &[20]);
        assert_eq!((m.refs, m.faults), (16, 9));
        assert_eq!(probe, vec![true]);
        assert_eq!(pff.resident(), 8);
    }

    #[test]
    fn steady_cycle_then_fault_shrinks_on_the_advanced_clock() {
        // Every iteration of the cycle hits; only the skipped
        // iterations' clock makes the fault on 9 see a long interval.
        let script: &[(&[Run], u32)] = &[(&[run(0, 1, 4)], 1), (&[run(0, 1, 2)], 10)];
        let (pff, m, probe) = check_kernels(Pff::new(10), script, &[9, 2]);
        assert_eq!((m.refs, m.faults), (24, 4));
        assert_eq!(probe, vec![true, true], "2 was released by the shrink");
        assert_eq!(pff.resident(), 5);
    }
}
