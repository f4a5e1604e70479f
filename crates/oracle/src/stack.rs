//! The move-to-front LRU stack pass, the textbook definition of stack
//! distance and the oracle for the Fenwick-tree
//! [`StackProfile`].

use cdmm_trace::{PageId, Trace};
use cdmm_vmsim::stack::StackProfile;

/// The LRU fault-count profile of one trace, computed by keeping the
/// LRU stack as a list and moving each referenced page to its front:
/// `O(R·s)` in the mean stack depth `s`.
#[derive(Debug)]
pub struct NaiveProfile {
    /// `hist[d]` = re-references at stack distance `d`.
    hist: Vec<u64>,
    /// First references (infinite stack distance).
    cold: u64,
    refs: u64,
    distinct: usize,
}

impl NaiveProfile {
    /// Runs the move-to-front pass over `trace`.
    pub fn compute(trace: &Trace) -> NaiveProfile {
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
        NaiveProfile {
            hist,
            cold,
            refs,
            distinct: stack.len(),
        }
    }

    /// LRU faults with an allocation of `m` pages: the cold faults plus
    /// every re-reference deeper than `m` (the reference count at
    /// `m = 0`).
    pub fn faults_at(&self, m: usize) -> u64 {
        if m == 0 {
            return self.refs;
        }
        self.cold + self.hist.iter().skip(m + 1).sum::<u64>()
    }

    /// References in the trace.
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// Number of distinct pages in the trace.
    pub fn distinct(&self) -> usize {
        self.distinct
    }
}

/// A [`StackProfile`] equals the naive profile when both count the same
/// references and distinct pages and agree on the fault count at every
/// allocation up to one past the distinct pages — the values that
/// determine a profile (both are flat beyond the distinct pages).
impl PartialEq<NaiveProfile> for StackProfile {
    fn eq(&self, naive: &NaiveProfile) -> bool {
        self.refs() == naive.refs()
            && self.distinct() == naive.distinct()
            && (0..=self.distinct() + 1).all(|m| self.faults_at(m) == naive.faults_at(m))
    }
}
