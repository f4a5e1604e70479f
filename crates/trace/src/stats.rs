//! Simple trace statistics used by reports and sanity tests.

use std::collections::HashMap;

use crate::event::{Event, PageId, Trace};

/// Summary statistics of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Page references (`R` in the paper).
    pub refs: u64,
    /// Distinct pages touched.
    pub distinct_pages: u32,
    /// Directive events.
    pub directives: u64,
    /// Reference count of the most-touched page.
    pub hottest_page_refs: u64,
}

impl TraceStats {
    /// Computes the statistics in one pass.
    pub fn of(trace: &Trace) -> TraceStats {
        let mut counts: HashMap<PageId, u64> = HashMap::new();
        let mut refs = 0u64;
        let mut directives = 0u64;
        for e in &trace.events {
            match e {
                Event::Ref(p) => {
                    refs += 1;
                    *counts.entry(*p).or_insert(0) += 1;
                }
                _ => directives += 1,
            }
        }
        TraceStats {
            refs,
            distinct_pages: counts.len() as u32,
            directives,
            hottest_page_refs: counts.values().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_refs_and_directives() {
        let t = Trace::from_events(vec![
            Event::Ref(PageId(0)),
            Event::Ref(PageId(0)),
            Event::Ref(PageId(1)),
            Event::Alloc(vec![]),
        ]);
        let s = TraceStats::of(&t);
        assert_eq!(s.refs, 3);
        assert_eq!(s.distinct_pages, 2);
        assert_eq!(s.directives, 1);
        assert_eq!(s.hottest_page_refs, 2);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        let s = TraceStats::of(&t);
        assert_eq!(s.refs, 0);
        assert_eq!(s.hottest_page_refs, 0);
    }
}
