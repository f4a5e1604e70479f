//! Trace events: page references and runtime directive events.

use cdmm_lang::ast::AllocArg;

/// A virtual page number within one program's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// A half-open range of pages `[start, end)`, used to describe the pages
/// belonging to an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRange {
    /// First page in the range.
    pub start: u32,
    /// One past the last page.
    pub end: u32,
}

impl PageRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start <= end, "invalid page range {start}..{end}");
        PageRange { start, end }
    }

    /// Number of pages covered.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// True when the range covers no pages.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Does the range contain `page`?
    pub fn contains(&self, page: PageId) -> bool {
        page.0 >= self.start && page.0 < self.end
    }

    /// Iterates over the pages in the range.
    pub fn iter(&self) -> impl Iterator<Item = PageId> {
        (self.start..self.end).map(PageId)
    }
}

/// One event in a program's execution trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A reference (read or write) to one page.
    Ref(PageId),
    /// Runtime `ALLOCATE` call with its prioritized request list.
    Alloc(Vec<AllocArg>),
    /// Runtime `LOCK` call; the named arrays resolved to page ranges.
    Lock {
        /// Release priority (larger released first under pressure).
        pj: u32,
        /// Page ranges of the arrays named in the directive.
        ranges: Vec<PageRange>,
    },
    /// Runtime `UNLOCK` call for the given ranges.
    Unlock {
        /// Page ranges of the arrays named in the directive.
        ranges: Vec<PageRange>,
    },
}

/// A complete reference trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The events, in execution order.
    pub events: Vec<Event>,
    /// Total virtual pages of the traced program (0 when unknown, e.g.
    /// for synthetic traces built directly from events).
    pub virtual_pages: u32,
}

impl Trace {
    /// Creates a trace from raw events.
    pub fn from_events(events: Vec<Event>) -> Self {
        let max_page = events
            .iter()
            .filter_map(|e| match e {
                Event::Ref(p) => Some(p.0 + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Trace {
            events,
            virtual_pages: max_page,
        }
    }

    /// Number of page-reference events (the paper's trace length `R`).
    pub fn ref_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Ref(_)))
            .count() as u64
    }

    /// Number of distinct pages referenced.
    pub fn distinct_pages(&self) -> u32 {
        let mut seen = std::collections::HashSet::new();
        for e in &self.events {
            if let Event::Ref(p) = e {
                seen.insert(*p);
            }
        }
        seen.len() as u32
    }

    /// Iterates over only the page references.
    pub fn refs(&self) -> impl Iterator<Item = PageId> + '_ {
        self.events.iter().filter_map(|e| match e {
            Event::Ref(p) => Some(*p),
            _ => None,
        })
    }

    /// Number of directive events in the trace.
    pub fn directive_count(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| !matches!(e, Event::Ref(_)))
            .count() as u64
    }
}

/// One event as seen by a streaming consumer: references are delivered
/// by value (the hot case), directives by reference so their payloads
/// (`ALLOCATE` request lists, `LOCK` ranges) are never cloned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventRef<'a> {
    /// A page reference.
    Ref(PageId),
    /// A runtime directive (`Alloc`/`Lock`/`Unlock`; never `Ref`).
    Directive(&'a Event),
}

/// One constant-stride reference run as plain data: `len` references
/// `start, start+stride, start+2·stride, …`. This is the body element
/// of a [`RunRef::Cycle`] (and of `COp::Cycle` in the compressed
/// trace): a loop iteration is a short sequence of these, repeated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First page of the run.
    pub start: PageId,
    /// Per-reference page delta (0 for repeated touches).
    pub stride: i32,
    /// Number of references (≥ 1).
    pub len: u32,
}

impl Run {
    /// Streams the run's pages in order.
    #[inline]
    pub fn for_each_page<F: FnMut(PageId)>(&self, mut f: F) {
        let mut p = self.start.0 as i64;
        let stride = self.stride as i64;
        for _ in 0..self.len {
            f(PageId(p as u32));
            p += stride;
        }
    }
}

/// One *run* as seen by a streaming consumer: a maximal constant-stride
/// burst of page references, a repeated run-sequence (a loop), or a
/// directive delivered verbatim. This is the unit the run-level policy
/// kernels consume — a source that knows its run structure (a
/// [`crate::CompressedTrace`]) hands whole runs and cycles over so the
/// kernel can apply their closed-form effect, while a flat [`Trace`]
/// degrades to length-1 runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunRef<'a> {
    /// `len` references `start, start+stride, start+2·stride, …`.
    /// Every decoded page is a valid `u32` by construction.
    Run {
        /// First page of the run.
        start: PageId,
        /// Per-reference page delta (0 for repeated touches).
        stride: i32,
        /// Number of references (≥ 1).
        len: u32,
    },
    /// The run sequence `body`, repeated `reps` times back-to-back — a
    /// loop nest's steady beat. Bodies never contain directives, and
    /// `reps ≥ 2`.
    Cycle {
        /// One iteration's runs, in reference order.
        body: &'a [Run],
        /// How many times the body repeats (≥ 2).
        reps: u32,
    },
    /// A runtime directive (`Alloc`/`Lock`/`Unlock`; never `Ref`).
    Directive(&'a Event),
}

/// Anything the simulator can stream events out of — a plain [`Trace`]
/// or a compressed one — without materializing a `Vec<Event>`.
///
/// Internal iteration (`for_each_*` taking a closure) rather than an
/// `Iterator` lets each source keep its decode state in registers: a
/// compressed run decodes as a tight counted loop, which is the point
/// of compressing in the first place. A source writes its decode loops
/// once, in the polled forms [`Self::for_each_event_while`] and
/// [`Self::for_each_run_while`]; the unpolled forms pass a poll that
/// never stops, which compiles away.
pub trait EventSource {
    /// Streams events while `keep_going()` returns `true`, polling it at
    /// coarse decode boundaries — once per compressed *run* and once per
    /// cycle iteration for [`crate::CompressedTrace`], once per event for
    /// a flat [`Trace`] — so cancellation never puts a check inside the
    /// per-reference hot loop. Returns `true` when the whole source was
    /// consumed, `false` when the poll stopped the stream early.
    fn for_each_event_while<K, F>(&self, keep_going: K, f: F) -> bool
    where
        K: FnMut() -> bool,
        F: FnMut(EventRef<'_>);

    /// Streams the trace as constant-stride [`RunRef`]s plus verbatim
    /// directives, polling `keep_going()` at run boundaries (once per
    /// compressed op), never inside a run. Returns `true` when the whole
    /// source was consumed. Runs never contain directives — a directive
    /// always splits the surrounding reference burst (the compressed
    /// builder flushes its pending run before every directive). The
    /// default degrades each reference to a length-1 run; sources that
    /// know their run structure override this to deliver whole runs.
    fn for_each_run_while<K, F>(&self, keep_going: K, mut f: F) -> bool
    where
        K: FnMut() -> bool,
        F: FnMut(RunRef<'_>),
    {
        self.for_each_event_while(keep_going, |e| match e {
            EventRef::Ref(p) => f(RunRef::Run {
                start: p,
                stride: 0,
                len: 1,
            }),
            EventRef::Directive(d) => f(RunRef::Directive(d)),
        })
    }

    /// Streams every event in execution order.
    fn for_each_event<F: FnMut(EventRef<'_>)>(&self, f: F) {
        self.for_each_event_while(|| true, f);
    }

    /// [`Self::for_each_run_while`] without a poll.
    fn for_each_run<F: FnMut(RunRef<'_>)>(&self, f: F) {
        self.for_each_run_while(|| true, f);
    }

    /// Streams only the page references, in order.
    fn for_each_ref<F: FnMut(PageId)>(&self, mut f: F) {
        self.for_each_event(|e| {
            if let EventRef::Ref(p) = e {
                f(p)
            }
        });
    }

    /// Number of page references (the paper's trace length `R`).
    fn ref_count(&self) -> u64;

    /// Sizing hint for page-indexed tables: one past the highest page
    /// id that can appear (the program's virtual size when known).
    fn page_count_hint(&self) -> usize;
}

impl EventSource for Trace {
    fn for_each_event_while<K, F>(&self, mut keep_going: K, mut f: F) -> bool
    where
        K: FnMut() -> bool,
        F: FnMut(EventRef<'_>),
    {
        for e in &self.events {
            if !keep_going() {
                return false;
            }
            match e {
                Event::Ref(p) => f(EventRef::Ref(*p)),
                other => f(EventRef::Directive(other)),
            }
        }
        true
    }

    fn ref_count(&self) -> u64 {
        Trace::ref_count(self)
    }

    fn page_count_hint(&self) -> usize {
        if self.virtual_pages > 0 {
            self.virtual_pages as usize
        } else {
            // Synthetic traces built raw: fall back to a scan.
            self.refs().map(|p| p.0 as usize + 1).max().unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_range_basics() {
        let r = PageRange::new(4, 8);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert!(r.contains(PageId(4)));
        assert!(r.contains(PageId(7)));
        assert!(!r.contains(PageId(8)));
        assert_eq!(r.iter().count(), 4);
        assert!(PageRange::new(3, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid page range")]
    fn inverted_range_panics() {
        PageRange::new(5, 4);
    }

    #[test]
    fn trace_counting() {
        let t = Trace::from_events(vec![
            Event::Ref(PageId(0)),
            Event::Alloc(vec![]),
            Event::Ref(PageId(3)),
            Event::Ref(PageId(0)),
        ]);
        assert_eq!(t.ref_count(), 3);
        assert_eq!(t.distinct_pages(), 2);
        assert_eq!(t.directive_count(), 1);
        assert_eq!(t.virtual_pages, 4);
        let pages: Vec<u32> = t.refs().map(|p| p.0).collect();
        assert_eq!(pages, vec![0, 3, 0]);
    }
}
