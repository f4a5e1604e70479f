//! Run-length/stride-compressed reference traces.
//!
//! The nine workloads are numerical inner loops, so their reference
//! strings are dominated by constant-stride runs (column-major sweeps
//! are stride 1 at page granularity for long stretches, with short
//! stride jumps between columns). [`CompressedTrace`] stores the trace
//! as `(start, stride, len)` runs plus verbatim directive events:
//! typically one op per tens-to-thousands of references, so a whole
//! trace fits in cache and the simulator streams it back as a counted
//! loop instead of walking a `Vec<Event>` of ~32-byte enums.
//!
//! [`TraceBuilder`] builds the compressed form incrementally — the
//! interpreter pushes one reference at a time and never materializes
//! the flat event vector — and [`EventSource`] lets `simulate` and the
//! stack-distance profiler consume either representation unchanged.

use crate::event::{Event, EventRef, EventSource, PageId, Run, RunRef, Trace};

/// One compressed trace operation.
#[derive(Debug, Clone, PartialEq)]
pub enum COp {
    /// `len` references `start, start+stride, start+2·stride, …`.
    /// Every decoded page is a valid `u32` by construction.
    Run {
        /// First page of the run.
        start: u32,
        /// Per-reference page delta (0 for repeated touches).
        stride: i32,
        /// Number of references (≥ 1).
        len: u32,
    },
    /// The run sequence `body` repeated `reps ≥ 2` times back-to-back.
    /// Numerical loops emit the same short run pattern once per
    /// iteration (`A(I)+B(I)` alternates two or three pages at page
    /// granularity), so the greedy run coalescer above produces long
    /// stretches of *identical* run ops; [`TraceBuilder::finish`] folds
    /// those into one `Cycle`, which is what lets the policy kernels
    /// batch whole iterations once a fault-free steady state is
    /// reached. Bodies never contain directives.
    Cycle {
        /// One iteration's runs, in reference order.
        body: Box<[Run]>,
        /// How many times the body repeats (≥ 2).
        reps: u32,
    },
    /// A directive event, stored verbatim (never `Event::Ref`).
    Dir(Event),
}

/// A complete trace in run-length-compressed form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompressedTrace {
    ops: Vec<COp>,
    refs: u64,
    virtual_pages: u32,
}

impl CompressedTrace {
    /// Compresses an existing flat trace.
    pub fn from_trace(trace: &Trace) -> CompressedTrace {
        let mut b = TraceBuilder::new();
        for e in &trace.events {
            match e {
                Event::Ref(p) => b.push_ref(*p),
                other => b.push_directive(other.clone()),
            }
        }
        b.finish(trace.virtual_pages)
    }

    /// Decompresses back to the flat representation (for consumers that
    /// need random access, e.g. the multiprogramming driver).
    pub fn to_trace(&self) -> Trace {
        let mut events = Vec::with_capacity(self.refs as usize + self.directive_count() as usize);
        self.for_each_event(|e| match e {
            EventRef::Ref(p) => events.push(Event::Ref(p)),
            EventRef::Directive(d) => events.push(d.clone()),
        });
        Trace {
            events,
            virtual_pages: self.virtual_pages,
        }
    }

    /// The compressed operations, in execution order.
    pub fn ops(&self) -> &[COp] {
        &self.ops
    }

    /// Number of compressed operations (the compression denominator:
    /// `ref_count + directive_count` over `op_count`).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of page references.
    pub fn ref_count(&self) -> u64 {
        self.refs
    }

    /// Number of directive events.
    pub fn directive_count(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| matches!(op, COp::Dir(_)))
            .count() as u64
    }

    /// Total virtual pages of the traced program (0 when unknown).
    pub fn virtual_pages(&self) -> u32 {
        self.virtual_pages
    }

    /// Number of distinct pages referenced.
    pub fn distinct_pages(&self) -> u32 {
        let mut seen = std::collections::HashSet::new();
        self.for_each_ref(|p| {
            seen.insert(p);
        });
        seen.len() as u32
    }

    /// Iterates over the decoded page references, in order.
    pub fn iter_refs(&self) -> RefIter<'_> {
        RefIter {
            ops: &self.ops,
            next_op: 0,
            cur: 0,
            stride: 0,
            remaining: 0,
            cycle: None,
        }
    }

    /// The same reference string with every directive removed, in the
    /// form a [`TraceBuilder`] fed only those references would produce:
    /// runs a directive split are merged again and cycles re-folded.
    /// Costs O(runs), with cycles unrolled into their runs.
    pub fn without_directives(&self) -> CompressedTrace {
        let mut b = TraceBuilder::new();
        for op in &self.ops {
            match op {
                COp::Run { start, stride, len } => b.push_run(PageId(*start), *stride, *len),
                COp::Cycle { body, reps } => {
                    for _ in 0..*reps {
                        for r in body.iter() {
                            b.push_run(r.start, r.stride, r.len);
                        }
                    }
                }
                COp::Dir(_) => {}
            }
        }
        b.finish(self.virtual_pages)
    }
}

impl EventSource for CompressedTrace {
    fn for_each_event<F: FnMut(EventRef<'_>)>(&self, mut f: F) {
        for op in &self.ops {
            match op {
                COp::Run { start, stride, len } => {
                    let mut p = *start as i64;
                    let stride = *stride as i64;
                    for _ in 0..*len {
                        f(EventRef::Ref(PageId(p as u32)));
                        p += stride;
                    }
                }
                COp::Cycle { body, reps } => {
                    for _ in 0..*reps {
                        for r in body.iter() {
                            r.for_each_page(|p| f(EventRef::Ref(p)));
                        }
                    }
                }
                COp::Dir(d) => f(EventRef::Directive(d)),
            }
        }
    }

    fn for_each_event_while<K, F>(&self, mut keep_going: K, mut f: F) -> bool
    where
        K: FnMut() -> bool,
        F: FnMut(EventRef<'_>),
    {
        // One poll per op — or per cycle iteration, so a folded loop
        // with a huge repetition count cannot starve the poll — while
        // runs decode with the same tight counted loop as
        // `for_each_event`. Cancellation costs O(ops + iterations), not
        // O(references).
        for op in &self.ops {
            if !keep_going() {
                return false;
            }
            match op {
                COp::Run { start, stride, len } => {
                    let mut p = *start as i64;
                    let stride = *stride as i64;
                    for _ in 0..*len {
                        f(EventRef::Ref(PageId(p as u32)));
                        p += stride;
                    }
                }
                COp::Cycle { body, reps } => {
                    for i in 0..*reps {
                        if i > 0 && !keep_going() {
                            return false;
                        }
                        for r in body.iter() {
                            r.for_each_page(|p| f(EventRef::Ref(p)));
                        }
                    }
                }
                COp::Dir(d) => f(EventRef::Directive(d)),
            }
        }
        true
    }

    fn for_each_run<F: FnMut(RunRef<'_>)>(&self, mut f: F) {
        // Whole `COp::Run`s and `COp::Cycle`s, no decode loop at all:
        // this is the payoff of storing the trace compressed.
        // Directives were flushed into their own ops by `TraceBuilder`,
        // so runs never straddle them and cycle bodies never contain
        // them.
        for op in &self.ops {
            match op {
                COp::Run { start, stride, len } => f(RunRef::Run {
                    start: PageId(*start),
                    stride: *stride,
                    len: *len,
                }),
                COp::Cycle { body, reps } => f(RunRef::Cycle { body, reps: *reps }),
                COp::Dir(d) => f(RunRef::Directive(d)),
            }
        }
    }

    fn for_each_run_while<K, F>(&self, mut keep_going: K, mut f: F) -> bool
    where
        K: FnMut() -> bool,
        F: FnMut(RunRef<'_>),
    {
        // Same poll cadence as `for_each_run`: once per op. A cycle is
        // one op — its kernel-side cost is O(body) once steady, so the
        // poll interval stays bounded.
        for op in &self.ops {
            if !keep_going() {
                return false;
            }
            match op {
                COp::Run { start, stride, len } => f(RunRef::Run {
                    start: PageId(*start),
                    stride: *stride,
                    len: *len,
                }),
                COp::Cycle { body, reps } => f(RunRef::Cycle { body, reps: *reps }),
                COp::Dir(d) => f(RunRef::Directive(d)),
            }
        }
        true
    }

    fn for_each_ref<F: FnMut(PageId)>(&self, mut f: F) {
        for op in &self.ops {
            match op {
                COp::Run { start, stride, len } => {
                    let mut p = *start as i64;
                    let stride = *stride as i64;
                    for _ in 0..*len {
                        f(PageId(p as u32));
                        p += stride;
                    }
                }
                COp::Cycle { body, reps } => {
                    for _ in 0..*reps {
                        for r in body.iter() {
                            r.for_each_page(&mut f);
                        }
                    }
                }
                COp::Dir(_) => {}
            }
        }
    }

    fn ref_count(&self) -> u64 {
        self.refs
    }

    fn page_count_hint(&self) -> usize {
        if self.virtual_pages > 0 {
            self.virtual_pages as usize
        } else {
            fn run_hint(start: u32, stride: i32, len: u32) -> usize {
                let end = start as i64 + stride as i64 * (len as i64 - 1);
                (start as i64).max(end) as usize + 1
            }
            self.ops
                .iter()
                .filter_map(|op| match op {
                    COp::Run { start, stride, len } => Some(run_hint(*start, *stride, *len)),
                    COp::Cycle { body, .. } => body
                        .iter()
                        .map(|r| run_hint(r.start.0, r.stride, r.len))
                        .max(),
                    COp::Dir(_) => None,
                })
                .max()
                .unwrap_or(0)
        }
    }
}

/// External iterator over a compressed trace's page references.
#[derive(Debug, Clone)]
pub struct RefIter<'a> {
    ops: &'a [COp],
    next_op: usize,
    cur: i64,
    stride: i64,
    remaining: u32,
    /// In-flight cycle: its body, the next body run to decode, and how
    /// many whole iterations remain after the current one.
    cycle: Option<(&'a [Run], usize, u32)>,
}

impl<'a> RefIter<'a> {
    /// Arms the decode state for one constant-stride run.
    fn load_run(&mut self, start: u32, stride: i32, len: u32) {
        self.cur = start as i64;
        self.stride = stride as i64;
        self.remaining = len;
    }
}

impl Iterator for RefIter<'_> {
    type Item = PageId;

    fn next(&mut self) -> Option<PageId> {
        while self.remaining == 0 {
            if let Some((body, next_run, reps_left)) = self.cycle {
                if next_run < body.len() {
                    let r = body[next_run];
                    self.load_run(r.start.0, r.stride, r.len);
                    self.cycle = Some((body, next_run + 1, reps_left));
                    continue;
                }
                if reps_left > 0 {
                    self.cycle = Some((body, 0, reps_left - 1));
                    continue;
                }
                self.cycle = None;
            }
            let op = self.ops.get(self.next_op)?;
            self.next_op += 1;
            match op {
                COp::Run { start, stride, len } => self.load_run(*start, *stride, *len),
                COp::Cycle { body, reps } => self.cycle = Some((body, 0, *reps - 1)),
                COp::Dir(_) => {}
            }
        }
        let page = PageId(self.cur as u32);
        self.cur += self.stride;
        self.remaining -= 1;
        Some(page)
    }
}

/// The open run a [`TraceBuilder`] is extending.
#[derive(Debug, Clone, Copy)]
struct Pending {
    start: u32,
    stride: i32,
    len: u32,
    last: u32,
}

/// Streaming constructor for [`CompressedTrace`]: push references and
/// directives in execution order, stride runs coalesce greedily.
///
/// Until [`TraceBuilder::finish`] folds them, flushed runs sit in a
/// dense `Vec<Run>` and directives in a side list keyed by position, so
/// the unfolded trace costs 12 bytes per run rather than one `COp` each.
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    runs: Vec<Run>,
    /// Each directive with the number of runs flushed before it.
    dirs: Vec<(usize, Event)>,
    refs: u64,
    pending: Option<Pending>,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Logical events pushed so far (references + directives), for
    /// runaway-trace caps.
    pub fn logical_len(&self) -> u64 {
        self.refs + self.dirs.len() as u64
    }

    fn flush(&mut self) {
        if let Some(run) = self.pending.take() {
            self.runs.push(Run {
                start: PageId(run.start),
                stride: run.stride,
                len: run.len,
            });
        }
    }

    /// Appends one page reference.
    #[inline]
    pub fn push_ref(&mut self, page: PageId) {
        let p = page.0;
        self.refs += 1;
        match &mut self.pending {
            None => {
                self.pending = Some(Pending {
                    start: p,
                    stride: 0,
                    len: 1,
                    last: p,
                });
            }
            Some(run) => {
                let delta = p as i64 - run.last as i64;
                if run.len == 1 {
                    if let Ok(s) = i32::try_from(delta) {
                        run.stride = s;
                        run.len = 2;
                        run.last = p;
                        return;
                    }
                } else if delta == run.stride as i64 && run.len < u32::MAX {
                    run.len += 1;
                    run.last = p;
                    return;
                }
                self.flush();
                self.pending = Some(Pending {
                    start: p,
                    stride: 0,
                    len: 1,
                    last: p,
                });
            }
        }
    }

    /// Appends the `len` references `start, start + stride, …`, with the
    /// effect of `len` calls to [`Self::push_ref`] in O(1): the pending
    /// run grows in one step whenever it already has this stride.
    /// Every page of the run must be a valid `u32`.
    pub fn push_run(&mut self, start: PageId, stride: i32, len: u32) {
        if len == 0 {
            return;
        }
        self.push_ref(start);
        let mut left = len - 1;
        while left > 0 {
            let run = self
                .pending
                .as_mut()
                .expect("push_ref leaves a pending run");
            if run.len >= 2 && run.stride == stride && run.len < u32::MAX {
                let take = left.min(u32::MAX - run.len);
                run.len += take;
                run.last = (run.last as i64 + stride as i64 * take as i64) as u32;
                self.refs += take as u64;
                left -= take;
            } else {
                // A fresh run or a stride change: one reference settles
                // the pending run's stride.
                let next = (run.last as i64 + stride as i64) as u32;
                self.push_ref(PageId(next));
                left -= 1;
            }
        }
    }

    /// Appends one directive event.
    ///
    /// # Panics
    ///
    /// Panics if `event` is an `Event::Ref` (use [`Self::push_ref`]).
    pub fn push_directive(&mut self, event: Event) {
        assert!(
            !matches!(event, Event::Ref(_)),
            "push references through push_ref"
        );
        self.flush();
        self.dirs.push((self.runs.len(), event));
    }

    /// Seals the builder into a trace over `virtual_pages` pages,
    /// folding repeated run windows into [`COp::Cycle`]s. Cycles never
    /// span a directive, so each stretch of runs between two directives
    /// folds on its own.
    pub fn finish(mut self, virtual_pages: u32) -> CompressedTrace {
        self.flush();
        let mut ops = Vec::new();
        let mut from = 0;
        for (at, event) in self.dirs {
            fold_cycles(&self.runs[from..at], &mut ops);
            ops.push(COp::Dir(event));
            from = at;
        }
        fold_cycles(&self.runs[from..], &mut ops);
        CompressedTrace {
            ops,
            refs: self.refs,
            virtual_pages,
        }
    }
}

/// Longest run window a cycle body may span. Numerical loop bodies at
/// page granularity rarely exceed a handful of runs per iteration;
/// keeping the window short bounds the fold pass at `O(MAX · ops)`.
const MAX_CYCLE_BODY: usize = 8;

/// Minimum repetition count worth folding: below three iterations the
/// policy kernels cannot skip anything (they need warm-up iterations to
/// prove a steady state), so short repeats stay as plain runs.
const MIN_CYCLE_REPS: u32 = 3;

/// Folds consecutive repetitions of an identical run window into
/// [`COp::Cycle`] ops, appending the result to `out`. The greedy
/// coalescer already merged maximal constant-stride bursts, so a loop
/// iterating over interleaved arrays leaves a fingerprint of
/// *identical* short runs, one group per iteration — exactly what this
/// pass detects. Decoding a `Cycle` reproduces the folded runs
/// verbatim, so the event stream is unchanged.
fn fold_cycles(runs: &[Run], out: &mut Vec<COp>) {
    let mut i = 0;
    while i < runs.len() {
        // Pick the window size maximizing the references covered.
        let mut best: Option<(usize, u32, u64)> = None; // (w, reps, refs)
        for w in 1..=MAX_CYCLE_BODY {
            if i + 2 * w > runs.len() {
                break;
            }
            let window = &runs[i..i + w];
            let mut reps = 1u32;
            let mut j = i + w;
            while j + w <= runs.len() && runs[j..j + w] == *window {
                reps += 1;
                j += w;
            }
            if reps >= MIN_CYCLE_REPS {
                let body_refs: u64 = window.iter().map(|r| r.len as u64).sum();
                let covered = body_refs * reps as u64;
                if best.is_none_or(|(_, _, b)| covered > b) {
                    best = Some((w, reps, covered));
                }
            }
        }
        match best {
            Some((w, reps, _)) => {
                out.push(COp::Cycle {
                    body: runs[i..i + w].into(),
                    reps,
                });
                i += w * reps as usize;
            }
            None => {
                let r = runs[i];
                out.push(COp::Run {
                    start: r.start.0,
                    stride: r.stride,
                    len: r.len,
                });
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    fn roundtrip(t: &Trace) -> CompressedTrace {
        let c = CompressedTrace::from_trace(t);
        assert_eq!(c.ref_count(), Trace::ref_count(t));
        assert_eq!(c.directive_count(), t.directive_count());
        assert_eq!(c.virtual_pages(), t.virtual_pages);
        assert_eq!(&c.to_trace(), t, "decompression is lossless");
        let via_iter: Vec<PageId> = c.iter_refs().collect();
        let direct: Vec<PageId> = t.refs().collect();
        assert_eq!(via_iter, direct, "iter_refs matches the flat refs");
        c
    }

    #[test]
    fn stride_one_sweep_compresses_to_one_op_per_cycle() {
        let t = synth::cyclic(64, 10);
        let c = roundtrip(&t);
        // Ten identical stride-1 sweeps fold into a single cycle op.
        assert_eq!(c.op_count(), 1, "one cycle op for the whole loop");
        match &c.ops()[0] {
            COp::Cycle { body, reps } => {
                assert_eq!(*reps, 10);
                assert_eq!(
                    **body,
                    [Run {
                        start: PageId(0),
                        stride: 1,
                        len: 64
                    }]
                );
            }
            other => panic!("expected a cycle, got {other:?}"),
        }
    }

    #[test]
    fn interleaved_loop_folds_into_a_cycle() {
        // A(I)+B(I)-style alternation: pages 0,9,0,9,… — each iteration
        // is one stride-9 run of length 2, identical every time.
        let refs: Vec<u32> = (0..12).map(|i| if i % 2 == 0 { 0 } else { 9 }).collect();
        let t = Trace::from_events(refs.iter().map(|&p| Event::Ref(PageId(p))).collect());
        let c = roundtrip(&t);
        assert_eq!(c.op_count(), 1, "{:?}", c.ops());
        assert!(matches!(&c.ops()[0], COp::Cycle { reps: 6, .. }));
    }

    #[test]
    fn two_repeats_stay_as_plain_runs() {
        // Below MIN_CYCLE_REPS the fold would buy the kernels nothing.
        let refs: Vec<u32> = vec![0, 9, 0, 9];
        let t = Trace::from_events(refs.iter().map(|&p| Event::Ref(PageId(p))).collect());
        let c = roundtrip(&t);
        assert!(
            c.ops().iter().all(|op| matches!(op, COp::Run { .. })),
            "{:?}",
            c.ops()
        );
    }

    #[test]
    fn directives_are_never_folded() {
        // LOCK between iterations: the repeated window spans a
        // directive, so nothing folds even though the runs repeat.
        let mut events = Vec::new();
        for _ in 0..5 {
            events.push(Event::Ref(PageId(0)));
            events.push(Event::Ref(PageId(9)));
            events.push(Event::Unlock { ranges: vec![] });
        }
        let t = Trace::from_events(events);
        let c = roundtrip(&t);
        assert_eq!(c.directive_count(), 5);
        assert!(c.ops().iter().all(|op| !matches!(op, COp::Cycle { .. })));
    }

    #[test]
    fn wider_window_wins_when_it_covers_more() {
        // Iterations of two runs each: [0,1,2][50,40,30] × 4. A width-1
        // window never repeats consecutively; width 2 covers all refs.
        let mut refs: Vec<u32> = Vec::new();
        for _ in 0..4 {
            refs.extend([0, 1, 2, 50, 40, 30]);
        }
        let t = Trace::from_events(refs.iter().map(|&p| Event::Ref(PageId(p))).collect());
        let c = roundtrip(&t);
        match &c.ops()[0] {
            COp::Cycle { body, reps } => {
                assert_eq!(*reps, 4);
                assert_eq!(body.len(), 2);
            }
            other => panic!("expected a cycle, got {other:?}"),
        }
    }

    #[test]
    fn constant_page_and_negative_strides_coalesce() {
        let refs: Vec<u32> = vec![5, 5, 5, 9, 7, 5, 3, 100];
        let t = Trace::from_events(refs.iter().map(|&p| Event::Ref(PageId(p))).collect());
        let c = roundtrip(&t);
        // [5×3 stride 0] [9,7,5,3 stride −2] [100]
        assert_eq!(c.op_count(), 3, "{:?}", c.ops());
    }

    #[test]
    fn directives_break_runs_and_survive_verbatim() {
        use cdmm_lang::ast::AllocArg;
        let t = Trace::from_events(vec![
            Event::Ref(PageId(0)),
            Event::Ref(PageId(1)),
            Event::Alloc(vec![AllocArg { pi: 2, pages: 3 }]),
            Event::Ref(PageId(2)),
            Event::Ref(PageId(3)),
            Event::Unlock { ranges: vec![] },
        ]);
        let c = roundtrip(&t);
        assert_eq!(c.op_count(), 4);
        assert_eq!(c.directive_count(), 2);
    }

    #[test]
    fn random_traces_roundtrip() {
        for seed in 0..6 {
            roundtrip(&synth::uniform(40, 2_000, seed));
        }
        roundtrip(&synth::nested_loops(5, 3, 9, 2));
        roundtrip(&Trace::default());
    }

    #[test]
    fn builder_streams_like_from_trace() {
        let t = synth::nested_loops(4, 2, 8, 3);
        let mut b = TraceBuilder::new();
        for p in t.refs() {
            b.push_ref(p);
        }
        assert_eq!(b.logical_len(), Trace::ref_count(&t));
        let c = b.finish(t.virtual_pages);
        assert_eq!(c, CompressedTrace::from_trace(&t));
    }

    /// Decodes a [`RunRef`] stream back to flat events, for comparing
    /// run iteration against event iteration.
    fn decode_runs<S: EventSource>(src: &S) -> Vec<Event> {
        let mut out = Vec::new();
        src.for_each_run(|r| match r {
            RunRef::Run { start, stride, len } => {
                let mut p = start.0 as i64;
                for _ in 0..len {
                    out.push(Event::Ref(PageId(p as u32)));
                    p += stride as i64;
                }
            }
            RunRef::Cycle { body, reps } => {
                for _ in 0..reps {
                    for r in body {
                        r.for_each_page(|p| out.push(Event::Ref(p)));
                    }
                }
            }
            RunRef::Directive(d) => out.push(d.clone()),
        });
        out
    }

    #[test]
    fn run_iteration_decodes_to_the_event_stream() {
        for t in [
            synth::uniform(40, 2_000, 3),
            synth::nested_loops(5, 3, 9, 2),
            synth::cyclic(64, 10),
            Trace::default(),
        ] {
            let c = CompressedTrace::from_trace(&t);
            assert_eq!(decode_runs(&c), t.events, "compressed runs decode");
            // The default (flat-trace) implementation degrades to len-1
            // runs but must decode to the same stream.
            assert_eq!(decode_runs(&t), t.events, "flat runs decode");
            let whole = c.for_each_run_while(|| true, |_| {});
            assert!(whole, "idle keep_going consumes the source");
        }
    }

    #[test]
    fn run_while_polls_once_per_op() {
        let t = synth::cyclic(64, 10);
        let c = CompressedTrace::from_trace(&t);
        let mut polls = 0u32;
        let mut runs = 0u32;
        let whole = c.for_each_run_while(
            || {
                polls += 1;
                true
            },
            |_| runs += 1,
        );
        assert!(whole);
        assert_eq!(runs, c.op_count() as u32);
        assert_eq!(polls, c.op_count() as u32, "one poll per op, not per ref");

        // A dead token stops before the first run is delivered.
        let mut delivered = 0u32;
        let whole = c.for_each_run_while(|| false, |_| delivered += 1);
        assert!(!whole);
        assert_eq!(delivered, 0);
    }

    #[test]
    fn distinct_pages_and_hints_match() {
        let t = synth::uniform(23, 500, 9);
        let c = CompressedTrace::from_trace(&t);
        assert_eq!(c.distinct_pages(), t.distinct_pages());
        assert_eq!(c.page_count_hint(), 23);
    }

    /// One seeded builder campaign: a mix of runs (lengths 1 and 2
    /// included, strides zero, negative and large), single references
    /// that leave a length-1 run pending, and directive boundaries. The
    /// builder fed `push_run` must match the one fed `len` × `push_ref`.
    fn push_run_campaign(seed: u64) {
        let mut rng = synth::SplitMix64::new(seed);
        let mut bulk = TraceBuilder::new();
        let mut each = TraceBuilder::new();
        for _ in 0..200 {
            match rng.below(8) {
                0 => {
                    let p = PageId(rng.below(64) as u32);
                    bulk.push_ref(p);
                    each.push_ref(p);
                }
                1 => {
                    let d = Event::Unlock { ranges: vec![] };
                    bulk.push_directive(d.clone());
                    each.push_directive(d);
                }
                _ => {
                    let len = match rng.below(4) {
                        0 => 1,
                        1 => 2,
                        _ => 1 + rng.below(40) as u32,
                    };
                    let stride = match rng.below(5) {
                        0 => 0,
                        1 => -(1 + rng.below(3) as i32),
                        2 => 1_000_000,
                        _ => 1 + rng.below(3) as i32,
                    };
                    // Keep every page of the run inside u32.
                    let span = stride.unsigned_abs() as u64 * (len as u64 - 1);
                    let start = if stride < 0 {
                        span + rng.below(64)
                    } else {
                        rng.below(64)
                    } as u32;
                    bulk.push_run(PageId(start), stride, len);
                    let mut p = start as i64;
                    for _ in 0..len {
                        each.push_ref(PageId(p as u32));
                        p += stride as i64;
                    }
                }
            }
            assert_eq!(bulk.logical_len(), each.logical_len(), "seed {seed}");
        }
        assert_eq!(bulk.finish(0), each.finish(0), "seed {seed}");
    }

    #[test]
    fn push_run_equals_pushing_each_reference() {
        for seed in 0..300 {
            push_run_campaign(seed);
        }
    }

    #[test]
    fn stripping_directives_rebuilds_the_plain_trace() {
        // Directives split one stride run and one loop cycle; removing
        // them must merge the run and re-fold the cycle exactly as if
        // the references had been pushed alone.
        let mut events = Vec::new();
        for p in 0..10 {
            events.push(Event::Ref(PageId(p)));
            if p == 4 {
                events.push(Event::Alloc(vec![]));
            }
        }
        for i in 0..6 {
            events.extend([Event::Ref(PageId(20)), Event::Ref(PageId(29))]);
            if i == 2 {
                events.push(Event::Unlock { ranges: vec![] });
            }
        }
        let with = CompressedTrace::from_trace(&Trace {
            events: events.clone(),
            virtual_pages: 40,
        });
        let without = CompressedTrace::from_trace(&Trace {
            events: events
                .into_iter()
                .filter(|e| matches!(e, Event::Ref(_)))
                .collect(),
            virtual_pages: 40,
        });
        assert_eq!(with.without_directives(), without);
        assert_eq!(without.without_directives(), without, "idempotent");
        for t in [synth::cyclic(64, 10), synth::nested_loops(5, 3, 9, 2)] {
            let c = CompressedTrace::from_trace(&t);
            assert_eq!(c.without_directives(), c);
        }
    }
}
