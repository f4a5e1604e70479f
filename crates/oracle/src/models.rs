//! The served baselines' hash-based bodies and the retired
//! per-reference tracing logic, kept verbatim as oracles.
//!
//! - [`Fifo`], [`Clock`], [`Pff`] and [`Opt`] — the FIFO, Clock, PFF
//!   and OPT bodies that the dense, run-level implementations in
//!   `cdmm_vmsim::policy` replaced. They implement only
//!   [`Policy::reference`], so any driver runs them one reference at a
//!   time.
//! - [`PerRefRegistry`] — the metrics registry's per-reference event
//!   logic from before it consumed reference batches.
//! - [`per_ref_loop`] — the per-reference traced loop
//!   [`cdmm_vmsim::simulate_with`] ran at `Decisions` and above before
//!   it kept one loop for every level: the model of what a traced run
//!   hands its tracer.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use cdmm_trace::{EventRef, EventSource, PageId};
use cdmm_vmsim::stats::{FAULT_INTERARRIVAL, RESIDENT_OCCUPANCY};
use cdmm_vmsim::{Detail, Metrics, MetricsRegistry, Policy, RefBatch, SimConfig, SimEvent, Tracer};

/// FIFO over a hash set and a queue.
pub struct Fifo {
    frames: usize,
    queue: VecDeque<PageId>,
    resident: HashSet<PageId>,
}

impl Fifo {
    /// FIFO with `frames` page frames.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "FIFO needs at least one frame");
        Fifo {
            frames,
            queue: VecDeque::new(),
            resident: HashSet::new(),
        }
    }
}

impl Policy for Fifo {
    fn label(&self) -> String {
        format!("FIFO({})", self.frames)
    }

    fn reference(&mut self, page: PageId) -> bool {
        if self.resident.contains(&page) {
            return false;
        }
        if self.resident.len() >= self.frames {
            if let Some(victim) = self.queue.pop_front() {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(page);
        self.queue.push_back(page);
        true
    }

    fn resident(&self) -> usize {
        self.resident.len()
    }
}

/// Clock (second chance) over a frame vector and a hash index.
pub struct Clock {
    frames: Vec<(PageId, bool)>,
    capacity: usize,
    index: HashMap<PageId, usize>,
    hand: usize,
}

impl Clock {
    /// Clock with `frames` page frames.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "Clock needs at least one frame");
        Clock {
            frames: Vec::new(),
            capacity: frames,
            index: HashMap::new(),
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
        if let Some(&slot) = self.index.get(&page) {
            self.frames[slot].1 = true;
            return false;
        }
        if self.frames.len() < self.capacity {
            self.frames.push((page, true));
        } else {
            while self.frames[self.hand].1 {
                self.frames[self.hand].1 = false;
                self.advance();
            }
            let (old, _) = self.frames[self.hand];
            self.index.remove(&old);
            self.frames[self.hand] = (page, true);
        }
        self.index.insert(page, self.hand);
        self.advance();
        true
    }

    fn resident(&self) -> usize {
        self.index.len()
    }
}

/// The page-fault-frequency policy over hash maps.
pub struct Pff {
    threshold: u64,
    clock: u64,
    last_fault: u64,
    resident: HashMap<PageId, ()>,
    used_since_fault: HashSet<PageId>,
}

impl Pff {
    /// PFF with inter-fault `threshold`.
    pub fn new(threshold: u64) -> Self {
        assert!(threshold > 0, "PFF threshold must be positive");
        Pff {
            threshold,
            clock: 0,
            last_fault: 0,
            resident: HashMap::new(),
            used_since_fault: HashSet::new(),
        }
    }
}

impl Policy for Pff {
    fn label(&self) -> String {
        format!("PFF({})", self.threshold)
    }

    fn reference(&mut self, page: PageId) -> bool {
        self.clock += 1;
        if self.resident.contains_key(&page) {
            self.used_since_fault.insert(page);
            return false;
        }
        if self.clock - self.last_fault > self.threshold {
            self.resident
                .retain(|p, ()| self.used_since_fault.contains(p));
        }
        self.last_fault = self.clock;
        self.used_since_fault.clear();
        self.resident.insert(page, ());
        self.used_since_fault.insert(page);
        true
    }

    fn resident(&self) -> usize {
        self.resident.len()
    }
}

const NEVER: u64 = u64::MAX;

fn next_use_chain<S: EventSource + ?Sized>(trace: &S) -> Vec<u64> {
    const NO_POS: usize = usize::MAX;
    let mut refs: Vec<PageId> = Vec::with_capacity(trace.ref_count() as usize);
    trace.for_each_ref(|p| refs.push(p));
    let mut next_use = vec![NEVER; refs.len()];
    let mut last_pos = vec![NO_POS; trace.page_count_hint()];
    for (i, &p) in refs.iter().enumerate().rev() {
        let idx = p.0 as usize;
        if idx >= last_pos.len() {
            last_pos.resize(idx + 1, NO_POS);
        }
        if last_pos[idx] != NO_POS {
            next_use[i] = last_pos[idx] as u64;
        }
        last_pos[idx] = i;
    }
    next_use
}

/// Belady's OPT over a next-use chain and an ordered set.
pub struct Opt {
    frames: usize,
    next_use: Vec<u64>,
    pos: usize,
    by_next: BTreeSet<(u64, PageId)>,
    resident: HashMap<PageId, u64>,
}

impl Opt {
    /// OPT with `frames` page frames over the references of `trace`.
    pub fn for_trace<S: EventSource + ?Sized>(trace: &S, frames: usize) -> Self {
        assert!(frames > 0, "OPT needs at least one page frame");
        Opt {
            frames,
            next_use: next_use_chain(trace),
            pos: 0,
            by_next: BTreeSet::new(),
            resident: HashMap::new(),
        }
    }
}

impl Policy for Opt {
    fn label(&self) -> String {
        format!("OPT({})", self.frames)
    }

    fn reference(&mut self, page: PageId) -> bool {
        let i = self.pos;
        self.pos += 1;
        let next = self.next_use.get(i).copied().unwrap_or(NEVER);
        let fault = match self.resident.remove(&page) {
            Some(old_next) => {
                self.by_next.remove(&(old_next, page));
                false
            }
            None => {
                if self.resident.len() >= self.frames {
                    if let Some(&victim) = self.by_next.iter().next_back() {
                        self.by_next.remove(&victim);
                        self.resident.remove(&victim.1);
                    }
                }
                true
            }
        };
        self.resident.insert(page, next);
        self.by_next.insert((next, page));
        fault
    }

    fn resident(&self) -> usize {
        self.resident.len()
    }
}

/// The registry's per-reference logic from before it consumed batches,
/// kept as the oracle: a reference-level tracer that counts `Ref`,
/// `Fault` and `Evict` events by name and hands every other event to a
/// registry.
#[derive(Default)]
pub struct PerRefRegistry {
    /// The registry the events build.
    pub inner: MetricsRegistry,
    last_fault_at: Option<u64>,
}

impl Tracer for PerRefRegistry {
    fn detail(&self) -> Detail {
        Detail::References
    }

    fn record(&mut self, at: u64, event: &SimEvent) {
        let r = &mut self.inner;
        match event {
            SimEvent::Ref { resident, .. } => {
                r.inc("refs");
                r.record_sample(RESIDENT_OCCUPANCY, u64::from(*resident));
                r.set_gauge("resident_pages", u64::from(*resident));
            }
            SimEvent::Fault { .. } => {
                r.inc("faults");
                if let Some(prev) = self.last_fault_at {
                    r.record_sample(FAULT_INTERARRIVAL, at.saturating_sub(prev));
                }
                self.last_fault_at = Some(at);
            }
            SimEvent::Evict { .. } => r.inc("evictions"),
            other => r.record(at, other),
        }
    }
}

/// The per-reference traced loop `simulate_with` ran at `Decisions` and
/// above before it kept one loop for every level, kept as the model of
/// what a traced run hands its tracer. After each reference: the
/// policy's buffered events (each `Evict` also as a one-page eviction
/// count), the driver's `Fault`, a one-reference batch, and — at
/// `References` — a `Ref`; after each directive, the policy's events.
/// Every event carries the clock of the references processed so far.
pub fn per_ref_loop<S: EventSource + ?Sized, P: Policy + ?Sized>(
    trace: &S,
    policy: &mut P,
    tracer: &mut dyn Tracer,
) -> Metrics {
    fn forward(tracer: &mut dyn Tracer, at: u64, pending: &mut Vec<SimEvent>) {
        for e in pending.drain(..) {
            if let SimEvent::Evict { .. } = e {
                tracer.aggregate(at, &RefBatch::Evictions(1));
            }
            tracer.record(at, &e);
        }
    }
    let mut metrics = Metrics::new(SimConfig::default().fault_service);
    let detail = tracer.detail();
    assert!(
        detail >= Detail::Decisions,
        "the model loop is the traced one"
    );
    policy.set_detail(detail);
    let mut pending = Vec::new();
    trace.for_each_event(|event| match event {
        EventRef::Ref(page) => {
            let fault = policy.reference(page);
            metrics.record(policy.resident(), fault);
            if policy.is_degraded() {
                metrics.degraded_refs += 1;
            }
            let at = metrics.refs;
            policy.drain_events(&mut pending);
            forward(tracer, at, &mut pending);
            let resident = policy.resident() as u32;
            if fault {
                tracer.record(at, &SimEvent::Fault { page, resident });
            }
            let batch = RefBatch::Flat {
                n: 1,
                resident: u64::from(resident),
                fault,
            };
            tracer.aggregate(at, &batch);
            if detail >= Detail::References {
                let event = SimEvent::Ref {
                    page,
                    resident,
                    fault,
                };
                tracer.record(at, &event);
            }
        }
        EventRef::Directive(other) => {
            policy.directive(other);
            policy.drain_events(&mut pending);
            forward(tracer, metrics.refs, &mut pending);
        }
    });
    policy.set_detail(Detail::Off);
    tracer.flush();
    metrics.recovered_directives = policy.recovered_directives();
    metrics
}
