//! The run-level execution gate: `simulate_with` under a disabled
//! tracer (one `Policy::reference_run` call per compressed
//! constant-stride run, batch kernels inside) must be *byte-identical*
//! to the per-reference `simulate` — same `Metrics`, same final policy behavior, same `SimEvent`
//! stream where tracing applies — on every reproduced workload and on
//! an adversarial seeded trace generator.
//!
//! The served baselines — FIFO, Clock, OPT and PFF — are also checked
//! against the hash-based implementations their dense kernels replaced,
//! kept here verbatim as independent oracles (`models`).
//!
//! `simulate_with` runs one loop at every tracer level; at `Decisions`
//! and above its kernels decode reference by reference. The
//! per-reference loop it ran there before is kept here as a model
//! (`per_ref_loop`): at `Decisions` and at `References` the production
//! driver must hand a tracer exactly the model's event stream, clock
//! for clock.
//!
//! A `MetricsRegistry` reads its reference statistics from the batches
//! the run-level kernels hand over. Its snapshot must equal the one the
//! registry's former per-reference event logic builds (kept here as
//! `PerRefRegistry`), the one the model loop feeds it, and the one a
//! decision- or reference-level run feeds it — on every policy family,
//! workload and scale, and on the seeded campaigns.
//!
//! The generator (SplitMix64, seed from `CDMM_EQUIV_SEED`, default 42)
//! aims at the fast paths' fallback seams: runs straddling directive
//! boundaries, strides larger than the page count, negative strides,
//! length-1 runs, stride-0 spans longer than the WS window, pathological
//! re-lock/unlock patterns, CD configurations with hard limits, degrade
//! thresholds, and disabled locks, and verbatim-repeated loop windows
//! that compress into `COp::Cycle` — sometimes sized past the page
//! universe so the cycle kernels' warmup never reaches steady state.

use cdmm_core::{prepare, PipelineConfig, PolicySpec, Prepared};
use cdmm_lang::ast::AllocArg;
use cdmm_trace::{CompressedTrace, Event, EventRef, EventSource, PageId, PageRange, Trace};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::clock::Clock;
use cdmm_vmsim::policy::fifo::Fifo;
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::policy::opt::Opt;
use cdmm_vmsim::policy::pff::Pff;
use cdmm_vmsim::policy::ws::WorkingSet;
use cdmm_vmsim::stats::{FAULT_INTERARRIVAL, RESIDENT_OCCUPANCY};
use cdmm_vmsim::{
    simulate, simulate_with, CancelToken, Detail, Metrics, MetricsRegistry, NullTracer, Policy,
    RefBatch, RegistrySnapshot, SimConfig, SimEvent, Tee, TimedEvent, Tracer,
};
use cdmm_workloads::{all, Scale};

/// The hash-based FIFO, Clock, OPT and PFF bodies that the dense,
/// run-level implementations replaced, kept verbatim as oracles.
mod models {
    use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

    use cdmm_trace::{EventSource, PageId};
    use cdmm_vmsim::Policy;

    pub struct Fifo {
        frames: usize,
        queue: VecDeque<PageId>,
        resident: HashSet<PageId>,
    }

    impl Fifo {
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

    pub struct Clock {
        frames: Vec<(PageId, bool)>,
        capacity: usize,
        index: HashMap<PageId, usize>,
        hand: usize,
    }

    impl Clock {
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

    pub struct Pff {
        threshold: u64,
        clock: u64,
        last_fault: u64,
        resident: HashMap<PageId, ()>,
        used_since_fault: HashSet<PageId>,
    }

    impl Pff {
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

    pub struct Opt {
        frames: usize,
        next_use: Vec<u64>,
        pos: usize,
        by_next: BTreeSet<(u64, PageId)>,
        resident: HashMap<PageId, u64>,
    }

    impl Opt {
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
}

/// The registry's per-reference logic from before it consumed batches,
/// kept as the oracle: a reference-level tracer that counts `Ref`,
/// `Fault` and `Evict` events by name and hands every other event to a
/// registry.
struct PerRefRegistry {
    inner: MetricsRegistry,
    last_fault_at: Option<u64>,
}

impl PerRefRegistry {
    fn new() -> Self {
        PerRefRegistry {
            inner: MetricsRegistry::new(),
            last_fault_at: None,
        }
    }
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
/// what a traced run hands its tracer. After each
/// reference: the policy's buffered events (each `Evict` also as a
/// one-page eviction count), the driver's `Fault`, a one-reference
/// batch, and — at `References` — a `Ref`; after each directive, the
/// policy's events. Every event carries the clock of the references
/// processed so far.
fn per_ref_loop<S: EventSource + ?Sized, P: Policy + ?Sized>(
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

/// What a run hands a tracer at one level: every event, in order, and
/// the registry those events and the batches build.
struct Witness {
    detail: Detail,
    events: Vec<TimedEvent>,
    registry: MetricsRegistry,
}

impl Witness {
    fn new(detail: Detail) -> Self {
        Witness {
            detail,
            events: Vec::new(),
            registry: MetricsRegistry::new(),
        }
    }
}

impl Tracer for Witness {
    fn detail(&self) -> Detail {
        self.detail
    }

    fn record(&mut self, at: u64, event: &SimEvent) {
        self.events.push(TimedEvent { at, event: *event });
        self.registry.record(at, event);
    }

    fn aggregate(&mut self, at: u64, batch: &RefBatch) {
        self.registry.aggregate(at, batch);
    }
}

/// Asserts two event streams equal, naming the first difference.
fn assert_same_stream(want: &[TimedEvent], got: &[TimedEvent], what: &str) {
    if let Some(i) = (0..want.len().min(got.len())).find(|&i| want[i] != got[i]) {
        panic!("{what}: event {i} is {:?}, want {:?}", got[i], want[i]);
    }
    assert_eq!(got.len(), want.len(), "{what}: stream length");
}

/// Drives `policy` five ways — the model loop at `References` (teed
/// into the registry's former per-reference logic), and `simulate_with`
/// at `References`, at `Decisions`, at `Aggregates` with a lone registry
/// and untraced — and asserts one metrics value, one event stream at
/// each traced level (the model's, less its `Ref`s, at `Decisions`), and
/// one registry snapshot.
fn assert_same_observations<S, F>(make: F, trace: &S, what: &str) -> RegistrySnapshot
where
    S: EventSource + ?Sized,
    F: Fn() -> Box<dyn Policy>,
{
    let mut model = Witness::new(Detail::References);
    let mut per_ref = PerRefRegistry::new();
    let want = per_ref_loop(trace, &mut *make(), &mut Tee::new(&mut model, &mut per_ref));
    let mut refs = Witness::new(Detail::References);
    let mut decisions = Witness::new(Detail::Decisions);
    let mut alone = MetricsRegistry::new();
    let runs = [
        ("References", drive(trace, &mut *make(), &mut refs)),
        ("Decisions", drive(trace, &mut *make(), &mut decisions)),
        ("Aggregates", drive(trace, &mut *make(), &mut alone)),
        ("untraced", drive(trace, &mut *make(), &mut NullTracer)),
    ];
    for (level, got) in runs {
        assert_eq!(got, want, "{what}: {level} metrics");
    }
    assert_same_stream(&model.events, &refs.events, &format!("{what}: References"));
    let model_decisions: Vec<TimedEvent> = model
        .events
        .iter()
        .filter(|e| e.event.detail() <= Detail::Decisions)
        .copied()
        .collect();
    let what_decisions = format!("{what}: Decisions");
    assert_same_stream(&model_decisions, &decisions.events, &what_decisions);
    let snapshot = per_ref.inner.snapshot();
    assert_eq!(
        snapshot,
        model.registry.snapshot(),
        "{what}: model registry"
    );
    assert_eq!(
        snapshot,
        refs.registry.snapshot(),
        "{what}: References registry"
    );
    let got = decisions.registry.snapshot();
    assert_eq!(snapshot, got, "{what}: Decisions registry");
    assert_eq!(snapshot, alone.snapshot(), "{what}: Aggregates registry");
    snapshot
}

fn equiv_seed() -> u64 {
    std::env::var("CDMM_EQUIV_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// SplitMix64: the repo-standard seeded generator for property tests.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The production driver under an idle token.
fn drive<S: cdmm_trace::EventSource + ?Sized, P: Policy + ?Sized>(
    trace: &S,
    policy: &mut P,
    tracer: &mut dyn Tracer,
) -> Metrics {
    simulate_with(
        trace,
        policy,
        SimConfig::default(),
        tracer,
        &CancelToken::new(),
    )
    .expect("an idle token never stops the run")
}

/// Drives one freshly built policy per call three ways — per-ref over
/// the flat trace, per-ref over the compressed trace, run-level over
/// the compressed trace — and asserts all three metrics are identical.
fn assert_equivalent<P: Policy, F: Fn() -> P>(
    make: F,
    flat: &Trace,
    compressed: &CompressedTrace,
    what: &str,
) -> Metrics {
    let cfg = SimConfig::default();
    let per_ref_flat = simulate(flat, &mut make(), cfg);
    let per_ref_comp = simulate(compressed, &mut make(), cfg);
    let run_level = drive(compressed, &mut make(), &mut NullTracer);
    assert_eq!(
        per_ref_flat, per_ref_comp,
        "{what}: compressed per-ref drifted from flat"
    );
    assert_eq!(
        per_ref_comp, run_level,
        "{what}: run-level drifted from per-ref"
    );
    run_level
}

/// Asserts the reference-level event streams (and metrics) of the flat
/// and compressed forms of the same trace agree with the model loop's.
/// At that level every kernel decodes reference by reference, so this
/// pins the stream the per-reference fallback must reproduce on either
/// form.
fn assert_same_events<P: Policy, F: Fn() -> P>(
    make: F,
    flat: &Trace,
    compressed: &CompressedTrace,
    what: &str,
) {
    let mut model = Witness::new(Detail::References);
    let want = per_ref_loop(flat, &mut make(), &mut model);
    let mut on_flat = Witness::new(Detail::References);
    let got = drive(flat, &mut make(), &mut on_flat);
    assert_eq!(got, want, "{what}: flat traced metrics drifted");
    let mut on_compressed = Witness::new(Detail::References);
    let got = drive(compressed, &mut make(), &mut on_compressed);
    assert_eq!(got, want, "{what}: compressed traced metrics drifted");
    assert_same_stream(&model.events, &on_flat.events, &format!("{what}: flat"));
    let what = format!("{what}: compressed");
    assert_same_stream(&model.events, &on_compressed.events, &what);
}

fn prepared_workloads() -> Vec<Prepared> {
    all(Scale::Small)
        .iter()
        .map(|w| {
            prepare(w.name, &w.source, PipelineConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name))
        })
        .collect()
}

#[test]
fn run_level_matches_per_ref_on_every_workload() {
    for p in prepared_workloads() {
        let cd_flat = p.cd_trace().to_trace();
        let plain_flat = p.plain_trace().to_trace();
        let min_alloc = p.config().min_alloc;
        for selector in [CdSelector::Outermost, CdSelector::Innermost] {
            let m = assert_equivalent(
                || CdPolicy::new(selector).with_min_alloc(min_alloc),
                &cd_flat,
                p.cd_trace(),
                &format!("{} CD({selector:?})", p.name()),
            );
            let route = p.run_policy(PolicySpec::Cd { selector });
            assert_eq!(m, route, "{}: pipeline route", p.name());
        }
        for frames in [2usize, 8, 32] {
            let m = assert_equivalent(
                || Lru::new(frames),
                &plain_flat,
                p.plain_trace(),
                &format!("{} LRU({frames})", p.name()),
            );
            let route = p.run_policy(PolicySpec::Lru { frames });
            assert_eq!(m, route, "{}: pipeline route", p.name());
        }
        for tau in [100u64, 2000] {
            let m = assert_equivalent(
                || WorkingSet::new(tau),
                &plain_flat,
                p.plain_trace(),
                &format!("{} WS({tau})", p.name()),
            );
            let route = p.run_policy(PolicySpec::Ws { tau });
            assert_eq!(m, route, "{}: pipeline route", p.name());
        }
    }
}

#[test]
fn traced_event_streams_match_on_every_workload() {
    for p in prepared_workloads() {
        let cd_flat = p.cd_trace().to_trace();
        let plain_flat = p.plain_trace().to_trace();
        let min_alloc = p.config().min_alloc;
        assert_same_events(
            || CdPolicy::new(CdSelector::Outermost).with_min_alloc(min_alloc),
            &cd_flat,
            p.cd_trace(),
            &format!("{} CD", p.name()),
        );
        assert_same_events(
            || Lru::new(8),
            &plain_flat,
            p.plain_trace(),
            &format!("{} LRU(8)", p.name()),
        );
        assert_same_events(
            || WorkingSet::new(2000),
            &plain_flat,
            p.plain_trace(),
            &format!("{} WS(2000)", p.name()),
        );
    }
}

/// One point of every policy family the pipeline builds.
fn every_family(p: &Prepared) -> Vec<PolicySpec> {
    let frames = (p.virtual_pages() as usize / 3).max(2);
    vec![
        PolicySpec::Cd {
            selector: CdSelector::Outermost,
        },
        PolicySpec::Cd {
            selector: CdSelector::AtLevel(2),
        },
        PolicySpec::CdNoLocks {
            selector: CdSelector::Innermost,
        },
        PolicySpec::Lru { frames },
        PolicySpec::Ws { tau: 500 },
        PolicySpec::Fifo { frames },
        PolicySpec::Clock { frames },
        PolicySpec::Opt { frames },
        PolicySpec::Pff { threshold: 100 },
        PolicySpec::DampedWs {
            tau: 500,
            reserve_cap: 4,
        },
        PolicySpec::SampledWs {
            tau: 500,
            sigma: 50,
        },
        PolicySpec::VariableSampledWs {
            min_interval: 20,
            max_interval: 200,
            fault_quota: 4,
        },
    ]
}

#[test]
fn registry_snapshots_match_on_every_family_workload_and_scale() {
    for scale in [Scale::Small, Scale::Paper] {
        for w in all(scale) {
            let p = prepare(w.name, &w.source, PipelineConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            for spec in every_family(&p) {
                let what = format!("{} {scale:?} {spec:?}", p.name());
                let trace = if spec.uses_directives() {
                    p.cd_trace()
                } else {
                    p.plain_trace()
                };
                let make = || p.build_policy(spec) as Box<dyn Policy>;
                let snap = assert_same_observations(make, trace, &what);
                assert_eq!(snap.counter("refs"), trace.ref_count(), "{what}");
            }
        }
    }
}

/// A hard frame limit over locked pages: faults past the limit break
/// the lowest-priority lock, inside stride-0 runs, strided runs and a
/// folded cycle alike.
#[test]
fn registry_snapshots_match_when_locks_break() {
    let mut events = vec![Event::Alloc(vec![AllocArg { pi: 2, pages: 4 }])];
    let refs = |events: &mut Vec<Event>, pages: &[u32]| {
        events.extend(pages.iter().map(|&p| Event::Ref(PageId(p))));
    };
    refs(&mut events, &[0, 1, 2, 3]);
    events.push(Event::Lock {
        pj: 3,
        ranges: vec![PageRange { start: 0, end: 2 }],
    });
    events.push(Event::Lock {
        pj: 2,
        ranges: vec![PageRange { start: 2, end: 4 }],
    });
    refs(&mut events, &[9, 9, 9, 9, 10, 11, 12, 13]);
    events.push(Event::Lock {
        pj: 4,
        ranges: vec![PageRange { start: 13, end: 14 }],
    });
    for _ in 0..6 {
        refs(&mut events, &[20, 21, 22]);
    }
    events.push(Event::Unlock {
        ranges: vec![PageRange { start: 0, end: 4 }],
    });
    refs(&mut events, &[5, 6, 7, 5, 6, 7, 0, 1]);
    let flat = Trace::from_events(events);
    let compressed = CompressedTrace::from_trace(&flat);
    let make = || {
        let cd = CdPolicy::new(CdSelector::Outermost)
            .with_min_alloc(1)
            .with_hard_limit(Some(4));
        Box::new(cd) as Box<dyn Policy>
    };
    let snap = assert_same_observations(make, &flat, "hard-limit CD, flat");
    assert!(snap.counter("lock_breaks") >= 2, "{snap:?}");
    assert!(snap.histogram("lock_dwell").is_some());
    let compressed_snap = assert_same_observations(make, &compressed, "hard-limit CD, compressed");
    assert_eq!(snap, compressed_snap);
}

/// Builds one adversarial directive-bearing trace from the campaign's
/// random stream.
fn adversarial_trace(rng: &mut SplitMix64) -> Trace {
    let pages = 6 + rng.below(58) as u32; // page universe P
    let ops = 40 + rng.below(80);
    let mut events: Vec<Event> = Vec::new();
    let mut locked: Vec<PageRange> = Vec::new();
    for _ in 0..ops {
        match rng.below(11) {
            0..=4 => {
                // A constant-stride run, including stride 0, negative
                // strides, and strides beyond the page universe.
                let stride = match rng.below(8) {
                    0 => 0i64,
                    1 => -(1 + rng.below(3) as i64),
                    2 => pages as i64 + 1 + rng.below(7) as i64,
                    3 => -(pages as i64) - 1,
                    _ => 1 + rng.below(3) as i64,
                };
                let len = 1 + rng.below(80);
                let base = rng.below(pages as u64) as i64;
                // Shift the start so every page of the run is >= 0.
                let lowest = base + stride.min(0) * (len as i64 - 1);
                let start = if lowest < 0 { base - lowest } else { base };
                let mut p = start;
                for _ in 0..len {
                    events.push(Event::Ref(PageId(p as u32)));
                    p += stride;
                }
            }
            5 => {
                // Length-1 run far from the rest.
                events.push(Event::Ref(PageId(rng.below(4 * pages as u64) as u32)));
            }
            6 => {
                let args = (1..=1 + rng.below(3))
                    .map(|pi| AllocArg {
                        pi: pi as u32,
                        pages: 1 + rng.below(1 + pages as u64 / 2),
                    })
                    .collect();
                events.push(Event::Alloc(args));
            }
            7 => {
                // LOCK, frequently re-locking a previously locked range.
                let range = if !locked.is_empty() && rng.below(2) == 0 {
                    locked[rng.below(locked.len() as u64) as usize]
                } else {
                    let a = rng.below(pages as u64) as u32;
                    PageRange {
                        start: a,
                        end: a + 1 + rng.below(5) as u32,
                    }
                };
                locked.push(range);
                events.push(Event::Lock {
                    pj: 1 + rng.below(4) as u32,
                    ranges: vec![range],
                });
            }
            8 => {
                // UNLOCK, sometimes matching an outstanding lock,
                // sometimes a range never locked.
                let range = if !locked.is_empty() && rng.below(3) != 0 {
                    locked.swap_remove(rng.below(locked.len() as u64) as usize)
                } else {
                    let a = rng.below(pages as u64) as u32;
                    PageRange {
                        start: a,
                        end: a + 1 + rng.below(5) as u32,
                    }
                };
                events.push(Event::Unlock {
                    ranges: vec![range],
                });
            }
            9 => {
                // A stride-0 span long enough to outlive small WS
                // windows mid-run.
                let page = PageId(rng.below(pages as u64) as u32);
                for _ in 0..1 + rng.below(120) {
                    events.push(Event::Ref(page));
                }
            }
            _ => {
                // A loop cycle: a 1–4-run window repeated 3–40 times,
                // verbatim, so compression folds it into `COp::Cycle`
                // and exercises the steady-state cycle kernels. Bodies
                // are sometimes sized past the page universe so an
                // undersized policy faults *every* iteration and the
                // warmup loop never reaches steady state.
                let body_runs = 1 + rng.below(4);
                let reps = 3 + rng.below(38);
                let mut body: Vec<(u32, i64, u64)> = Vec::new();
                for _ in 0..body_runs {
                    let stride = match rng.below(4) {
                        0 => 0i64,
                        1 => -1i64,
                        _ => 1i64,
                    };
                    // Occasionally longer than the whole page universe.
                    let bound = if rng.below(4) == 0 {
                        2 * pages as u64
                    } else {
                        6
                    };
                    let len = 1 + rng.below(bound);
                    let base = rng.below(pages as u64) as i64;
                    let lowest = base + stride.min(0) * (len as i64 - 1);
                    let start = if lowest < 0 { base - lowest } else { base };
                    body.push((start as u32, stride, len));
                }
                for _ in 0..reps {
                    for &(start, stride, len) in &body {
                        let mut p = start as i64;
                        for _ in 0..len {
                            events.push(Event::Ref(PageId(p as u32)));
                            p += stride;
                        }
                    }
                }
            }
        }
    }
    Trace::from_events(events)
}

fn campaign_cd(rng: &mut SplitMix64, pages: u32) -> CdPolicy {
    let selector = match rng.below(3) {
        0 => CdSelector::Outermost,
        1 => CdSelector::Innermost,
        _ => CdSelector::AtLevel(1 + rng.below(3) as u32),
    };
    let mut cd = CdPolicy::new(selector).with_min_alloc(1 + rng.below(3));
    if rng.below(4) == 0 {
        cd = cd.with_hard_limit(Some(1 + rng.below(pages as u64)));
    }
    if rng.below(4) == 0 {
        cd = cd.with_degrade_after(Some(rng.below(4)));
    }
    if rng.below(4) == 0 {
        cd = cd.with_virtual_pages(Some(pages));
    }
    if rng.below(5) == 0 {
        cd = cd.with_locks(false);
    }
    cd
}

#[test]
fn seeded_adversarial_campaigns_are_byte_identical() {
    let seed = equiv_seed();
    let mut rng = SplitMix64(seed);
    for campaign in 0..500u32 {
        let flat = adversarial_trace(&mut rng);
        let compressed = CompressedTrace::from_trace(&flat);
        let pages = compressed.virtual_pages().max(1);

        let frames = 1 + rng.below(pages as u64 + 4) as usize;
        assert_equivalent(
            || Lru::new(frames),
            &flat,
            &compressed,
            &format!("seed={seed} campaign={campaign} LRU({frames})"),
        );

        let tau = 1 + rng.below(300);
        assert_equivalent(
            || WorkingSet::new(tau),
            &flat,
            &compressed,
            &format!("seed={seed} campaign={campaign} WS({tau})"),
        );

        // Clone-and-rebuild: CdPolicy's builder chain is random, so
        // build once and clone per drive.
        let cd = campaign_cd(&mut rng, pages);
        assert_equivalent(
            || cd.clone(),
            &flat,
            &compressed,
            &format!("seed={seed} campaign={campaign} {}", cd.label()),
        );

        let c = format!("seed={seed} campaign={campaign}");
        let lru = || Box::new(Lru::new(frames)) as Box<dyn Policy>;
        assert_same_observations(lru, &compressed, &format!("{c} LRU({frames})"));
        let ws = || Box::new(WorkingSet::new(tau)) as Box<dyn Policy>;
        assert_same_observations(ws, &compressed, &format!("{c} WS({tau})"));
        let cd_box = || Box::new(cd.clone()) as Box<dyn Policy>;
        assert_same_observations(cd_box, &compressed, &format!("{c} {}", cd.label()));

        // Every 25th campaign also pins the traced SimEvent stream.
        if campaign % 25 == 0 {
            assert_same_events(
                || cd.clone(),
                &flat,
                &compressed,
                &format!("seed={seed} campaign={campaign} traced {}", cd.label()),
            );
            assert_same_events(
                || Lru::new(frames),
                &flat,
                &compressed,
                &format!("seed={seed} campaign={campaign} traced LRU({frames})"),
            );
            assert_same_events(
                || WorkingSet::new(tau),
                &flat,
                &compressed,
                &format!("seed={seed} campaign={campaign} traced WS({tau})"),
            );
        }
    }
}

/// [`assert_equivalent`] plus the hash-based `model`'s per-reference
/// metrics on the flat trace: all four drives must equal the oracle.
fn assert_matches_model<M: Policy, P: Policy, F: Fn() -> P>(
    mut model: M,
    make: F,
    flat: &Trace,
    compressed: &CompressedTrace,
    what: &str,
) -> Metrics {
    let want = simulate(flat, &mut model, SimConfig::default());
    let got = assert_equivalent(make, flat, compressed, what);
    assert_eq!(got, want, "{what}: drifted from the hash-based model");
    got
}

/// [`assert_matches_model`] on one workload's plain trace, plus the
/// pipeline route for `spec`.
fn check_served<M: Policy, P: Policy, F: Fn() -> P>(
    p: &Prepared,
    flat: &Trace,
    model: M,
    make: F,
    spec: PolicySpec,
) {
    let what = format!("{} {}", p.name(), make().label());
    let m = assert_matches_model(model, make, flat, p.plain_trace(), &what);
    assert_eq!(m, p.run_policy(spec), "{what}: pipeline route");
}

#[test]
fn served_baselines_match_their_hash_based_models_on_every_workload() {
    for p in prepared_workloads() {
        let flat = p.plain_trace().to_trace();
        for frames in [2usize, 8, 32] {
            let model = models::Fifo::new(frames);
            let spec = PolicySpec::Fifo { frames };
            check_served(&p, &flat, model, || Fifo::new(frames), spec);
            let model = models::Clock::new(frames);
            let spec = PolicySpec::Clock { frames };
            check_served(&p, &flat, model, || Clock::new(frames), spec);
            let model = models::Opt::for_trace(&flat, frames);
            let spec = PolicySpec::Opt { frames };
            let make = || Opt::for_trace(p.plain_trace(), frames);
            check_served(&p, &flat, model, make, spec);
        }
        for threshold in [10u64, 100, 1000] {
            let model = models::Pff::new(threshold);
            let spec = PolicySpec::Pff { threshold };
            check_served(&p, &flat, model, || Pff::new(threshold), spec);
        }
    }
}

/// Salt for the served-baseline campaigns' own random stream, so the
/// LRU/WS/CD campaigns above keep exactly their cases at every seed.
const BASELINE_SALT: u64 = 0x5eed_ba5e_11e5_0001;

/// One served-baseline case of a seeded campaign: the model and the
/// equivalence drives, the traced observations against the model loop,
/// plus the flat trace's event streams when `traced`.
fn check_campaign<M: Policy, P: Policy + 'static, F: Fn() -> P>(
    model: M,
    make: F,
    flat: &Trace,
    compressed: &CompressedTrace,
    campaign: &str,
    traced: bool,
) {
    let what = format!("{campaign} {}", make().label());
    assert_matches_model(model, &make, flat, compressed, &what);
    let boxed = || Box::new(make()) as Box<dyn Policy>;
    assert_same_observations(boxed, compressed, &what);
    if traced {
        assert_same_events(&make, flat, compressed, &what);
    }
}

#[test]
fn seeded_campaigns_match_the_hash_based_models() {
    let seed = equiv_seed();
    let mut rng = SplitMix64(seed ^ BASELINE_SALT);
    for campaign in 0..500u32 {
        let flat = adversarial_trace(&mut rng);
        let compressed = CompressedTrace::from_trace(&flat);
        let pages = compressed.virtual_pages().max(1) as u64;
        let (c, comp) = (&format!("seed={seed} campaign={campaign}"), &compressed);
        // Every 25th campaign also pins the traced SimEvent streams.
        let traced = campaign % 25 == 0;

        let fifo = 1 + rng.below(pages + 4) as usize;
        let model = models::Fifo::new(fifo);
        check_campaign(model, || Fifo::new(fifo), &flat, comp, c, traced);

        let clock = 1 + rng.below(pages + 4) as usize;
        let model = models::Clock::new(clock);
        check_campaign(model, || Clock::new(clock), &flat, comp, c, traced);

        let opt = 1 + rng.below(pages + 4) as usize;
        let model = models::Opt::for_trace(&flat, opt);
        check_campaign(model, || Opt::for_trace(comp, opt), &flat, comp, c, traced);

        let threshold = 1 + rng.below(300);
        let model = models::Pff::new(threshold);
        check_campaign(model, || Pff::new(threshold), &flat, comp, c, traced);
    }
}
