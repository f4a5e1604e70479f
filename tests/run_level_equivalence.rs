//! The run-level execution gate: `simulate_with` under a disabled
//! tracer (one `Policy::reference_run` call per compressed
//! constant-stride run, batch kernels inside) must be *byte-identical*
//! to the per-reference `cdmm_oracle::simulate` — same `Metrics`, same
//! final policy behavior, same `SimEvent` stream where tracing applies —
//! on every reproduced workload, on synthetic phased traces for every
//! paper family, under every `Prepared::run_policy` spec kind, and on an
//! adversarial seeded trace generator.
//!
//! The served baselines — FIFO, Clock, OPT and PFF — are also checked
//! against the hash-based implementations their dense kernels replaced,
//! kept verbatim as independent oracles in `cdmm_oracle::models`.
//!
//! `simulate_with` runs one loop at every tracer level; at `Decisions`
//! and above its kernels decode reference by reference. The
//! per-reference loop it ran there before is kept as a model
//! (`cdmm_oracle::models::per_ref_loop`): at `Decisions` and at
//! `References` the production driver must hand a tracer exactly the
//! model's event stream, clock for clock.
//!
//! A `MetricsRegistry` reads its reference statistics from the batches
//! the run-level kernels hand over. Its snapshot must equal the one the
//! registry's former per-reference event logic builds (kept as
//! `cdmm_oracle::models::PerRefRegistry`), the one the model loop feeds
//! it, and the one a decision- or reference-level run feeds it — on
//! every policy family, workload and scale, and on the seeded
//! campaigns.
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
use cdmm_oracle::models::{self, per_ref_loop, PerRefRegistry};
use cdmm_oracle::{equiv_seed, prepared_workloads, simulate, SplitMix64};
use cdmm_trace::{synth, CompressedTrace, Event, EventSource, PageId, PageRange, Trace};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::clock::Clock;
use cdmm_vmsim::policy::fifo::Fifo;
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::policy::opt::Opt;
use cdmm_vmsim::policy::pff::Pff;
use cdmm_vmsim::policy::ws::WorkingSet;
use cdmm_vmsim::{
    simulate_with, CancelToken, Detail, EventLog, Metrics, MetricsRegistry, NullTracer, Policy,
    RefBatch, RegistrySnapshot, SimConfig, SimEvent, Tee, TimedEvent, Tracer,
};
use cdmm_workloads::{all, Scale};

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
    let mut per_ref = PerRefRegistry::default();
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

/// The untraced production path under an idle token.
fn run_level<S: EventSource + ?Sized, P: Policy + ?Sized>(trace: &S, policy: &mut P) -> Metrics {
    drive(trace, policy, &mut NullTracer)
}

fn two_phases(refs: usize, seed: u64) -> Trace {
    synth::phased(
        &[
            synth::Phase {
                base: 0,
                pages: 6,
                refs,
            },
            synth::Phase {
                base: 6,
                pages: 3,
                refs,
            },
        ],
        seed,
    )
}

#[test]
fn traced_run_metrics_match_untraced() {
    // Tracing must observe the run without altering it, for every
    // policy family.
    let t = two_phases(400, 9);
    let token = CancelToken::new();
    let cfg = SimConfig::default();
    let plain = simulate(&t, &mut Lru::new(4), cfg);
    let mut log = EventLog::new(4096).with_detail(Detail::References);
    let traced = simulate_with(&t, &mut Lru::new(4), cfg, &mut log, &token);
    assert_eq!(traced, Ok(plain));
    assert!(!log.is_empty());

    let plain = simulate(&t, &mut WorkingSet::new(50), cfg);
    let mut log = EventLog::new(4096);
    let traced = simulate_with(&t, &mut WorkingSet::new(50), cfg, &mut log, &token);
    assert_eq!(traced, Ok(plain));
}

#[test]
fn run_level_matches_per_ref_for_every_policy_family() {
    let t = two_phases(400, 9);
    let c = CompressedTrace::from_trace(&t);
    let cfg = SimConfig::default();

    let per_ref = simulate(&t, &mut Lru::new(4), cfg);
    assert_eq!(per_ref, run_level(&c, &mut Lru::new(4)), "LRU");

    let per_ref = simulate(&t, &mut WorkingSet::new(50), cfg);
    assert_eq!(per_ref, run_level(&c, &mut WorkingSet::new(50)), "WS");

    let per_ref = simulate(&t, &mut CdPolicy::new(CdSelector::Innermost), cfg);
    let cd = run_level(&c, &mut CdPolicy::new(CdSelector::Innermost));
    assert_eq!(per_ref, cd, "CD");
}

#[test]
fn run_level_on_a_flat_trace_degenerates_to_simulate() {
    let t = synth::uniform(12, 2_000, 3);
    let per_ref = simulate(&t, &mut Lru::new(6), SimConfig::default());
    assert_eq!(per_ref, run_level(&t, &mut Lru::new(6)));
}

#[test]
fn run_policy_matches_the_per_reference_driver() {
    let w = cdmm_workloads::by_name("MAIN", Scale::Small).expect("built-in workload");
    let p = prepare(w.name, &w.source, PipelineConfig::default()).expect("MAIN compiles");
    for spec in [
        PolicySpec::Cd {
            selector: CdSelector::Outermost,
        },
        PolicySpec::CdNoLocks {
            selector: CdSelector::Innermost,
        },
        PolicySpec::Lru { frames: 8 },
        PolicySpec::Ws { tau: 500 },
        PolicySpec::Opt { frames: 8 },
    ] {
        let trace = if spec.uses_directives() {
            p.cd_trace()
        } else {
            p.plain_trace()
        };
        let config = SimConfig {
            fault_service: p.config().fault_service,
        };
        let per_ref = simulate(trace, p.build_policy(spec).as_mut(), config);
        assert_eq!(p.run_policy(spec), per_ref, "{spec:?}");
    }
}
