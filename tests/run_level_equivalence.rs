//! The run-level execution gate: `simulate_with` under a disabled
//! tracer (one `Policy::reference_run` call per compressed
//! constant-stride run, batch kernels inside) must be *byte-identical*
//! to the per-reference `simulate` — same `Metrics`, same final policy behavior, same `SimEvent`
//! stream where tracing applies — on every reproduced workload and on
//! an adversarial seeded trace generator.
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
use cdmm_trace::{CompressedTrace, Event, PageId, PageRange, Trace};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::policy::ws::WorkingSet;
use cdmm_vmsim::{
    simulate, simulate_with, CancelToken, Detail, EventLog, Metrics, NullTracer, Policy, SimConfig,
    TimedEvent, Tracer,
};
use cdmm_workloads::{all, Scale};

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
fn drive<S: cdmm_trace::EventSource + ?Sized, P: Policy>(
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

/// Asserts the traced event streams (and metrics) agree between the
/// flat and compressed forms of the same trace. Run-level execution is
/// untraced by design — kernels fall back per-ref under tracing — so
/// this pins the stream the fallback must reproduce.
fn assert_same_events<P: Policy, F: Fn() -> P>(
    make: F,
    flat: &Trace,
    compressed: &CompressedTrace,
    what: &str,
) {
    let mut log_flat = EventLog::new(1 << 15).with_detail(Detail::References);
    let m_flat = drive(flat, &mut make(), &mut log_flat);
    let mut log_comp = EventLog::new(1 << 15).with_detail(Detail::References);
    let m_comp = drive(compressed, &mut make(), &mut log_comp);
    assert_eq!(m_flat, m_comp, "{what}: traced metrics drifted");
    let a: Vec<TimedEvent> = log_flat.events().copied().collect();
    let b: Vec<TimedEvent> = log_comp.events().copied().collect();
    assert_eq!(a, b, "{what}: SimEvent streams drifted");
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
