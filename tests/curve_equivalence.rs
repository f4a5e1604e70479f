//! The one-pass curve-kernel gate: [`LruCurve`] and [`WsCurve`] answer
//! *every* memory-size / window point of a trace from a single pass,
//! and each answer must be **byte-identical** to simulating that point
//! with the per-reference policy — same faults, same integrals, same
//! `Metrics` down to the bit — on every reproduced workload and on a
//! seeded adversarial trace generator.
//!
//! This is the property the sweep engine's kernel dispatch
//! (`cdmm_core::sweep::SweepPlan`) rests on: LRU obeys Mattson's
//! inclusion property (so one stack-distance pass orders all
//! allocations), and a WS fault/eviction is a pure function of
//! inter-reference gaps versus the window (so one gap pass orders all
//! windows). Memory directives are no-ops to both policies, which the
//! directive-bearing adversarial traces check explicitly.
//!
//! The Table 3/4 match searches are held to the per-point searches in
//! `cdmm_oracle::search`, which simulate every probe, and both curves to
//! per-reference simulation on synthetic traces at the kernels'
//! extremes.
//!
//! The generator (SplitMix64, seed from `CDMM_EQUIV_SEED`, default 42)
//! aims at the kernels' seams: non-unit and negative strides, strides
//! past the page universe, stride-0 dwells longer than the WS window,
//! verbatim-repeated loop windows that compress into `COp::Cycle`, and
//! directive traffic interleaved with the references.

use cdmm_core::sweep::{self, Executor, ResultCache, SweepPlan};
use cdmm_core::{prepare, PipelineConfig, PolicySpec, Prepared};
use cdmm_lang::ast::AllocArg;
use cdmm_oracle::search::{lru_match_pf_sim, ws_match_mem_sim, ws_match_pf_sim};
use cdmm_oracle::{equiv_seed, prepared_workloads, simulate, SplitMix64};
use cdmm_trace::{
    synth, CancelToken, CompressedTrace, Event, EventSource, PageId, PageRange, Trace,
};
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::policy::ws::WorkingSet;
use cdmm_vmsim::{simulate_with, LruCurve, Metrics, NullTracer, Policy, SimConfig, WsCurve};
use cdmm_workloads::{all, by_name, Scale};

/// The allocation grid a workload's LRU curve is checked at: small,
/// mid, and the clamp/saturation edges (`m = 0` clamps to 1, `m > V`
/// saturates at the distinct-page count).
fn lru_grid(p: &Prepared) -> Vec<usize> {
    let v = p.virtual_pages() as usize;
    vec![1, 2, 3, 5, 8, 16, 32, v.max(1), v + 3]
}

/// The window grid a WS curve is checked at, including `τ = 0` (the
/// kernel clamps to 1, matching the simulator's minimum window) and a
/// window past the trace length (pure cold faults).
fn ws_grid(p: &Prepared) -> Vec<u64> {
    let r = p.plain_trace().ref_count();
    vec![1, 2, 5, 17, 100, 512, 2000, 5000, r + 7]
}

#[test]
fn lru_curve_matches_simulation_on_every_workload() {
    for p in prepared_workloads() {
        let fs = p.config().fault_service;
        let curve = LruCurve::compute(p.plain_trace());
        for m in lru_grid(&p) {
            let kernel = curve.metrics_at(m, fs);
            let sim = p.run_policy(PolicySpec::Lru { frames: m.max(1) });
            assert_eq!(kernel, sim, "{} LRU(m={m})", p.name());
            assert_eq!(
                kernel.faults,
                curve.faults_at(m),
                "{} faults_at({m})",
                p.name()
            );
        }
    }
}

#[test]
fn ws_curve_matches_simulation_on_every_workload() {
    for p in prepared_workloads() {
        let fs = p.config().fault_service;
        let curve = WsCurve::compute(p.plain_trace());
        for tau in ws_grid(&p) {
            let kernel = curve.metrics_at(tau, fs);
            let sim = p.run_policy(PolicySpec::Ws { tau });
            assert_eq!(kernel, sim, "{} WS(tau={tau})", p.name());
            assert_eq!(
                kernel.faults,
                curve.faults_at(tau),
                "{} faults_at({tau})",
                p.name()
            );
            assert_eq!(
                kernel.mean_mem().to_bits(),
                curve.mean_mem_at(tau).to_bits(),
                "{} mean_mem_at({tau})",
                p.name()
            );
        }
    }
}

/// The sweep engine's kernel dispatch must agree with its own per-point
/// fallback: the same sweeps with `SweepPlan` and with per-point
/// simulation (a disabled cache forces fresh work on both sides).
#[test]
fn sweep_plan_matches_per_point_sweeps_on_every_workload() {
    let exec = Executor::serial();
    for p in prepared_workloads() {
        let cache = ResultCache::disabled();
        let plan = SweepPlan::new(&cache, &p);
        let lru_params: Vec<u64> = sweep::full_lru_range(&p).map(|m| m as u64).collect();
        let kernel = plan.lru_grid(&exec, &plan.lru_curve(), &lru_params);
        for pt in &kernel {
            assert_eq!(
                pt.metrics,
                p.run_policy(PolicySpec::Lru {
                    frames: pt.param as usize
                }),
                "{} LRU sweep",
                p.name()
            );
        }
        let taus = sweep::ws_tau_grid(&p, 8);
        let kernel = plan.ws_grid(&exec, &plan.ws_curve(), &taus);
        for pt in &kernel {
            assert_eq!(
                pt.metrics,
                p.run_policy(PolicySpec::Ws { tau: pt.param }),
                "{} WS sweep",
                p.name()
            );
        }
    }
}

/// Builds one adversarial trace from the campaign's random stream:
/// plain references at kernel-hostile strides plus directive traffic
/// the LRU/WS policies must ignore (and the curve kernels must skip
/// identically).
fn adversarial_trace(rng: &mut SplitMix64) -> Trace {
    let pages = 4 + rng.below(60) as u32;
    let ops = 30 + rng.below(70);
    let mut events: Vec<Event> = Vec::new();
    for _ in 0..ops {
        match rng.below(10) {
            0..=3 => {
                // A constant-stride run: stride 0, negative, unit, and
                // past-the-universe strides all appear.
                let stride = match rng.below(8) {
                    0 => 0i64,
                    1 => -(1 + rng.below(4) as i64),
                    2 => pages as i64 + 1 + rng.below(9) as i64,
                    3 => -(pages as i64) - 2,
                    4 => 2 + rng.below(5) as i64,
                    _ => 1i64,
                };
                let len = 1 + rng.below(90);
                let base = rng.below(pages as u64) as i64;
                let lowest = base + stride.min(0) * (len as i64 - 1);
                let start = if lowest < 0 { base - lowest } else { base };
                let mut page = start;
                for _ in 0..len {
                    events.push(Event::Ref(PageId(page as u32)));
                    page += stride;
                }
            }
            4 => {
                // Length-1 run far from the rest of the universe.
                events.push(Event::Ref(PageId(rng.below(5 * pages as u64) as u32)));
            }
            5 => {
                // Directive noise: ALLOCATE (a no-op to LRU/WS).
                let args = (1..=1 + rng.below(3))
                    .map(|pi| AllocArg {
                        pi: pi as u32,
                        pages: 1 + rng.below(1 + pages as u64 / 2),
                    })
                    .collect();
                events.push(Event::Alloc(args));
            }
            6 => {
                // Directive noise: LOCK/UNLOCK pairs (also no-ops).
                let a = rng.below(pages as u64) as u32;
                let range = PageRange {
                    start: a,
                    end: a + 1 + rng.below(5) as u32,
                };
                events.push(Event::Lock {
                    pj: 1 + rng.below(4) as u32,
                    ranges: vec![range],
                });
                if rng.below(2) == 0 {
                    events.push(Event::Unlock {
                        ranges: vec![range],
                    });
                }
            }
            7 => {
                // A stride-0 dwell longer than small WS windows.
                let page = PageId(rng.below(pages as u64) as u32);
                for _ in 0..1 + rng.below(150) {
                    events.push(Event::Ref(page));
                }
            }
            _ => {
                // A loop cycle: a 1–4-run window repeated verbatim so
                // compression folds it into `COp::Cycle`; bodies are
                // sometimes wider than the page universe.
                let body_runs = 1 + rng.below(4);
                let reps = 3 + rng.below(40);
                let mut body: Vec<(u32, i64, u64)> = Vec::new();
                for _ in 0..body_runs {
                    let stride = match rng.below(5) {
                        0 => 0i64,
                        1 => -1i64,
                        2 => 3i64,
                        _ => 1i64,
                    };
                    let bound = if rng.below(4) == 0 {
                        2 * pages as u64
                    } else {
                        7
                    };
                    let len = 1 + rng.below(bound);
                    let base = rng.below(pages as u64) as i64;
                    let lowest = base + stride.min(0) * (len as i64 - 1);
                    let start = if lowest < 0 { base - lowest } else { base };
                    body.push((start as u32, stride, len));
                }
                for _ in 0..reps {
                    for &(start, stride, len) in &body {
                        let mut page = start as i64;
                        for _ in 0..len {
                            events.push(Event::Ref(PageId(page as u32)));
                            page += stride;
                        }
                    }
                }
            }
        }
    }
    Trace::from_events(events)
}

#[test]
fn seeded_adversarial_curves_are_byte_identical() {
    let seed = equiv_seed();
    let mut rng = SplitMix64(seed);
    let cfg = SimConfig::default();
    for campaign in 0..300u32 {
        let flat = adversarial_trace(&mut rng);
        let compressed = CompressedTrace::from_trace(&flat);
        let pages = compressed.virtual_pages().max(1) as u64;

        // The curves must agree between the flat and compressed forms
        // of the same trace (compression folds cycles the kernels then
        // expand internally).
        let lru_flat = LruCurve::compute(&flat);
        let lru_comp = LruCurve::compute(&compressed);
        let ws_flat = WsCurve::compute(&flat);
        let ws_comp = WsCurve::compute(&compressed);

        for _ in 0..4 {
            let m = 1 + rng.below(pages + 4) as usize;
            let sim = simulate(&flat, &mut Lru::new(m), cfg);
            let what = format!("seed={seed} campaign={campaign} LRU({m})");
            assert_eq!(
                lru_flat.metrics_at(m, cfg.fault_service),
                sim,
                "{what}: flat curve"
            );
            assert_eq!(
                lru_comp.metrics_at(m, cfg.fault_service),
                sim,
                "{what}: compressed curve"
            );
        }

        for _ in 0..4 {
            let tau = 1 + rng.below(400);
            let sim = simulate(&flat, &mut WorkingSet::new(tau), cfg);
            let what = format!("seed={seed} campaign={campaign} WS({tau})");
            assert_eq!(
                ws_flat.metrics_at(tau, cfg.fault_service),
                sim,
                "{what}: flat curve"
            );
            assert_eq!(
                ws_comp.metrics_at(tau, cfg.fault_service),
                sim,
                "{what}: compressed curve"
            );
        }
    }
}

/// The window average `cdmm trace` printed before it read `WsCurve`,
/// kept verbatim as a model: the mean working-set size for a window of
/// `tau` references that counts the current one, averaged over
/// reference time.
fn retired_mean_working_set(trace: &Trace, tau: u64) -> f64 {
    use std::collections::{HashMap, VecDeque};
    if tau == 0 {
        return 0.0;
    }
    let mut last_ref: HashMap<PageId, u64> = HashMap::new();
    let mut expiry: VecDeque<(u64, PageId)> = VecDeque::new();
    let mut size = 0u64;
    let mut acc = 0u64;
    let mut t = 0u64;
    for e in &trace.events {
        let Event::Ref(p) = e else { continue };
        t += 1;
        // Expire pages whose last reference fell out of the window.
        while let Some(&(texp, page)) = expiry.front() {
            if texp + tau <= t {
                expiry.pop_front();
                if last_ref.get(&page) == Some(&texp) {
                    last_ref.remove(&page);
                    size -= 1;
                }
            } else {
                break;
            }
        }
        if last_ref.insert(*p, t).is_none() {
            size += 1;
        }
        expiry.push_back((t, *p));
        acc += size;
    }
    if t == 0 {
        0.0
    } else {
        acc as f64 / t as f64
    }
}

/// `cdmm trace`'s mean working set is `WsCurve`'s mean memory one window
/// below the requested one: the retired estimator counted the current
/// reference inside its window, so its `tau` is the policy's `WS(tau - 1)`.
#[test]
fn ws_curve_reproduces_the_retired_mean_working_set() {
    for scale in [Scale::Small, Scale::Paper] {
        for w in all(scale) {
            let trace = cdmm_trace::trace_program(&w.source, cdmm_locality::PageGeometry::PAPER)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let curve = WsCurve::compute(&trace);
            for tau in [2u64, 10, 100, 1000, 5000] {
                let want = retired_mean_working_set(&trace, tau);
                assert_eq!(
                    curve.mean_mem_at(tau - 1).to_bits(),
                    want.to_bits(),
                    "{} {scale:?} tau={tau}",
                    w.name
                );
            }
        }
    }
}

/// The untraced driver under an idle token.
fn run_level<P: Policy>(c: &CompressedTrace, mut policy: P) -> Metrics {
    let token = CancelToken::new();
    simulate_with(
        c,
        &mut policy,
        SimConfig::default(),
        &mut NullTracer,
        &token,
    )
    .expect("an idle token never stops the run")
}

/// Synthetic traces at the kernels' extremes: cycles of one page and of
/// many, a nested loop, uniform traffic over 5–45 pages, the empty
/// trace, and long stride-0 spans with a straggler page.
fn traces() -> Vec<Trace> {
    let mut out = vec![
        synth::cyclic(12, 40),
        synth::cyclic(1, 100),
        synth::cyclic(64, 10),
        synth::nested_loops(6, 4, 10, 2),
        Trace::default(),
    ];
    for seed in 0..6 {
        out.push(synth::uniform(5 + (seed as u32 % 40), 2_500, seed));
    }
    let mut events = Vec::new();
    for i in 0..200u32 {
        for _ in 0..30 {
            events.push(Event::Ref(PageId(i % 3)));
        }
    }
    events.push(Event::Ref(PageId(7)));
    out.push(Trace::from_events(events));
    out
}

#[test]
fn lru_curve_matches_simulation() {
    for t in traces() {
        let c = CompressedTrace::from_trace(&t);
        for curve in [LruCurve::compute(&t), LruCurve::compute(&c)] {
            let top = curve.distinct().max(1) + 2;
            for m in [1usize, 2, 3, 5, 8, 13, top / 2, top] {
                let m = m.max(1);
                let per_ref = simulate(&t, &mut Lru::new(m), SimConfig::default());
                assert_eq!(per_ref, run_level(&c, Lru::new(m)), "harness: m={m}");
                assert_eq!(curve.metrics_at(m, 2000), per_ref, "kernel: m={m}");
            }
        }
    }
}

#[test]
fn ws_curve_matches_simulation() {
    for t in traces() {
        let c = CompressedTrace::from_trace(&t);
        let r = EventSource::ref_count(&t).max(2);
        for curve in [WsCurve::compute(&t), WsCurve::compute(&c)] {
            for tau in [1u64, 2, 3, 7, 31, r / 3, r, r * 2] {
                let tau = tau.max(1);
                let per_ref = simulate(&t, &mut WorkingSet::new(tau), SimConfig::default());
                let run_level = run_level(&c, WorkingSet::new(tau));
                assert_eq!(per_ref, run_level, "harness: tau={tau}");
                assert_eq!(curve.metrics_at(tau, 2000), per_ref, "kernel: tau={tau}");
                assert_eq!(curve.faults_at(tau), per_ref.faults, "faults: tau={tau}");
                assert_eq!(
                    curve.mem_integral_at(tau),
                    per_ref.mem_integral,
                    "integral: tau={tau}"
                );
            }
        }
    }
}

fn prepared(name: &str) -> Prepared {
    let w = by_name(name, Scale::Small).unwrap();
    prepare(w.name, &w.source, PipelineConfig::default()).unwrap()
}

#[test]
fn match_searches_agree_with_per_point_searches() {
    let p = prepared("FIELD");
    let cache = ResultCache::disabled();
    let plan = SweepPlan::new(&cache, &p);
    let target = 4.0;
    let kernel = plan.ws_match_mem(target);
    let sim = ws_match_mem_sim(&cache, &p, target);
    assert_eq!(kernel.param, sim.param);
    assert_eq!(kernel.metrics, sim.metrics);

    let budget = p.run_policy(PolicySpec::Lru { frames: 4 }).faults;
    let kernel = plan.lru_match_pf(budget);
    let sim = lru_match_pf_sim(&cache, &p, budget);
    assert_eq!((kernel.param, kernel.metrics), (sim.param, sim.metrics));

    let budget = p.plain_trace().distinct_pages() as u64 + 50;
    let kernel = plan.ws_match_pf(budget);
    let sim = ws_match_pf_sim(&cache, &p, budget);
    assert_eq!((kernel.param, kernel.metrics), (sim.param, sim.metrics));
}
