//! Chaos suite: seeded fault-injection campaigns over every workload.
//!
//! Each campaign perturbs an instrumented directive stream with the
//! [`DirectiveFuzzer`] and drives the hardened CD policy over the
//! result. The invariants:
//!
//! - no panic, ever — malformed directives are clamped or discarded;
//! - the reference string is conserved (the fuzzer only touches
//!   directives);
//! - mean memory never exceeds the program's virtual space;
//! - the fleet scheduler terminates on fuzzed streams;
//! - a corrupted run degrades *toward* LRU behavior, never below the
//!   cold-fault floor, and reports its recoveries.
//!
//! Campaign count defaults to 1000 and can be overridden with the
//! `CHAOS_CAMPAIGNS` environment variable (CI runs a smoke subset).

use cdmm_oracle::{prepared_workloads, simulate};
use cdmm_trace::validate::DirectiveFuzzer;
use cdmm_trace::{CompressedTrace, Event, PageId, Trace};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::{
    run_fleet, Admission, CancelToken, FleetConfig, Metrics, NullTracer, SimConfig, TenantSpec,
};

/// Campaign count, honoring the `CHAOS_CAMPAIGNS` override.
fn campaigns(default: usize) -> usize {
    std::env::var("CHAOS_CAMPAIGNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// Runs the hardened CD policy over a (possibly corrupted) trace.
fn run_hardened(trace: &Trace, virtual_pages: u32, degrade_after: Option<u64>) -> Metrics {
    let mut cd = CdPolicy::new(CdSelector::Outermost)
        .with_min_alloc(2)
        .with_virtual_pages(Some(virtual_pages))
        .with_degrade_after(degrade_after);
    simulate(trace, &mut cd, SimConfig::default())
}

#[test]
fn seeded_campaigns_survive_without_panics() {
    let preps = prepared_workloads();
    let n = campaigns(1000);
    for seed in 0..n as u64 {
        let p = &preps[seed as usize % preps.len()];
        let clean = p.cd_trace().to_trace();
        let report = DirectiveFuzzer::new(seed)
            .with_injections(1 + (seed % 5) as usize)
            .fuzz(&clean);
        // Conservation: the fuzzer must not touch the reference string.
        assert_eq!(
            report.trace.ref_count(),
            clean.ref_count(),
            "seed {seed}: reference count disturbed"
        );
        if seed % 50 == 0 {
            let a: Vec<PageId> = report.trace.refs().collect();
            let b: Vec<PageId> = clean.refs().collect();
            assert_eq!(a, b, "seed {seed}: reference string disturbed");
        }
        let vp = p.virtual_pages();
        let m = run_hardened(&report.trace, vp, Some(4));
        assert_eq!(
            m.refs,
            clean.ref_count(),
            "seed {seed}: refs not all driven"
        );
        // Degrading toward LRU never goes below the cold-fault floor,
        // and a demand policy faults at most once per reference.
        let cold = u64::from(report.trace.distinct_pages());
        assert!(
            m.faults >= cold,
            "seed {seed}: {} faults < cold {cold}",
            m.faults
        );
        assert!(m.faults <= m.refs, "seed {seed}: more faults than refs");
        // Clamped directives keep the resident set inside the virtual
        // space at all times.
        assert!(
            m.mean_mem() <= f64::from(vp) + 1e-9,
            "seed {seed}: mean mem {} exceeds virtual space {vp}",
            m.mean_mem()
        );
    }
}

#[test]
fn multiprogramming_terminates_on_fuzzed_streams() {
    let preps = prepared_workloads();
    let n = campaigns(1000) / 20;
    for seed in 0..n.max(5) as u64 {
        let tenants: Vec<TenantSpec> = (0..3)
            .map(|i| {
                let p = &preps[(seed as usize + i) % preps.len()];
                let fuzzed = DirectiveFuzzer::new(seed * 31 + i as u64)
                    .with_injections(3)
                    .fuzz(&p.cd_trace().to_trace());
                TenantSpec {
                    name: format!("{}-{i}", p.name()),
                    trace: CompressedTrace::from_trace(&fuzzed.trace),
                    engine: Box::new(CdPolicy::new(CdSelector::FirstFit).with_min_alloc(2)),
                    arrival: 0,
                }
            })
            .collect();
        let expected: u64 = tenants.iter().map(|t| t.trace.ref_count()).sum();
        let r = run_fleet(
            tenants,
            FleetConfig {
                frames_per_cell: 12,
                tenants_per_cell: 3,
                admission: Admission::Free,
                ..FleetConfig::default()
            },
            &mut NullTracer,
            None,
            &CancelToken::new(),
        )
        .expect("fuzzed fleet must run");
        // Termination with every reference driven: no deadlock, no
        // starved tenant.
        assert!(r.makespan > 0, "seed {seed}: empty makespan");
        let driven: u64 = r.tenants.iter().map(|t| t.metrics.refs).sum();
        assert_eq!(driven, expected, "seed {seed}: lost references");
        for t in &r.tenants {
            assert!(t.finished_at > 0, "seed {seed}: {} never finished", t.name);
        }
    }
}

/// The acceptance gate: a corrupted-directive run must report nonzero
/// `recovered_directives` and land within 10% of an equal-memory LRU
/// baseline — degraded CD *is* LRU, so corrupt guidance costs bounded
/// slowdown, not a crash.
#[test]
fn corrupted_run_degrades_to_lru_equivalent() {
    for p in prepared_workloads() {
        let base = p.cd_trace().to_trace();
        let mut events = base.events;
        // Corrupt the stream before the first reference: an empty
        // ALLOCATE is discarded, counted, and (with the threshold at 1)
        // trips degradation immediately.
        events.insert(0, Event::Alloc(vec![]));
        let corrupted = Trace {
            events,
            virtual_pages: base.virtual_pages,
        };
        let cd = run_hardened(&corrupted, p.virtual_pages(), Some(1));
        assert!(
            cd.recovered_directives >= 1,
            "{}: corruption not counted",
            p.name()
        );
        assert!(cd.degraded_refs > 0, "{}: never degraded", p.name());

        // Equal-memory LRU baseline.
        let frames = (cd.mean_mem().round() as usize).max(1);
        let mut lru = Lru::new(frames);
        let base = simulate(p.plain_trace(), &mut lru, SimConfig::default());
        assert!(
            cd.faults as f64 <= 1.1 * base.faults as f64,
            "{}: degraded CD {} faults vs LRU({frames}) {}",
            p.name(),
            cd.faults,
            base.faults
        );
        // Never below the cold floor (LRU's own lower bound).
        assert!(cd.faults >= u64::from(p.plain_trace().distinct_pages()));
    }
}

/// Recoveries below the degradation threshold must leave the policy in
/// directive-driven mode; reaching it must flip to LRU mode.
#[test]
fn degradation_ladder_is_threshold_gated() {
    let preps = prepared_workloads();
    let p = &preps[0];
    let report = DirectiveFuzzer::new(99)
        .with_injections(10)
        .fuzz(&p.cd_trace().to_trace());

    let strict = run_hardened(&report.trace, p.virtual_pages(), Some(1));
    let lenient = run_hardened(&report.trace, p.virtual_pages(), None);
    // The lenient policy clamps forever: same stream, no degraded refs.
    assert_eq!(lenient.degraded_refs, 0);
    // Both drive the full reference string regardless.
    assert_eq!(strict.refs, lenient.refs);
}
