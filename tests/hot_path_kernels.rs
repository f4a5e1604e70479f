//! Property tests for the hot-path simulator kernels, run end-to-end on
//! every reproduced workload (the synthetic-trace properties live next
//! to each kernel in `cdmm-vmsim`/`cdmm-trace`):
//!
//! - the run-length-compressed trace representation is lossless, and
//!   simulating straight off the compressed form yields byte-identical
//!   `Metrics` for CD, LRU, and WS;
//! - the Fenwick-tree stack-distance pass agrees with the naive
//!   move-to-front definition (`cdmm_oracle::stack::NaiveProfile`) at
//!   every allocation, on every workload and on seeded random,
//!   structured and run-compressed synthetic traces.

use cdmm_oracle::stack::NaiveProfile;
use cdmm_oracle::{prepared_workloads, simulate};
use cdmm_trace::{synth, CompressedTrace, PageId, Trace};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::policy::ws::WorkingSet;
use cdmm_vmsim::stack::StackProfile;
use cdmm_vmsim::SimConfig;

#[test]
fn compressed_roundtrip_is_lossless_on_every_workload() {
    for p in prepared_workloads() {
        for (kind, c) in [("plain", p.plain_trace()), ("cd", p.cd_trace())] {
            let t = c.to_trace();
            let back = CompressedTrace::from_trace(&t);
            assert_eq!(
                &back,
                c,
                "{} {kind}: decompress→recompress drifted",
                p.name()
            );
            let streamed: Vec<PageId> = c.iter_refs().collect();
            let direct: Vec<PageId> = t.refs().collect();
            assert_eq!(streamed, direct, "{} {kind}: ref sequence", p.name());
            assert_eq!(c.ref_count(), t.ref_count(), "{} {kind}", p.name());
            assert_eq!(
                c.distinct_pages(),
                t.distinct_pages(),
                "{} {kind}",
                p.name()
            );
        }
    }
}

#[test]
fn compressed_and_plain_simulation_metrics_are_identical() {
    let cfg = SimConfig::default();
    for p in prepared_workloads() {
        let plain = p.plain_trace().to_trace();
        let cd_plain = p.cd_trace().to_trace();

        let mut a = CdPolicy::new(CdSelector::Outermost).with_min_alloc(2);
        let mut b = CdPolicy::new(CdSelector::Outermost).with_min_alloc(2);
        assert_eq!(
            simulate(p.cd_trace(), &mut a, cfg),
            simulate(&cd_plain, &mut b, cfg),
            "{}: CD metrics diverge on compressed input",
            p.name()
        );
        for frames in [2, 8, 32] {
            assert_eq!(
                simulate(p.plain_trace(), &mut Lru::new(frames), cfg),
                simulate(&plain, &mut Lru::new(frames), cfg),
                "{}: LRU({frames}) metrics diverge on compressed input",
                p.name()
            );
        }
        for tau in [100, 2_000] {
            assert_eq!(
                simulate(p.plain_trace(), &mut WorkingSet::new(tau), cfg),
                simulate(&plain, &mut WorkingSet::new(tau), cfg),
                "{}: WS(τ={tau}) metrics diverge on compressed input",
                p.name()
            );
        }
    }
}

#[test]
fn stack_profile_matches_naive_oracle_on_every_workload() {
    for p in prepared_workloads() {
        let prof = StackProfile::compute(p.plain_trace());
        let plain = p.plain_trace().to_trace();
        let naive = NaiveProfile::compute(&plain);
        assert_eq!(prof.refs(), plain.ref_count(), "{}", p.name());
        assert_eq!(
            prof.distinct(),
            plain.distinct_pages() as usize,
            "{}",
            p.name()
        );
        for m in [
            1,
            2,
            3,
            5,
            8,
            13,
            21,
            34,
            prof.distinct(),
            prof.distinct() + 5,
        ] {
            assert_eq!(
                prof.faults_at(m),
                naive.faults_at(m),
                "{}: profile disagrees with move-to-front at m={m}",
                p.name()
            );
        }
    }
}

#[test]
fn tree_profile_equals_naive_oracle_on_random_traces() {
    for seed in 0..8 {
        // Few pages and many refs forces heavy slot compaction.
        let t = synth::uniform(5 + (seed as u32 % 40), 4_000, seed);
        assert_eq!(
            StackProfile::compute(&t),
            NaiveProfile::compute(&t),
            "seed={seed}"
        );
    }
    for (pages, len) in [(1, 500), (3, 1), (100, 100), (64, 10_000)] {
        let t = synth::uniform(pages, len, 42);
        assert_eq!(StackProfile::compute(&t), NaiveProfile::compute(&t));
    }
}

#[test]
fn tree_profile_equals_naive_oracle_on_structured_traces() {
    for t in [
        synth::cyclic(12, 40),
        synth::cyclic(1, 100),
        synth::phased(
            &[
                synth::Phase {
                    base: 0,
                    pages: 8,
                    refs: 200,
                },
                synth::Phase {
                    base: 8,
                    pages: 5,
                    refs: 150,
                },
            ],
            3,
        ),
        synth::nested_loops(6, 4, 10, 2),
    ] {
        assert_eq!(StackProfile::compute(&t), NaiveProfile::compute(&t));
    }
}

#[test]
fn run_level_tree_equals_naive_oracle_on_compressed_traces() {
    use cdmm_trace::Event;
    // Seeded SplitMix64 run generator: constant-stride runs over a
    // deliberately small page universe so the tree pass is forced
    // through slot compaction many times, interleaved with stride-0
    // spans that exercise the batched histogram path.
    for seed in 0..12u64 {
        let mut rng = synth::SplitMix64::new(synth::GAMMA.wrapping_mul(seed + 1));
        let mut next = move || rng.next_u64();
        let pages = 4 + (next() % 28) as u32;
        let mut events = Vec::new();
        for _ in 0..200 {
            let start = (next() % pages as u64) as i64;
            let stride = (next() % 7) as i64 - 3; // -3..=3, 0 included
            let len = 1 + (next() % 60) as u32;
            let mut p = start;
            for _ in 0..len {
                events.push(Event::Ref(PageId(p.rem_euclid(pages as i64) as u32)));
                p += stride;
            }
        }
        let t = Trace::from_events(events);
        let c = CompressedTrace::from_trace(&t);
        let naive = NaiveProfile::compute(&t);
        assert_eq!(StackProfile::compute(&c), naive, "compressed, seed={seed}");
        assert_eq!(StackProfile::compute(&t), naive, "flat, seed={seed}");
    }
}

#[test]
fn stride_zero_spans_keep_compaction_honest() {
    use cdmm_trace::Event;
    // Two pages, long repeat spans: per-ref this consumes a slot per
    // reference and compacts constantly; run-level it must produce
    // the identical profile from two tree steps per alternation.
    let mut events = Vec::new();
    for i in 0..400u32 {
        let page = i % 2;
        for _ in 0..50 {
            events.push(Event::Ref(PageId(page)));
        }
    }
    // A length-1 tail run straddling the alternation pattern.
    events.push(Event::Ref(PageId(7)));
    let t = Trace::from_events(events);
    let c = CompressedTrace::from_trace(&t);
    let naive = NaiveProfile::compute(&t);
    assert_eq!(StackProfile::compute(&c), naive);
    assert_eq!(StackProfile::compute(&t), naive);
    assert_eq!(naive.faults_at(2), 3, "pages 0 and 1 cold-fault, then 7");
}
