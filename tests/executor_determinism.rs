//! Property tests for the parallel sweep executor and the
//! content-addressed result cache.
//!
//! Three guarantees pinned here:
//! 1. the executor's merge order depends only on job order, never on
//!    completion order or thread count;
//! 2. a cache hit returns metrics bit-identical to recomputing the
//!    point, including after a flush/reopen round trip through disk;
//! 3. a corrupted or tampered cache file is discarded and the point is
//!    recomputed — stale bytes are never trusted.

use std::path::PathBuf;

use cdmm_core::sweep::cache::{decode_line, encode_line};
use cdmm_core::sweep::{spec_key, SweepPlan};
use cdmm_core::{prepare, CacheKey, Executor, PipelineConfig, PolicySpec, Prepared, ResultCache};
use cdmm_trace::synth::SplitMix64;
use cdmm_vmsim::{CancelToken, Metrics, NullTracer};
use cdmm_workloads::{by_name, Scale};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cdmm-exec-determinism-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn prepared(name: &str) -> Prepared {
    let w = by_name(name, Scale::Small).unwrap();
    prepare(w.name, &w.source, PipelineConfig::default()).unwrap()
}

/// One memoized point through the plan, untraced under an idle token.
fn untraced(plan: &SweepPlan<'_>, spec: PolicySpec) -> Metrics {
    plan.point(spec, &mut NullTracer, &CancelToken::new())
        .expect("an idle token never stops a run")
}

fn random_metrics(rng: &mut SplitMix64) -> Metrics {
    Metrics {
        refs: rng.next_u64() >> 20,
        faults: rng.next_u64() >> 40,
        mem_integral: u128::from(rng.next_u64()) << 32 | u128::from(rng.next_u64() >> 32),
        fault_mem_integral: u128::from(rng.next_u64()),
        fault_service: rng.next_u64() >> 48,
        peak_resident: (rng.next_u64() >> 50) as usize,
        recovered_directives: rng.next_u64() >> 58,
        degraded_refs: rng.next_u64() >> 44,
    }
}

fn random_key(rng: &mut SplitMix64) -> CacheKey {
    CacheKey {
        hi: rng.next_u64(),
        lo: rng.next_u64(),
    }
}

/// Merge order must reflect job order regardless of thread count or
/// per-job runtime. Jobs get deliberately uneven workloads so fast jobs
/// finish before slow earlier ones.
#[test]
fn merge_order_is_job_order_for_random_grids() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(0xD5EA_D00D ^ seed);
        let n = 1 + (rng.next_u64() % 120) as usize;
        let jobs: Vec<u64> = (0..n).map(|_| rng.next_u64() % 5_000).collect();
        let work = |i: usize, spin: &u64| {
            // Uneven busy loop: completion order != submission order.
            let mut acc = *spin;
            for _ in 0..(*spin % 997) {
                acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7);
            }
            (i as u64) ^ (acc & 0xFF)
        };
        let expected = Executor::serial().map(&jobs, work);
        for threads in [2, 3, 8] {
            let got = Executor::with_threads(threads).map(&jobs, work);
            assert_eq!(got, expected, "seed={seed} n={n} threads={threads}");
        }
    }
}

/// A hit served from a reopened on-disk cache must equal a fresh
/// simulation of the same point, bit for bit.
#[test]
fn cache_round_trip_equals_recompute() {
    let dir = temp_dir("roundtrip");
    let p = prepared("FIELD");
    let frames = [3usize, 5, 9];

    let cold = ResultCache::at_dir(&dir).unwrap();
    let lru = |frames| PolicySpec::Lru { frames };
    let plan = SweepPlan::new(&cold, &p);
    let fresh: Vec<Metrics> = frames.iter().map(|&f| untraced(&plan, lru(f))).collect();
    assert_eq!(cold.stats().cache_misses, frames.len() as u64);
    cold.flush().unwrap();
    drop(cold);

    let warm = ResultCache::at_dir(&dir).unwrap();
    assert_eq!(warm.discarded_entries(), 0);
    for (&f, want) in frames.iter().zip(&fresh) {
        let hit = warm
            .lookup(spec_key(&p, lru(f)))
            .expect("point persisted by the cold run");
        assert_eq!(hit, *want, "cached metrics drifted for frames={f}");
        // And the hit equals a from-scratch simulation, not just the
        // stored copy of one.
        assert_eq!(hit, p.run_policy(lru(f)));
    }
    assert_eq!(warm.stats().cache_hits, frames.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// encode/decode round-trips random metrics exactly, including the
/// u128 integrals that JSON numbers cannot carry.
#[test]
fn cache_lines_round_trip_random_metrics() {
    let mut rng = SplitMix64::new(0xC0FF_EE00);
    for _ in 0..500 {
        let key = random_key(&mut rng);
        let m = random_metrics(&mut rng);
        let line = encode_line(key, &m);
        let (k2, m2) = decode_line(&line).expect("self-encoded line decodes");
        assert_eq!(k2, key);
        assert_eq!(m2, m);
    }
}

/// Any single-character corruption of a cache line must be rejected by
/// the checksum (or the parser), never decoded into different metrics.
#[test]
fn tampered_lines_never_decode_to_different_metrics() {
    let mut rng = SplitMix64::new(0xBAD_F00D);
    for _ in 0..60 {
        let key = random_key(&mut rng);
        let m = random_metrics(&mut rng);
        let line = encode_line(key, &m);
        let bytes = line.as_bytes();
        let pos = (rng.next_u64() as usize) % bytes.len();
        let mut mutated = bytes.to_vec();
        // Flip to a different alphanumeric byte so the line stays
        // superficially well-formed.
        mutated[pos] = if mutated[pos] == b'7' { b'3' } else { b'7' };
        if mutated == bytes {
            continue;
        }
        let mutated = String::from_utf8(mutated).unwrap();
        if let Some((k2, m2)) = decode_line(&mutated) {
            // The only acceptable decode is the original value (the
            // flipped byte was outside every significant field).
            assert_eq!((k2, m2), (key, m), "corrupt line decoded: {mutated}");
        }
    }
}

/// A poisoned cache file on disk is quarantined at load: corrupt lines
/// are counted and dropped, lookups miss, and the recomputed metrics
/// match a clean simulation.
#[test]
fn poisoned_cache_file_is_discarded_and_recomputed() {
    let dir = temp_dir("poisoned");
    let p = prepared("INIT");
    let spec = PolicySpec::Lru { frames: 4 };
    let key = spec_key(&p, spec);
    let truth = p.run_policy(spec);

    // Seed the cache with one valid entry, then vandalise the file.
    let cache = ResultCache::at_dir(&dir).unwrap();
    cache.insert(key, truth);
    cache.flush().unwrap();
    drop(cache);

    let file = dir.join("results.jsonl");
    let good = std::fs::read_to_string(&file).unwrap();
    let tampered = good.replace("\"refs\":", "\"refs\":9");
    assert_ne!(good, tampered, "tamper step must change the line");
    let poisoned = format!("{tampered}not json at all\n{{\"v\":99,\"k\":\"zz\"}}\n");
    std::fs::write(&file, poisoned).unwrap();

    let reopened = ResultCache::at_dir(&dir).unwrap();
    assert!(
        reopened.discarded_entries() >= 3,
        "all three poisoned lines must be dropped, got {}",
        reopened.discarded_entries()
    );
    assert!(reopened.lookup(key).is_none(), "tampered entry was trusted");

    // The memoized path recomputes and the result matches ground truth.
    assert_eq!(untraced(&SweepPlan::new(&reopened, &p), spec), truth);
    assert_eq!(reopened.stats().cache_misses, 2); // explicit lookup + memoized miss
    let _ = std::fs::remove_dir_all(&dir);
}
