//! Parameter sweeps and operating-point matching.
//!
//! The paper compares the single operating point CD produces against the
//! families LRU (one point per allocation) and WS (one point per window):
//!
//! - Table 2 compares *minimal ST* over each family.
//! - Table 3 matches the *average memory* of CD and compares PF and ST.
//! - Table 4 matches the *fault count* of CD and compares MEM and ST.
//!
//! This module provides those searches. LRU fault counts come from a
//! single stack-distance pass where possible; WS searches exploit the
//! monotonicity of faults and mean memory in the window `τ`.
//!
//! Sweeps run through two engine pieces:
//!
//! - [`Executor`] (the workspace's one thread pool, defined in
//!   `cdmm_vmsim::executor`) spreads the point grid over scoped worker
//!   threads and merges results in deterministic parameter order;
//! - [`ResultCache`] memoizes each `(program, policy, parameter)` point
//!   under a content-addressed key, optionally persisted under
//!   `target/cdmm-cache/`.
//!
//! [`SweepPlan`] is the one entry point: every LRU/WS sweep, matching
//! search and memoized point goes through a plan over one program and
//! one cache, and callers pass the executor to its grid methods. Sweeps
//! and searches are answered by the one-pass curve kernels — one trace
//! pass per program per family instead of one simulation per point,
//! with byte-identical results (see the [`plan`] module docs). Per-point
//! [`Prepared::run_policy`] is the reference the curve-equivalence
//! suite holds them to, and the dev-only `cdmm-oracle` crate keeps the
//! per-point searches the curve probes replay.

pub mod cache;
pub mod plan;

use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::Metrics;

use crate::pipeline::{PolicySpec, Prepared};

pub use cache::{CacheKey, KeyHasher, ResultCache};
pub use cdmm_vmsim::executor::{panic_message, Executor, JobError};
pub use plan::SweepPlan;

/// One simulated operating point of a policy family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// The family parameter: LRU frames or WS window.
    pub param: u64,
    /// Simulation results at that parameter.
    pub metrics: Metrics,
}

/// The content-addressed key of one operating point: the program's
/// pipeline fingerprint (source, traces, directive stream, page
/// geometry, knobs) combined with the policy family and its parameters.
///
/// Each family absorbs a variant tag — 1 LRU, 2 WS, 3 CD (followed by
/// the selector and a locks bit, so CD and CD-no-locks share the tag),
/// 10–16 the ablation families — then its parameters. The byte sequence
/// is part of the persisted cache format: changing it orphans every
/// stored result.
pub fn spec_key(p: &Prepared, spec: PolicySpec) -> CacheKey {
    let mut h = KeyHasher::new();
    let fp = p.fingerprint();
    h.write_u64(fp.hi);
    h.write_u64(fp.lo);
    match spec {
        PolicySpec::Lru { frames } => {
            h.write_u64(1);
            h.write_u64(frames as u64);
        }
        PolicySpec::Ws { tau } => {
            h.write_u64(2);
            h.write_u64(tau);
        }
        PolicySpec::Cd { selector } | PolicySpec::CdNoLocks { selector } => {
            h.write_u64(3);
            match selector {
                CdSelector::Outermost => h.write_u64(0),
                CdSelector::Innermost => h.write_u64(1),
                CdSelector::AtLevel(k) => {
                    h.write_u64(2);
                    h.write_u64(k as u64);
                }
                CdSelector::FirstFit => h.write_u64(3),
            }
            h.write_u64(matches!(spec, PolicySpec::Cd { .. }) as u64);
        }
        PolicySpec::Fifo { frames } => {
            h.write_u64(10);
            h.write_u64(frames as u64);
        }
        PolicySpec::Clock { frames } => {
            h.write_u64(11);
            h.write_u64(frames as u64);
        }
        PolicySpec::Opt { frames } => {
            h.write_u64(12);
            h.write_u64(frames as u64);
        }
        PolicySpec::Pff { threshold } => {
            h.write_u64(13);
            h.write_u64(threshold);
        }
        PolicySpec::DampedWs { tau, reserve_cap } => {
            h.write_u64(14);
            h.write_u64(tau);
            h.write_u64(reserve_cap as u64);
        }
        PolicySpec::SampledWs { tau, sigma } => {
            h.write_u64(15);
            h.write_u64(tau);
            h.write_u64(sigma);
        }
        PolicySpec::VariableSampledWs {
            min_interval,
            max_interval,
            fault_quota,
        } => {
            h.write_u64(16);
            h.write_u64(min_interval);
            h.write_u64(max_interval);
            h.write_u64(fault_quota);
        }
    }
    h.finish()
}

/// The paper's LRU sweep range: every allocation from 1 to the program's
/// virtual size `V`.
pub fn full_lru_range(p: &Prepared) -> std::ops::RangeInclusive<usize> {
    1..=(p.virtual_pages().max(1) as usize)
}

/// A geometric grid of WS windows between 1 and the trace length,
/// `points_per_decade` points per decade.
pub fn ws_tau_grid(p: &Prepared, points_per_decade: u32) -> Vec<u64> {
    ws_tau_grid_for_len(p.plain_trace().ref_count(), points_per_decade)
}

/// [`ws_tau_grid`] for an explicit trace length.
///
/// Adjacent equal `τ` values are deduplicated, and the walk always
/// advances to the next distinct integer: when `points_per_decade` is
/// large relative to the trace length the multiplicative step can
/// truncate to the same `τ` for thousands (for degenerate inputs,
/// billions) of iterations, so a small grid used to cost unbounded work.
/// The loop is now O(grid length).
pub fn ws_tau_grid_for_len(ref_count: u64, points_per_decade: u32) -> Vec<u64> {
    let r = ref_count.max(2);
    let mut taus = vec![];
    let mut t = 1.0_f64;
    let step = 10f64.powf(1.0 / points_per_decade.max(1) as f64);
    while (t as u64) <= r {
        let v = t as u64;
        if taus.last() != Some(&v) {
            taus.push(v);
        }
        t *= step;
        if (t as u64) <= v {
            t = (v + 1) as f64;
        }
    }
    taus
}

/// The point with the smallest space-time cost.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn min_st(points: &[Point]) -> Point {
    *points
        .iter()
        .min_by(|a, b| {
            a.metrics
                .st_cost()
                .partial_cmp(&b.metrics.st_cost())
                .expect("ST costs are finite")
        })
        .expect("minimal ST over an empty sweep")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare, PipelineConfig};
    use cdmm_workloads::{by_name, Scale};

    fn prepared(name: &str) -> Prepared {
        let w = by_name(name, Scale::Small).unwrap();
        prepare(w.name, &w.source, PipelineConfig::default()).unwrap()
    }

    /// LRU at every allocation of `frames`, serial and uncached.
    fn lru_sweep(p: &Prepared, frames: &[u64]) -> Vec<Point> {
        let cache = ResultCache::disabled();
        let plan = SweepPlan::new(&cache, p);
        plan.lru_grid(&Executor::serial(), &plan.lru_curve(), frames)
    }

    fn full_range(p: &Prepared) -> Vec<u64> {
        full_lru_range(p).map(|m| m as u64).collect()
    }

    #[test]
    fn lru_sweep_is_monotone_in_faults() {
        let p = prepared("FIELD");
        let points = lru_sweep(&p, &full_range(&p));
        for w in points.windows(2) {
            assert!(w[0].metrics.faults >= w[1].metrics.faults);
        }
    }

    #[test]
    fn min_st_picks_the_smallest() {
        let p = prepared("MAIN");
        let points = lru_sweep(&p, &[1, 4, 16, 64]);
        let best = min_st(&points);
        for pt in &points {
            assert!(best.metrics.st_cost() <= pt.metrics.st_cost());
        }
    }

    #[test]
    fn ws_match_mem_converges() {
        let p = prepared("FIELD");
        let target = 4.0;
        let cache = ResultCache::disabled();
        let point = SweepPlan::new(&cache, &p).ws_match_mem(target);
        assert!(
            (point.metrics.mean_mem() - target).abs() < 2.0,
            "matched {} against target {target}",
            point.metrics.mean_mem()
        );
    }

    #[test]
    fn lru_match_pf_meets_budget() {
        let p = prepared("INIT");
        let lru = |frames| p.run_policy(PolicySpec::Lru { frames });
        let budget = lru(4).faults; // a feasible budget
        let cache = ResultCache::disabled();
        let point = SweepPlan::new(&cache, &p).lru_match_pf(budget);
        assert!(point.metrics.faults <= budget);
        // And one frame fewer would miss it.
        if point.param > 1 {
            let tighter = lru(point.param as usize - 1);
            assert!(tighter.faults > budget, "minimality of the allocation");
        }
    }

    #[test]
    fn ws_match_pf_meets_budget_minimally() {
        let p = prepared("FIELD");
        let budget = p.plain_trace().distinct_pages() as u64 + 50;
        let cache = ResultCache::disabled();
        let point = SweepPlan::new(&cache, &p).ws_match_pf(budget);
        assert!(point.metrics.faults <= budget);
        if point.param > 1 {
            let tighter = p.run_policy(PolicySpec::Ws {
                tau: point.param - 1,
            });
            assert!(tighter.faults > budget, "minimality of the window");
        }
    }

    #[test]
    fn tau_grid_is_increasing_and_bounded() {
        let p = prepared("MAIN");
        let grid = ws_tau_grid(&p, 6);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert!(*grid.last().unwrap() <= p.plain_trace().ref_count());
        assert_eq!(grid[0], 1);
    }

    #[test]
    fn tau_grid_pinned_for_tiny_trace() {
        // 4 points per decade over a 10-reference trace: the walk visits
        // 1, 1.78 (dup → jump to 2), 3.56, 6.32, 11.2 (past the end).
        assert_eq!(ws_tau_grid_for_len(10, 4), vec![1, 2, 3, 6]);
        // A minimal trace still produces a usable two-point grid.
        assert_eq!(ws_tau_grid_for_len(0, 4), vec![1, 2]);
    }

    #[test]
    fn tau_grid_dense_grids_terminate_without_duplicates() {
        // points_per_decade far beyond the trace length: the old walk
        // re-truncated the same τ for ~10^9 multiplicative steps.
        for ppd in [50, 10_000, u32::MAX] {
            let grid = ws_tau_grid_for_len(32, ppd);
            assert!(
                grid.windows(2).all(|w| w[0] < w[1]),
                "ppd={ppd}: strictly increasing, no duplicate τ"
            );
            assert_eq!(grid[0], 1);
            assert!(*grid.last().unwrap() <= 32);
        }
        // Dense enough that the jump fires on every step: every integer
        // appears exactly once.
        assert_eq!(
            ws_tau_grid_for_len(32, 10_000),
            (1..=32).collect::<Vec<u64>>()
        );
        assert!(ws_tau_grid_for_len(1u64 << 40, 1).len() < 64);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let p = prepared("FIELD");
        let frames = full_range(&p);
        let serial = lru_sweep(&p, &frames);
        let disabled = ResultCache::disabled();
        let plan = SweepPlan::new(&disabled, &p);
        let curve = plan.lru_curve();
        for threads in [2, 4, 8] {
            let par = plan.lru_grid(&Executor::with_threads(threads), &curve, &frames);
            assert_eq!(serial, par, "threads={threads}");
        }
        let taus = ws_tau_grid(&p, 6);
        let serial_ws = plan.ws_grid(&Executor::serial(), &plan.ws_curve(), &taus);
        let cache = ResultCache::in_memory();
        let cached = SweepPlan::new(&cache, &p);
        let par_ws = cached.ws_grid(&Executor::with_threads(4), &cached.ws_curve(), &taus);
        assert_eq!(serial_ws, par_ws);
    }

    #[test]
    fn cache_hit_equals_recompute() {
        let p = prepared("INIT");
        let cache = ResultCache::in_memory();
        let plan = SweepPlan::new(&cache, &p);
        let spec = PolicySpec::Lru { frames: 6 };
        let point = || {
            plan.point(
                spec,
                &mut cdmm_vmsim::NullTracer,
                &cdmm_vmsim::CancelToken::new(),
            )
            .expect("an idle token never stops a run")
        };
        let first = point();
        let second = point();
        assert_eq!(first, second);
        assert_eq!(
            first,
            p.run_policy(spec),
            "cached result == direct simulation"
        );
        let s = cache.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert_eq!(s.sim_points, 1, "only the miss was simulated");
    }

    #[test]
    fn spec_keys_distinguish_every_family_parameter_and_program() {
        let p = prepared("INIT");
        let cd = |selector| PolicySpec::Cd { selector };
        let specs = [
            PolicySpec::Lru { frames: 6 },
            PolicySpec::Lru { frames: 7 },
            PolicySpec::Ws { tau: 6 },
            cd(CdSelector::Outermost),
            cd(CdSelector::Innermost),
            cd(CdSelector::AtLevel(2)),
            cd(CdSelector::FirstFit),
            PolicySpec::CdNoLocks {
                selector: CdSelector::Outermost,
            },
            PolicySpec::Fifo { frames: 6 },
            PolicySpec::Clock { frames: 6 },
            PolicySpec::Opt { frames: 6 },
            PolicySpec::Pff { threshold: 6 },
            PolicySpec::DampedWs {
                tau: 6,
                reserve_cap: 2,
            },
            PolicySpec::SampledWs { tau: 6, sigma: 2 },
            PolicySpec::VariableSampledWs {
                min_interval: 2,
                max_interval: 6,
                fault_quota: 1,
            },
            PolicySpec::Fifo { frames: 7 },
        ];
        let keys: Vec<CacheKey> = specs.iter().map(|&s| spec_key(&p, s)).collect();
        for (i, x) in keys.iter().enumerate() {
            for (j, y) in keys.iter().enumerate() {
                assert_eq!(x == y, i == j, "spec keys {i} and {j}");
            }
        }
        // And a different program fingerprint changes every key.
        let q = prepared("FIELD");
        for (&s, k) in specs.iter().zip(&keys) {
            assert_ne!(spec_key(&q, s), *k, "{s:?}");
        }
    }
}
