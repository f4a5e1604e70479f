//! One-pass sweep planning: answer every LRU allocation and WS window
//! of a program from a single trace pass each.
//!
//! The per-point path simulates the trace once per `(policy, param)`
//! pair, so a full Table-2 sweep costs `O(V · refs)` for LRU and
//! `O(|grid| · refs)` for WS. The curve kernels collapse that:
//!
//! - [`cdmm_vmsim::LruCurve`] — one Fenwick stack-distance pass gives
//!   the fault count *and* the exact memory/fault-memory integrals at
//!   every allocation `m` (Mattson's inclusion property; the resident
//!   set under LRU at tick `t` is `min(distinct_so_far(t), m)` pages).
//! - [`cdmm_vmsim::WsCurve`] — one inter-reference gap pass gives the
//!   fault count, resident-set integral, and full [`Metrics`] at every
//!   window `τ` (a WS fault is a backward gap `> τ`; a page ages out
//!   `τ + 1` ticks after a forward gap `> τ`).
//!
//! Both kernels are *exact*: memory directives are no-ops to the LRU
//! and WS policies, and metrics tick on references only, so the curve
//! values are byte-identical to per-point simulation (the differential
//! suite in `tests/curve_equivalence.rs` holds them to that).
//!
//! A [`SweepPlan`] wires the kernels into the sweep engine: curves are
//! memoized whole in the [`ResultCache`] (one entry answers the entire
//! sweep), each materialized point also lands in the per-point cache
//! under its usual [`spec_key`] so the batch service and table harness
//! stay warm for each other, and the Table 3/4 binary searches become
//! probes against the curve instead of fresh simulations.

use std::sync::Arc;
use std::time::Instant;

use cdmm_vmsim::{LruCurve, Metrics, WsCurve};

use crate::pipeline::{PolicySpec, Prepared};

use super::{spec_key, CacheKey, Executor, KeyHasher, Point, ResultCache};

/// Curve-level cache key: a domain tag (30 for LRU, 31 for WS —
/// disjoint from the point-policy tags 1–3, the spec tags 10–16, and
/// the fleet tag 20) over the program's pipeline fingerprint. One key
/// names one whole sweep curve.
fn curve_key(p: &Prepared, tag: u64) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_u64(tag);
    let fp = p.fingerprint();
    h.write_u64(fp.hi);
    h.write_u64(fp.lo);
    h.finish()
}

/// A sweep routed through the one-pass curve kernels.
///
/// Borrow-only and cheap to construct: the curves themselves live in
/// the [`ResultCache`], so building a plan per call site is free.
pub struct SweepPlan<'a> {
    cache: &'a ResultCache,
    p: &'a Prepared,
}

impl<'a> SweepPlan<'a> {
    /// Plans sweeps of `p` through `cache`.
    pub fn new(cache: &'a ResultCache, p: &'a Prepared) -> Self {
        SweepPlan { cache, p }
    }

    /// The program's LRU curve, built once per cache lifetime. The
    /// build is counted as one simulated point (it is one trace pass).
    pub fn lru_curve(&self) -> Arc<LruCurve> {
        self.cache.lru_curve(curve_key(self.p, 30), || {
            let t0 = Instant::now();
            let curve = LruCurve::compute(self.p.plain_trace());
            self.cache.record_sim(t0.elapsed());
            curve
        })
    }

    /// [`SweepPlan::lru_curve`] under a cooperative cancellation poll:
    /// the stack pass checks `keep_going` once per compressed op, so a
    /// deadline'd caller (the batch service's sweep jobs) stops within
    /// one op. A cancelled build is never memoized; `None` means the
    /// poll stopped the pass.
    pub fn lru_curve_cancellable(&self, keep_going: impl FnMut() -> bool) -> Option<Arc<LruCurve>> {
        if let Some(c) = self.cache.lru_curve_cached(curve_key(self.p, 30)) {
            return Some(c);
        }
        let t0 = Instant::now();
        let curve = LruCurve::compute_cancellable(self.p.plain_trace(), keep_going)?;
        self.cache.record_sim(t0.elapsed());
        Some(self.cache.lru_curve(curve_key(self.p, 30), || curve))
    }

    /// The program's WS curve, built once per cache lifetime.
    pub fn ws_curve(&self) -> Arc<WsCurve> {
        self.cache.ws_curve(curve_key(self.p, 31), || {
            let t0 = Instant::now();
            let curve = WsCurve::compute(self.p.plain_trace());
            self.cache.record_sim(t0.elapsed());
            curve
        })
    }

    /// [`SweepPlan::ws_curve`] under a cooperative cancellation poll;
    /// see [`SweepPlan::lru_curve_cancellable`].
    pub fn ws_curve_cancellable(&self, keep_going: impl FnMut() -> bool) -> Option<Arc<WsCurve>> {
        if let Some(c) = self.cache.ws_curve_cached(curve_key(self.p, 31)) {
            return Some(c);
        }
        let t0 = Instant::now();
        let curve = WsCurve::compute_cancellable(self.p.plain_trace(), keep_going)?;
        self.cache.record_sim(t0.elapsed());
        Some(self.cache.ws_curve(curve_key(self.p, 31), || curve))
    }

    /// Materializes one point through the per-point cache: a hit is
    /// returned as-is, a miss is answered by the kernel (an O(log)
    /// evaluation, not a simulation — so it does not count as a
    /// simulated point) and inserted under the point's usual key.
    fn memo_point(&self, spec: PolicySpec, eval: impl FnOnce() -> Metrics) -> Metrics {
        let key = spec_key(self.p, spec);
        if let Some(m) = self.cache.lookup(key) {
            return m;
        }
        let m = eval();
        self.cache.insert(key, m);
        m
    }

    /// LRU at one allocation, answered from the curve.
    pub fn lru_point(&self, curve: &LruCurve, m: usize) -> Point {
        let fs = self.p.config().fault_service;
        Point {
            param: m as u64,
            metrics: self.memo_point(PolicySpec::Lru { frames: m }, || curve.metrics_at(m, fs)),
        }
    }

    /// WS at one window, answered from the curve.
    pub fn ws_point(&self, curve: &WsCurve, tau: u64) -> Point {
        let fs = self.p.config().fault_service;
        Point {
            param: tau,
            metrics: self.memo_point(PolicySpec::Ws { tau }, || curve.metrics_at(tau, fs)),
        }
    }

    /// The full LRU sweep over `params`, sharded across the executor.
    /// One curve build answers every allocation.
    pub fn lru_points(&self, exec: &Executor, params: &[u64]) -> Vec<Point> {
        let curve = self.lru_curve();
        exec.map(params, |_, &m| self.lru_point(&curve, m as usize))
    }

    /// The full WS sweep over `params`, sharded across the executor.
    ///
    /// The whole grid is batch-evaluated through
    /// [`WsCurve::metrics_for`] — one event expansion and sort answers
    /// every window — but only lazily, on the first cache miss: a fully
    /// warm point cache never touches the curve.
    pub fn ws_points(&self, exec: &Executor, params: &[u64]) -> Vec<Point> {
        let curve = self.ws_curve();
        let fs = self.p.config().fault_service;
        let batch: std::sync::OnceLock<std::collections::HashMap<u64, Metrics>> =
            std::sync::OnceLock::new();
        exec.map(params, |_, &tau| Point {
            param: tau,
            metrics: self.memo_point(PolicySpec::Ws { tau }, || {
                batch.get_or_init(|| {
                    params
                        .iter()
                        .copied()
                        .zip(curve.metrics_for(params, fs))
                        .collect()
                })[&tau]
            }),
        })
    }

    /// LRU at the allocation closest to a target mean memory (Table 3).
    pub fn lru_match_mem(&self, target_mem: f64) -> Point {
        let m = target_mem.round().max(1.0) as usize;
        let curve = self.lru_curve();
        self.lru_point(&curve, m)
    }

    /// WS at the window whose mean memory best matches the target
    /// (Table 3). Replays the per-point binary search probe-for-probe
    /// against the curve — the probe values are bit-identical to
    /// simulation, so the matched window is too — then materializes
    /// only the winning point.
    pub fn ws_match_mem(&self, target_mem: f64) -> Point {
        let curve = self.ws_curve();
        let r = self.p.plain_trace().ref_count().max(2);
        let mut lo = 1u64;
        let mut hi = r;
        let mut best_param = 1u64;
        let mut best_err = (curve.mean_mem_at(1) - target_mem).abs();
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            let err = (curve.mean_mem_at(mid) - target_mem).abs();
            if err < best_err {
                best_param = mid;
                best_err = err;
            }
            if curve.mean_mem_at(mid) < target_mem {
                lo = mid + 1;
            } else {
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
            if lo > hi {
                break;
            }
        }
        self.ws_point(&curve, best_param)
    }

    /// The cheapest LRU allocation meeting a fault budget (Table 4):
    /// the curve already orders allocations by fault count, so the
    /// search is a monotone lookup instead of a stack pass plus a
    /// simulation.
    pub fn lru_match_pf(&self, pf_budget: u64) -> Point {
        let curve = self.lru_curve();
        let m = curve
            .min_alloc_for(pf_budget)
            .unwrap_or(curve.distinct().max(1));
        self.lru_point(&curve, m)
    }

    /// The smallest WS window meeting a fault budget (Table 4):
    /// fault count is monotone nonincreasing in `τ`, so the binary
    /// search probes the curve's fault counts and materializes only
    /// the minimal window.
    pub fn ws_match_pf(&self, pf_budget: u64) -> Point {
        let curve = self.ws_curve();
        let r = self.p.plain_trace().ref_count().max(2);
        let mut lo = 1u64;
        let mut hi = r;
        let mut best: Option<u64> = None;
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            if curve.faults_at(mid) <= pf_budget {
                best = Some(mid);
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            } else {
                lo = mid + 1;
            }
            if lo > hi {
                break;
            }
        }
        let tau = best.unwrap_or(r);
        self.ws_point(&curve, tau)
    }
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

    #[test]
    fn kernel_points_match_simulation_exactly() {
        let p = prepared("FIELD");
        let cache = ResultCache::disabled();
        let plan = SweepPlan::new(&cache, &p);
        let lru_curve = plan.lru_curve();
        for m in [1usize, 2, 5, 16, p.virtual_pages() as usize] {
            assert_eq!(
                plan.lru_point(&lru_curve, m).metrics,
                p.run_policy(PolicySpec::Lru { frames: m }),
                "LRU m={m}"
            );
        }
        let ws_curve = plan.ws_curve();
        for tau in [1u64, 7, 100, 5000] {
            assert_eq!(
                plan.ws_point(&ws_curve, tau).metrics,
                p.run_policy(PolicySpec::Ws { tau }),
                "WS tau={tau}"
            );
        }
    }

    #[test]
    fn curve_is_built_once_per_cache() {
        let p = prepared("INIT");
        let cache = ResultCache::in_memory();
        let plan = SweepPlan::new(&cache, &p);
        let a = plan.lru_curve();
        let b = plan.lru_curve();
        assert!(Arc::ptr_eq(&a, &b), "second call shares the first curve");
        assert_eq!(cache.stats().sim_points, 1, "one pass, not two");
    }

    #[test]
    fn curve_keys_are_disjoint_between_families_and_programs() {
        let a = prepared("MAIN");
        let b = prepared("FIELD");
        let keys = [
            curve_key(&a, 30),
            curve_key(&a, 31),
            curve_key(&b, 30),
            curve_key(&b, 31),
        ];
        for (i, x) in keys.iter().enumerate() {
            for (j, y) in keys.iter().enumerate() {
                assert_eq!(x == y, i == j, "curve keys {i} and {j}");
            }
        }
        // And curve keys never collide with the point keys they feed.
        assert_ne!(
            curve_key(&a, 30),
            spec_key(&a, PolicySpec::Lru { frames: 30 })
        );
    }

    #[test]
    fn match_searches_agree_with_per_point_searches() {
        let p = prepared("FIELD");
        let cache = ResultCache::disabled();
        let plan = SweepPlan::new(&cache, &p);
        let target = 4.0;
        let kernel = plan.ws_match_mem(target);
        let sim = super::super::ws_match_mem_sim(&cache, &p, target);
        assert_eq!(kernel.param, sim.param);
        assert_eq!(kernel.metrics, sim.metrics);

        let budget = p.run_policy(PolicySpec::Lru { frames: 4 }).faults;
        let kernel = plan.lru_match_pf(budget);
        let sim = super::super::lru_match_pf_sim(&cache, &p, budget);
        assert_eq!((kernel.param, kernel.metrics), (sim.param, sim.metrics));

        let budget = p.plain_trace().distinct_pages() as u64 + 50;
        let kernel = plan.ws_match_pf(budget);
        let sim = super::super::ws_match_pf_sim(&cache, &p, budget);
        assert_eq!((kernel.param, kernel.metrics), (sim.param, sim.metrics));
    }
}
