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
//! A [`SweepPlan`] is the one way into a sweep. It wires the kernels
//! into the sweep engine: curves are memoized whole in the
//! [`ResultCache`] (one entry answers the entire sweep), each grid point
//! also lands in the per-point cache under its usual [`spec_key`] so the
//! batch service and table harness stay warm for each other, and the
//! Table 3/4 binary searches become probes against the curve instead of
//! fresh simulations. [`SweepPlan::point`] memoizes a single simulated
//! point of any policy (CD included) through the same per-point cache:
//! it is the one lookup–run–insert, under any tracer and deadline, that
//! the table harness and the batch service's sim jobs share.

use std::sync::Arc;
use std::time::Instant;

use cdmm_vmsim::{CancelToken, Detail, LruCurve, Metrics, SimError, Tracer, WsCurve};

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

/// Sweeps, match searches and memoized points of one program, routed
/// through the one-pass curve kernels and the result cache.
///
/// Borrow-only and cheap to construct: the curves and points live in
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

    /// One operating point of any policy through the cache, run by
    /// [`Prepared::run_policy_traced`] under `tracer` and `token`:
    ///
    /// - An untraced run — a tracer below [`Detail::Aggregates`], the
    ///   test [`cdmm_vmsim::simulate_with`] uses to decide whether a run
    ///   is traced — recalls a hit as-is.
    /// - A traced run skips the lookup: its event stream is the product,
    ///   so it must run.
    /// - A completed run, traced or not, is timed as one simulated point
    ///   and stored under [`spec_key`], so later untraced calls hit.
    /// - A stopped run stores nothing and returns its [`SimError`].
    pub fn point(
        &self,
        spec: PolicySpec,
        tracer: &mut dyn Tracer,
        token: &CancelToken,
    ) -> Result<Metrics, SimError> {
        let key = spec_key(self.p, spec);
        if tracer.detail() < Detail::Aggregates {
            if let Some(m) = self.cache.lookup(key) {
                return Ok(m);
            }
        }
        let t0 = Instant::now();
        let m = self.p.run_policy_traced(spec, tracer, token)?;
        self.cache.record_sim(t0.elapsed());
        self.cache.insert(key, m);
        Ok(m)
    }

    /// The per-point memo behind every grid point a plan returns: a hit
    /// is returned as-is, a miss is computed by `eval` from a curve and
    /// inserted under the point's usual key.
    fn memo(&self, spec: PolicySpec, eval: impl FnOnce() -> Metrics) -> Metrics {
        let key = spec_key(self.p, spec);
        if let Some(m) = self.cache.lookup(key) {
            return m;
        }
        let m = eval();
        self.cache.insert(key, m);
        m
    }

    /// The program's LRU curve, built once per cache lifetime.
    pub fn lru_curve(&self) -> Arc<LruCurve> {
        self.lru_curve_cancellable(|| true)
            .expect("an idle poll never stops the pass")
    }

    /// [`SweepPlan::lru_curve`] under a cooperative cancellation poll:
    /// the stack pass checks `keep_going` once per compressed op, so a
    /// deadline'd caller (the batch service's sweep jobs) stops within
    /// one op. A completed build counts as one simulated point (it is
    /// one trace pass); a stopped build is never memoized, and `None`
    /// means the poll stopped the pass.
    pub fn lru_curve_cancellable(&self, keep_going: impl FnMut() -> bool) -> Option<Arc<LruCurve>> {
        self.cache.lru_curve(curve_key(self.p, 30), || {
            let t0 = Instant::now();
            let curve = LruCurve::compute_cancellable(self.p.plain_trace(), keep_going)?;
            self.cache.record_sim(t0.elapsed());
            Some(curve)
        })
    }

    /// The program's WS curve, built once per cache lifetime.
    pub fn ws_curve(&self) -> Arc<WsCurve> {
        self.ws_curve_cancellable(|| true)
            .expect("an idle poll never stops the pass")
    }

    /// [`SweepPlan::ws_curve`] under a cooperative cancellation poll;
    /// see [`SweepPlan::lru_curve_cancellable`].
    pub fn ws_curve_cancellable(&self, keep_going: impl FnMut() -> bool) -> Option<Arc<WsCurve>> {
        self.cache.ws_curve(curve_key(self.p, 31), || {
            let t0 = Instant::now();
            let curve = WsCurve::compute_cancellable(self.p.plain_trace(), keep_going)?;
            self.cache.record_sim(t0.elapsed());
            Some(curve)
        })
    }

    /// LRU at every allocation in `params`, answered from `curve` and
    /// sharded across the executor; points come back in `params` order
    /// at every thread count. Each point goes through the per-point
    /// cache: a miss is an O(log) curve evaluation (not a simulation,
    /// so it does not count as a simulated point).
    pub fn lru_grid(&self, exec: &Executor, curve: &LruCurve, params: &[u64]) -> Vec<Point> {
        let fs = self.p.config().fault_service;
        exec.map(params, |_, &m| {
            let frames = m as usize;
            Point {
                param: m,
                metrics: self.memo(PolicySpec::Lru { frames }, || curve.metrics_at(frames, fs)),
            }
        })
    }

    /// WS at every window in `params`, answered from `curve` and sharded
    /// across the executor. Each point goes through the per-point cache
    /// like [`SweepPlan::lru_grid`], but the first miss evaluates the
    /// whole grid through [`WsCurve::metrics_for`] — one
    /// largest-window-first event expansion and sort instead of one per
    /// window. A fully warm point cache never touches the curve.
    pub fn ws_grid(&self, exec: &Executor, curve: &WsCurve, params: &[u64]) -> Vec<Point> {
        let fs = self.p.config().fault_service;
        let batch: std::sync::OnceLock<std::collections::HashMap<u64, Metrics>> =
            std::sync::OnceLock::new();
        exec.map(params, |_, &tau| Point {
            param: tau,
            metrics: self.memo(PolicySpec::Ws { tau }, || {
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

    /// LRU at the allocation closest to a target mean memory (Table 3:
    /// "similar values were obtained by direct assignment").
    pub fn lru_match_mem(&self, target_mem: f64) -> Point {
        let m = target_mem.round().max(1.0) as u64;
        self.lru_grid(&Executor::serial(), &self.lru_curve(), &[m])[0]
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
        self.ws_grid(&Executor::serial(), &curve, &[best_param])[0]
    }

    /// The cheapest LRU allocation producing at most `pf_budget` faults
    /// (Table 4's "at most as many faults as CD"): the curve already
    /// orders allocations by fault count, so the search is a monotone
    /// lookup instead of a stack pass plus a simulation.
    pub fn lru_match_pf(&self, pf_budget: u64) -> Point {
        let curve = self.lru_curve();
        let m = curve
            .min_alloc_for(pf_budget)
            .unwrap_or(curve.distinct().max(1));
        self.lru_grid(&Executor::serial(), &curve, &[m as u64])[0]
    }

    /// The smallest WS window producing at most `pf_budget` faults — and
    /// therefore (by monotonicity of memory in `τ`) the WS point of
    /// minimal memory meeting the budget (Table 4). Fault count is
    /// monotone nonincreasing in `τ`, so the binary search probes the
    /// curve's fault counts and materializes only the minimal window.
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
        self.ws_grid(&Executor::serial(), &curve, &[best.unwrap_or(r)])[0]
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
        let serial = Executor::serial();
        let frames = [1u64, 2, 5, 16, p.virtual_pages() as u64];
        for pt in plan.lru_grid(&serial, &plan.lru_curve(), &frames) {
            assert_eq!(
                pt.metrics,
                p.run_policy(PolicySpec::Lru {
                    frames: pt.param as usize
                }),
                "LRU m={}",
                pt.param
            );
        }
        for pt in plan.ws_grid(&serial, &plan.ws_curve(), &[1, 7, 100, 5000]) {
            assert_eq!(
                pt.metrics,
                p.run_policy(PolicySpec::Ws { tau: pt.param }),
                "WS tau={}",
                pt.param
            );
        }
    }

    #[test]
    fn a_ws_grid_matches_its_points_and_fills_the_point_cache() {
        let p = prepared("FIELD");
        let taus = crate::sweep::ws_tau_grid(&p, 6);
        let cache = ResultCache::in_memory();
        let plan = SweepPlan::new(&cache, &p);
        let curve = plan.ws_curve();
        let serial = Executor::serial();
        let grid = plan.ws_grid(&serial, &curve, &taus);
        let misses = cache.stats().cache_misses;
        assert_eq!(
            misses,
            taus.len() as u64,
            "a cold grid misses once per point"
        );
        let fs = p.config().fault_service;
        for (pt, &tau) in grid.iter().zip(&taus) {
            assert_eq!(pt.param, tau);
            assert_eq!(pt.metrics, curve.metrics_at(tau, fs), "tau={tau}");
        }
        let again = plan.ws_grid(&serial, &curve, &taus);
        assert_eq!(again, grid);
        assert_eq!(cache.stats().cache_misses, misses, "a warm grid only hits");
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
    fn a_traced_point_skips_the_lookup_and_a_stopped_one_stores_nothing() {
        use cdmm_vmsim::{MetricsRegistry, NullTracer};
        let p = prepared("INIT");
        let cache = ResultCache::in_memory();
        let plan = SweepPlan::new(&cache, &p);
        let spec = PolicySpec::Lru { frames: 6 };
        let idle = CancelToken::new();

        let mut registry = MetricsRegistry::new();
        let traced = plan.point(spec, &mut registry, &idle);
        assert_eq!(traced, Ok(p.run_policy(spec)));
        let s = cache.stats();
        assert_eq!(
            (s.cache_hits, s.cache_misses, s.sim_points),
            (0, 0, 1),
            "a registry-attached point counts no lookup and runs once"
        );
        assert_eq!(cache.len(), 1, "the traced run still warms the cache");
        assert_eq!(
            plan.point(spec, &mut NullTracer, &idle),
            traced,
            "an untraced call hits"
        );
        assert_eq!(cache.stats().cache_hits, 1);

        let stopped = CancelToken::new();
        stopped.cancel();
        let unseen = PolicySpec::Lru { frames: 7 };
        assert_eq!(
            plan.point(unseen, &mut NullTracer, &stopped),
            Err(SimError::DeadlineExceeded { refs_done: 0 })
        );
        let s = cache.stats();
        assert_eq!((s.cache_misses, s.sim_points), (1, 1), "a miss, no run");
        assert_eq!(cache.len(), 1, "a stopped run stores nothing");
    }
}
