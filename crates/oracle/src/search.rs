//! The Table 3/4 matching searches as per-point simulations: every probe
//! runs the policy through [`SweepPlan::point`] instead of reading the
//! one-pass curve. [`SweepPlan`]'s curve searches replay these probe
//! sequences exactly, so the differential tests hold the two to
//! identical results.

use cdmm_core::sweep::{Point, ResultCache, SweepPlan};
use cdmm_core::{PolicySpec, Prepared};
use cdmm_vmsim::stack::StackProfile;
use cdmm_vmsim::{CancelToken, Metrics, NullTracer};

/// One simulated point through the plan's per-point memo.
fn simulated(cache: &ResultCache, p: &Prepared, spec: PolicySpec) -> Metrics {
    SweepPlan::new(cache, p)
        .point(spec, &mut NullTracer, &CancelToken::new())
        .expect("an idle token never stops a run")
}

/// The per-point-simulation oracle of [`SweepPlan::ws_match_mem`].
pub fn ws_match_mem_sim(cache: &ResultCache, p: &Prepared, target_mem: f64) -> Point {
    let r = p.plain_trace().ref_count().max(2);
    let mut lo = 1u64;
    let mut hi = r;
    let ws = |tau| simulated(cache, p, PolicySpec::Ws { tau });
    let mut best = Point {
        param: 1,
        metrics: ws(1),
    };
    let mut best_err = (best.metrics.mean_mem() - target_mem).abs();
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        let point = Point {
            param: mid,
            metrics: ws(mid),
        };
        let err = (point.metrics.mean_mem() - target_mem).abs();
        if err < best_err {
            best = point;
            best_err = err;
        }
        if point.metrics.mean_mem() < target_mem {
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
    best
}

/// The per-point-simulation oracle of [`SweepPlan::lru_match_pf`].
pub fn lru_match_pf_sim(cache: &ResultCache, p: &Prepared, pf_budget: u64) -> Point {
    let profile = StackProfile::compute(p.plain_trace());
    let m = profile
        .min_alloc_for(pf_budget)
        .unwrap_or(profile.distinct().max(1));
    Point {
        param: m as u64,
        metrics: simulated(cache, p, PolicySpec::Lru { frames: m }),
    }
}

/// The per-point-simulation oracle of [`SweepPlan::ws_match_pf`].
pub fn ws_match_pf_sim(cache: &ResultCache, p: &Prepared, pf_budget: u64) -> Point {
    let ws = |tau| simulated(cache, p, PolicySpec::Ws { tau });
    let r = p.plain_trace().ref_count().max(2);
    let mut lo = 1u64;
    let mut hi = r;
    let mut best: Option<Point> = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        let point = Point {
            param: mid,
            metrics: ws(mid),
        };
        if point.metrics.faults <= pf_budget {
            best = Some(point);
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
    best.unwrap_or_else(|| Point {
        param: r,
        metrics: ws(r),
    })
}
