//! Operating curves: fault count versus mean memory for whole policy
//! families, with CD's compiled-in points overlaid.
//!
//! The paper's tables compare single operating points; the natural
//! graphical companion (a "lifetime curve" in the era's terminology)
//! plots `PF` against `MEM` for every achievable point of each family.
//! The LRU and WS curves are [`crate::sweep::SweepPlan`] grids;
//! [`vmin_curve`] adds the offline-optimal variable-space frontier, so a
//! CD point's quality is visible as its distance from the frontier. Every
//! curve is a list of sweep [`Point`]s.

use cdmm_vmsim::policy::vmin::Vmin;
use cdmm_vmsim::{simulate_with, CancelToken, NullTracer, SimConfig};
use cdmm_workloads::Variant;

use crate::pipeline::{selector_for, PolicySpec, Prepared};
use crate::sweep::{self, Point};

/// The VMIN frontier over a geometric window grid — no on-line policy
/// can sit left of and below this curve.
pub fn vmin_curve(p: &Prepared, points_per_decade: u32) -> Vec<Point> {
    sweep::ws_tau_grid(p, points_per_decade)
        .into_iter()
        .map(|tau| {
            let mut vm = Vmin::for_trace(p.plain_trace(), tau);
            let config = SimConfig {
                fault_service: p.config().fault_service,
            };
            // VMIN has no batch kernels: the driver decodes every run
            // reference by reference.
            let metrics = simulate_with(
                p.plain_trace(),
                &mut vm,
                config,
                &mut NullTracer,
                &CancelToken::new(),
            )
            .expect("an idle token never stops a run");
            Point {
                param: tau,
                metrics,
            }
        })
        .collect()
}

/// CD's operating points, one per directive-set variant (`param` 0).
pub fn cd_points(p: &Prepared, variants: &[Variant]) -> Vec<(String, Point)> {
    variants
        .iter()
        .map(|v| {
            let metrics = p.run_policy(PolicySpec::Cd {
                selector: selector_for(v.level),
            });
            (v.name.to_string(), Point { param: 0, metrics })
        })
        .collect()
}

/// How far (in fault-count ratio) a point sits above the VMIN frontier
/// at equal-or-smaller memory. 1.0 = on the frontier.
pub fn frontier_gap(cd: &Point, frontier: &[Point]) -> f64 {
    // The frontier is monotone: more memory, fewer faults. Find the best
    // (lowest-PF) frontier point that uses no more memory than `cd`.
    let best = frontier
        .iter()
        .filter(|f| f.metrics.mean_mem() <= cd.metrics.mean_mem() + 1e-9)
        .map(|f| f.metrics.faults)
        .min();
    match best {
        Some(pf) if pf > 0 => cd.metrics.faults as f64 / pf as f64,
        Some(_) => f64::INFINITY,
        None => 1.0, // CD uses less memory than any frontier point.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare, PipelineConfig};
    use crate::sweep::{Executor, ResultCache, SweepPlan};
    use cdmm_workloads::{by_name, Scale};

    fn prepared(name: &str) -> (Prepared, Vec<Variant>) {
        let w = by_name(name, Scale::Small).unwrap();
        let p = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
        (p, w.variants)
    }

    #[test]
    fn curves_are_monotone_where_theory_says() {
        let (p, _) = prepared("FIELD");
        let cache = ResultCache::disabled();
        let plan = SweepPlan::new(&cache, &p);
        let frames: Vec<u64> = sweep::full_lru_range(&p).map(|m| m as u64).collect();
        let lru = plan.lru_grid(&Executor::serial(), &plan.lru_curve(), &frames);
        for w in lru.windows(2) {
            assert!(
                w[0].metrics.faults >= w[1].metrics.faults,
                "LRU inclusion property"
            );
        }
        let vmin = vmin_curve(&p, 4);
        for w in vmin.windows(2) {
            assert!(
                w[0].metrics.faults >= w[1].metrics.faults,
                "VMIN faults monotone in window"
            );
        }
    }

    #[test]
    fn vmin_is_a_frontier_for_ws() {
        let (p, _) = prepared("MAIN");
        let cache = ResultCache::disabled();
        let plan = SweepPlan::new(&cache, &p);
        let ws = plan.ws_grid(
            &Executor::serial(),
            &plan.ws_curve(),
            &sweep::ws_tau_grid(&p, 4),
        );
        let vmin = vmin_curve(&p, 4);
        // Pointwise by parameter: same tau => VMIN no worse on both axes.
        for (w, v) in ws.iter().zip(vmin.iter()) {
            assert_eq!(w.param, v.param);
            assert!(v.metrics.faults <= w.metrics.faults);
            assert!(v.metrics.mean_mem() <= w.metrics.mean_mem() + 1e-9);
        }
    }

    #[test]
    fn cd_points_cover_all_variants() {
        let (p, variants) = prepared("MAIN");
        let pts = cd_points(&p, &variants);
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().any(|(n, _)| n == "MAIN3"));
    }

    #[test]
    fn frontier_gap_is_at_least_one_on_frontier_points() {
        let (p, _) = prepared("FIELD");
        let frontier = vmin_curve(&p, 4);
        for f in &frontier {
            assert!(frontier_gap(f, &frontier) >= 1.0 - 1e-9);
        }
    }
}
