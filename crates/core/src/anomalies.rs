//! Anomaly hunting — the paper's motivation cites working-set anomalies
//! on numerical programs (\[AbPa81\]) and variable-partition anomalies
//! (\[FrGG78\]) as reasons run-time estimation policies misbehave exactly
//! on the workloads CD targets.
//!
//! Two scanners over the reproduced workloads:
//!
//! - [`ws_memory_anomalies`]: windows where WS holds strictly more memory
//!   *without* removing a single fault — dead memory the policy cannot
//!   detect (the Abu-Sufah & Padua observation that WS size tracks τ, not
//!   need, on numerical loops).
//! - [`fifo_belady_anomalies`]: allocations where giving FIFO more frames
//!   *increases* its faults.

use cdmm_vmsim::policy::fifo::Fifo;
use cdmm_vmsim::policy::Policy;

use crate::pipeline::Prepared;
use crate::sweep::{self, Executor, ResultCache, SweepPlan};

/// A window pair exhibiting a WS dead-memory anomaly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WsAnomaly {
    /// Smaller window.
    pub tau_small: u64,
    /// Larger window with the same fault count.
    pub tau_large: u64,
    /// Faults at both windows.
    pub faults: u64,
    /// Memory wasted by the larger window (pages).
    pub extra_mem: f64,
}

/// Scans a geometric window grid for pairs `(τ, τ')` with `τ < τ'`,
/// identical fault counts, and at least `min_extra_mem` more resident
/// memory at `τ'`. Reports maximal such stretches (consecutive grid
/// points merged).
pub fn ws_memory_anomalies(p: &Prepared, min_extra_mem: f64) -> Vec<WsAnomaly> {
    let cache = ResultCache::disabled();
    let plan = SweepPlan::new(&cache, p);
    let points = plan.ws_grid(
        &Executor::serial(),
        &plan.ws_curve(),
        &sweep::ws_tau_grid(p, 6),
    );
    let mut out = Vec::new();
    let mut i = 0;
    while i < points.len() {
        let start = &points[i];
        let mut j = i;
        while j + 1 < points.len() && points[j + 1].metrics.faults == start.metrics.faults {
            j += 1;
        }
        if j > i {
            let end = &points[j];
            let extra = end.metrics.mean_mem() - start.metrics.mean_mem();
            if extra >= min_extra_mem {
                out.push(WsAnomaly {
                    tau_small: start.param,
                    tau_large: end.param,
                    faults: start.metrics.faults,
                    extra_mem: extra,
                });
            }
        }
        i = j + 1;
    }
    out
}

/// A FIFO allocation pair where more frames fault more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoAnomaly {
    /// Smaller allocation.
    pub frames_small: usize,
    /// Larger allocation with more faults.
    pub frames_large: usize,
    /// Faults at the smaller allocation.
    pub faults_small: u64,
    /// Faults at the larger allocation.
    pub faults_large: u64,
}

/// Runs FIFO at every allocation up to `max_frames` and reports adjacent
/// pairs violating monotonicity (Belady's anomaly).
pub fn fifo_belady_anomalies(p: &Prepared, max_frames: usize) -> Vec<FifoAnomaly> {
    let mut faults = Vec::with_capacity(max_frames);
    for m in 1..=max_frames {
        let mut fifo = Fifo::new(m);
        let f = p
            .plain_trace()
            .iter_refs()
            .filter(|&r| fifo.reference(r))
            .count() as u64;
        faults.push(f);
    }
    let mut out = Vec::new();
    for m in 1..faults.len() {
        if faults[m] > faults[m - 1] {
            out.push(FifoAnomaly {
                frames_small: m,
                frames_large: m + 1,
                faults_small: faults[m - 1],
                faults_large: faults[m],
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare, PipelineConfig};
    use cdmm_workloads::{by_name, Scale};

    #[test]
    fn ws_dead_memory_shows_up_on_numerical_programs() {
        // FIELD's per-sweep refaults are insensitive to τ over wide
        // ranges while the WS keeps growing — the classic numerical-code
        // anomaly the paper's motivation cites.
        let w = by_name("FIELD", Scale::Small).unwrap();
        let p = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
        let anomalies = ws_memory_anomalies(&p, 0.5);
        assert!(
            !anomalies.is_empty(),
            "expected at least one dead-memory stretch"
        );
        for a in &anomalies {
            assert!(a.tau_small < a.tau_large);
            assert!(a.extra_mem >= 0.5);
        }
    }

    #[test]
    fn fifo_scan_reports_no_false_positives_on_lru_friendly_traces() {
        // The scan itself must be sound: anomalies it reports are real
        // monotonicity violations.
        let w = by_name("FDJAC", Scale::Small).unwrap();
        let p = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
        for a in fifo_belady_anomalies(&p, 20) {
            assert!(a.faults_large > a.faults_small);
            assert_eq!(a.frames_large, a.frames_small + 1);
        }
    }
}
