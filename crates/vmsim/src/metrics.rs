//! Performance indexes: page faults `PF`, mean memory `MEM`, and
//! space-time cost `ST`.
//!
//! The paper's definitions (Section 5): `PF` is the page-fault count,
//! `MEM` is the average memory allocated to the program, and `ST` is the
//! space-time cost including a fault service time of 2000 memory
//! references. We accumulate
//!
//! ```text
//! MEM = (1/R) Σ_t m(t)                 (average over reference time)
//! ST  = Σ_t m(t) + D Σ_{faults} m(t)   (memory held during fault service)
//! ```
//!
//! where `m(t)` is the resident-set size after processing reference `t`
//! and `D` is the fault-service time.
//!
//! A run accumulates through a [`Tally`]: the run-level kernels account
//! for whole batches of references in closed form, and at
//! [`crate::Detail::Aggregates`] the tally hands each batch to the
//! run's tracer too.

use crate::observe::{RefBatch, SimEvent, Tracer};
use crate::policy::Policy;

/// Accumulated simulation results for one program under one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Metrics {
    /// References processed (the paper's `R`).
    pub refs: u64,
    /// Page faults (`PF`).
    pub faults: u64,
    /// `Σ m(t)` over reference time.
    pub mem_integral: u128,
    /// `Σ m(t)` over fault events only.
    pub fault_mem_integral: u128,
    /// Fault service time `D` used for the ST computation.
    pub fault_service: u64,
    /// Largest resident set seen.
    pub peak_resident: usize,
    /// Invalid directives the policy clamped or discarded instead of
    /// failing on (0 for policies without a validator, and for
    /// well-formed directive streams).
    pub recovered_directives: u64,
    /// References processed after the policy abandoned directive
    /// guidance and fell back to plain LRU demand paging.
    pub degraded_refs: u64,
}

impl Metrics {
    /// Creates an empty accumulator with the given fault-service time.
    pub fn new(fault_service: u64) -> Self {
        Metrics {
            fault_service,
            ..Default::default()
        }
    }

    /// Records one processed reference.
    #[inline]
    pub fn record(&mut self, resident: usize, fault: bool) {
        self.refs += 1;
        self.mem_integral += resident as u128;
        if fault {
            self.faults += 1;
            self.fault_mem_integral += resident as u128;
        }
        self.peak_resident = self.peak_resident.max(resident);
    }

    /// Records `n` non-faulting references at a constant resident size —
    /// the run-level kernels' all-hit batch. Equivalent to calling
    /// [`Metrics::record`]`(resident, false)` `n` times.
    #[inline]
    pub fn record_hits(&mut self, resident: usize, n: u64) {
        if n == 0 {
            return;
        }
        self.refs += n;
        self.mem_integral += resident as u128 * n as u128;
        self.peak_resident = self.peak_resident.max(resident);
    }

    /// Mean resident memory over reference time (`MEM`).
    pub fn mean_mem(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.mem_integral as f64 / self.refs as f64
        }
    }

    /// Space-time cost (`ST`).
    pub fn st_cost(&self) -> f64 {
        self.mem_integral as f64 + self.fault_service as f64 * self.fault_mem_integral as f64
    }

    /// Fault rate (faults per reference).
    pub fn fault_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.faults as f64 / self.refs as f64
        }
    }

    /// The paper's `%ST` comparison: how much more space-time `self`
    /// costs than `base`, in percent.
    pub fn st_excess_pct(&self, base: &Metrics) -> f64 {
        let b = base.st_cost();
        if b == 0.0 {
            0.0
        } else {
            (self.st_cost() - b) / b * 100.0
        }
    }

    /// The paper's `%MEM` comparison in percent.
    pub fn mem_excess_pct(&self, base: &Metrics) -> f64 {
        let b = base.mean_mem();
        if b == 0.0 {
            0.0
        } else {
            (self.mean_mem() - b) / b * 100.0
        }
    }

    /// The paper's `ΔPF` comparison.
    pub fn pf_excess(&self, base: &Metrics) -> i64 {
        self.faults as i64 - base.faults as i64
    }
}

/// The accumulator a run's policy kernels account through.
///
/// It borrows the run's [`Metrics`] and, when the run's tracer is at
/// [`crate::Detail::Aggregates`] or above, the tracer — which then receives
/// each recorded batch as a [`RefBatch`] ending at the run's clock.
/// Every recorder leaves the metrics exactly as the equivalent
/// sequence of [`Metrics::record`] calls would; an untraced tally adds
/// one untaken branch per batch.
pub struct Tally<'a> {
    metrics: &'a mut Metrics,
    tracer: Option<&'a mut dyn Tracer>,
    /// Policy events on their way to the tracer (reused between drains).
    pending: Vec<SimEvent>,
}

impl std::fmt::Debug for Tally<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tally")
            .field("metrics", &self.metrics)
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

impl<'a> Tally<'a> {
    /// An untraced tally over `metrics`.
    pub fn new(metrics: &'a mut Metrics) -> Self {
        Tally {
            metrics,
            tracer: None,
            pending: Vec::new(),
        }
    }

    /// A tally that also hands every batch to `tracer`.
    pub fn traced(metrics: &'a mut Metrics, tracer: &'a mut dyn Tracer) -> Self {
        Tally {
            metrics,
            tracer: Some(tracer),
            pending: Vec::new(),
        }
    }

    /// Faults recorded so far.
    #[inline]
    pub fn faults(&self) -> u64 {
        self.metrics.faults
    }

    /// The metrics of an untraced tally, for a loop that records
    /// reference by reference and so should not test for a tracer at
    /// each one; `None` when a tracer listens.
    #[inline]
    pub fn untraced(&mut self) -> Option<&mut Metrics> {
        match self.tracer {
            None => Some(&mut *self.metrics),
            Some(_) => None,
        }
    }

    #[inline]
    fn batch(&mut self, batch: RefBatch) {
        if let Some(tracer) = self.tracer.as_deref_mut() {
            hand_over(tracer, self.metrics.refs, batch);
        }
    }

    /// Records one processed reference ([`Metrics::record`]).
    #[inline]
    pub fn record(&mut self, resident: usize, fault: bool) {
        self.metrics.record(resident, fault);
        self.batch(RefBatch::Flat {
            n: 1,
            resident: resident as u64,
            fault,
        });
    }

    /// Records `n` hits at a constant resident size
    /// ([`Metrics::record_hits`]).
    #[inline]
    pub fn record_hits(&mut self, resident: usize, n: u64) {
        if n == 0 {
            return;
        }
        self.metrics.record_hits(resident, n);
        self.batch(RefBatch::Flat {
            n,
            resident: resident as u64,
            fault: false,
        });
    }

    /// Records a faulting ramp ([`RefBatch::Ramp`]): `n` faults, the
    /// `k`-th leaving `min(from + k, cap)` pages resident — an all-miss
    /// run against a capped resident set. MEM and the peak come in
    /// closed form.
    #[inline]
    pub fn record_ramp(&mut self, n: u64, from: u64, cap: u64) {
        if n == 0 {
            return;
        }
        let climb = n.min(cap.saturating_sub(from)) as u128;
        let mem =
            climb * from as u128 + climb * (climb + 1) / 2 + (n as u128 - climb) * cap as u128;
        let m = &mut *self.metrics;
        m.refs += n;
        m.faults += n;
        m.mem_integral += mem;
        m.fault_mem_integral += mem;
        m.peak_resident = m.peak_resident.max((from + n).min(cap) as usize);
        self.batch(RefBatch::Ramp { n, from, cap });
    }

    /// Records `n` hits at a resident size no larger than one already
    /// recorded, so the peak cannot move — WS's spans between two
    /// expiries, where the resident set only shrinks.
    #[inline]
    pub fn record_below_peak(&mut self, resident: usize, n: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(resident <= self.metrics.peak_resident, "below the peak");
        self.metrics.refs += n;
        self.metrics.mem_integral += resident as u128 * n as u128;
        self.batch(RefBatch::Flat {
            n,
            resident: resident as u64,
            fault: false,
        });
    }

    /// Counts `n` references processed after the policy degraded.
    #[inline]
    pub fn record_degraded(&mut self, n: u64) {
        self.metrics.degraded_refs += n;
    }

    /// Hands the tracer an eviction count ([`RefBatch::Evictions`]).
    pub fn record_evictions(&mut self, n: u64) {
        if n > 0 {
            self.batch(RefBatch::Evictions(n));
        }
    }

    /// Forwards the events `policy` buffered since its last drain to the
    /// tracer, stamped with the clock of the last recorded reference —
    /// called after each directive, and after each reference a kernel
    /// processes one at a time, so an event raised by a reference
    /// carries that reference's clock. Events above the tracer's level
    /// are dropped; an untraced tally forwards nothing.
    #[inline]
    pub fn forward_events<P: Policy + ?Sized>(&mut self, policy: &mut P) {
        let Some(tracer) = self.tracer.as_deref_mut() else {
            return;
        };
        policy.drain_events(&mut self.pending);
        if !self.pending.is_empty() {
            forward(tracer, self.metrics.refs, &mut self.pending);
        }
    }
}

// The traced halves of the recorders live out of line, so the untraced
// kernels they are inlined into stay as small as they were.

#[cold]
#[inline(never)]
fn hand_over(tracer: &mut dyn Tracer, at: u64, batch: RefBatch) {
    tracer.aggregate(at, &batch);
}

#[inline(never)]
fn forward(tracer: &mut dyn Tracer, at: u64, pending: &mut Vec<SimEvent>) {
    let level = tracer.detail();
    for e in pending.drain(..) {
        if e.detail() <= level {
            tracer.record(at, &e);
        }
    }
}

/// Execution-engine counters for one sweep or table run: result-cache
/// hits and misses plus per-point simulation wall time.
///
/// Kept separate from [`Metrics`] on purpose: a `Metrics` value must be
/// bit-identical whether it was recomputed or recalled from cache, so
/// nondeterministic wall-clock counters cannot live inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Points answered from the result cache.
    pub cache_hits: u64,
    /// Points that missed the cache.
    pub cache_misses: u64,
    /// Points actually simulated (cache misses that ran).
    pub sim_points: u64,
    /// Total wall time spent simulating, in nanoseconds.
    pub sim_wall_ns: u64,
}

impl ExecStats {
    /// Cache hit rate in percent (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64 * 100.0
        }
    }

    /// Mean wall time per simulated point, in nanoseconds.
    pub fn mean_point_ns(&self) -> u64 {
        self.sim_wall_ns.checked_div(self.sim_points).unwrap_or(0)
    }

    /// The counter delta since an earlier snapshot.
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            sim_points: self.sim_points - earlier.sim_points,
            sim_wall_ns: self.sim_wall_ns - earlier.sim_wall_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::Detail;

    #[test]
    fn accumulates_mem_and_faults() {
        let mut m = Metrics::new(2000);
        m.record(1, true);
        m.record(2, false);
        m.record(3, true);
        assert_eq!(m.refs, 3);
        assert_eq!(m.faults, 2);
        assert_eq!(m.mem_integral, 6);
        assert_eq!(m.fault_mem_integral, 4);
        assert_eq!(m.peak_resident, 3);
        assert!((m.mean_mem() - 2.0).abs() < 1e-12);
        assert!((m.st_cost() - (6.0 + 2000.0 * 4.0)).abs() < 1e-9);
        assert!((m.fault_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tally_recorders_match_per_ref_record() {
        // Hits at constant size.
        let mut batch = Metrics::new(2000);
        Tally::new(&mut batch).record_hits(7, 5);
        let mut one = Metrics::new(2000);
        for _ in 0..5 {
            one.record(7, false);
        }
        assert_eq!(batch, one);

        // A ramp from 2 under a cap of 4: sizes 3, 4, 4 after each fault.
        let mut batch = Metrics::new(2000);
        Tally::new(&mut batch).record_ramp(3, 2, 4);
        let mut one = Metrics::new(2000);
        for r in [3, 4, 4] {
            one.record(r, true);
        }
        assert_eq!(batch, one);

        // A ramp entered above its cap sits at the cap throughout.
        let mut batch = Metrics::new(2000);
        let mut tally = Tally::new(&mut batch);
        tally.record(6, true);
        tally.record_ramp(2, 6, 3);
        let mut one = Metrics::new(2000);
        for r in [6, 3, 3] {
            one.record(r, true);
        }
        assert_eq!(batch, one);

        // Spans below the peak: 5, then 4, 4 after an expiry.
        let mut batch = Metrics::new(2000);
        let mut tally = Tally::new(&mut batch);
        tally.record(5, false);
        tally.record_below_peak(5, 1);
        tally.record_below_peak(4, 2);
        let mut one = Metrics::new(2000);
        for r in [5, 5, 4, 4] {
            one.record(r, false);
        }
        assert_eq!(batch, one);
    }

    #[test]
    fn zero_length_batches_do_not_touch_peak() {
        let mut m = Metrics::new(2000);
        let mut tally = Tally::new(&mut m);
        tally.record_hits(10, 0);
        tally.record_ramp(0, 99, 99);
        tally.record_below_peak(0, 0);
        assert_eq!(m, Metrics::new(2000), "empty batches are no-ops");
    }

    /// Keeps the batches a traced tally hands over.
    struct Batches(Vec<(u64, RefBatch)>);

    impl Tracer for Batches {
        fn detail(&self) -> Detail {
            Detail::Aggregates
        }

        fn record(&mut self, _at: u64, _event: &SimEvent) {}

        fn aggregate(&mut self, at: u64, batch: &RefBatch) {
            self.0.push((at, *batch));
        }
    }

    #[test]
    fn traced_tally_hands_over_each_batch_at_its_end_clock() {
        let mut m = Metrics::new(2000);
        let mut seen = Batches(Vec::new());
        let mut tally = Tally::traced(&mut m, &mut seen);
        tally.record(1, true);
        tally.record_ramp(3, 1, 3);
        tally.record_hits(3, 0);
        tally.record_below_peak(2, 4);
        tally.record_evictions(0);
        tally.record_evictions(2);
        assert_eq!(
            seen.0,
            [
                (
                    1,
                    RefBatch::Flat {
                        n: 1,
                        resident: 1,
                        fault: true
                    }
                ),
                (
                    4,
                    RefBatch::Ramp {
                        n: 3,
                        from: 1,
                        cap: 3
                    }
                ),
                (
                    8,
                    RefBatch::Flat {
                        n: 4,
                        resident: 2,
                        fault: false
                    }
                ),
                (8, RefBatch::Evictions(2)),
            ]
        );
    }

    #[test]
    fn comparisons_match_paper_formulas() {
        let mut cd = Metrics::new(2000);
        for _ in 0..100 {
            cd.record(10, false);
        }
        let mut lru = Metrics::new(2000);
        for _ in 0..100 {
            lru.record(25, false);
        }
        assert!((lru.mem_excess_pct(&cd) - 150.0).abs() < 1e-9);
        assert!((lru.st_excess_pct(&cd) - 150.0).abs() < 1e-9);
        assert_eq!(lru.pf_excess(&cd), 0);
    }

    #[test]
    fn exec_stats_rates_and_deltas() {
        let a = ExecStats {
            cache_hits: 9,
            cache_misses: 1,
            sim_points: 1,
            sim_wall_ns: 5000,
        };
        assert!((a.hit_rate() - 90.0).abs() < 1e-9);
        assert_eq!(a.mean_point_ns(), 5000);
        let zero = ExecStats::default();
        assert_eq!(zero.hit_rate(), 0.0);
        assert_eq!(zero.mean_point_ns(), 0);
        let d = a.since(&ExecStats {
            cache_hits: 4,
            cache_misses: 1,
            sim_points: 1,
            sim_wall_ns: 2000,
        });
        assert_eq!(d.cache_hits, 5);
        assert_eq!(d.sim_wall_ns, 3000);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = Metrics::new(2000);
        assert_eq!(m.mean_mem(), 0.0);
        assert_eq!(m.st_cost(), 0.0);
        assert_eq!(m.fault_rate(), 0.0);
        let other = Metrics::new(2000);
        assert_eq!(other.st_excess_pct(&m), 0.0);
        assert_eq!(other.mem_excess_pct(&m), 0.0);
    }
}
