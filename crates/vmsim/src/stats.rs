//! Quantitative observability: a registry of counters, gauges, and
//! log-bucketed streaming histograms fed from the simulator's existing
//! event stream.
//!
//! The [`crate::observe`] layer gives the simulator typed events; this
//! module turns those events into *distributions* — the measurement the
//! paper's own evaluation (Section 5, Tables 2–4) is built on. A
//! [`MetricsRegistry`] is an ordinary [`Tracer`] at
//! [`Detail::Aggregates`]: its reference statistics come from the
//! [`RefBatch`]es the run-level kernels account for in closed form, so
//! a run with a registry keeps those kernels, and its directive
//! statistics from the outcome events. A run without a registry
//! executes no stats code at all.
//!
//! Tracked out of the box (names are stable, they appear in snapshots,
//! scorecards, and `BENCH_*.json` artifacts):
//!
//! - `fault_interarrival` — references between consecutive faults.
//! - `resident_occupancy` — resident-set size sampled at every
//!   reference (one weighted sample per batch of references at one
//!   size).
//! - `lock_dwell` — references between a `LOCK` and the `UNLOCK`
//!   releasing it.
//! - per-priority-index `ALLOCATE` outcomes and grant-size
//!   distributions ([`PiStats`]).
//! - counters for faults, evictions, lock traffic, swapper
//!   invocations, recovered directives, degradations and the fleet
//!   scheduler's tenant lifecycle.
//!
//! The registry is a plain struct with no interior synchronization: a
//! run borrows it as its `&mut dyn Tracer` and the caller reads
//! [`MetricsRegistry::snapshot`] afterwards. Wall time, cache hits and
//! quarantined cache lines are not simulation events; they live in
//! [`crate::ExecStats`] and the result cache.

use std::collections::BTreeMap;

use crate::observe::{AllocDecision, Detail, Histogram, RefBatch, SimEvent, Tracer};

/// Histogram name: references between consecutive faults.
pub const FAULT_INTERARRIVAL: &str = "fault_interarrival";
/// Histogram name: resident-set size at every reference.
pub const RESIDENT_OCCUPANCY: &str = "resident_occupancy";
/// Histogram name: references a lock stayed held before its unlock.
pub const LOCK_DWELL: &str = "lock_dwell";
/// Counter name: references processed.
pub const REFS: &str = "refs";
/// Counter name: page faults.
pub const FAULTS: &str = "faults";
/// Counter name: pages evicted by normal replacement.
pub const EVICTIONS: &str = "evictions";
/// Gauge name: resident-set size after the latest reference.
pub const RESIDENT_PAGES: &str = "resident_pages";

/// Per-priority-index `ALLOCATE` statistics: Figure 6 outcome counts
/// plus the distribution of granted request sizes.
#[derive(Debug, Clone, Default)]
pub struct PiStats {
    /// Requests granted at this PI.
    pub granted: u64,
    /// Directives held over with this innermost PI.
    pub held_over: u64,
    /// Swap requests raised with this innermost PI.
    pub swap_needed: u64,
    /// Pages of each granted request at this PI.
    pub grant_pages: Histogram,
}

/// A registry of named counters, gauges, and streaming histograms.
///
/// Implements [`Tracer`], so any driver that accepts a tracer
/// ([`crate::simulate_with`], the fleet scheduler, and through them
/// `Prepared::run_policy_traced` and `PreparedFleet::run_cancellable`)
/// can feed it. Counters and histograms can
/// also be bumped directly by name for metrics that do not originate as
/// simulation events.
///
/// The statistics every batch updates — [`REFS`], [`FAULTS`],
/// [`EVICTIONS`], [`RESIDENT_PAGES`], [`RESIDENT_OCCUPANCY`] and
/// [`FAULT_INTERARRIVAL`] — live in typed fields, so a batch does no
/// name lookup; the by-name methods and the snapshot reach them under
/// those names. Like every named metric, a counter shows up only once
/// it is non-zero, a histogram once it has a sample, and the resident
/// gauge once a reference was recorded.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    pi: BTreeMap<u32, PiStats>,
    refs: u64,
    faults: u64,
    evictions: u64,
    resident: Option<u64>,
    occupancy: Histogram,
    interarrival: Histogram,
    last_fault_at: Option<u64>,
    /// Open locks, oldest first: clock at `LOCK` time. `UNLOCK` closes
    /// newest-first (locks nest), recording one dwell sample per lock.
    open_locks: Vec<u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The typed counter behind `name`, if it has one.
    fn typed_counter(&mut self, name: &str) -> Option<&mut u64> {
        match name {
            REFS => Some(&mut self.refs),
            FAULTS => Some(&mut self.faults),
            EVICTIONS => Some(&mut self.evictions),
            _ => None,
        }
    }

    /// The typed histogram behind `name`, if it has one.
    fn typed_histogram(&self, name: &str) -> Option<&Histogram> {
        match name {
            RESIDENT_OCCUPANCY => Some(&self.occupancy),
            FAULT_INTERARRIVAL => Some(&self.interarrival),
            _ => None,
        }
    }

    /// Adds `n` to a named counter.
    pub fn add(&mut self, name: &'static str, n: u64) {
        match self.typed_counter(name) {
            Some(c) => *c += n,
            None => *self.counters.entry(name).or_insert(0) += n,
        }
    }

    /// Increments a named counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Sets a named gauge to its current value.
    pub fn set_gauge(&mut self, name: &'static str, value: u64) {
        if name == RESIDENT_PAGES {
            self.resident = Some(value);
        } else {
            self.gauges.insert(name, value);
        }
    }

    /// Records one sample into a named histogram.
    pub fn record_sample(&mut self, name: &'static str, value: u64) {
        match name {
            RESIDENT_OCCUPANCY => self.occupancy.record(value),
            FAULT_INTERARRIVAL => self.interarrival.record(value),
            _ => self.hists.entry(name).or_default().record(value),
        }
    }

    /// A counter's current value (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        match name {
            REFS => self.refs,
            FAULTS => self.faults,
            EVICTIONS => self.evictions,
            _ => self.counters.get(name).copied().unwrap_or(0),
        }
    }

    /// A gauge's current value, when it was ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        if name == RESIDENT_PAGES {
            self.resident
        } else {
            self.gauges.get(name).copied()
        }
    }

    /// A named histogram, when any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.typed_histogram(name) {
            Some(h) => (h.count() > 0).then_some(h),
            None => self.hists.get(name),
        }
    }

    /// Per-priority-index `ALLOCATE` statistics.
    pub fn pi_stats(&self) -> &BTreeMap<u32, PiStats> {
        &self.pi
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Freezes the current state into an ordered, render-ready
    /// [`RegistrySnapshot`]. The typed statistics merge in under their
    /// names.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters = self.counters.clone();
        for (name, v) in [
            (REFS, self.refs),
            (FAULTS, self.faults),
            (EVICTIONS, self.evictions),
        ] {
            if v > 0 {
                counters.insert(name, v);
            }
        }
        let mut gauges = self.gauges.clone();
        if let Some(r) = self.resident {
            gauges.insert(RESIDENT_PAGES, r);
        }
        let mut hists: BTreeMap<&str, HistogramSummary> = self
            .hists
            .iter()
            .map(|(&k, h)| (k, HistogramSummary::of(h)))
            .collect();
        for name in [RESIDENT_OCCUPANCY, FAULT_INTERARRIVAL] {
            if let Some(h) = self.histogram(name) {
                hists.insert(name, HistogramSummary::of(h));
            }
        }
        RegistrySnapshot {
            counters: counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            hists: hists.into_iter().map(|(k, h)| (k.to_string(), h)).collect(),
            pi: self
                .pi
                .iter()
                .map(|(&pi, s)| {
                    (
                        pi,
                        PiSummary {
                            granted: s.granted,
                            held_over: s.held_over,
                            swap_needed: s.swap_needed,
                            grant_pages: HistogramSummary::of(&s.grant_pages),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Counts `n` faults at clocks `at − n + 1 ..= at`: one gap from
    /// the previous fault, then `n − 1` gaps of one reference.
    fn faults_ending_at(&mut self, at: u64, n: u64) {
        self.faults += n;
        if let Some(prev) = self.last_fault_at {
            self.interarrival.record((at + 1 - n).saturating_sub(prev));
        }
        self.interarrival.record_n(1, n - 1);
        self.last_fault_at = Some(at);
    }
}

impl Tracer for MetricsRegistry {
    fn detail(&self) -> Detail {
        // Reference statistics arrive as batches, directive outcomes as
        // events: the run-level kernels keep running.
        Detail::Aggregates
    }

    fn aggregate(&mut self, at: u64, batch: &RefBatch) {
        match *batch {
            RefBatch::Flat { n, resident, fault } => {
                if n == 0 {
                    return;
                }
                self.refs += n;
                self.occupancy.record_n(resident, n);
                self.resident = Some(resident);
                if fault {
                    self.faults_ending_at(at, n);
                }
            }
            RefBatch::Ramp { n, from, cap } => {
                if n == 0 {
                    return;
                }
                self.refs += n;
                // The k-th reference leaves min(from + k, cap) resident.
                let climb = n.min(cap.saturating_sub(from));
                for size in from + 1..=from + climb {
                    self.occupancy.record(size);
                }
                self.occupancy.record_n(cap, n - climb);
                self.resident = Some((from + n).min(cap));
                self.faults_ending_at(at, n);
            }
            RefBatch::Evictions(n) => self.evictions += n,
        }
    }

    fn record(&mut self, at: u64, event: &SimEvent) {
        match event {
            // Per-reference events: the batches already carry them.
            SimEvent::Ref { .. } | SimEvent::Fault { .. } | SimEvent::Evict { .. } => {}
            SimEvent::Alloc {
                pi,
                pages,
                decision,
            } => {
                let s = self.pi.entry(*pi).or_default();
                match decision {
                    AllocDecision::Granted => {
                        s.granted += 1;
                        s.grant_pages.record(*pages);
                    }
                    AllocDecision::HeldOver => s.held_over += 1,
                    AllocDecision::SwapNeeded => {
                        s.swap_needed += 1;
                        self.inc("swapper_invocations");
                    }
                }
            }
            SimEvent::Lock { .. } => {
                self.inc("locks");
                self.open_locks.push(at);
            }
            SimEvent::Unlock { .. } => {
                self.inc("unlocks");
                if let Some(opened) = self.open_locks.pop() {
                    self.record_sample(LOCK_DWELL, at.saturating_sub(opened));
                }
            }
            SimEvent::LockBroken { .. } => {
                self.inc("lock_breaks");
                // The broken lock is gone; its dwell ended here.
                if let Some(opened) = self.open_locks.pop() {
                    self.record_sample(LOCK_DWELL, at.saturating_sub(opened));
                }
            }
            SimEvent::Recovered { .. } => self.inc("recovered_directives"),
            SimEvent::Degraded => self.inc("degraded"),
            SimEvent::SwapOut { .. } => {
                self.inc("swap_outs");
                self.inc("swapper_invocations");
            }
            SimEvent::TenantAdmitted { forced, .. } => {
                self.inc("admissions");
                if *forced {
                    self.inc("forced_admissions");
                }
            }
            SimEvent::TenantFinished { .. } => self.inc("tenants_finished"),
            SimEvent::AdmissionDeferred { .. } => self.inc("admission_deferrals"),
            SimEvent::QueueDepth { ready, .. } => {
                self.record_sample("queue_ready", u64::from(*ready));
            }
        }
    }
}

/// Percentile digest of one histogram: count, mean, p50/p90/p99, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean of all samples.
    pub mean: f64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Exact largest sample.
    pub max: u64,
}

impl HistogramSummary {
    /// Digests a histogram.
    pub fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.percentile(0.50),
            p90: h.percentile(0.90),
            p99: h.percentile(0.99),
            max: h.max(),
        }
    }
}

/// Per-PI digest inside a snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiSummary {
    /// Requests granted at this PI.
    pub granted: u64,
    /// Directives held over with this innermost PI.
    pub held_over: u64,
    /// Swap requests raised with this innermost PI.
    pub swap_needed: u64,
    /// Distribution of granted request sizes.
    pub grant_pages: HistogramSummary,
}

/// An ordered, immutable snapshot of a [`MetricsRegistry`] — what the
/// scorecard renderer and the bench artifacts consume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// `(name, value)` counters, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, name-ordered.
    pub gauges: Vec<(String, u64)>,
    /// `(name, digest)` histograms, name-ordered.
    pub hists: Vec<(String, HistogramSummary)>,
    /// `(priority index, digest)` ALLOCATE statistics, PI-ordered.
    pub pi: Vec<(u32, PiSummary)>,
}

impl RegistrySnapshot {
    /// True when the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.pi.is_empty()
    }

    /// A counter's value in this snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// A histogram digest in this snapshot.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_trace::PageId;

    /// One faulting reference at clock `at`.
    fn fault(at: u64, r: &mut MetricsRegistry) {
        let batch = RefBatch::Flat {
            n: 1,
            resident: 1,
            fault: true,
        };
        r.aggregate(at, &batch);
    }

    #[test]
    fn empty_registry_snapshots_empty() {
        let r = MetricsRegistry::new();
        assert!(r.is_empty());
        let s = r.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.counter("faults"), 0);
        assert_eq!(s.histogram(FAULT_INTERARRIVAL), None);
    }

    #[test]
    fn fault_interarrival_distances_are_recorded() {
        let mut r = MetricsRegistry::new();
        fault(10, &mut r);
        fault(18, &mut r);
        fault(19, &mut r);
        assert_eq!(r.counter("faults"), 3);
        let h = r.histogram(FAULT_INTERARRIVAL).expect("gaps recorded");
        assert_eq!(h.count(), 2, "first fault opens no gap");
        assert_eq!(h.max(), 8);
    }

    #[test]
    fn an_all_fault_batch_ends_at_its_clock() {
        // Faults at 10, then a batch of three ending at 20: they fault at
        // 18, 19 and 20 — one gap of 8, then two gaps of 1.
        let mut r = MetricsRegistry::new();
        fault(10, &mut r);
        let batch = RefBatch::Flat {
            n: 3,
            resident: 4,
            fault: true,
        };
        r.aggregate(20, &batch);
        let h = r.histogram(FAULT_INTERARRIVAL).expect("gaps recorded");
        assert_eq!((h.count(), h.max(), h.bucket_count(1)), (3, 8, 2));
        assert_eq!(r.counter("faults"), 4);
        assert_eq!(r.counter("refs"), 4);
        assert_eq!(r.gauge("resident_pages"), Some(4));
    }

    #[test]
    fn a_ramp_climbs_to_its_cap() {
        // From 2 under a cap of 4, five faults leave 3, 4, 4, 4, 4.
        let mut r = MetricsRegistry::new();
        r.aggregate(
            5,
            &RefBatch::Ramp {
                n: 5,
                from: 2,
                cap: 4,
            },
        );
        let occ = r.histogram(RESIDENT_OCCUPANCY).expect("occupancy");
        assert_eq!((occ.count(), occ.max()), (5, 4));
        assert_eq!(occ.bucket_count(2), 1, "one reference at 3");
        assert_eq!(occ.bucket_count(3), 4, "four at the cap");
        assert!((occ.mean() - 19.0 / 5.0).abs() < 1e-12);
        assert_eq!(r.gauge("resident_pages"), Some(4));
        let gaps = r.histogram(FAULT_INTERARRIVAL).expect("gaps");
        assert_eq!((gaps.count(), gaps.max()), (4, 1), "back-to-back faults");
        assert_eq!((r.counter("faults"), r.counter("refs")), (5, 5));
    }

    #[test]
    fn a_ramp_entered_above_its_cap_sits_at_the_cap() {
        // After an UNLOCK the resident set can exceed the target: the
        // first miss trims straight down to the cap.
        let mut r = MetricsRegistry::new();
        r.aggregate(
            3,
            &RefBatch::Ramp {
                n: 3,
                from: 7,
                cap: 2,
            },
        );
        let occ = r.histogram(RESIDENT_OCCUPANCY).expect("occupancy");
        assert_eq!((occ.count(), occ.max(), occ.mean()), (3, 2, 2.0));
        assert_eq!(r.gauge("resident_pages"), Some(2));
    }

    #[test]
    fn statistics_appear_only_once_recorded() {
        let mut r = MetricsRegistry::new();
        r.aggregate(0, &RefBatch::Evictions(0));
        r.aggregate(
            0,
            &RefBatch::Ramp {
                n: 0,
                from: 1,
                cap: 4,
            },
        );
        assert!(r.snapshot().is_empty(), "zero batches record nothing");
        fault(1, &mut r);
        let s = r.snapshot();
        assert_eq!(s.counter("faults"), 1);
        assert!(s.counters.iter().all(|(n, _)| n != "evictions"));
        assert_eq!(s.histogram(FAULT_INTERARRIVAL), None, "one fault, no gap");
        assert!(s.histogram(RESIDENT_OCCUPANCY).is_some());
        assert_eq!(s.gauges, [("resident_pages".to_string(), 1)]);
    }

    #[test]
    fn by_name_updates_reach_the_typed_statistics() {
        let mut r = MetricsRegistry::new();
        r.inc("refs");
        r.add("evictions", 2);
        r.record_sample(RESIDENT_OCCUPANCY, 9);
        r.set_gauge("resident_pages", 9);
        r.aggregate(2, &RefBatch::Evictions(1));
        let s = r.snapshot();
        assert_eq!((s.counter("refs"), s.counter("evictions")), (1, 3));
        assert_eq!(s.histogram(RESIDENT_OCCUPANCY).map(|h| h.max), Some(9));
        assert_eq!(r.gauge("resident_pages"), Some(9));
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["evictions", "refs"], "merged in name order");
    }

    #[test]
    fn alloc_outcomes_split_by_pi_and_feed_the_swap_counter() {
        let mut r = MetricsRegistry::new();
        for (pi, pages, decision) in [
            (3, 40, AllocDecision::Granted),
            (3, 12, AllocDecision::Granted),
            (2, 0, AllocDecision::HeldOver),
            (1, 0, AllocDecision::SwapNeeded),
        ] {
            r.record(
                0,
                &SimEvent::Alloc {
                    pi,
                    pages,
                    decision,
                },
            );
        }
        let s3 = &r.pi_stats()[&3];
        assert_eq!(s3.granted, 2);
        assert_eq!(s3.grant_pages.count(), 2);
        assert_eq!(s3.grant_pages.max(), 40);
        assert_eq!(r.pi_stats()[&2].held_over, 1);
        assert_eq!(r.pi_stats()[&1].swap_needed, 1);
        assert_eq!(r.counter("swapper_invocations"), 1);
        let snap = r.snapshot();
        assert_eq!(snap.pi.len(), 3);
    }

    #[test]
    fn lock_dwell_spans_lock_to_unlock() {
        let mut r = MetricsRegistry::new();
        r.record(100, &SimEvent::Lock { pj: 2, pinned: 4 });
        r.record(110, &SimEvent::Lock { pj: 3, pinned: 1 });
        r.record(115, &SimEvent::Unlock { released: 1 });
        r.record(160, &SimEvent::Unlock { released: 4 });
        let h = r.histogram(LOCK_DWELL).expect("dwells recorded");
        assert_eq!(h.count(), 2);
        // Inner lock dwelt 5 refs, outer 60 (locks close newest-first).
        assert_eq!(h.max(), 60);
        assert_eq!(r.counter("locks"), 2);
        assert_eq!(r.counter("unlocks"), 2);
    }

    #[test]
    fn broken_locks_end_their_dwell() {
        let mut r = MetricsRegistry::new();
        r.record(7, &SimEvent::Lock { pj: 2, pinned: 1 });
        r.record(
            19,
            &SimEvent::LockBroken {
                page: PageId(3),
                pj: 2,
            },
        );
        assert_eq!(r.counter("lock_breaks"), 1);
        assert_eq!(r.histogram(LOCK_DWELL).map(|h| h.max()), Some(12));
    }

    #[test]
    fn refs_feed_occupancy_and_the_resident_gauge() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.detail(), Detail::Aggregates);
        for (at, n, resident) in [(1, 1, 1), (3, 2, 2)] {
            let batch = RefBatch::Flat {
                n,
                resident,
                fault: false,
            };
            r.aggregate(at, &batch);
        }
        assert_eq!(r.counter("refs"), 3);
        assert_eq!(r.gauge("resident_pages"), Some(2));
        let h = r.histogram(RESIDENT_OCCUPANCY).expect("occupancy");
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 2);
        // Per-reference events add nothing: the batches carry them.
        let page = PageId(0);
        r.record(4, &SimEvent::Fault { page, resident: 2 });
        r.record(4, &SimEvent::Evict { page });
        assert_eq!((r.counter("faults"), r.counter("evictions")), (0, 0));
    }

    #[test]
    fn swap_and_repair_events_are_counted() {
        let mut r = MetricsRegistry::new();
        r.record(0, &SimEvent::SwapOut { process: 1 });
        r.record(0, &SimEvent::Recovered { total: 1 });
        r.record(0, &SimEvent::Degraded);
        assert_eq!(r.counter("swap_outs"), 1);
        assert_eq!(r.counter("swapper_invocations"), 1);
        assert_eq!(r.counter("recovered_directives"), 1);
        assert_eq!(r.counter("degraded"), 1);
    }

    #[test]
    fn single_sample_percentiles_report_the_sample() {
        let mut r = MetricsRegistry::new();
        r.record_sample("x", 37);
        let snap = r.snapshot();
        let h = snap.histogram("x").expect("recorded");
        assert_eq!((h.p50, h.p90, h.p99, h.max), (37, 37, 37, 37));
        assert_eq!(h.count, 1);
        assert!((h.mean - 37.0).abs() < 1e-12);
    }

    #[test]
    fn u64_boundary_samples_do_not_overflow() {
        let mut r = MetricsRegistry::new();
        for v in [0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            r.record_sample("edge", v);
        }
        r.record_sample("edge", u64::MAX);
        let snap = r.snapshot();
        let h = snap.histogram("edge").expect("recorded");
        assert_eq!(h.count, 6);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.p99, u64::MAX);
        assert!(h.mean.is_finite());
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let mut r = MetricsRegistry::new();
        r.inc("zeta");
        r.inc("alpha");
        r.record_sample("m", 2);
        let s = r.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(r.snapshot(), s, "snapshotting is pure");
    }
}
