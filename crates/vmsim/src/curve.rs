//! One-pass sweep curve kernels: the exact LRU and WS operating curves
//! of a trace, every parameter answered from a single pass.
//!
//! The experiment sweeps (Tables 2–4, the memory/fault matching
//! searches, the frontier curves) ask the same question at many
//! parameters: *what would the full [`Metrics`] be at allocation `m` /
//! window `τ`?* Simulating per point costs `O(points × trace)`. Both
//! families admit a one-pass answer:
//!
//! - **LRU** is a stack algorithm. One Bennett–Kruskal stack-distance
//!   pass yields the fault count at every allocation (the Mattson
//!   inclusion property), and — because the LRU resident set is exactly
//!   `min(distinct-so-far, m)` — the cold-fault tick positions recorded
//!   by the same pass determine the resident-size step function, hence
//!   `Σ_t min(D(t), m)` and the fault-weighted integral, in closed form
//!   for every `m`. [`LruCurve::metrics_at`] reconstructs the exact
//!   per-reference [`Metrics`] the simulator would produce.
//!
//! - **WS(τ)** is decided by inter-reference gaps: a reference faults
//!   iff its backward gap exceeds `τ`; a page ages out `τ + 1` ticks
//!   after an occurrence whose forward gap exceeds `τ`. One
//!   [`GapProfile`] pass therefore fixes the fault count and resident
//!   integral for every window in logarithmic query time, and a per-τ
//!   merge of the (pre-extracted) fault and age-out event groups
//!   reconstructs the fault-weighted integral and peak exactly.
//!
//! Both kernels ignore directive events, which is *exact* — not an
//! approximation — for LRU and WS: their [`crate::policy::Policy`]
//! directive hooks are no-ops and the simulate drivers tick metrics on
//! references only. Directive-consuming policies (CD) must keep
//! simulating per point; the sweep planner in `cdmm-core` owns that
//! dispatch.

use cdmm_trace::{EventSource, GapProfile};

use crate::metrics::Metrics;
use crate::stack::{StackProfile, TreePass};

/// The exact LRU operating curve of one trace: full [`Metrics`] at any
/// allocation, from one stack-distance pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LruCurve {
    profile: StackProfile,
    /// `pref_ticks[k]` = reference ticks with `distinct-so-far ≤ k`.
    pref_ticks: Vec<u64>,
    /// `pref_weighted[k]` = `Σ_{j ≤ k} j · (ticks at distinct-so-far j)`.
    pref_weighted: Vec<u128>,
}

impl LruCurve {
    /// Computes the curve in one run-level stack-distance pass —
    /// `O(runs log P)` on a compressed trace, like
    /// [`StackProfile::compute`].
    pub fn compute<S: EventSource + ?Sized>(trace: &S) -> LruCurve {
        let hint = trace.page_count_hint().max(16);
        let mut pass = TreePass::new(hint);
        trace.for_each_run(|run| pass.feed(run));
        Self::from_pass(pass)
    }

    /// [`LruCurve::compute`] under a cooperative cancellation poll
    /// (once per compressed op). Returns `None` when the poll stopped
    /// the stream early.
    pub fn compute_cancellable<S: EventSource + ?Sized>(
        trace: &S,
        keep_going: impl FnMut() -> bool,
    ) -> Option<LruCurve> {
        let hint = trace.page_count_hint().max(16);
        let mut pass = TreePass::new(hint);
        if !trace.for_each_run_while(keep_going, |run| pass.feed(run)) {
            return None;
        }
        Some(Self::from_pass(pass))
    }

    fn from_pass(pass: TreePass) -> LruCurve {
        let d = pass.distinct;
        let refs = pass.refs;
        let cold_time = &pass.cold_time;
        debug_assert_eq!(cold_time.len(), d);
        // The distinct-so-far step function D(t) jumps to k at the tick
        // of the k-th cold fault, so the tick mass at each level is
        // fully determined by the cold-fault tick positions — batched
        // spans (which never cold-fault) need no special handling.
        let mut pref_ticks = vec![0u64; d + 1];
        let mut pref_weighted = vec![0u128; d + 1];
        for k in 1..=d {
            pref_ticks[k] = if k < d { cold_time[k] - 1 } else { refs };
            let tad = pref_ticks[k] - pref_ticks[k - 1];
            pref_weighted[k] = pref_weighted[k - 1] + k as u128 * tad as u128;
        }
        LruCurve {
            profile: StackProfile::from_pass(pass),
            pref_ticks,
            pref_weighted,
        }
    }

    /// The underlying fault-count profile.
    pub fn profile(&self) -> &StackProfile {
        &self.profile
    }

    /// LRU faults at an allocation of `m` pages.
    pub fn faults_at(&self, m: usize) -> u64 {
        self.profile.faults_at(m)
    }

    /// Smallest allocation whose fault count is `≤ budget`, if any.
    pub fn min_alloc_for(&self, budget: u64) -> Option<usize> {
        self.profile.min_alloc_for(budget)
    }

    /// Distinct pages in the trace.
    pub fn distinct(&self) -> usize {
        self.profile.distinct()
    }

    /// References in the trace.
    pub fn refs(&self) -> u64 {
        self.profile.refs()
    }

    /// The exact [`Metrics`] the per-reference LRU simulation produces
    /// at allocation `m` (clamped to `≥ 1`, like the simulator's
    /// constructor) with the given fault-service time.
    ///
    /// The LRU resident set after tick `t` is `min(D(t), m)` where
    /// `D(t)` is distinct-pages-so-far (the set only grows, by one per
    /// cold fault, until it saturates at `m`), so:
    ///
    /// - `MEM  = Σ_t min(D(t), m)` — prefix sums over the tick mass at
    ///   each distinct level;
    /// - every non-cold fault has stack distance `d > m`, hence at
    ///   least `d > m` distinct pages seen: its resident term is
    ///   exactly `m`; the k-th cold fault's is `min(k, m)`;
    /// - `peak = min(distinct, m)`.
    pub fn metrics_at(&self, m: usize, fault_service: u64) -> Metrics {
        let mut out = Metrics::new(fault_service);
        let refs = self.refs();
        if refs == 0 {
            return out;
        }
        let m = m.max(1);
        let d = self.distinct();
        let c = m.min(d);
        let faults = self.faults_at(m);
        let cold = d as u64;
        let tail = faults - cold;
        out.refs = refs;
        out.faults = faults;
        out.mem_integral = self.pref_weighted[c] + m as u128 * (refs - self.pref_ticks[c]) as u128;
        out.fault_mem_integral = c as u128 * (c as u128 + 1) / 2
            + m as u128 * (d - c) as u128
            + m as u128 * tail as u128;
        out.peak_resident = c;
        out
    }
}

/// The exact WS operating curve of one trace: full [`Metrics`] at any
/// window, from one gap-extraction pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WsCurve {
    gaps: GapProfile,
}

impl WsCurve {
    /// Extracts the gap profile in one run-level pass.
    pub fn compute<S: EventSource + ?Sized>(trace: &S) -> WsCurve {
        WsCurve {
            gaps: GapProfile::compute(trace),
        }
    }

    /// [`WsCurve::compute`] under a cooperative cancellation poll (once
    /// per compressed op). Returns `None` when the poll stopped the
    /// stream early.
    pub fn compute_cancellable<S: EventSource + ?Sized>(
        trace: &S,
        keep_going: impl FnMut() -> bool,
    ) -> Option<WsCurve> {
        GapProfile::compute_while(trace, keep_going).map(|gaps| WsCurve { gaps })
    }

    /// References in the trace.
    pub fn refs(&self) -> u64 {
        self.gaps.refs()
    }

    /// WS faults at window `tau` (clamped to `≥ 1`): occurrences whose
    /// backward gap exceeds the window. `O(log)` per query.
    pub fn faults_at(&self, tau: u64) -> u64 {
        self.gaps.count_gaps_over(tau.max(1))
    }

    /// The exact resident-set integral `Σ_t ws_size(t)` at window
    /// `tau`: each occurrence keeps its page resident for
    /// `min(forward gap, τ + 1, trace end)` ticks. `O(log)` per query.
    pub fn mem_integral_at(&self, tau: u64) -> u128 {
        self.gaps.span_integral(tau.max(1).saturating_add(1))
    }

    /// Mean resident memory at window `tau`, bit-identical to the
    /// simulated [`Metrics::mean_mem`] (same integer integral, same
    /// single division).
    pub fn mean_mem_at(&self, tau: u64) -> f64 {
        if self.refs() == 0 {
            0.0
        } else {
            self.mem_integral_at(tau) as f64 / self.refs() as f64
        }
    }

    /// The exact [`Metrics`] the per-reference WS simulation produces
    /// at window `tau` (clamped to `≥ 1`) with the given fault-service
    /// time.
    ///
    /// Fault and age-out events are expanded from the pre-extracted gap
    /// groups and merged in time order: the resident size at a fault
    /// tick is `#faults so far − #age-outs so far` (age-outs at the
    /// same tick land first — the simulator expires before it faults).
    /// Cost is `O(F log F)` in the number of events at this window —
    /// proportional to the work the simulator would spend on faults and
    /// expiries, while hit-dominated windows are nearly free.
    pub fn metrics_at(&self, tau: u64, fault_service: u64) -> Metrics {
        self.metrics_for(&[tau], fault_service)
            .pop()
            .expect("one window")
    }

    /// [`WsCurve::metrics_at`] for a whole window grid at once. The
    /// windows are evaluated largest-first: shrinking `τ` only ever
    /// *adds* fault and age-out events (the gap bound loosens), so the
    /// active event lists grow by merging in each window's newly
    /// admitted group expansions and every window walks exactly its own
    /// `O(F_τ + D_τ)` events — never the whole smallest-window set.
    /// Summed over a grid that is `O(Σ F_τ)`, which decays fast as the
    /// windows widen; the answers are bit-identical to per-window
    /// evaluation.
    pub fn metrics_for(&self, taus: &[u64], fault_service: u64) -> Vec<Metrics> {
        let refs = self.refs();
        let mut out: Vec<Metrics> = taus.iter().map(|_| Metrics::new(fault_service)).collect();
        if refs == 0 || taus.is_empty() {
            return out;
        }
        let mut order: Vec<usize> = (0..taus.len()).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(taus[i].max(1)));
        // Active event ticks, ascending: occurrences whose backward gap
        // (faults) / forward gap (age-out candidates) exceeds the
        // current window. A drop fires `τ + 1` ticks after its
        // occurrence — the shift is uniform, so occurrence-tick order is
        // firing order at every window.
        let mut faults: Vec<u64> = Vec::new();
        let mut drops: Vec<u64> = Vec::new();
        let (mut fg, mut dg) = (0usize, 0usize);
        let mut fresh: Vec<u64> = Vec::new();
        for &oi in &order {
            let tau = taus[oi].max(1);
            let fgroups = self.gaps.gap_groups_over(tau);
            if fg < fgroups.len() {
                fresh.clear();
                for g in &fgroups[fg..] {
                    fresh.extend(g.times());
                }
                fg = fgroups.len();
                merge_ticks(&mut faults, &mut fresh);
            }
            let dgroups = self.gaps.next_groups_over(tau);
            if dg < dgroups.len() {
                fresh.clear();
                for g in &dgroups[dg..] {
                    fresh.extend(g.times());
                }
                dg = dgroups.len();
                merge_ticks(&mut drops, &mut fresh);
            }
            let m = &mut out[oi];
            let mut faults_n: u64 = 0;
            let mut drops_n: u64 = 0;
            let mut fmi: u128 = 0;
            let mut peak: u64 = 0;
            let mut di = 0usize;
            for &t in &faults {
                // Same-tick drops land before the fault — the simulator
                // expires before it faults.
                while di < drops.len() && drops[di].saturating_add(tau).saturating_add(1) <= t {
                    drops_n += 1;
                    di += 1;
                }
                faults_n += 1;
                let r = faults_n - drops_n;
                fmi += r as u128;
                peak = peak.max(r);
            }
            m.refs = refs;
            m.faults = faults_n;
            m.mem_integral = self.gaps.span_integral(tau.saturating_add(1));
            m.fault_mem_integral = fmi;
            m.peak_resident = peak as usize;
        }
        out
    }
}

/// Merges `add` (unsorted) into the ascending tick list `dst`, in
/// place: `dst` grows by `add.len()` and fills from the back, so no
/// second buffer of the merged size is ever live.
fn merge_ticks(dst: &mut Vec<u64>, add: &mut [u64]) {
    add.sort_unstable();
    let (mut i, mut j) = (dst.len(), add.len());
    // Exact growth: the lists reach the smallest window's event count,
    // and doubling would hold up to twice that.
    dst.reserve_exact(j);
    dst.resize(i + j, 0);
    while j > 0 {
        let k = i + j - 1;
        if i > 0 && dst[i - 1] > add[j - 1] {
            dst[k] = dst[i - 1];
            i -= 1;
        } else {
            dst[k] = add[j - 1];
            j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_ticks_merges_in_place() {
        let mut dst = vec![2, 5, 5, 9];
        merge_ticks(&mut dst, &mut [7, 1, 5, 10]);
        assert_eq!(dst, [1, 2, 5, 5, 5, 7, 9, 10]);
        let mut empty = Vec::new();
        merge_ticks(&mut empty, &mut [3, 1]);
        assert_eq!(empty, [1, 3]);
        merge_ticks(&mut empty, &mut []);
        assert_eq!(empty, [1, 3]);
    }
    use crate::observe::NullTracer;
    use crate::policy::lru::Lru;
    use crate::policy::ws::WorkingSet;
    use crate::sim::{simulate, simulate_with, SimConfig};
    use cdmm_trace::{synth, CancelToken, CompressedTrace, Trace};

    fn run_level<P: crate::Policy>(c: &CompressedTrace, mut policy: P) -> crate::Metrics {
        let token = CancelToken::new();
        simulate_with(
            c,
            &mut policy,
            SimConfig::default(),
            &mut NullTracer,
            &token,
        )
        .expect("an idle token never stops the run")
    }

    fn traces() -> Vec<Trace> {
        let mut out = vec![
            synth::cyclic(12, 40),
            synth::cyclic(1, 100),
            synth::cyclic(64, 10),
            synth::nested_loops(6, 4, 10, 2),
            Trace::default(),
        ];
        for seed in 0..6 {
            out.push(synth::uniform(5 + (seed as u32 % 40), 2_500, seed));
        }
        // Long stride-0 spans and a straggler page.
        let mut events = Vec::new();
        for i in 0..200u32 {
            for _ in 0..30 {
                events.push(cdmm_trace::Event::Ref(cdmm_trace::PageId(i % 3)));
            }
        }
        events.push(cdmm_trace::Event::Ref(cdmm_trace::PageId(7)));
        out.push(Trace::from_events(events));
        out
    }

    #[test]
    fn lru_curve_matches_simulation() {
        for t in traces() {
            let c = CompressedTrace::from_trace(&t);
            for curve in [LruCurve::compute(&t), LruCurve::compute(&c)] {
                let top = curve.distinct().max(1) + 2;
                for m in [1usize, 2, 3, 5, 8, 13, top / 2, top] {
                    let m = m.max(1);
                    let per_ref = simulate(&t, &mut Lru::new(m), SimConfig::default());
                    assert_eq!(per_ref, run_level(&c, Lru::new(m)), "harness: m={m}");
                    assert_eq!(curve.metrics_at(m, 2000), per_ref, "kernel: m={m}");
                }
            }
        }
    }

    #[test]
    fn ws_curve_matches_simulation() {
        for t in traces() {
            let c = CompressedTrace::from_trace(&t);
            let r = EventSource::ref_count(&t).max(2);
            for curve in [WsCurve::compute(&t), WsCurve::compute(&c)] {
                for tau in [1u64, 2, 3, 7, 31, r / 3, r, r * 2] {
                    let tau = tau.max(1);
                    let per_ref = simulate(&t, &mut WorkingSet::new(tau), SimConfig::default());
                    let run_level = run_level(&c, WorkingSet::new(tau));
                    assert_eq!(per_ref, run_level, "harness: tau={tau}");
                    assert_eq!(curve.metrics_at(tau, 2000), per_ref, "kernel: tau={tau}");
                    assert_eq!(curve.faults_at(tau), per_ref.faults, "faults: tau={tau}");
                    assert_eq!(
                        curve.mem_integral_at(tau),
                        per_ref.mem_integral,
                        "integral: tau={tau}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_ws_metrics_match_single_window_evaluation() {
        for t in traces() {
            let curve = WsCurve::compute(&t);
            let r = EventSource::ref_count(&t).max(2);
            let grid: Vec<u64> = vec![1, 2, 3, 7, 31, r / 3, r, r * 2];
            let batch = curve.metrics_for(&grid, 2000);
            assert_eq!(batch.len(), grid.len());
            for (&tau, m) in grid.iter().zip(&batch) {
                assert_eq!(*m, curve.metrics_at(tau, 2000), "batched tau={tau} drifted");
            }
        }
    }

    #[test]
    fn curves_are_cancellable() {
        let t = synth::uniform(20, 2_000, 3);
        let c = CompressedTrace::from_trace(&t);
        assert!(LruCurve::compute_cancellable(&c, || false).is_none());
        assert!(WsCurve::compute_cancellable(&c, || false).is_none());
        assert_eq!(
            LruCurve::compute_cancellable(&c, || true).as_ref(),
            Some(&LruCurve::compute(&c))
        );
        assert_eq!(
            WsCurve::compute_cancellable(&c, || true).as_ref(),
            Some(&WsCurve::compute(&c))
        );
    }

    #[test]
    fn empty_trace_curves() {
        let t = Trace::default();
        let lru = LruCurve::compute(&t);
        let ws = WsCurve::compute(&t);
        assert_eq!(lru.metrics_at(4, 2000), Metrics::new(2000));
        assert_eq!(ws.metrics_at(4, 2000), Metrics::new(2000));
        assert_eq!(ws.mean_mem_at(4), 0.0);
    }
}
