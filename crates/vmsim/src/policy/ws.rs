//! Denning's Working Set policy.
//!
//! `WS(τ)` keeps exactly the pages referenced during the last `τ`
//! references. Allocation is variable: the resident set grows at faults
//! and shrinks as pages age out of the window.

use std::collections::{HashMap, VecDeque};

use cdmm_trace::{PageId, Run};

use crate::metrics::Tally;
use crate::observe::{Detail, SimEvent};
use crate::policy::Policy;

/// The Working Set policy with window `τ` (in references).
///
/// Per-page state is a flat last-use table indexed directly by the
/// (dense) page id — one load per membership test, no hashing on the
/// per-reference path.
#[derive(Debug, Clone)]
pub struct WorkingSet {
    tau: u64,
    clock: u64,
    /// `last_ref[p]` = clock of page `p`'s latest reference while in
    /// the working set; 0 = not resident (the clock starts at 1).
    last_ref: Vec<u64>,
    resident: usize,
    /// Reference history `(time, page)` pending expiry.
    expiry: VecDeque<(u64, PageId)>,
    /// Pages aged out of the window so far.
    evictions: u64,
    /// Decision-level tracing: `Evict` events, per-reference kernels.
    tracing: bool,
    events: Vec<SimEvent>,
}

impl WorkingSet {
    /// Creates a WS policy with window `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is zero.
    pub fn new(tau: u64) -> Self {
        assert!(tau > 0, "WS window must be positive");
        WorkingSet {
            tau,
            clock: 0,
            last_ref: Vec::new(),
            resident: 0,
            expiry: VecDeque::new(),
            evictions: 0,
            tracing: false,
            events: Vec::new(),
        }
    }

    /// The window parameter.
    pub fn tau(&self) -> u64 {
        self.tau
    }

    /// Releases every resident page (used when the multiprogramming
    /// driver swaps the process out). Keeps the last-use table's
    /// capacity so swapping back in allocates nothing.
    pub fn swap_out(&mut self) {
        self.last_ref.fill(0);
        self.resident = 0;
        self.expiry.clear();
    }

    /// Batch-applies `rem ≥ 1` steady cycle iterations of `body`
    /// (`period` references each), called once an iteration with a full
    /// in-cycle predecessor completed fault-free. From that point the
    /// inter-touch gap of every body page repeats each iteration, and a
    /// WS hit is a pure function of the gap — so no body page ever
    /// faults or expires again, and the only mid-span state changes are
    /// the deterministic expiries of *other* resident pages, integrated
    /// piecewise exactly like the stride-0 run kernel.
    fn batch_steady_iterations(
        &mut self,
        body: &[Run],
        rem: u64,
        period: u64,
        tally: &mut Tally<'_>,
    ) {
        let c0 = self.clock;
        let end_clock = c0 + rem * period;
        // Each body page's final touch lands at its last within-iteration
        // clock offset (1-based), in the last skipped iteration.
        let mut last_off: HashMap<u32, u64> = HashMap::new();
        let mut off = 0u64;
        for r in body {
            r.for_each_page(|p| {
                off += 1;
                last_off.insert(p.0, off);
            });
        }
        let mut final_touch: Vec<(u64, PageId)> = last_off
            .into_iter()
            .map(|(p, o)| (c0 + (rem - 1) * period + o, PageId(p)))
            .collect();
        final_touch.sort_unstable();
        // Pin body pages at their final touch times up front: their
        // queued history entries become superseded no-ops, exactly as
        // the per-ref loop's every-iteration refresh achieves.
        for &(t, page) in &final_touch {
            self.last_ref[page.0 as usize] = t;
        }
        // Everything else expires at its per-ref pop tick `t + τ + 1`.
        self.expire_through(end_clock, tally);
        // One history entry per body page — every earlier touch is
        // superseded by the final one, so only it ever matters.
        for &(t, page) in &final_touch {
            self.expiry.push_back((t, page));
        }
    }

    /// Accounts for the hits at clocks `self.clock + 1 ..= end_clock`,
    /// during which every page expiring on the way does so at its
    /// per-ref pop tick `t + τ + 1` (the callers have pinned the pages
    /// being hit, so none of them expires). The resident set only
    /// shrinks, so each span between two expiries is one batch below
    /// the peak — O(expiries), not O(references).
    fn expire_through(&mut self, end_clock: u64, tally: &mut Tally<'_>) {
        // Ticks are unique, so pops arrive in strictly increasing t and
        // the spans never overlap.
        let mut last_tick = self.clock;
        while let Some(&(t, page)) = self.expiry.front() {
            if t + self.tau >= end_clock {
                break;
            }
            self.expiry.pop_front();
            if self.last_ref[page.0 as usize] == t {
                self.last_ref[page.0 as usize] = 0;
                // The reference at the pop tick already sees the page
                // gone.
                let t_pop = t + self.tau + 1;
                tally.record_below_peak(self.resident, t_pop - 1 - last_tick);
                self.resident -= 1;
                self.evictions += 1;
                last_tick = t_pop - 1;
            }
        }
        tally.record_below_peak(self.resident, end_clock - last_tick);
        self.clock = end_clock;
    }

    /// Drops pages whose last reference fell before the window
    /// `[t - τ, t - 1]` preceding the reference being processed — the
    /// fault test of Denning's `WS(t-1, τ)`.
    fn expire(&mut self) {
        while let Some(&(t, page)) = self.expiry.front() {
            if t + self.tau < self.clock {
                self.expiry.pop_front();
                // Only drop the page if this history entry is its latest.
                if self.last_ref[page.0 as usize] == t {
                    self.last_ref[page.0 as usize] = 0;
                    self.resident -= 1;
                    self.evictions += 1;
                    if self.tracing {
                        self.events.push(SimEvent::Evict { page });
                    }
                }
            } else {
                break;
            }
        }
    }
}

impl Policy for WorkingSet {
    fn label(&self) -> String {
        format!("WS({})", self.tau)
    }

    fn reference(&mut self, page: PageId) -> bool {
        self.clock += 1;
        self.expire();
        let idx = page.0 as usize;
        if idx >= self.last_ref.len() {
            self.last_ref.resize(idx + 1, 0);
        }
        let fault = self.last_ref[idx] == 0;
        if fault {
            self.resident += 1;
        }
        self.last_ref[idx] = self.clock;
        self.expiry.push_back((self.clock, page));
        fault
    }

    fn resident(&self) -> usize {
        self.resident
    }

    fn swap_out(&mut self) {
        WorkingSet::swap_out(self);
    }

    fn set_detail(&mut self, detail: Detail) {
        self.tracing = detail >= Detail::Decisions;
        if !self.tracing {
            self.events.clear();
        }
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn drain_events(&mut self, out: &mut Vec<SimEvent>) {
        out.append(&mut self.events);
    }

    fn reference_run(&mut self, start: PageId, stride: i32, len: u32, tally: &mut Tally<'_>) {
        // Stride ≠ 0 runs touch distinct pages, each needing its own
        // last-use write and history entry — nothing to batch. Tracing
        // needs per-eviction events in per-ref order.
        if self.tracing || len <= 1 || stride != 0 {
            return crate::policy::reference_run_per_ref(self, start, stride, len, tally);
        }
        // First reference per-ref: it runs the expiry scan, grows the
        // table, and settles the fault.
        let fault = self.reference(start);
        tally.record(self.resident, fault);
        let end_clock = self.clock + (len as u64 - 1);
        // Pin the run page at its *final* reference time up front: its
        // older history entries become superseded no-ops, which is
        // exactly what the per-ref loop's every-tick refresh achieves
        // (τ ≥ 1 means a page referenced every tick can never age out).
        self.last_ref[start.0 as usize] = end_clock;
        // Other pages still expire mid-run.
        self.expire_through(end_clock, tally);
        // One history entry for the whole run: per-ref, every mid-run
        // entry is superseded by the next tick's refresh, so only the
        // final one ever matters.
        self.expiry.push_back((end_clock, start));
    }

    fn reference_cycle(&mut self, body: &[Run], reps: u32, tally: &mut Tally<'_>) {
        if self.tracing {
            return crate::policy::reference_cycle_per_run(self, body, reps, tally);
        }
        let period: u64 = body.iter().map(|r| r.len as u64).sum();
        for it in 0..reps {
            let faults_before = tally.faults();
            for r in body {
                self.reference_run(r.start, r.stride, r.len, tally);
            }
            // WS steadiness needs a full in-cycle predecessor iteration
            // (`it ≥ 1`): hits are decided by inter-touch gaps, and the
            // gaps only become periodic once the previous touch also lay
            // inside the cycle.
            if it >= 1 && tally.faults() == faults_before && it + 1 < reps {
                self.batch_steady_iterations(body, (reps - 1 - it) as u64, period, tally);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_trace::synth;

    fn run(ws: &mut WorkingSet, pages: &[u32]) -> Vec<bool> {
        pages.iter().map(|&p| ws.reference(PageId(p))).collect()
    }

    #[test]
    fn window_one_only_keeps_current_page() {
        let mut ws = WorkingSet::new(1);
        let f = run(&mut ws, &[1, 1, 2, 1]);
        assert_eq!(f, vec![true, false, true, true]);
        assert!(ws.resident() <= 2);
    }

    #[test]
    fn pages_age_out_after_tau() {
        let mut ws = WorkingSet::new(3);
        run(&mut ws, &[1, 2, 3, 4]);
        // Page 1 was last referenced at t=1; the fifth reference sits
        // outside its window (1 + 3 < 5), so it refaults.
        assert_eq!(ws.resident(), 4);
        assert!(ws.reference(PageId(1)), "page 1 aged out");
    }

    #[test]
    fn re_reference_refreshes_age() {
        let mut ws = WorkingSet::new(3);
        run(&mut ws, &[1, 2, 1, 3]);
        // Page 1 refreshed at t=3, still in the window at t=4.
        assert!(!ws.reference(PageId(1)));
    }

    #[test]
    fn large_window_holds_whole_program() {
        let t = synth::cyclic(8, 50);
        let mut ws = WorkingSet::new(100_000);
        let faults = t.refs().filter(|&p| ws.reference(p)).count();
        assert_eq!(faults, 8, "only cold faults");
        assert_eq!(ws.resident(), 8);
    }

    #[test]
    fn ws_size_tracks_locality() {
        // Phase 1 uses 10 pages, phase 2 uses 2: with a modest window the
        // WS shrinks after the transition.
        let t = synth::phased(
            &[
                cdmm_trace::synth::Phase {
                    base: 0,
                    pages: 10,
                    refs: 5_000,
                },
                cdmm_trace::synth::Phase {
                    base: 10,
                    pages: 2,
                    refs: 5_000,
                },
            ],
            11,
        );
        let mut ws = WorkingSet::new(200);
        for p in t.refs() {
            ws.reference(p);
        }
        assert!(
            ws.resident() <= 3,
            "after the transition only the small set remains"
        );
    }

    #[test]
    fn faults_monotone_in_tau() {
        let t = synth::uniform(16, 5_000, 9);
        let mut last = u64::MAX;
        for tau in [1u64, 4, 16, 64, 256, 1024] {
            let mut ws = WorkingSet::new(tau);
            let f = t.refs().filter(|&p| ws.reference(p)).count() as u64;
            assert!(f <= last, "WS faults must not increase with tau");
            last = f;
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        WorkingSet::new(0);
    }
}
