//! The memory-management policy zoo.
//!
//! [`Policy`] is the uniform interface the simulator drives. The paper's
//! three contenders are [`lru::Lru`], [`ws::WorkingSet`] and
//! [`cd::CdPolicy`]; the related-work policies discussed in the paper's
//! introduction ([`fifo::Fifo`], [`opt::Opt`], [`pff::Pff`] and the WS
//! variants in [`ws_variants`]) are provided for baselines and ablations,
//! along with [`clock::Clock`] (the era's practical LRU approximation)
//! and [`vmin::Vmin`] (the optimal variable-space frontier the paper's
//! DMIN reference formalizes).

pub mod cd;
pub mod clock;
pub mod fifo;
pub mod lru;
pub mod opt;
pub mod pff;
pub mod vmin;
pub mod ws;
pub mod ws_variants;

use cdmm_trace::Event;
use cdmm_trace::{PageId, Run};

use crate::metrics::Metrics;
use crate::observe::SimEvent;
use crate::recency::RecencySet;

/// A demand-paging memory-management policy.
///
/// The simulator calls [`Policy::reference`] once per page reference and
/// [`Policy::directive`] for each directive event; policies other than CD
/// ignore directives (the default).
pub trait Policy {
    /// A short human-readable name, e.g. `"LRU(26)"`.
    fn label(&self) -> String;

    /// Processes one page reference; returns `true` on a page fault.
    fn reference(&mut self, page: PageId) -> bool;

    /// Current resident-set size in pages.
    fn resident(&self) -> usize;

    /// Processes a directive event (ALLOCATE / LOCK / UNLOCK).
    fn directive(&mut self, event: &Event) {
        let _ = event;
    }

    /// How many invalid directives the policy clamped or discarded so
    /// far. Policies without a directive validator report 0.
    fn recovered_directives(&self) -> u64 {
        0
    }

    /// True once the policy has stopped trusting its directive stream
    /// and fallen back to plain demand paging.
    fn is_degraded(&self) -> bool {
        false
    }

    /// Turns in-policy event collection on or off. Instrumented
    /// policies start buffering [`SimEvent`]s when enabled; policies
    /// without emission sites ignore the call (the default).
    fn set_tracing(&mut self, on: bool) {
        let _ = on;
    }

    /// Moves the events buffered since the last drain into `out`
    /// (in emission order). The default buffers nothing.
    fn drain_events(&mut self, out: &mut Vec<SimEvent>) {
        let _ = out;
    }

    /// Processes one constant-stride run of `len` references — `start,
    /// start+stride, …` — accumulating into `metrics` exactly what the
    /// per-reference driver loop would: one [`Metrics::record`] after
    /// each reference, plus the degraded-reference count.
    ///
    /// The default decodes the run reference by reference; the paper
    /// policies (CD, LRU, WS) and the served baselines (FIFO, Clock,
    /// OPT, PFF) override it with closed-form batch kernels and fall
    /// back to this decode in the hard cases. Whatever
    /// path is taken, the resulting policy state and metrics must be
    /// byte-identical to the per-ref loop — the contract the
    /// `run_level_equivalence` differential harness pins.
    fn reference_run(&mut self, start: PageId, stride: i32, len: u32, metrics: &mut Metrics) {
        reference_run_per_ref(self, start, stride, len, metrics);
    }

    /// Processes a cycle — the run sequence `body` repeated `reps`
    /// times — with the same byte-identical metrics contract as
    /// [`Policy::reference_run`].
    ///
    /// The default replays the body run by run every iteration. The
    /// policies with run kernels override it with a *steady-state*
    /// kernel: they execute iterations through [`Policy::reference_run`]
    /// until one completes without a fault, prove from that that every
    /// remaining iteration is identical, and account for all of them at
    /// once — the run-level counterpart of a loop reaching its resident
    /// working set.
    fn reference_cycle(&mut self, body: &[Run], reps: u32, metrics: &mut Metrics) {
        reference_cycle_per_run(self, body, reps, metrics);
    }

    /// Releases the policy's entire resident set — the multiprogrammed
    /// swapper's load-control action against this process. Page-table
    /// knowledge survives (the pages are known, just no longer
    /// resident); the process faults its set back in after readmission.
    /// Policies without an explicit release (the fixed-space baselines)
    /// ignore the call — the scheduler still stops charging their
    /// frames while they are swapped.
    fn swap_out(&mut self) {}

    /// Tells a pool-aware policy how many frames of the shared pool are
    /// currently free for its next `ALLOCATE` decision. Only CD uses
    /// this (its Figure-6 flow grants against the pool); everyone else
    /// ignores it.
    fn set_available(&mut self, frames: u64) {
        let _ = frames;
    }

    /// True when the most recent `ALLOCATE` directive could not be
    /// satisfied from the available pool and asked for the swapper
    /// (CD's `SwapNeeded` outcome). The scheduler checks this after
    /// every directive it forwards; the default never asks.
    fn swap_requested(&self) -> bool {
        false
    }
}

/// The iteration-by-iteration fallback every cycle kernel shares:
/// replays the body through [`Policy::reference_run`] `reps` times.
/// Public so differential tests can drive it as the oracle against an
/// overridden [`Policy::reference_cycle`].
pub fn reference_cycle_per_run<P: Policy + ?Sized>(
    policy: &mut P,
    body: &[Run],
    reps: u32,
    metrics: &mut Metrics,
) {
    for _ in 0..reps {
        for r in body {
            policy.reference_run(r.start, r.stride, r.len, metrics);
        }
    }
}

/// The per-reference fallback every run kernel shares: decodes the run
/// and replicates the driver loop exactly (reference → record →
/// degraded accounting). Public so differential tests can drive it as
/// the oracle against an overridden [`Policy::reference_run`].
pub fn reference_run_per_ref<P: Policy + ?Sized>(
    policy: &mut P,
    start: PageId,
    stride: i32,
    len: u32,
    metrics: &mut Metrics,
) {
    let mut p = start.0 as i64;
    let stride = stride as i64;
    for _ in 0..len {
        let fault = policy.reference(PageId(p as u32));
        metrics.record(policy.resident(), fault);
        if policy.is_degraded() {
            metrics.degraded_refs += 1;
        }
        p += stride;
    }
}

/// Runs a cycle's iterations through [`Policy::reference_run`] until
/// one completes without a fault, and returns how many iterations are
/// left after it (0 when none was fault-free, or the last one was).
///
/// Every policy that calls this shares one property: a hit never
/// evicts. A fault-free iteration therefore leaves every body page
/// resident, so each remaining iteration hits everywhere at the same
/// resident size — the caller accounts for them in closed form.
pub(crate) fn warm_up_cycle<P: Policy + ?Sized>(
    policy: &mut P,
    body: &[Run],
    reps: u32,
    metrics: &mut Metrics,
) -> u32 {
    for it in 0..reps {
        let faults_before = metrics.faults;
        for r in body {
            policy.reference_run(r.start, r.stride, r.len, metrics);
        }
        if metrics.faults == faults_before {
            return reps - 1 - it;
        }
    }
    0
}

/// References in one iteration of a cycle body.
pub(crate) fn cycle_period(body: &[Run]) -> u64 {
    body.iter().map(|r| r.len as u64).sum()
}

/// How a stride ≠ 0 run (all pages distinct) relates to a resident set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunClass {
    /// Every run page is resident: touches only, no faults possible.
    AllHit,
    /// No run page is resident: every reference faults, and since the
    /// pages are distinct none is revisited after an eviction.
    AllMiss,
    /// A mix — only the per-ref decode gets the interleaving right.
    Mixed,
}

/// Classifies a stride ≠ 0 run against the current resident set, given
/// as a membership test. Sound for every policy whose hits never evict:
/// runs with nonzero stride visit distinct pages, so an `AllHit` run
/// cannot change residency mid-run, and an `AllMiss` run never revisits
/// what it evicts.
pub(crate) fn classify_run(
    start: PageId,
    stride: i32,
    len: u32,
    resident: impl Fn(PageId) -> bool,
) -> RunClass {
    let mut p = start.0 as i64;
    let stride = stride as i64;
    let first = resident(PageId(p as u32));
    for _ in 1..len {
        p += stride;
        if resident(PageId(p as u32)) != first {
            return RunClass::Mixed;
        }
    }
    if first {
        RunClass::AllHit
    } else {
        RunClass::AllMiss
    }
}

/// A dense set of resident pages for the fixed-space policies that only
/// ask whether a page is resident (FIFO, PFF). One flag per page id,
/// grown on demand by page id — never by allocation size.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageSet(Vec<bool>);

impl PageSet {
    /// Is `page` resident?
    #[inline]
    pub(crate) fn contains(&self, page: PageId) -> bool {
        self.0.get(page.0 as usize).copied().unwrap_or(false)
    }

    /// Marks `page` resident.
    #[inline]
    pub(crate) fn insert(&mut self, page: PageId) {
        let idx = page.0 as usize;
        if idx >= self.0.len() {
            self.0.resize(idx + 1, false);
        }
        self.0[idx] = true;
    }

    /// Marks a resident `page` as no longer resident.
    #[inline]
    pub(crate) fn remove(&mut self, page: PageId) {
        self.0[page.0 as usize] = false;
    }
}

/// A dense page → slot map for the fixed-space policies that find a
/// resident page's entry in a slot array (Clock's frames, OPT's
/// resident list). One `u32` per page id, grown on demand by page id —
/// never by allocation size — with a sentinel for "not resident".
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotTable(Vec<u32>);

impl SlotTable {
    const NONE: u32 = u32::MAX;

    /// The slot `page` occupies, if it is resident.
    #[inline]
    pub(crate) fn get(&self, page: PageId) -> Option<usize> {
        match self.0.get(page.0 as usize) {
            Some(&slot) if slot != Self::NONE => Some(slot as usize),
            _ => None,
        }
    }

    /// Is `page` resident?
    #[inline]
    pub(crate) fn contains(&self, page: PageId) -> bool {
        self.get(page).is_some()
    }

    /// Records that `page` now occupies `slot`.
    #[inline]
    pub(crate) fn set(&mut self, page: PageId, slot: usize) {
        let idx = page.0 as usize;
        if idx >= self.0.len() {
            self.0.resize(idx + 1, Self::NONE);
        }
        self.0[idx] = slot as u32;
    }

    /// Marks a resident `page` as no longer resident.
    #[inline]
    pub(crate) fn remove(&mut self, page: PageId) {
        self.0[page.0 as usize] = Self::NONE;
    }
}

/// Applies an all-hit stride ≠ 0 run: touch each page in order (the
/// final LRU order must match the per-ref loop) and record the hits at
/// the unchanged resident size.
pub(crate) fn batch_all_hit(
    set: &mut RecencySet,
    start: PageId,
    stride: i32,
    len: u32,
    metrics: &mut Metrics,
) {
    let mut p = start.0 as i64;
    let stride = stride as i64;
    for _ in 0..len {
        let hit = set.touch(PageId(p as u32));
        debug_assert!(hit, "classified AllHit");
        p += stride;
    }
    metrics.record_hits(set.len(), len as u64);
}

/// Applies an all-miss stride ≠ 0 run against an LRU set capped at
/// `cap` frames (`u64::MAX` = uncapped), with metrics in closed form.
///
/// Per-ref, reference `i` leaves `min(r0 + i, cap)` pages resident
/// (the cap evicts from the LRU end; for CD with `r0 > cap` — possible
/// after an UNLOCK with no intervening miss — the first miss trims all
/// the way down, which the same formula covers since the headroom `g`
/// is 0). The final list is: the surviving old pages (oldest evicted
/// first) followed by the run pages in run order — run pages are always
/// younger than every survivor, and an evicted run page (only possible
/// when `len > cap`) is never revisited because the pages are distinct.
pub(crate) fn batch_all_miss(
    set: &mut RecencySet,
    start: PageId,
    stride: i32,
    len: u32,
    cap: u64,
    metrics: &mut Metrics,
) {
    let r0 = set.len() as u64;
    let k = len as u64;
    let g = cap.saturating_sub(r0); // headroom before the cap bites
    let ramp = k.min(g) as u128; // references that grow the set
    let mem = ramp * r0 as u128 + ramp * (ramp + 1) / 2 + (k - k.min(g)) as u128 * cap as u128;
    metrics.record_fault_span(k, mem, (r0 + k).min(cap) as usize);

    let evict = (r0 + k).saturating_sub(cap);
    let stride64 = stride as i64;
    if evict > r0 {
        // The whole old set goes, and so do the first `k - cap` run
        // pages; only the newest `cap` run pages survive.
        set.clear();
        let keep = cap; // evict > r0 ⟺ k > cap
        let mut p = start.0 as i64 + stride64 * (k - keep) as i64;
        for _ in 0..keep {
            set.touch(PageId(p as u32));
            p += stride64;
        }
    } else {
        for _ in 0..evict {
            set.pop_lru();
        }
        let mut p = start.0 as i64;
        for _ in 0..len {
            set.touch(PageId(p as u32));
            p += stride64;
        }
    }
}

/// Drives a script of runs and cycles — `(body, reps)`, with `reps == 1`
/// for plain runs — through `policy`'s run kernels, and a clone through
/// the per-reference decode, asserting identical metrics after each
/// step; then references the `probe` pages on both, asserting identical
/// faults and resident sizes. Returns the kernel-driven policy, its
/// metrics after the script, and the probe's fault outcomes.
#[cfg(test)]
pub(crate) fn check_kernels<P: Policy + Clone>(
    mut policy: P,
    script: &[(&[Run], u32)],
    probe: &[u32],
) -> (P, Metrics, Vec<bool>) {
    let mut oracle = policy.clone();
    let (mut fast, mut slow) = (Metrics::new(2000), Metrics::new(2000));
    for &(body, reps) in script {
        if reps == 1 {
            for r in body {
                policy.reference_run(r.start, r.stride, r.len, &mut fast);
            }
        } else {
            policy.reference_cycle(body, reps, &mut fast);
        }
        for _ in 0..reps {
            for r in body {
                reference_run_per_ref(&mut oracle, r.start, r.stride, r.len, &mut slow);
            }
        }
        assert_eq!(
            fast,
            slow,
            "{}: kernel drifted from per-ref",
            policy.label()
        );
    }
    let faults = probe
        .iter()
        .map(|&p| {
            let fault = policy.reference(PageId(p));
            assert_eq!(fault, oracle.reference(PageId(p)), "probe {p}");
            assert_eq!(policy.resident(), oracle.resident(), "probe {p}");
            fault
        })
        .collect();
    (policy, fast, faults)
}

/// Shorthand for a run in kernel test scripts.
#[cfg(test)]
pub(crate) fn run(start: u32, stride: i32, len: u32) -> Run {
    Run {
        start: PageId(start),
        stride,
        len,
    }
}
