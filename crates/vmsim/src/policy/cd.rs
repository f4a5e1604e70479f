//! The Compiler-Directed memory-management policy (Section 4 of the
//! paper).
//!
//! The CD policy does no run-time behaviour estimation at all: its
//! allocation target comes from the `ALLOCATE ((PI1,X1) ELSE (PI2,X2) …)`
//! directives the compiler inserted. Processing a directive (Figure 6):
//!
//! 1. Grant the first request that fits the available memory (requests
//!    are ordered by decreasing priority index and size).
//! 2. If nothing fits and the smallest priority index in the list is 1,
//!    the program is entering an innermost locality that *must* be
//!    resident: the OS swaps somebody out or suspends the program
//!    ([`AllocOutcome::SwapNeeded`]).
//! 3. If nothing fits but the smallest priority index is larger than 1,
//!    execution continues under the old allocation until a later
//!    directive ([`AllocOutcome::HeldOver`]) — the program still lives in
//!    some higher-level locality.
//!
//! Within its allocation the resident set is managed LRU; `LOCK`ed pages
//! are skipped by eviction until `UNLOCK` (or until memory pressure forces
//! the OS to break a lock, lowest-priority — highest `PJ` — first).
//!
//! In the paper's uniprogramming experiments the directive *set* to honor
//! is fixed before the run ("we specify prior to program execution the set
//! of directives to be executed"); [`CdSelector`] reproduces exactly that
//! knob, plus the dynamic first-fit mode used in multiprogramming.

use std::collections::HashMap;

use cdmm_lang::ast::AllocArg;
use cdmm_trace::validate::{ranges_cover, ranges_overlap};
use cdmm_trace::{Event, PageId, PageRange, Run};

use crate::metrics::Tally;
use crate::observe::{AllocDecision, Detail, SimEvent};
use crate::policy::{
    batch_all_hit, batch_all_miss, classify_run, cycle_period, warm_up_cycle, Policy, RunClass,
};
use crate::recency::RecencySet;

/// How the policy picks one request out of an `ALLOCATE` list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdSelector {
    /// Always honor the outermost-level request (largest PI, largest X) —
    /// the paper's `MAIN1`-style runs.
    Outermost,
    /// Always honor the innermost-level request (smallest PI, smallest X)
    /// — the paper's `MAIN3`-style runs.
    Innermost,
    /// Honor the request closest to (at or below) the given priority
    /// index; falls back to the innermost request when the list has no
    /// such level. `AtLevel(2)` reproduces the paper's mid-level variants.
    AtLevel(u32),
    /// First-fit against the currently available memory (the
    /// multiprogramming mode of Figure 6). Availability is maintained via
    /// [`CdPolicy::set_available`].
    FirstFit,
}

impl CdSelector {
    /// Chooses a request from a non-empty, PI-descending list.
    fn choose(&self, args: &[AllocArg], available: Option<u64>) -> Option<AllocArg> {
        match self {
            CdSelector::Outermost => args.first().copied(),
            CdSelector::Innermost => args.last().copied(),
            CdSelector::AtLevel(k) => args
                .iter()
                .find(|a| a.pi <= *k)
                .or_else(|| args.last())
                .copied(),
            CdSelector::FirstFit => {
                let avail = available.unwrap_or(u64::MAX);
                args.iter().find(|a| a.pages <= avail).copied()
            }
        }
    }
}

/// What happened to the most recent `ALLOCATE` directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocOutcome {
    /// A request was granted; the target became this many pages.
    Granted(u64),
    /// No request fit, but the innermost listed priority exceeds 1: the
    /// program keeps running under its current allocation.
    HeldOver,
    /// No request fit and a PI = 1 request is pending: the OS must swap
    /// or suspend (only meaningful under [`CdSelector::FirstFit`]).
    SwapNeeded,
}

/// Deepest LOCK nesting the validator accepts before discarding further
/// LOCK directives as corrupt.
const MAX_LOCK_DEPTH: usize = 64;

/// The Compiler-Directed policy.
///
/// Every incoming directive passes a small validation state machine
/// (lock nesting depth, page-range bounds, PI-descending `ALLOCATE`
/// lists) before it is honored. Invalid directives are clamped into the
/// valid domain or discarded, never panicked on, and each such recovery
/// is counted. When a degradation threshold is configured
/// ([`CdPolicy::with_degrade_after`]) and the stream proves unusable —
/// the recovery count reaches the threshold — the policy stops trusting
/// directives entirely and falls back to plain LRU demand paging, the
/// runtime analogue of the paper's "continue under the old allocation"
/// rule for unsatisfiable requests.
#[derive(Debug, Clone)]
pub struct CdPolicy {
    selector: CdSelector,
    min_alloc: u64,
    honor_locks: bool,
    target: u64,
    hard_limit: Option<u64>,
    available: Option<u64>,
    resident: RecencySet,
    locked: HashMap<PageId, u32>,
    last_outcome: Option<AllocOutcome>,
    broken_locks: u64,
    evictions: u64,
    swap_requests: u64,
    /// Virtual-space bound for validating directive page ranges
    /// (`None`: bounds unknown, ranges are not clamped).
    virtual_pages: Option<u32>,
    /// Recoveries after which the policy degrades to plain LRU
    /// (`None`: clamp forever, never degrade).
    degrade_after: Option<u64>,
    /// Accepted-and-unreleased LOCK directives, in lock order (the
    /// validator's nesting ledger).
    lock_ledger: Vec<Vec<PageRange>>,
    recovered: u64,
    degraded: bool,
    /// The events to buffer ([`Policy::set_detail`]); at the default
    /// [`Detail::Off`] the emission sites cost one untaken branch each.
    detail: Detail,
    /// Events buffered since the driver's last drain.
    events: Vec<SimEvent>,
}

impl CdPolicy {
    /// Creates a CD policy with the given request selector.
    pub fn new(selector: CdSelector) -> Self {
        CdPolicy {
            selector,
            min_alloc: 2,
            honor_locks: true,
            target: 2,
            hard_limit: None,
            available: None,
            resident: RecencySet::new(),
            locked: HashMap::new(),
            last_outcome: None,
            broken_locks: 0,
            evictions: 0,
            swap_requests: 0,
            virtual_pages: None,
            degrade_after: None,
            lock_ledger: Vec::new(),
            recovered: 0,
            degraded: false,
            detail: Detail::Off,
            events: Vec::new(),
        }
    }

    /// Buffers one event when the policy's level covers it.
    #[inline]
    fn emit(&mut self, event: SimEvent) {
        if event.detail() <= self.detail {
            self.events.push(event);
        }
    }

    /// Overrides the minimum allocation (the paper's system default).
    ///
    /// # Panics
    ///
    /// Panics if `min_alloc` is zero.
    pub fn with_min_alloc(mut self, min_alloc: u64) -> Self {
        assert!(min_alloc > 0, "minimum allocation must be positive");
        self.min_alloc = min_alloc;
        self.target = self.target.max(min_alloc);
        self
    }

    /// Enables or disables `LOCK`/`UNLOCK` handling (the paper defers the
    /// evaluation of LOCK; this switch drives the ablation bench).
    pub fn with_locks(mut self, honor: bool) -> Self {
        self.honor_locks = honor;
        self
    }

    /// Caps the total resident set (locked pages included) at an
    /// absolute number of frames — the "high memory demands" situation in
    /// which the paper entitles the OS to break locks. `None` (the
    /// default) models the paper's uniprogramming runs, which assume no
    /// physical memory limit.
    pub fn with_hard_limit(mut self, frames: Option<u64>) -> Self {
        self.hard_limit = frames;
        self
    }

    /// Sets the memory currently available to this program (used by the
    /// multiprogramming driver together with [`CdSelector::FirstFit`]).
    pub fn set_available(&mut self, frames: u64) {
        self.available = Some(frames);
    }

    /// Declares the program's virtual-space size so the validator can
    /// reject or clamp directive page ranges that fall outside it.
    pub fn with_virtual_pages(mut self, pages: Option<u32>) -> Self {
        self.virtual_pages = pages;
        self
    }

    /// Degrades to plain LRU demand paging once this many directives had
    /// to be clamped or discarded. `None` (the default) clamps forever
    /// and never degrades.
    pub fn with_degrade_after(mut self, threshold: Option<u64>) -> Self {
        self.degrade_after = threshold;
        self
    }

    /// The current allocation target in pages.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Outcome of the most recent `ALLOCATE`, if any was processed.
    pub fn last_outcome(&self) -> Option<AllocOutcome> {
        self.last_outcome
    }

    /// How many locked pages were forcibly released under pressure.
    pub fn broken_locks(&self) -> u64 {
        self.broken_locks
    }

    /// How many `ALLOCATE`s ended in [`AllocOutcome::SwapNeeded`].
    pub fn swap_requests(&self) -> u64 {
        self.swap_requests
    }

    /// Releases every resident page and every lock (used when the
    /// multiprogramming driver swaps the process out).
    pub fn swap_out(&mut self) {
        self.resident = RecencySet::new();
        self.locked.clear();
        self.lock_ledger.clear();
    }

    /// Registers one recovery from an invalid directive and degrades to
    /// plain LRU once the configured threshold is reached.
    fn recover(&mut self) {
        self.recovered += 1;
        self.emit(SimEvent::Recovered {
            total: self.recovered,
        });
        if self.degrade_after.is_some_and(|t| self.recovered >= t) {
            self.degrade();
        }
    }

    /// Abandons directive guidance: release all pins and manage the
    /// resident set as unconstrained LRU (the hard frame limit, when
    /// set, still applies).
    fn degrade(&mut self) {
        self.degraded = true;
        self.locked.clear();
        self.lock_ledger.clear();
        self.target = u64::MAX;
        self.emit(SimEvent::Degraded);
    }

    /// Clamps one directive page range into `[0, virtual_pages)`.
    /// Returns `None` for ranges that are inverted or entirely outside
    /// the virtual space, and whether the range had to be altered.
    fn clamp_range(&self, r: &PageRange) -> (Option<PageRange>, bool) {
        if r.start > r.end {
            return (None, true);
        }
        let Some(vp) = self.virtual_pages else {
            return (Some(*r), false);
        };
        let end = r.end.min(vp);
        if r.start >= end {
            // Nothing of the range lies inside the virtual space; empty
            // input ranges are also meaningless as lock targets.
            return (None, !r.is_empty() || r.start > vp);
        }
        (
            Some(PageRange {
                start: r.start,
                end,
            }),
            end != r.end,
        )
    }

    /// Validates and sanitizes an `ALLOCATE` request list. Returns the
    /// list to honor, or `None` when the directive must be discarded.
    fn sanitize_alloc(&mut self, args: &[AllocArg]) -> Option<Vec<AllocArg>> {
        if args.is_empty() {
            self.recover();
            return None;
        }
        let mut fixed = false;
        let mut clean: Vec<AllocArg> = args
            .iter()
            .map(|a| {
                let mut a = *a;
                if a.pi == 0 {
                    a.pi = 1;
                    fixed = true;
                }
                if a.pages == 0 {
                    a.pages = 1;
                    fixed = true;
                }
                if let Some(vp) = self.virtual_pages {
                    let cap = u64::from(vp.max(1));
                    if a.pages > cap {
                        a.pages = cap;
                        fixed = true;
                    }
                }
                a
            })
            .collect();
        // The request list must be PI-descending (outermost first);
        // restore the invariant when the stream violates it.
        if clean.windows(2).any(|w| w[0].pi < w[1].pi) {
            clean.sort_by_key(|a| std::cmp::Reverse((a.pi, a.pages)));
            fixed = true;
        }
        if fixed {
            self.recover();
            if self.degraded {
                return None;
            }
        }
        Some(clean)
    }

    /// Evicts one page, preferring unlocked LRU pages and breaking the
    /// lowest-priority (highest `PJ`) lock when everything is pinned.
    /// `protect` shields the page that just faulted in from being its own
    /// victim.
    fn evict_one(&mut self, protect: Option<PageId>) {
        let locked = &self.locked;
        if let Some(page) = self
            .resident
            .pop_lru_where(|p| !locked.contains_key(&p) && Some(p) != protect)
        {
            self.locked.remove(&page);
            self.evictions += 1;
            self.emit(SimEvent::Evict { page });
            return;
        }
        // Everything evictable is locked: the OS "is entitled to release
        // the locked pages", lowest priority first (PJ is inverse).
        if let Some((&victim, _)) = self
            .locked
            .iter()
            .filter(|(p, _)| self.resident.contains(**p) && Some(**p) != protect)
            .max_by_key(|(p, &pj)| (pj, p.0))
        {
            let pj = self.locked.remove(&victim).unwrap_or(0);
            self.resident.remove(victim);
            self.broken_locks += 1;
            self.emit(SimEvent::LockBroken { page: victim, pj });
        } else {
            // Nothing evictable at all; allocation stays oversubscribed.
        }
    }

    /// Resident pages not pinned by a lock. The allocation target governs
    /// these; locked pages are pinned by the OS *on top of* the program's
    /// allocation (the paper's uniprogramming runs assume "no physical
    /// limit on the available memory"). Locks are broken only under the
    /// hard frame limit — the paper's "high memory demands".
    fn unlocked_resident(&self) -> u64 {
        (self.resident.len() - self.locked.len()) as u64
    }

    /// Shrinks the resident set to respect the target (and the hard
    /// frame limit, when one is set).
    fn trim(&mut self, protect: Option<PageId>) {
        while self.unlocked_resident() > self.target
            || self
                .hard_limit
                .is_some_and(|cap| (self.resident.len() as u64) > cap)
        {
            let before = self.resident.len();
            self.evict_one(protect);
            if self.resident.len() == before {
                break;
            }
        }
    }

    fn handle_allocate(&mut self, args: &[AllocArg]) {
        if args.is_empty() {
            return;
        }
        let outcome = match self.selector.choose(args, self.available) {
            Some(arg) => {
                self.target = arg.pages.max(self.min_alloc);
                self.emit(SimEvent::Alloc {
                    pi: arg.pi,
                    pages: arg.pages,
                    decision: AllocDecision::Granted,
                });
                AllocOutcome::Granted(self.target)
            }
            None => {
                let min_pi = args.last().map(|a| a.pi).unwrap_or(u32::MAX);
                if min_pi <= 1 {
                    self.swap_requests += 1;
                    self.emit(SimEvent::Alloc {
                        pi: min_pi,
                        pages: 0,
                        decision: AllocDecision::SwapNeeded,
                    });
                    AllocOutcome::SwapNeeded
                } else {
                    self.emit(SimEvent::Alloc {
                        pi: min_pi,
                        pages: 0,
                        decision: AllocDecision::HeldOver,
                    });
                    AllocOutcome::HeldOver
                }
            }
        };
        self.last_outcome = Some(outcome);
        self.trim(None);
    }

    fn handle_lock(&mut self, pj: u32, ranges: &[PageRange]) {
        if !self.honor_locks {
            return;
        }
        let mut fixed = false;
        let pj = if pj == 0 {
            fixed = true;
            1
        } else {
            pj
        };
        let mut clean: Vec<PageRange> = Vec::with_capacity(ranges.len());
        for r in ranges {
            let (clamped, altered) = self.clamp_range(r);
            fixed |= altered;
            if let Some(c) = clamped {
                clean.push(c);
            }
        }
        if clean.is_empty() {
            // The lock names nothing inside the virtual space: an
            // out-of-range or empty lock that can never be honored.
            self.recover();
            return;
        }
        // Supersede: instrumented loops re-issue the same LOCK on every
        // outer iteration, each one replacing the last. A new lock that
        // covers an active one closes it implicitly — that is the
        // stream's normal idiom, not a fault.
        self.lock_ledger.retain(|held| !ranges_cover(&clean, held));
        if self.lock_ledger.len() >= MAX_LOCK_DEPTH {
            // Runaway nesting: the stream is emitting locks it never
            // releases; discard rather than pin unboundedly.
            self.recover();
            return;
        }
        // A genuine re-lock partially overlaps an active lock with
        // neither covering the other. Re-asserting pages a wider active
        // lock already pins (outer-loop locks re-issued under an inner
        // lock) is normal; a partial overlap leaves the earlier lock's
        // release ambiguous. Honor it (the newer PJ wins) but flag it.
        if self
            .lock_ledger
            .iter()
            .any(|held| ranges_overlap(held, &clean) && !ranges_cover(held, &clean))
        {
            fixed = true;
        }
        if fixed {
            self.recover();
            if self.degraded {
                return;
            }
        }
        // Lock the currently resident pages of the named arrays — those
        // are exactly the outer-loop pages the directive wants preserved.
        let to_lock: Vec<PageId> = self
            .resident
            .iter_lru()
            .filter(|p| clean.iter().any(|r| r.contains(*p)))
            .collect();
        let pinned = to_lock.len() as u32;
        for p in to_lock {
            self.locked.insert(p, pj);
        }
        self.lock_ledger.push(clean);
        self.emit(SimEvent::Lock { pj, pinned });
    }

    fn handle_unlock(&mut self, ranges: &[PageRange]) {
        if !self.honor_locks {
            return;
        }
        let mut clean: Vec<PageRange> = Vec::with_capacity(ranges.len());
        for r in ranges {
            if let (Some(c), _) = self.clamp_range(r) {
                clean.push(c);
            }
        }
        // Release every active lock the unlock touches, and unpin the
        // named pages.
        let held_before = self.lock_ledger.len();
        self.lock_ledger
            .retain(|held| !ranges_overlap(held, &clean));
        let pinned_before = self.locked.len();
        self.locked
            .retain(|p, _| !clean.iter().any(|r| r.contains(*p)));
        self.emit(SimEvent::Unlock {
            released: (pinned_before - self.locked.len()) as u32,
        });
        if self.lock_ledger.len() == held_before && self.locked.len() == pinned_before {
            // Released neither a lock nor a page: double-unlock or
            // unlock of a never-locked array.
            self.recover();
        }
    }
}

impl Policy for CdPolicy {
    fn label(&self) -> String {
        let sel = match self.selector {
            CdSelector::Outermost => "outer".to_string(),
            CdSelector::Innermost => "inner".to_string(),
            CdSelector::AtLevel(k) => format!("level {k}"),
            CdSelector::FirstFit => "fit".to_string(),
        };
        format!("CD({sel})")
    }

    fn reference(&mut self, page: PageId) -> bool {
        let hit = self.resident.touch(page);
        if hit {
            return false;
        }
        // The just-loaded page must not be its own victim.
        self.trim(Some(page));
        true
    }

    fn resident(&self) -> usize {
        self.resident.len()
    }

    fn directive(&mut self, event: &Event) {
        if self.degraded {
            // The stream is untrusted; plain LRU ignores directives.
            return;
        }
        match event {
            Event::Alloc(args) => {
                if let Some(clean) = self.sanitize_alloc(args) {
                    self.handle_allocate(&clean);
                }
            }
            Event::Lock { pj, ranges } => self.handle_lock(*pj, ranges),
            Event::Unlock { ranges } => self.handle_unlock(ranges),
            Event::Ref(_) => {}
        }
    }

    fn recovered_directives(&self) -> u64 {
        self.recovered
    }

    fn is_degraded(&self) -> bool {
        self.degraded
    }

    fn set_detail(&mut self, detail: Detail) {
        self.detail = detail;
        if detail < Detail::Aggregates {
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
        if self.detail >= Detail::Decisions || len <= 1 {
            return crate::policy::reference_run_per_ref(self, start, stride, len, tally);
        }
        if stride == 0 {
            // One page touched `len` times: the first reference settles
            // residency (including any trim, whose lock breaks carry its
            // clock), the rest are hits — and hits never trim, whatever
            // locks or limits are active.
            crate::policy::reference_run_per_ref(self, start, 0, 1, tally);
            let rest = (len - 1) as u64;
            tally.record_hits(self.resident.len(), rest);
            if self.degraded {
                tally.record_degraded(rest);
            }
            return;
        }
        if !self.locked.is_empty() || self.hard_limit.is_some() {
            // Locks or a hard limit put lock breaking and pin-skipping
            // in play — per-ref handles those.
            return crate::policy::reference_run_per_ref(self, start, stride, len, tally);
        }
        // With nothing pinned and no hard frame limit, `trim` is exactly
        // capped LRU eviction: the protected (just-faulted) page sits at
        // the MRU end and is never the LRU victim, and a degraded policy
        // has `target == u64::MAX` (plain demand paging, no evictions).
        match classify_run(start, stride, len, |p| self.resident.contains(p)) {
            RunClass::AllHit => batch_all_hit(&mut self.resident, start, stride, len, tally),
            RunClass::AllMiss => {
                let cap = self.target;
                self.evictions +=
                    batch_all_miss(&mut self.resident, start, stride, len, cap, tally);
            }
            RunClass::Mixed => {
                return crate::policy::reference_run_per_ref(self, start, stride, len, tally)
            }
        }
        if self.degraded {
            // Directive-driven state only changes at directives, so the
            // flag is constant across the whole run.
            tally.record_degraded(len as u64);
        }
    }

    fn reference_cycle(&mut self, body: &[Run], reps: u32, tally: &mut Tally<'_>) {
        if self.detail >= Detail::Decisions {
            return crate::policy::reference_cycle_per_run(self, body, reps, tally);
        }
        // Steady state. CD hits only touch recency order — no trims, no
        // lock or target changes (those move at directives, and cycle
        // bodies contain none) — so replaying the same touch sequence
        // is idempotent and every remaining iteration hits everywhere at
        // this resident size. Degradation is directive-driven too, hence
        // constant across the skipped references.
        let skipped = warm_up_cycle(self, body, reps, tally) as u64 * cycle_period(body);
        tally.record_hits(self.resident.len(), skipped);
        if self.degraded {
            tally.record_degraded(skipped);
        }
    }

    fn swap_out(&mut self) {
        CdPolicy::swap_out(self);
    }

    fn set_available(&mut self, frames: u64) {
        CdPolicy::set_available(self, frames);
    }

    fn swap_requested(&self) -> bool {
        self.last_outcome() == Some(AllocOutcome::SwapNeeded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(args: &[(u32, u64)]) -> Event {
        Event::Alloc(
            args.iter()
                .map(|&(pi, pages)| AllocArg { pi, pages })
                .collect(),
        )
    }

    fn touch_all(cd: &mut CdPolicy, pages: impl IntoIterator<Item = u32>) {
        for p in pages {
            cd.reference(PageId(p));
        }
    }

    #[test]
    fn selector_outermost_and_innermost() {
        let args = vec![
            AllocArg { pi: 3, pages: 100 },
            AllocArg { pi: 2, pages: 10 },
            AllocArg { pi: 1, pages: 2 },
        ];
        assert_eq!(
            CdSelector::Outermost.choose(&args, None),
            Some(AllocArg { pi: 3, pages: 100 })
        );
        assert_eq!(
            CdSelector::Innermost.choose(&args, None),
            Some(AllocArg { pi: 1, pages: 2 })
        );
        assert_eq!(
            CdSelector::AtLevel(2).choose(&args, None),
            Some(AllocArg { pi: 2, pages: 10 })
        );
        // No level at or below 0: falls back to innermost.
        assert_eq!(
            CdSelector::AtLevel(0).choose(&args, None),
            Some(AllocArg { pi: 1, pages: 2 })
        );
    }

    #[test]
    fn first_fit_respects_availability() {
        let args = vec![AllocArg { pi: 2, pages: 50 }, AllocArg { pi: 1, pages: 5 }];
        assert_eq!(
            CdSelector::FirstFit.choose(&args, Some(100)),
            Some(AllocArg { pi: 2, pages: 50 })
        );
        assert_eq!(
            CdSelector::FirstFit.choose(&args, Some(20)),
            Some(AllocArg { pi: 1, pages: 5 })
        );
        assert_eq!(CdSelector::FirstFit.choose(&args, Some(2)), None);
    }

    #[test]
    fn allocation_shrink_evicts_lru() {
        let mut cd = CdPolicy::new(CdSelector::Outermost);
        cd.directive(&alloc(&[(2, 8)]));
        touch_all(&mut cd, 0..8);
        assert_eq!(cd.resident(), 8);
        cd.directive(&alloc(&[(1, 3)]));
        assert_eq!(cd.resident(), 3, "trimmed to the new target");
        // Pages 5, 6, 7 (most recent) survive.
        assert!(!cd.reference(PageId(7)));
        assert!(cd.reference(PageId(0)), "old LRU page was evicted");
    }

    #[test]
    fn within_target_replacement_is_lru() {
        let mut cd = CdPolicy::new(CdSelector::Outermost);
        cd.directive(&alloc(&[(1, 2)]));
        touch_all(&mut cd, [1, 2, 1]);
        assert!(cd.reference(PageId(3)), "fault");
        assert_eq!(cd.resident(), 2);
        assert!(cd.reference(PageId(2)), "2 was the LRU victim");
        assert!(cd.reference(PageId(1)), "1 was evicted when 2 refaulted");
    }

    #[test]
    fn held_over_keeps_current_target() {
        let mut cd = CdPolicy::new(CdSelector::FirstFit);
        cd.set_available(10);
        cd.directive(&alloc(&[(2, 8)]));
        assert_eq!(cd.last_outcome(), Some(AllocOutcome::Granted(8)));
        cd.set_available(4);
        cd.directive(&alloc(&[(3, 20), (2, 6)]));
        assert_eq!(cd.last_outcome(), Some(AllocOutcome::HeldOver));
        assert_eq!(cd.target(), 8, "target unchanged");
    }

    #[test]
    fn pi1_miss_requests_swap() {
        let mut cd = CdPolicy::new(CdSelector::FirstFit);
        cd.set_available(1);
        cd.directive(&alloc(&[(2, 50), (1, 5)]));
        assert_eq!(cd.last_outcome(), Some(AllocOutcome::SwapNeeded));
        assert_eq!(cd.swap_requests(), 1);
    }

    #[test]
    fn locked_pages_survive_eviction() {
        let mut cd = CdPolicy::new(CdSelector::Outermost).with_min_alloc(1);
        cd.directive(&alloc(&[(2, 4)]));
        touch_all(&mut cd, 0..4);
        // Lock pages 0..2 (their range) with PJ = 2.
        cd.directive(&Event::Lock {
            pj: 2,
            ranges: vec![PageRange::new(0, 2)],
        });
        // Shrink to 1: locked pages are pinned on top of the allocation,
        // so one unlocked page survives alongside both locked ones.
        cd.directive(&alloc(&[(1, 1)]));
        assert_eq!(cd.resident(), 3);
        assert!(!cd.reference(PageId(0)), "locked page 0 resident");
        assert!(!cd.reference(PageId(1)), "locked page 1 resident");
        assert!(!cd.reference(PageId(3)), "most recent unlocked page kept");
        assert!(cd.reference(PageId(2)), "unlocked LRU page was evicted");
    }

    #[test]
    fn locked_pages_do_not_consume_the_allocation() {
        // The MAIN regression: a page locked by an outer-loop directive
        // must not starve a later small streaming phase.
        let mut cd = CdPolicy::new(CdSelector::Outermost);
        cd.directive(&alloc(&[(2, 4)]));
        touch_all(&mut cd, [9]);
        cd.directive(&Event::Lock {
            pj: 2,
            ranges: vec![PageRange::new(9, 10)],
        });
        cd.directive(&alloc(&[(1, 2)]));
        // Stream over pages 0 and 1: both fit the 2-page target even
        // though page 9 stays pinned.
        assert!(cd.reference(PageId(0)));
        assert!(cd.reference(PageId(1)));
        for _ in 0..10 {
            assert!(!cd.reference(PageId(0)));
            assert!(!cd.reference(PageId(1)));
        }
        assert!(!cd.reference(PageId(9)), "locked page still resident");
    }

    #[test]
    fn unlock_releases_pins() {
        let mut cd = CdPolicy::new(CdSelector::Outermost);
        cd.directive(&alloc(&[(2, 2)]));
        touch_all(&mut cd, [0, 1]);
        cd.directive(&Event::Lock {
            pj: 2,
            ranges: vec![PageRange::new(0, 2)],
        });
        cd.directive(&Event::Unlock {
            ranges: vec![PageRange::new(0, 2)],
        });
        // Now a new page can evict them normally (page 0 is LRU).
        assert!(cd.reference(PageId(5)));
        assert!(cd.reference(PageId(0)), "0 was evictable after unlock");
    }

    #[test]
    fn pressure_breaks_lowest_priority_lock_first() {
        // "In case of high memory contention the operating system is
        // entitled to release the locked pages": model the contention
        // with a hard 2-frame limit.
        let mut cd = CdPolicy::new(CdSelector::Outermost)
            .with_min_alloc(1)
            .with_hard_limit(Some(2));
        cd.directive(&alloc(&[(2, 2)]));
        touch_all(&mut cd, [0, 1]);
        cd.directive(&Event::Lock {
            pj: 3,
            ranges: vec![PageRange::new(0, 1)],
        });
        cd.directive(&Event::Lock {
            pj: 2,
            ranges: vec![PageRange::new(1, 2)],
        });
        // Everything is locked; referencing a third page exceeds the hard
        // limit and must break the PJ = 3 (lower priority) lock first.
        assert!(cd.reference(PageId(7)));
        assert!(!cd.reference(PageId(1)), "PJ=2 page kept");
        assert_eq!(cd.broken_locks(), 1);
        assert!(cd.reference(PageId(0)), "PJ=3 page was sacrificed");
    }

    #[test]
    fn locks_ignored_when_disabled() {
        let mut cd = CdPolicy::new(CdSelector::Outermost)
            .with_locks(false)
            .with_min_alloc(1);
        cd.directive(&alloc(&[(2, 4)]));
        touch_all(&mut cd, 0..4);
        cd.directive(&Event::Lock {
            pj: 2,
            ranges: vec![PageRange::new(0, 4)],
        });
        cd.directive(&alloc(&[(1, 1)]));
        assert_eq!(cd.resident(), 1, "locks disabled: trim proceeds by LRU");
        assert_eq!(cd.broken_locks(), 0);
    }

    #[test]
    fn min_alloc_floors_the_target() {
        let mut cd = CdPolicy::new(CdSelector::Innermost).with_min_alloc(3);
        cd.directive(&alloc(&[(1, 1)]));
        assert_eq!(cd.target(), 3);
    }

    #[test]
    fn label_names_selector() {
        assert_eq!(CdPolicy::new(CdSelector::Outermost).label(), "CD(outer)");
        assert_eq!(CdPolicy::new(CdSelector::AtLevel(2)).label(), "CD(level 2)");
    }
}
