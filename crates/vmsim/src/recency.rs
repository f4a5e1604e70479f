//! A recency-ordered resident set, shared by every LRU-flavoured policy.
//!
//! Page ids are dense `u32`s assigned by the memory layout, so the set
//! is an intrusive doubly-linked list threaded through a flat `Vec`
//! indexed by page: touch, insert, evict and membership are all `O(1)`
//! with zero hashing and zero allocation in steady state (the node
//! table grows once to the highest page id seen, then is reused). This
//! is the per-reference hot path of every LRU-flavoured policy — LRU
//! itself, WS bookkeeping, CD's local sets and the degrade-to-LRU
//! fallback — so constant factors here dominate whole-table sweeps.
//!
//! Recency is encoded purely by list position (head = least recently
//! used, tail = most recently used); there are no use-stamps, so there
//! is no counter to wrap no matter how many touches occur.
//!
//! The run-level kernels (DESIGN.md §7.1) lean on one structural fact:
//! touching a *resident* page only splices it to the tail — membership
//! and size are untouched — so re-playing any all-hit touch sequence
//! is idempotent on everything but list order, and the shared batch
//! kernel (`kernel_run` / `kernel_cycle` with LRU's and CD's hooks and
//! `batch_all_miss`) can update metrics for whole runs while
//! performing only the splices that decide future evictions.

use cdmm_trace::PageId;

/// Sentinel link meaning "no node". Page id `u32::MAX` is therefore
/// unusable, which is safe: layouts assign dense ids from zero and a
/// trace of 2³²−1 pages is unrepresentable elsewhere anyway.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    resident: bool,
}

const FREE: Node = Node {
    prev: NIL,
    next: NIL,
    resident: false,
};

/// Resident pages ordered from least- to most-recently used.
#[derive(Debug, Clone)]
pub struct RecencySet {
    /// One node per page id, indexed directly by `PageId::0`.
    nodes: Vec<Node>,
    /// Least recently used page, or `NIL` when empty.
    head: u32,
    /// Most recently used page, or `NIL` when empty.
    tail: u32,
    len: usize,
}

impl Default for RecencySet {
    fn default() -> Self {
        RecencySet {
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

impl RecencySet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is `page` resident?
    pub fn contains(&self, page: PageId) -> bool {
        self.nodes.get(page.0 as usize).is_some_and(|n| n.resident)
    }

    #[inline]
    fn ensure(&mut self, page: PageId) {
        debug_assert!(page.0 != NIL, "page id u32::MAX is reserved");
        let idx = page.0 as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize(idx + 1, FREE);
        }
    }

    /// Unlinks a resident node from the list without clearing it.
    #[inline]
    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Links a node at the tail (most-recently-used end).
    #[inline]
    fn push_tail(&mut self, idx: u32) {
        let old_tail = self.tail;
        self.nodes[idx as usize] = Node {
            prev: old_tail,
            next: NIL,
            resident: true,
        };
        match old_tail {
            NIL => self.head = idx,
            t => self.nodes[t as usize].next = idx,
        }
        self.tail = idx;
    }

    /// Marks `page` as just-used, inserting it if absent. Returns `true`
    /// if the page was already resident (a hit).
    #[inline]
    pub fn touch(&mut self, page: PageId) -> bool {
        self.ensure(page);
        let idx = page.0;
        let hit = self.nodes[idx as usize].resident;
        if hit {
            if self.tail == idx {
                return true; // already most recent
            }
            self.unlink(idx);
        } else {
            self.len += 1;
        }
        self.push_tail(idx);
        hit
    }

    /// Removes a specific page; returns whether it was resident.
    pub fn remove(&mut self, page: PageId) -> bool {
        let idx = page.0 as usize;
        if !self.nodes.get(idx).is_some_and(|n| n.resident) {
            return false;
        }
        self.unlink(page.0);
        self.nodes[idx] = FREE;
        self.len -= 1;
        true
    }

    /// Evicts and returns the least-recently-used page.
    pub fn pop_lru(&mut self) -> Option<PageId> {
        let idx = self.head;
        if idx == NIL {
            return None;
        }
        self.unlink(idx);
        self.nodes[idx as usize] = FREE;
        self.len -= 1;
        Some(PageId(idx))
    }

    /// Evicts the least-recently-used page for which `keep` returns
    /// `false`; returns `None` when every resident page must be kept.
    pub fn pop_lru_where(&mut self, mut evictable: impl FnMut(PageId) -> bool) -> Option<PageId> {
        let mut idx = self.head;
        while idx != NIL {
            if evictable(PageId(idx)) {
                self.unlink(idx);
                self.nodes[idx as usize] = FREE;
                self.len -= 1;
                return Some(PageId(idx));
            }
            idx = self.nodes[idx as usize].next;
        }
        None
    }

    /// Drops every resident page but keeps the node table's capacity,
    /// so a swapped-out process resumes without reallocating.
    pub fn clear(&mut self) {
        let mut idx = self.head;
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = FREE;
            idx = next;
        }
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// Iterates over resident pages from least to most recently used.
    pub fn iter_lru(&self) -> impl Iterator<Item = PageId> + '_ {
        let mut idx = self.head;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let page = PageId(idx);
            idx = self.nodes[idx as usize].next;
            Some(page)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> PageId {
        PageId(n)
    }

    #[test]
    fn touch_reports_hits_and_misses() {
        let mut s = RecencySet::new();
        assert!(!s.touch(p(1)));
        assert!(s.touch(p(1)));
        assert!(!s.touch(p(2)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(p(1)));
        assert!(!s.contains(p(3)));
    }

    #[test]
    fn lru_order_is_maintained() {
        let mut s = RecencySet::new();
        s.touch(p(1));
        s.touch(p(2));
        s.touch(p(3));
        s.touch(p(1)); // 1 becomes most recent
        assert_eq!(s.pop_lru(), Some(p(2)));
        assert_eq!(s.pop_lru(), Some(p(3)));
        assert_eq!(s.pop_lru(), Some(p(1)));
        assert_eq!(s.pop_lru(), None);
    }

    #[test]
    fn remove_specific_page() {
        let mut s = RecencySet::new();
        s.touch(p(1));
        s.touch(p(2));
        assert!(s.remove(p(1)));
        assert!(!s.remove(p(1)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_lru(), Some(p(2)));
    }

    #[test]
    fn pop_lru_where_skips_pinned() {
        let mut s = RecencySet::new();
        s.touch(p(1));
        s.touch(p(2));
        s.touch(p(3));
        // Page 1 is the LRU but pinned.
        assert_eq!(s.pop_lru_where(|page| page != p(1)), Some(p(2)));
        assert_eq!(s.pop_lru_where(|_| false), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_lru_runs_oldest_first() {
        let mut s = RecencySet::new();
        s.touch(p(5));
        s.touch(p(6));
        s.touch(p(5));
        let order: Vec<PageId> = s.iter_lru().collect();
        assert_eq!(order, vec![p(6), p(5)]);
    }

    #[test]
    fn clear_empties_but_stays_usable() {
        let mut s = RecencySet::new();
        s.touch(p(3));
        s.touch(p(7));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.pop_lru(), None);
        assert!(!s.contains(p(3)));
        assert!(!s.touch(p(7)));
        assert_eq!(s.iter_lru().collect::<Vec<_>>(), vec![p(7)]);
    }

    #[test]
    fn remove_middle_preserves_links() {
        let mut s = RecencySet::new();
        for n in 0..5 {
            s.touch(p(n));
        }
        assert!(s.remove(p(2)));
        let order: Vec<PageId> = s.iter_lru().collect();
        assert_eq!(order, vec![p(0), p(1), p(3), p(4)]);
        s.touch(p(0)); // move LRU to MRU
        let order: Vec<PageId> = s.iter_lru().collect();
        assert_eq!(order, vec![p(1), p(3), p(4), p(0)]);
    }

    /// Reference model: LRU order as a naive vector, oldest first.
    fn model_order(ops: impl Iterator<Item = u32>) -> Vec<PageId> {
        let mut v: Vec<PageId> = Vec::new();
        for n in ops {
            let page = PageId(n);
            v.retain(|&q| q != page);
            v.push(page);
        }
        v
    }

    #[test]
    fn matches_naive_model_on_random_ops() {
        let mut rng = cdmm_trace::synth::SplitMix64::new(cdmm_trace::synth::GAMMA);
        let ops: Vec<u32> = (0..10_000).map(|_| (rng.next_u64() % 64) as u32).collect();
        let mut s = RecencySet::new();
        for &n in &ops {
            s.touch(PageId(n));
        }
        let expect = model_order(ops.iter().copied());
        assert_eq!(s.iter_lru().collect::<Vec<_>>(), expect);
        assert_eq!(s.len(), expect.len());
    }

    /// Regression for the old stamp-based design, whose `u64` use-stamp
    /// was incremented per touch and never checked for wrap: LRU order
    /// must survive far more than 2³² touches. The dense list encodes
    /// recency purely by position, so no counter exists to overflow;
    /// this locks that in. Run with `cargo test -- --ignored` (the
    /// >2³² loop takes minutes in debug builds).
    #[test]
    #[ignore = "runs >2^32 touches; slow outside release"]
    fn lru_order_survives_beyond_u32_touches() {
        let mut s = RecencySet::new();
        // 3 pages hammered round-robin past the 2³² mark.
        let total: u64 = (1u64 << 32) + 7;
        for i in 0..total {
            s.touch(PageId((i % 3) as u32));
        }
        // total ≡ 2 (mod 3): last touches were …, 0, 1 — so LRU order
        // is 2, 0, 1.
        let order: Vec<PageId> = s.iter_lru().collect();
        assert_eq!(order, vec![PageId(2), PageId(0), PageId(1)]);
        assert_eq!(s.pop_lru(), Some(PageId(2)));
    }
}
