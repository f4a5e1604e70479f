//! VMIN — the offline-optimal variable-space policy (Prieve & Fabry,
//! 1976).
//!
//! With window parameter `τ`, VMIN keeps a page resident after a
//! reference exactly when its *next* reference is at most `τ` references
//! away. For every `τ` it achieves the minimum fault count among all
//! policies with the same mean memory, so the `(MEM, PF)` points it
//! traces out are the frontier the paper's DMIN reference (\[BDMS81\])
//! formalizes for fixed budgets. The operating-curve experiment plots
//! LRU, WS and CD against it.

use std::collections::HashSet;

use cdmm_trace::{EventSource, PageId};

use crate::policy::opt::next_use_chain_while;
use crate::policy::Policy;

const NEVER: u64 = u64::MAX;

/// Offline-optimal variable-allocation policy for a specific trace.
#[derive(Debug, Clone)]
pub struct Vmin {
    tau: u64,
    /// `next_use[i]` = index of the next reference to the same page.
    next_use: Vec<u64>,
    pos: usize,
    resident: HashSet<PageId>,
}

impl Vmin {
    /// Builds VMIN for a trace (any [`EventSource`]) and window `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is zero.
    pub fn for_trace<S: EventSource + ?Sized>(trace: &S, tau: u64) -> Self {
        assert!(tau > 0, "VMIN window must be positive");
        let next_use =
            next_use_chain_while(trace, || true).expect("an idle poll never stops the pass");
        Vmin {
            tau,
            next_use,
            pos: 0,
            resident: HashSet::new(),
        }
    }

    /// The window parameter.
    pub fn tau(&self) -> u64 {
        self.tau
    }
}

impl Policy for Vmin {
    fn label(&self) -> String {
        format!("VMIN({})", self.tau)
    }

    fn reference(&mut self, page: PageId) -> bool {
        let i = self.pos;
        self.pos += 1;
        assert!(
            i < self.next_use.len(),
            "VMIN driven past the trace it was built for"
        );
        let fault = !self.resident.remove(&page);
        // Retain the page only when its next use falls inside the window.
        if self.next_use[i] != NEVER && self.next_use[i] - i as u64 <= self.tau {
            self.resident.insert(page);
        }
        fault
    }

    fn resident(&self) -> usize {
        self.resident.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ws::WorkingSet;
    use crate::{simulate_with, CancelToken, NullTracer, SimConfig};
    use cdmm_trace::{synth, Trace};

    /// `policy` over `trace`, untraced under an idle token.
    fn drive(trace: &Trace, policy: &mut dyn Policy) -> crate::Metrics {
        let token = CancelToken::new();
        simulate_with(trace, policy, SimConfig::default(), &mut NullTracer, &token)
            .expect("an idle token never stops a run")
    }

    fn run(trace: &Trace, tau: u64) -> crate::Metrics {
        drive(trace, &mut Vmin::for_trace(trace, tau))
    }

    #[test]
    fn large_window_gives_cold_faults_only() {
        let t = synth::cyclic(8, 20);
        let m = run(&t, 1_000_000);
        assert_eq!(m.faults, 8);
    }

    #[test]
    fn window_one_keeps_only_immediately_reused_pages() {
        use cdmm_trace::Event;
        // 1 1 2 1: only the first 1 has next use at distance 1.
        let t = Trace::from_events(
            [1u32, 1, 2, 1]
                .iter()
                .map(|&p| Event::Ref(PageId(p)))
                .collect(),
        );
        let m = run(&t, 1);
        assert_eq!(m.faults, 3, "1(cold) 1(hit) 2(cold) 1(refault)");
    }

    #[test]
    fn vmin_dominates_ws_at_equal_or_less_memory() {
        // For the same window, VMIN's faults and memory are both <= WS's
        // (WS keeps pages for tau after use regardless of next use).
        for seed in 0..4 {
            let t = synth::uniform(16, 4_000, seed);
            for tau in [5u64, 20, 100, 500] {
                let vm = run(&t, tau);
                let ws = drive(&t, &mut WorkingSet::new(tau));
                assert!(vm.faults <= ws.faults, "seed {seed} tau {tau}");
                assert!(
                    vm.mean_mem() <= ws.mean_mem() + 1e-9,
                    "seed {seed} tau {tau}: {} vs {}",
                    vm.mean_mem(),
                    ws.mean_mem()
                );
            }
        }
    }

    #[test]
    fn faults_monotone_in_tau() {
        let t = synth::phased(
            &[
                synth::Phase {
                    base: 0,
                    pages: 6,
                    refs: 2_000,
                },
                synth::Phase {
                    base: 6,
                    pages: 6,
                    refs: 2_000,
                },
            ],
            3,
        );
        let mut last = u64::MAX;
        for tau in [1u64, 10, 100, 1_000, 10_000] {
            let f = run(&t, tau).faults;
            assert!(f <= last);
            last = f;
        }
    }

    #[test]
    #[should_panic(expected = "driven past the trace")]
    fn driving_past_trace_panics() {
        let t = synth::cyclic(2, 1);
        let mut v = Vmin::for_trace(&t, 5);
        for _ in 0..3 {
            v.reference(PageId(0));
        }
    }
}
