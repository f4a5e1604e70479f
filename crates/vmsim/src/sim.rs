//! The uniprogramming simulation driver [`simulate_with`], the one
//! driver every path runs — one run-level loop, whose kernels decode
//! reference by reference only when the tracer's level asks for each
//! reference's events. The per-reference driver the run-level loop is
//! held to lives in the dev-only `cdmm-oracle` crate.

use std::cell::Cell;

use cdmm_trace::{CancelToken, EventSource, RunRef};

use crate::error::SimError;
use crate::metrics::{Metrics, Tally};
use crate::observe::{Detail, Tracer};
use crate::policy::Policy;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Page-fault service time in memory references (2000 in the paper).
    pub fault_service: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fault_service: 2000,
        }
    }
}

/// The simulation driver: drives `policy` over `trace` with an event
/// [`Tracer`] attached, under a cooperative [`CancelToken`], and
/// returns the accumulated [`Metrics`] (page faults, mean resident
/// memory, space-time cost).
///
/// Directive events reach the policy between references; policies that
/// ignore directives see exactly the page reference string. The driver
/// is generic over the policy: pass a concrete policy type and the loop
/// monomorphizes, or `&mut dyn Policy` where one loop drives
/// interchangeable policies.
///
/// One loop runs at every level: each constant-stride run of a
/// [`cdmm_trace::CompressedTrace`] goes to [`Policy::reference_run`]
/// whole (folded cycles to [`Policy::reference_cycle`]); any other
/// [`EventSource`] degenerates to length-1 runs. The run's [`Tally`]
/// carries the tracer's [`Detail`], and the kernels ask it whether they
/// may batch:
///
/// - Below [`Detail::Aggregates`] (a [`crate::observe::NullTracer`], or
///   a scheduler-level tracer, which a uniprogram run has nothing to
///   tell) the loop carries no tracing at all.
/// - At [`Detail::Aggregates`] the kernels keep batching and the tally
///   hands the tracer every batch they account for
///   ([`Tracer::aggregate`]) and each directive's outcome events,
///   stamped with the reference clock (references processed so far).
/// - At [`Detail::Decisions`] or above every kernel decodes reference by
///   reference, and each reference hands the tracer its own events —
///   the policy's (evictions, lock breaks …), then the driver's
///   [`crate::SimEvent::Fault`], then, only at [`Detail::References`],
///   one [`crate::SimEvent::Ref`] — plus a one-reference batch.
///
/// From [`Detail::Aggregates`] up, the policy's evictions reach the
/// tracer as counts ([`Policy::evictions`] deltas) after each run and
/// directive, so a batch consumer behind a [`crate::Tee`] reads the same
/// numbers at every level.
///
/// The token is polled once per compressed run (per event on a flat
/// trace), never inside a run — and, when the kernels decode reference
/// by reference, between the iterations of a cycle too. The run returns
/// the same [`Metrics`] at every level — tracing observes the run, it
/// never alters it — and they equal the per-reference driver's in
/// `cdmm-oracle`; the `run_level_equivalence` harness pins both. A
/// stop (deadline expiry or [`CancelToken::cancel`]) discards the
/// partial metrics, flushes the tracer, leaves the policy's tracing off
/// and returns [`SimError::DeadlineExceeded`] with the references
/// completed.
///
/// # Examples
///
/// ```
/// use cdmm_trace::{synth, CompressedTrace};
/// use cdmm_vmsim::policy::lru::Lru;
/// use cdmm_vmsim::{simulate_with, CancelToken, NullTracer, SimConfig, SimError};
///
/// let t = synth::cyclic(4, 100);
/// let c = CompressedTrace::from_trace(&t);
/// let cfg = SimConfig::default();
/// let token = CancelToken::new();
/// let flat = simulate_with(&t, &mut Lru::new(4), cfg, &mut NullTracer, &token);
/// let run_level = simulate_with(&c, &mut Lru::new(4), cfg, &mut NullTracer, &token);
/// assert_eq!(run_level, flat, "whole runs or single references: the same metrics");
/// assert_eq!(run_level.map(|m| m.faults), Ok(4), "four frames hold the cycle");
///
/// token.cancel();
/// let stopped = simulate_with(&c, &mut Lru::new(4), cfg, &mut NullTracer, &token);
/// assert_eq!(stopped, Err(SimError::DeadlineExceeded { refs_done: 0 }));
/// ```
pub fn simulate_with<S: EventSource + ?Sized, P: Policy + ?Sized>(
    trace: &S,
    policy: &mut P,
    config: SimConfig,
    tracer: &mut dyn Tracer,
    token: &CancelToken,
) -> Result<Metrics, SimError> {
    let mut metrics = Metrics::new(config.fault_service);
    let traced = tracer.detail() >= Detail::Aggregates;
    if traced {
        policy.set_detail(tracer.detail());
    }
    let keep_going = || !token.should_stop();
    // Set when a cycle decoded reference by reference stops between two
    // of its iterations.
    let cut = Cell::new(false);
    let completed = {
        let mut tally = if traced {
            Tally::traced(&mut metrics, tracer)
        } else {
            Tally::new(&mut metrics)
        };
        let mut evicted = policy.evictions();
        let consumed = trace.for_each_run_while(
            || !cut.get() && keep_going(),
            |run| {
                match run {
                    RunRef::Run { start, stride, len } => {
                        policy.reference_run(start, stride, len, &mut tally);
                    }
                    RunRef::Cycle { body, reps } if tally.batches() => {
                        policy.reference_cycle(body, reps, &mut tally);
                    }
                    RunRef::Cycle { body, reps } => {
                        for i in 0..reps {
                            if i > 0 && !keep_going() {
                                cut.set(true);
                                break;
                            }
                            for r in body {
                                policy.reference_run(r.start, r.stride, r.len, &mut tally);
                            }
                        }
                    }
                    RunRef::Directive(other) => {
                        policy.directive(other);
                        tally.forward_events(policy);
                    }
                }
                if traced {
                    let now = policy.evictions();
                    tally.record_evictions(now - evicted);
                    evicted = now;
                }
            },
        );
        consumed && !cut.get()
    };
    if traced {
        policy.set_detail(Detail::Off);
        tracer.flush();
    }
    if !completed {
        return Err(SimError::DeadlineExceeded {
            refs_done: metrics.refs,
        });
    }
    metrics.recovered_directives = policy.recovered_directives();
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::cd::{CdPolicy, CdSelector};
    use crate::policy::lru::Lru;
    use crate::policy::ws::WorkingSet;
    use crate::{EventLog, NullTracer};
    use cdmm_trace::{synth, CompressedTrace, Trace};

    /// The untraced driver under an idle token.
    fn run<S: EventSource + ?Sized, P: Policy + ?Sized>(
        trace: &S,
        policy: &mut P,
        config: SimConfig,
    ) -> Metrics {
        simulate_with(trace, policy, config, &mut NullTracer, &CancelToken::new())
            .expect("an idle token never stops the run")
    }

    #[test]
    fn lru_metrics_on_cyclic_trace() {
        let t = synth::cyclic(8, 10);
        let m = run(&t, &mut Lru::new(8), SimConfig::default());
        assert_eq!(m.refs, 80);
        assert_eq!(m.faults, 8, "full allocation: cold faults only");
        assert!(m.mean_mem() <= 8.0);
        assert_eq!(m.peak_resident, 8);

        let m = run(&t, &mut Lru::new(4), SimConfig::default());
        assert_eq!(m.faults, 80, "undersized LRU faults every time");
    }

    #[test]
    fn st_cost_includes_fault_service() {
        let t = synth::cyclic(2, 1);
        let m = run(&t, &mut Lru::new(2), SimConfig { fault_service: 100 });
        // refs: page0 (fault, resident 1), page1 (fault, resident 2).
        assert_eq!(m.mem_integral, 3);
        assert_eq!(m.fault_mem_integral, 3);
        assert!((m.st_cost() - (3.0 + 100.0 * 3.0)).abs() < 1e-9);
    }

    #[test]
    fn directives_reach_the_policy() {
        // A CD policy driven by a trace with an embedded ALLOCATE.
        use cdmm_lang::ast::AllocArg;
        use cdmm_trace::{Event, PageId};
        let events = vec![
            Event::Alloc(vec![AllocArg { pi: 1, pages: 1 }]),
            Event::Ref(PageId(0)),
            Event::Ref(PageId(1)),
            Event::Ref(PageId(0)),
        ];
        let t = Trace::from_events(events);
        let mut cd = CdPolicy::new(CdSelector::Innermost).with_min_alloc(1);
        let m = run(&t, &mut cd, SimConfig::default());
        assert_eq!(m.faults, 3, "1-page target: page 0 refaults");
    }

    #[test]
    fn tracer_sees_directive_and_fault_events() {
        use crate::observe::{AllocDecision, SimEvent};
        use cdmm_lang::ast::AllocArg;
        use cdmm_trace::{Event, PageId};
        let events = vec![
            Event::Alloc(vec![AllocArg { pi: 1, pages: 1 }]),
            Event::Ref(PageId(0)),
            Event::Ref(PageId(1)),
            Event::Ref(PageId(0)),
        ];
        let t = Trace::from_events(events);
        let mut cd = CdPolicy::new(CdSelector::Innermost).with_min_alloc(1);
        let mut log = EventLog::new(64);
        let m = simulate_with(
            &t,
            &mut cd,
            SimConfig::default(),
            &mut log,
            &CancelToken::new(),
        )
        .expect("idle token completes");
        assert_eq!(m.faults, 3);
        let kinds: Vec<&str> = log.events().map(|e| e.event.kind()).collect();
        // ALLOCATE granted at clock 0, then three faults with evictions
        // once the 1-page target is exceeded.
        assert_eq!(kinds.first(), Some(&"alloc"));
        assert_eq!(kinds.iter().filter(|k| **k == "fault").count(), 3);
        assert!(kinds.contains(&"evict"));
        assert!(log.events().any(|e| matches!(
            e.event,
            SimEvent::Alloc {
                pi: 1,
                decision: AllocDecision::Granted,
                ..
            }
        )));
        // Directive events carry the clock of the preceding reference.
        assert_eq!(log.events().next().map(|e| e.at), Some(0));
    }

    #[test]
    fn a_cancelled_token_stops_the_run_before_the_first_reference() {
        let t = synth::cyclic(4, 100);
        let c = CompressedTrace::from_trace(&t);
        let token = CancelToken::new();
        token.cancel();
        let stopped = Err(SimError::DeadlineExceeded { refs_done: 0 });
        let cfg = SimConfig::default();
        assert_eq!(
            simulate_with(&t, &mut Lru::new(4), cfg, &mut NullTracer, &token),
            stopped
        );
        assert_eq!(
            simulate_with(&c, &mut Lru::new(4), cfg, &mut NullTracer, &token),
            stopped
        );
        let mut log = EventLog::new(64);
        assert_eq!(
            simulate_with(&c, &mut Lru::new(4), cfg, &mut log, &token),
            stopped
        );
        assert!(log.is_empty());
    }

    #[test]
    fn expired_deadline_reports_refs_done() {
        use std::time::Duration;
        let t = synth::cyclic(4, 1000);
        let token = CancelToken::with_deadline(Duration::ZERO);
        let err = simulate_with(
            &t,
            &mut Lru::new(4),
            SimConfig::default(),
            &mut NullTracer,
            &token,
        );
        match err {
            Err(SimError::DeadlineExceeded { refs_done }) => {
                assert!(refs_done < t.ref_count(), "must stop before the end")
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn ws_mean_mem_matches_manual_average() {
        let t = synth::uniform(6, 500, 8);
        let m = run(&t, &mut WorkingSet::new(50), SimConfig::default());
        assert!(
            m.mean_mem() > 1.0 && m.mean_mem() <= 6.0,
            "{}",
            m.mean_mem()
        );
    }
}
