//! The uniprogramming simulation drivers: [`simulate`], the
//! per-reference reference implementation, and [`simulate_with`], the
//! one driver every production path runs.

use cdmm_trace::{CancelToken, EventRef, EventSource, RunRef};

use crate::error::SimError;
use crate::metrics::{Metrics, Tally};
use crate::observe::{Detail, RefBatch, SimEvent, Tracer};
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

/// Drives `policy` over `trace` one reference at a time and returns the
/// accumulated metrics: the reference implementation that tests,
/// benches and the run-level equivalence harness compare
/// [`simulate_with`] against.
///
/// Directive events are forwarded to the policy before the next
/// reference; policies that ignore directives see exactly the page
/// reference string. The trace may be any [`EventSource`] — a flat
/// [`cdmm_trace::Trace`] or a [`cdmm_trace::CompressedTrace`], which
/// streams without ever materializing the event vector.
///
/// The driver is generic over the policy too: pass a concrete policy
/// type and the whole loop monomorphizes (the policy's `reference`
/// inlines into the trace decode); pass `&mut dyn Policy` where one
/// loop must drive interchangeable policies.
///
/// # Examples
///
/// ```
/// use cdmm_trace::synth;
/// use cdmm_vmsim::policy::ws::WorkingSet;
/// use cdmm_vmsim::{simulate, SimConfig};
///
/// let trace = synth::cyclic(4, 100);
/// let m = simulate(&trace, &mut WorkingSet::new(1_000), SimConfig::default());
/// assert_eq!(m.faults, 4, "a large window only cold-faults");
/// ```
pub fn simulate<S: EventSource + ?Sized, P: Policy + ?Sized>(
    trace: &S,
    policy: &mut P,
    config: SimConfig,
) -> Metrics {
    let mut metrics = Metrics::new(config.fault_service);
    trace.for_each_event(|event| match event {
        EventRef::Ref(page) => {
            let fault = policy.reference(page);
            metrics.record(policy.resident(), fault);
            if policy.is_degraded() {
                metrics.degraded_refs += 1;
            }
        }
        EventRef::Directive(other) => policy.directive(other),
    });
    metrics.recovered_directives = policy.recovered_directives();
    metrics
}

/// The production driver: [`simulate`] with an event [`Tracer`]
/// attached, under a cooperative [`CancelToken`].
///
/// One rule picks the loop: the tracer's [`Tracer::detail`]. Below
/// [`Detail::Decisions`] the run-level loop runs: each constant-stride
/// run of a [`cdmm_trace::CompressedTrace`] goes to
/// [`Policy::reference_run`] whole (folded cycles to
/// [`Policy::reference_cycle`]), so the policies batch it in closed
/// form; any other [`EventSource`] degenerates to length-1 runs. Below
/// [`Detail::Aggregates`] (a [`crate::observe::NullTracer`], or a
/// scheduler-level tracer, which a uniprogram run has nothing to tell)
/// that loop carries no tracing at all. At [`Detail::Aggregates`] it
/// also hands the tracer every batch its kernels account for
/// ([`Tracer::aggregate`]), forwards each directive's outcome events
/// stamped with the reference clock (references processed so far), and
/// reports the policy's evictions as counts after each run and
/// directive. At [`Detail::Decisions`] or above the per-reference loop
/// runs: the policy buffers [`SimEvent`]s at its decision points and
/// the driver forwards them after each trace event, stamped with the
/// reference clock — the policy's own events first (evictions, grants,
/// lock breaks …), then the driver's [`SimEvent::Fault`], then, only at
/// [`Detail::References`], one [`SimEvent::Ref`]. That loop also hands
/// over each reference as a one-reference [`RefBatch`] and each
/// [`SimEvent::Evict`] as a count, so a batch consumer behind a
/// [`crate::Tee`] reads the same numbers from either loop.
///
/// The token is polled once per compressed run (per event on a flat
/// trace), never inside a run. Either loop returns exactly the
/// [`Metrics`] of [`simulate`] — tracing observes the run, it never
/// alters it; the `run_level_equivalence` harness pins both. A stop
/// (deadline expiry or [`CancelToken::cancel`]) discards the partial
/// metrics, flushes the tracer, leaves the policy's tracing off and
/// returns [`SimError::DeadlineExceeded`] with the references
/// completed.
///
/// # Examples
///
/// ```
/// use cdmm_trace::{synth, CompressedTrace};
/// use cdmm_vmsim::policy::lru::Lru;
/// use cdmm_vmsim::{simulate, simulate_with, CancelToken, NullTracer, SimConfig, SimError};
///
/// let t = synth::cyclic(4, 100);
/// let c = CompressedTrace::from_trace(&t);
/// let cfg = SimConfig::default();
/// let per_ref = simulate(&t, &mut Lru::new(4), cfg);
/// let token = CancelToken::new();
/// let run_level = simulate_with(&c, &mut Lru::new(4), cfg, &mut NullTracer, &token);
/// assert_eq!(run_level, Ok(per_ref));
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
    let keep_going = || !token.should_stop();
    let detail = tracer.detail();
    let completed = if detail < Detail::Decisions {
        let traced = detail >= Detail::Aggregates;
        let mut tally = if traced {
            policy.set_detail(Detail::Aggregates);
            Tally::traced(&mut metrics, tracer)
        } else {
            Tally::new(&mut metrics)
        };
        let mut evicted = policy.evictions();
        let completed = trace.for_each_run_while(keep_going, |run| {
            match run {
                RunRef::Run { start, stride, len } => {
                    policy.reference_run(start, stride, len, &mut tally);
                }
                RunRef::Cycle { body, reps } => {
                    policy.reference_cycle(body, reps, &mut tally);
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
        });
        if traced {
            policy.set_detail(Detail::Off);
        }
        completed
    } else {
        let want_refs = detail >= Detail::References;
        policy.set_detail(detail);
        let mut pending: Vec<SimEvent> = Vec::new();
        let completed = trace.for_each_event_while(keep_going, |event| match event {
            EventRef::Ref(page) => {
                let fault = policy.reference(page);
                metrics.record(policy.resident(), fault);
                if policy.is_degraded() {
                    metrics.degraded_refs += 1;
                }
                let at = metrics.refs;
                policy.drain_events(&mut pending);
                forward_decisions(tracer, at, &mut pending);
                let resident = policy.resident() as u32;
                if fault {
                    tracer.record(at, &SimEvent::Fault { page, resident });
                }
                let batch = RefBatch::Flat {
                    n: 1,
                    resident: u64::from(resident),
                    fault,
                };
                tracer.aggregate(at, &batch);
                if want_refs {
                    tracer.record(
                        at,
                        &SimEvent::Ref {
                            page,
                            resident,
                            fault,
                        },
                    );
                }
            }
            EventRef::Directive(other) => {
                policy.directive(other);
                policy.drain_events(&mut pending);
                forward_decisions(tracer, metrics.refs, &mut pending);
            }
        });
        policy.set_detail(Detail::Off);
        completed
    };
    if detail >= Detail::Aggregates {
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

/// Forwards a decision-level run's buffered policy events at clock
/// `at`, each [`SimEvent::Evict`] also as a one-page eviction count.
fn forward_decisions(tracer: &mut dyn Tracer, at: u64, pending: &mut Vec<SimEvent>) {
    for e in pending.drain(..) {
        if let SimEvent::Evict { .. } = e {
            tracer.aggregate(at, &RefBatch::Evictions(1));
        }
        tracer.record(at, &e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::cd::{CdPolicy, CdSelector};
    use crate::policy::lru::Lru;
    use crate::policy::ws::WorkingSet;
    use crate::{EventLog, NullTracer};
    use cdmm_trace::{synth, CompressedTrace, Trace};

    #[test]
    fn lru_metrics_on_cyclic_trace() {
        let t = synth::cyclic(8, 10);
        let m = simulate(&t, &mut Lru::new(8), SimConfig::default());
        assert_eq!(m.refs, 80);
        assert_eq!(m.faults, 8, "full allocation: cold faults only");
        assert!(m.mean_mem() <= 8.0);
        assert_eq!(m.peak_resident, 8);

        let m = simulate(&t, &mut Lru::new(4), SimConfig::default());
        assert_eq!(m.faults, 80, "undersized LRU faults every time");
    }

    #[test]
    fn st_cost_includes_fault_service() {
        let t = synth::cyclic(2, 1);
        let m = simulate(&t, &mut Lru::new(2), SimConfig { fault_service: 100 });
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
        let m = simulate(&t, &mut cd, SimConfig::default());
        assert_eq!(m.faults, 3, "1-page target: page 0 refaults");
    }

    /// The untraced production path under an idle token.
    fn run_level<S: EventSource + ?Sized, P: Policy + ?Sized>(
        trace: &S,
        policy: &mut P,
    ) -> Metrics {
        simulate_with(
            trace,
            policy,
            SimConfig::default(),
            &mut NullTracer,
            &CancelToken::new(),
        )
        .expect("an idle token never stops the run")
    }

    fn two_phases(refs: usize, seed: u64) -> Trace {
        synth::phased(
            &[
                synth::Phase {
                    base: 0,
                    pages: 6,
                    refs,
                },
                synth::Phase {
                    base: 6,
                    pages: 3,
                    refs,
                },
            ],
            seed,
        )
    }

    #[test]
    fn traced_run_metrics_match_untraced() {
        // Tracing must observe the run without altering it, for every
        // policy family.
        let t = two_phases(400, 9);
        let token = CancelToken::new();
        let cfg = SimConfig::default();
        let plain = simulate(&t, &mut Lru::new(4), cfg);
        let mut log = EventLog::new(4096).with_detail(Detail::References);
        let traced = simulate_with(&t, &mut Lru::new(4), cfg, &mut log, &token);
        assert_eq!(traced, Ok(plain));
        assert!(!log.is_empty());

        let plain = simulate(&t, &mut WorkingSet::new(50), cfg);
        let mut log = EventLog::new(4096);
        let traced = simulate_with(&t, &mut WorkingSet::new(50), cfg, &mut log, &token);
        assert_eq!(traced, Ok(plain));
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
    fn cancelled_token_stops_both_loops_before_the_first_reference() {
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
    fn run_level_matches_per_ref_for_every_policy_family() {
        let t = two_phases(400, 9);
        let c = CompressedTrace::from_trace(&t);
        let cfg = SimConfig::default();

        let per_ref = simulate(&t, &mut Lru::new(4), cfg);
        assert_eq!(per_ref, run_level(&c, &mut Lru::new(4)), "LRU");

        let per_ref = simulate(&t, &mut WorkingSet::new(50), cfg);
        assert_eq!(per_ref, run_level(&c, &mut WorkingSet::new(50)), "WS");

        let per_ref = simulate(&t, &mut CdPolicy::new(CdSelector::Innermost), cfg);
        let cd = run_level(&c, &mut CdPolicy::new(CdSelector::Innermost));
        assert_eq!(per_ref, cd, "CD");
    }

    #[test]
    fn run_level_on_a_flat_trace_degenerates_to_simulate() {
        let t = synth::uniform(12, 2_000, 3);
        let per_ref = simulate(&t, &mut Lru::new(6), SimConfig::default());
        assert_eq!(per_ref, run_level(&t, &mut Lru::new(6)));
    }

    #[test]
    fn ws_mean_mem_matches_manual_average() {
        let t = synth::uniform(6, 500, 8);
        let m = simulate(&t, &mut WorkingSet::new(50), SimConfig::default());
        assert!(
            m.mean_mem() > 1.0 && m.mean_mem() <= 6.0,
            "{}",
            m.mean_mem()
        );
    }
}
