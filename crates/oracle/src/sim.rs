//! The per-reference simulation driver.

use cdmm_trace::{EventRef, EventSource};
use cdmm_vmsim::{Metrics, Policy, SimConfig};

/// Drives `policy` over `trace` one reference at a time and returns the
/// accumulated metrics: the reference implementation that tests,
/// benches and the run-level equivalence harness compare
/// [`cdmm_vmsim::simulate_with`] against.
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
/// use cdmm_oracle::simulate;
/// use cdmm_trace::synth;
/// use cdmm_vmsim::policy::ws::WorkingSet;
/// use cdmm_vmsim::SimConfig;
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
