//! The one run path, pinned from the outside.
//!
//! Every policy run goes through `cdmm_vmsim::simulate_with`, reached
//! from `Prepared::run_policy{,_cancellable,_traced}`, and every cached
//! point is keyed by `cdmm_core::spec_key`. This suite pins what callers
//! can observe of that path:
//!
//! - persisted cache keys: the byte sequence `spec_key` hashes is part
//!   of the on-disk cache format, so its values for one program must
//!   never move;
//! - a traced run under a stopped token fails typed before the first
//!   reference, flushes its tracer and leaves the policy untraced;
//! - `policy_label` names exactly the policy `build_policy` builds.

use cdmm_core::sweep::spec_key;
use cdmm_core::{prepare, CancelToken, PipelineConfig, PolicySpec, Prepared};
use cdmm_lang::ast::AllocArg;
use cdmm_trace::{synth, CompressedTrace, Event, PageId};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::{simulate_with, EventLog, Policy, SimConfig, SimError, SimEvent, Tracer};
use cdmm_workloads::{by_name, Scale};

fn main_small() -> Prepared {
    let w = by_name("MAIN", Scale::Small).expect("MAIN exists");
    prepare(w.name, &w.source, PipelineConfig::default()).expect("MAIN compiles")
}

#[test]
fn spec_keys_are_pinned_for_every_keyed_family() {
    let p = main_small();
    assert_eq!(p.fingerprint().to_hex(), "933b1399a439ef1d877f73249bde9745");
    let pinned = [
        (
            PolicySpec::Lru { frames: 8 },
            "a2779e595cb295ae94ec6ff1779d88c5",
        ),
        (
            PolicySpec::Ws { tau: 1000 },
            "350502d40b191a29f30d6e147f01b9e9",
        ),
        (
            PolicySpec::Cd {
                selector: CdSelector::Outermost,
            },
            "f9a96dcf5d0d8583931ff46ce347a75c",
        ),
        (
            PolicySpec::Cd {
                selector: CdSelector::AtLevel(2),
            },
            "ec63f297a086d3b9bc55c6b9fdc733ab",
        ),
        (
            PolicySpec::CdNoLocks {
                selector: CdSelector::Outermost,
            },
            "621d31e8dcab5a2e736866e06286f998",
        ),
        (
            PolicySpec::Fifo { frames: 8 },
            "858c6ccbedcf35058ad3861bcf8cbcd8",
        ),
        (
            PolicySpec::Opt { frames: 8 },
            "848922ef6a752aaa71df0a5e2c38f103",
        ),
    ];
    for (spec, want) in pinned {
        assert_eq!(spec_key(&p, spec).to_hex(), want, "{spec:?}");
    }
}

/// Counts what the driver hands a tracer.
#[derive(Default)]
struct Counting {
    events: u64,
    flushes: u64,
}

impl Tracer for Counting {
    fn record(&mut self, _at: u64, _event: &SimEvent) {
        self.events += 1;
    }

    fn flush(&mut self) {
        self.flushes += 1;
    }
}

/// Whether `cd` buffers events for a directive plus a faulting
/// reference — true only while its tracing is on.
fn buffers_events(cd: &mut CdPolicy) -> bool {
    cd.directive(&Event::Alloc(vec![AllocArg { pi: 1, pages: 1 }]));
    cd.reference(PageId(7));
    let mut out = Vec::new();
    cd.drain_events(&mut out);
    !out.is_empty()
}

#[test]
fn cancelled_traced_run_stops_flushes_and_leaves_tracing_off() {
    let stopped = Err(SimError::DeadlineExceeded { refs_done: 0 });
    let token = CancelToken::new();
    token.cancel();

    let trace = CompressedTrace::from_trace(&synth::cyclic(6, 50));
    let mut cd = CdPolicy::new(CdSelector::Innermost).with_min_alloc(1);
    let mut tracer = Counting::default();
    let run = simulate_with(&trace, &mut cd, SimConfig::default(), &mut tracer, &token);
    assert_eq!(run, stopped);
    assert_eq!(tracer.events, 0, "no event before the first poll");
    assert_eq!(tracer.flushes, 1, "a stopped run still flushes its tracer");
    assert!(!buffers_events(&mut cd), "tracing left on after the stop");
    cd.set_tracing(true);
    assert!(buffers_events(&mut cd), "the probe sees a traced policy");

    let p = main_small();
    let mut log = EventLog::new(64);
    let spec = PolicySpec::Cd {
        selector: CdSelector::AtLevel(2),
    };
    assert_eq!(p.run_policy_traced(spec, &mut log, &token), stopped);
    assert!(log.is_empty());
    assert_eq!(p.run_policy_cancellable(spec, &token), stopped);
}

#[test]
fn policy_labels_match_the_built_policies_for_every_family() {
    let p = main_small();
    for n in [0, 1, 8] {
        let specs = [
            PolicySpec::Cd {
                selector: CdSelector::AtLevel(n as u32),
            },
            PolicySpec::Cd {
                selector: CdSelector::Outermost,
            },
            PolicySpec::Cd {
                selector: CdSelector::Innermost,
            },
            PolicySpec::CdNoLocks {
                selector: CdSelector::FirstFit,
            },
            PolicySpec::Lru { frames: n },
            PolicySpec::Ws { tau: n as u64 },
            PolicySpec::Fifo { frames: n },
            PolicySpec::Clock { frames: n },
            PolicySpec::Opt { frames: n },
            PolicySpec::Pff {
                threshold: n as u64,
            },
            PolicySpec::DampedWs {
                tau: n as u64,
                reserve_cap: n,
            },
            PolicySpec::SampledWs {
                tau: n as u64,
                sigma: n as u64,
            },
            PolicySpec::VariableSampledWs {
                min_interval: n as u64,
                max_interval: 2 * n as u64,
                fault_quota: n as u64,
            },
        ];
        for spec in specs {
            assert_eq!(
                p.policy_label(spec),
                p.build_policy(spec).label(),
                "{spec:?}"
            );
        }
    }
}
