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
//!   reference, flushes its tracer and leaves the policy untraced, and
//!   OPT's lookahead pass stops under the same token;
//! - `policy_label` names exactly the policy `build_policy` builds;
//! - the tracer's `Detail` level decides what a run delivers and which
//!   loop it takes: below `Decisions` the policy is never instrumented
//!   for references, and at `Aggregates` it reports only its directive
//!   outcomes.

use cdmm_core::sweep::spec_key;
use cdmm_core::{prepare, CancelToken, PipelineConfig, PolicySpec, Prepared};
use cdmm_lang::ast::AllocArg;
use cdmm_trace::{synth, CompressedTrace, Event, PageId};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::{
    simulate_with, Detail, EventLog, MetricsRegistry, NullTracer, Policy, SimConfig, SimError,
    SimEvent, Tee, Tracer,
};
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
    cd.set_detail(Detail::Decisions);
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
fn cancelled_opt_run_stops_before_its_lookahead() {
    // OPT's O(references) next-use pass polls the run's token too, so a
    // stopped token fails it typed with no reference done.
    let token = CancelToken::new();
    token.cancel();
    let stopped = Err(SimError::DeadlineExceeded { refs_done: 0 });
    let p = main_small();
    let spec = PolicySpec::Opt { frames: 8 };
    assert_eq!(p.run_policy_cancellable(spec, &token), stopped);
    let mut log = EventLog::new(64);
    assert_eq!(p.run_policy_traced(spec, &mut log, &token), stopped);
    assert!(log.is_empty());
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

const CD2: PolicySpec = PolicySpec::Cd {
    selector: CdSelector::AtLevel(2),
};

#[test]
fn detail_level_decides_what_a_uniprogram_run_delivers() {
    let p = main_small();
    let plain = p.run_policy(CD2);
    let kinds_at = |detail: Detail| {
        let mut log = EventLog::new(2 * plain.refs as usize + 4096).with_detail(detail);
        let traced = p.run_policy_traced(CD2, &mut log, &CancelToken::new());
        assert_eq!(traced, Ok(plain), "{detail:?} changed the metrics");
        assert_eq!(log.dropped(), 0);
        log.events().map(|e| e.event.kind()).collect::<Vec<_>>()
    };
    assert!(
        kinds_at(Detail::Scheduler).is_empty(),
        "a uniprogram run has no scheduler events"
    );
    let decisions = kinds_at(Detail::Decisions);
    assert!(decisions.contains(&"alloc") && decisions.contains(&"fault"));
    assert!(!decisions.contains(&"ref"));
    let references = kinds_at(Detail::References);
    let refs = references.iter().filter(|&&k| k == "ref").count();
    assert_eq!(refs as u64, plain.refs);
    assert_eq!(references.len() - refs, decisions.len());
}

/// The event kinds a policy raises once per directive outcome.
const OUTCOMES: [&str; 6] = [
    "alloc",
    "lock",
    "unlock",
    "lock_broken",
    "recovered",
    "degraded",
];

#[test]
fn an_aggregates_log_receives_exactly_the_directive_outcomes() {
    let p = main_small();
    let plain = p.run_policy(CD2);
    let run = |detail: Detail| {
        let mut log = EventLog::new(2 * plain.refs as usize + 4096).with_detail(detail);
        let traced = p.run_policy_traced(CD2, &mut log, &CancelToken::new());
        assert_eq!(traced, Ok(plain), "{detail:?} changed the metrics");
        log.to_vec()
    };
    let aggregates = run(Detail::Aggregates);
    let decisions = run(Detail::Decisions);
    // The run-level loop stamps each outcome with the clock the
    // per-reference loop gives it.
    let outcomes: Vec<_> = decisions
        .iter()
        .filter(|e| e.event.detail() <= Detail::Aggregates)
        .copied()
        .collect();
    assert_eq!(aggregates, outcomes);
    let kinds: Vec<&str> = aggregates.iter().map(|e| e.event.kind()).collect();
    assert!(kinds.contains(&"alloc") && kinds.contains(&"lock"));
    assert!(kinds.iter().all(|k| OUTCOMES.contains(k)), "{kinds:?}");
    assert!(
        decisions.len() > aggregates.len(),
        "faults and evictions stay out"
    );
}

/// Wraps `Lru` and records the highest level the driver ever set.
struct Probe {
    lru: Lru,
    highest: Detail,
}

impl Policy for Probe {
    fn label(&self) -> String {
        self.lru.label()
    }

    fn reference(&mut self, page: PageId) -> bool {
        self.lru.reference(page)
    }

    fn resident(&self) -> usize {
        self.lru.resident()
    }

    fn set_detail(&mut self, detail: Detail) {
        self.highest = self.highest.max(detail);
        self.lru.set_detail(detail);
    }
}

#[test]
fn policies_are_instrumented_for_references_only_at_decisions_or_above() {
    let p = main_small();
    let highest_under = |tracer: &mut dyn Tracer| {
        let mut probe = Probe {
            lru: Lru::new(8),
            highest: Detail::Off,
        };
        let cfg = SimConfig::default();
        simulate_with(
            p.plain_trace(),
            &mut probe,
            cfg,
            tracer,
            &CancelToken::new(),
        )
        .expect("idle token");
        probe.highest
    };
    assert_eq!(highest_under(&mut NullTracer), Detail::Off);
    let mut sched = EventLog::new(16).with_detail(Detail::Scheduler);
    assert_eq!(highest_under(&mut sched), Detail::Off);
    let mut registry = MetricsRegistry::new();
    assert_eq!(
        highest_under(&mut registry),
        Detail::Aggregates,
        "a registry-only run keeps the run-level kernels"
    );
    assert_eq!(highest_under(&mut EventLog::new(16)), Detail::Decisions);
}

#[test]
fn a_registry_reads_the_same_from_both_loops() {
    // Alone, the registry rides the run-level loop; behind a tee with a
    // decision-level log the per-reference loop feeds it one reference
    // at a time. Both must leave the same snapshot.
    let p = main_small();
    for spec in [
        CD2,
        PolicySpec::Lru { frames: 8 },
        PolicySpec::Ws { tau: 400 },
    ] {
        let token = CancelToken::new();
        let mut alone = MetricsRegistry::new();
        let m = p.run_policy_traced(spec, &mut alone, &token);
        let mut teed = MetricsRegistry::new();
        let mut log = EventLog::new(16);
        let n = p.run_policy_traced(spec, &mut Tee::new(&mut log, &mut teed), &token);
        assert_eq!(m, n, "{spec:?}");
        assert_eq!(alone.snapshot(), teed.snapshot(), "{spec:?}");
        assert_eq!(alone.counter("refs"), m.expect("idle token").refs);
    }
}

#[test]
fn tee_delivers_each_side_only_its_level() {
    let events = [
        SimEvent::Ref {
            page: PageId(3),
            resident: 1,
            fault: true,
        },
        SimEvent::Fault {
            page: PageId(3),
            resident: 1,
        },
        SimEvent::TenantAdmitted {
            tenant: 0,
            forced: false,
        },
        SimEvent::SwapOut { process: 2 },
    ];
    let mut every = EventLog::new(16).with_detail(Detail::References);
    let mut sched = EventLog::new(16).with_detail(Detail::Scheduler);
    let mut tee = Tee::new(&mut every, &mut sched);
    assert_eq!(tee.detail(), Detail::References);
    for (at, e) in events.iter().enumerate() {
        tee.record(at as u64, e);
    }
    let kinds = |log: &EventLog| log.events().map(|e| e.event.kind()).collect::<Vec<_>>();
    assert_eq!(
        kinds(&every),
        ["ref", "fault", "tenant_admitted", "swap_out"]
    );
    assert_eq!(kinds(&sched), ["tenant_admitted", "swap_out"]);
}
