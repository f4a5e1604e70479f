//! Umbrella crate for the CDMM reproduction workspace.
//!
//! A single-program run is plain data in, numbers out. Look a paper
//! workload up with [`by_name`] (or bring your own mini-FORTRAN
//! source), run the compile → instrument → trace front half once with
//! [`prepare`] under a [`PipelineConfig`], then simulate any number of
//! [`PolicySpec`]s on the [`Prepared`] program:
//!
//! ```
//! use cdmm_repro::{by_name, prepare, PipelineConfig, PolicySpec, Scale};
//!
//! let w = by_name("MAIN", Scale::Small).expect("built-in workload");
//! let p = prepare(w.name, &w.source, PipelineConfig::default()).expect("MAIN compiles");
//! let lru = PolicySpec::Lru { frames: 8 };
//! let m = p.run_policy(lru);
//! println!("{}: {} faults", p.policy_label(lru), m.faults);
//! ```
//!
//! A tracer reaches a run only as the `&mut dyn Tracer` argument of
//! [`Prepared::run_policy_traced`]: an [`EventLog`], a
//! [`MetricsRegistry`], or both through a [`Tee`]. Observing never
//! changes the numbers:
//!
//! ```
//! use cdmm_repro::{
//!     by_name, prepare, CancelToken, CdSelector, EventLog, MetricsRegistry, PipelineConfig,
//!     PolicySpec, Scale, Tee,
//! };
//!
//! let w = by_name("MAIN", Scale::Small).expect("built-in workload");
//! let p = prepare(w.name, &w.source, PipelineConfig::default()).expect("MAIN compiles");
//! let cd = PolicySpec::Cd { selector: CdSelector::AtLevel(2) };
//! let (mut log, mut registry) = (EventLog::new(4096), MetricsRegistry::new());
//! let traced = p
//!     .run_policy_traced(cd, &mut Tee::new(&mut log, &mut registry), &CancelToken::new())
//!     .expect("an idle token never stops a run");
//! assert_eq!(traced, p.run_policy(cd), "tracing never alters a run");
//! assert_eq!(registry.snapshot().counter("faults"), traced.faults);
//! assert!(!log.is_empty(), "a CD run emits directive events");
//! ```
//!
//! For multiprogramming at scale, a [`FleetSpec`] clones paper
//! workloads into many perturbed tenants, and [`run_fleet_spec`]
//! schedules them over independent memory cells (byte-identical results
//! at any thread count; see [`fleet`]):
//!
//! ```
//! use cdmm_repro::{run_fleet_spec, FleetSpec, PolicySpec};
//!
//! let report = run_fleet_spec(&FleetSpec {
//!     tenants: 4,
//!     workloads: vec!["FDJAC".into()],
//!     policy_mix: vec![PolicySpec::Ws { tau: 2000 }],
//!     tenants_per_cell: 2,
//!     ..FleetSpec::default()
//! })
//! .expect("built-in workloads");
//! assert_eq!(report.tenants.len(), 4);
//! ```
//!
//! The sub-crates remain the fine-grained API:
//!
//! - [`cdmm_lang`] — mini-FORTRAN front end
//! - [`cdmm_locality`] — compile-time locality analysis and directive insertion
//! - [`cdmm_trace`] — program interpreter and reference-trace generation
//! - [`cdmm_vmsim`] — virtual-memory simulator, the CD/LRU/WS policy zoo,
//!   and the `observe` event-tracing layer
//! - [`cdmm_workloads`] — the nine numerical programs from the paper
//! - [`cdmm_core`] — end-to-end pipeline and experiment harness

pub mod fleet;

pub use fleet::{prepare_fleet, run_fleet_spec, ChaosSpec, FleetError, FleetSpec, PreparedFleet};

// The names a single-program or fleet run needs, lifted to the crate
// root.
pub use cdmm_core::{prepare, PipelineConfig, PipelineError, PolicySpec, Prepared};
pub use cdmm_locality::{InsertOptions, PageGeometry, SizerMode};
pub use cdmm_vmsim::policy::cd::CdSelector;
pub use cdmm_vmsim::{
    Admission, CancelToken, Detail, EventLog, FleetReport, HistogramSummary, JsonlSink, Metrics,
    MetricsRegistry, NullTracer, ProgressCounters, ProgressExporter, RegistrySnapshot, SimEvent,
    Span, Tee, TenantReport, Tracer,
};
pub use cdmm_workloads::{by_name, Scale};

/// The README's Rust blocks, compiled and run as doctests so its
/// snippets cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// Unit tests of a single-program run through the crate root's names:
/// a workload from [`by_name`], [`prepare`] under a [`PipelineConfig`],
/// then the [`Prepared`] run methods.
#[cfg(test)]
mod simulation {
    mod tests {
        use crate::{
            by_name, prepare, CancelToken, CdSelector, EventLog, MetricsRegistry, PipelineConfig,
            PipelineError, PolicySpec, Prepared, Scale, Tee,
        };
        use cdmm_oracle::simulate;
        use cdmm_vmsim::policy::lru::Lru;
        use cdmm_vmsim::SimConfig;

        const CD2: PolicySpec = PolicySpec::Cd {
            selector: CdSelector::AtLevel(2),
        };

        fn prepared(name: &str, config: PipelineConfig) -> Prepared {
            let w = by_name(name, Scale::Small).expect("built-in workload");
            prepare(w.name, &w.source, config).unwrap_or_else(|e| panic!("{name}: {e}"))
        }

        #[test]
        fn unknown_workload_is_reported() {
            assert!(by_name("NOPE", Scale::Small).is_none());
            let w = by_name("main", Scale::Small).expect("names are case-insensitive");
            assert_eq!(w.name, "MAIN");
        }

        #[test]
        fn bad_source_surfaces_pipeline_error() {
            let err = prepare(
                "BAD",
                "PROGRAM X\nQ(1) = 1.0\nEND",
                PipelineConfig::default(),
            )
            .expect_err("an undeclared array is rejected");
            assert!(matches!(err, PipelineError::Lang(_)), "{err:?}");
        }

        #[test]
        fn facade_matches_direct_pipeline_calls() {
            let p = prepared("MAIN", PipelineConfig::default());
            let lru = PolicySpec::Lru { frames: 8 };
            let direct = simulate(
                p.plain_trace(),
                &mut Lru::new(8),
                SimConfig {
                    fault_service: p.config().fault_service,
                },
            );
            assert_eq!(p.run_policy(lru), direct);
            assert_eq!(p.policy_label(lru), "LRU(8)");
        }

        #[test]
        fn prepared_simulation_reruns_without_recompiling() {
            let p = prepared("FDJAC", PipelineConfig::default());
            let cd = p.run_policy(CD2);
            let lru = p.run_policy(PolicySpec::Lru { frames: 8 });
            assert!(p.policy_label(CD2).starts_with("CD"));
            assert_eq!(cd.refs, lru.refs, "same reference string");
        }

        #[test]
        fn traced_facade_run_is_identical_and_captures_events() {
            let p = prepared("MAIN", PipelineConfig::default());
            let mut log = EventLog::new(1 << 14);
            let traced = p.run_policy_traced(CD2, &mut log, &CancelToken::new());
            assert_eq!(traced, Ok(p.run_policy(CD2)));
            assert!(!log.is_empty(), "a CD run emits directive events");
        }

        #[test]
        fn attached_registry_accumulates_a_snapshot_without_changing_the_run() {
            let p = prepared("MAIN", PipelineConfig::default());
            let plain = p.run_policy(CD2);
            let mut registry = MetricsRegistry::new();
            let a = p.run_policy_traced(CD2, &mut registry, &CancelToken::new());
            assert_eq!(
                a,
                Ok(plain),
                "an attached registry never changes the numbers"
            );
            // The registry accumulates across runs that borrow it.
            let b = p.run_policy_traced(CD2, &mut registry, &CancelToken::new());
            assert_eq!(b, Ok(plain));
            let snap = registry.snapshot();
            assert_eq!(snap.counter("faults"), 2 * plain.faults);
            assert_eq!(snap.counter("refs"), 2 * plain.refs);
            assert!(
                snap.histogram("resident_occupancy").is_some(),
                "per-ref occupancy recorded"
            );
        }

        #[test]
        fn metrics_and_tracer_compose_through_a_tee() {
            let p = prepared("MAIN", PipelineConfig::default());
            let mut log = EventLog::new(1 << 14);
            let mut registry = MetricsRegistry::new();
            let m = p
                .run_policy_traced(
                    CD2,
                    &mut Tee::new(&mut log, &mut registry),
                    &CancelToken::new(),
                )
                .expect("an idle token never stops a run");
            assert_eq!(registry.snapshot().counter("faults"), m.faults);
            assert!(!log.is_empty(), "the user tracer still sees events");
            assert!(
                log.events().all(|e| e.event.kind() != "ref"),
                "the log stays at its own level"
            );
        }

        #[test]
        fn knobs_reach_the_pipeline() {
            let mut config = PipelineConfig::default();
            config.geometry.page_bytes = 128;
            config.fault_service = 500;
            config.min_alloc = 1;
            let small = prepared("MAIN", config);
            let cfg = small.config();
            assert_eq!(cfg.geometry.page_bytes, 128);
            assert_eq!(cfg.fault_service, 500);
            assert_eq!(cfg.min_alloc, 1);
        }
    }
}
