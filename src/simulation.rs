//! The [`Simulation`] facade: one fluent builder covering the whole
//! compile → instrument → trace → simulate pipeline.
//!
//! The sub-crates stay the real API for fine-grained work; this facade
//! is the front door. A minimal run takes three lines:
//!
//! ```
//! use cdmm_repro::{PolicySpec, Simulation};
//!
//! let report = Simulation::workload("MAIN")
//!     .policy(PolicySpec::Lru { frames: 8 })
//!     .run()
//!     .expect("known workload compiles");
//! assert!(report.metrics.faults > 0);
//! ```
//!
//! Attach any [`Tracer`] — an event log, a [`cdmm_vmsim::MetricsRegistry`],
//! or both through a [`cdmm_vmsim::Tee`] — to observe the run without
//! changing it:
//!
//! ```
//! use cdmm_repro::{EventLog, Simulation};
//!
//! let mut log = EventLog::new(4096);
//! let traced = Simulation::workload("MAIN").tracer(&mut log).run().unwrap();
//! let plain = Simulation::workload("MAIN").run().unwrap();
//! assert_eq!(traced.metrics, plain.metrics, "tracing never alters a run");
//! assert!(!log.is_empty());
//! ```

use std::fmt;

use cdmm_core::{prepare, CancelToken, PipelineConfig, PipelineError, PolicySpec, Prepared};
use cdmm_locality::{InsertOptions, PageGeometry, SizerMode};
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::{Metrics, NullTracer, Tracer};
use cdmm_workloads::{by_name, Scale};

/// Facade failure: either the workload name or the pipeline rejected
/// the input.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulationError {
    /// No built-in workload under this name.
    UnknownWorkload(String),
    /// Compilation, tracing, or validation failed.
    Pipeline(PipelineError),
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::UnknownWorkload(name) => {
                write!(f, "unknown workload {name:?}; try MAIN, FDJAC, TQL, ...")
            }
            SimulationError::Pipeline(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimulationError {}

impl From<PipelineError> for SimulationError {
    fn from(e: PipelineError) -> Self {
        SimulationError::Pipeline(e)
    }
}

/// The outcome of one facade run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The policy's own label, e.g. `"CD(level 2)"`.
    pub policy: String,
    /// The accumulated simulation metrics.
    pub metrics: Metrics,
}

enum Source {
    /// A built-in workload, resolved at prepare time.
    Workload(String),
    /// Caller-supplied mini-FORTRAN.
    Inline { name: String, text: String },
}

/// Fluent builder over the full pipeline; see the [module docs](self)
/// for examples.
///
/// Defaults mirror the paper's experimental setup: 256-byte pages,
/// 2000-reference fault service, minimum CD allocation of 2 pages, all
/// directives inserted, the CD policy honoring mid-level (`AtLevel(2)`)
/// requests, and no tracer.
pub struct Simulation<'t> {
    source: Source,
    scale: Scale,
    config: PipelineConfig,
    policy: PolicySpec,
    tracer: Option<&'t mut dyn Tracer>,
}

impl fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match &self.source {
            Source::Workload(n) => n,
            Source::Inline { name, .. } => name,
        };
        f.debug_struct("Simulation")
            .field("source", name)
            .field("policy", &self.policy)
            .field("traced", &self.tracer.is_some())
            .finish_non_exhaustive()
    }
}

impl<'t> Simulation<'t> {
    fn with_source(source: Source) -> Self {
        Simulation {
            source,
            scale: Scale::Small,
            config: PipelineConfig::default(),
            policy: PolicySpec::Cd {
                selector: CdSelector::AtLevel(2),
            },
            tracer: None,
        }
    }

    /// Starts from a built-in workload (case-insensitive paper name:
    /// `"MAIN"`, `"FDJAC"`, ...). The name is resolved when the
    /// simulation is prepared or run.
    pub fn workload(name: &str) -> Self {
        Self::with_source(Source::Workload(name.to_string()))
    }

    /// Starts from caller-supplied mini-FORTRAN source text.
    pub fn from_source(name: &str, source: &str) -> Self {
        Self::with_source(Source::Inline {
            name: name.to_string(),
            text: source.to_string(),
        })
    }

    /// Workload size preset (built-in workloads only; default
    /// [`Scale::Small`]).
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Page size in bytes (default 256, the paper's).
    pub fn page_size(mut self, bytes: u64) -> Self {
        self.config.geometry.page_bytes = bytes;
        self
    }

    /// Full page/element geometry.
    pub fn geometry(mut self, geometry: PageGeometry) -> Self {
        self.config.geometry = geometry;
        self
    }

    /// Fault service time in references (default 2000).
    pub fn fault_service(mut self, refs: u64) -> Self {
        self.config.fault_service = refs;
        self
    }

    /// Minimum CD allocation in pages (default 2).
    pub fn min_alloc(mut self, pages: u64) -> Self {
        self.config.min_alloc = pages;
        self
    }

    /// Which directives the instrumenter inserts.
    pub fn directives(mut self, insert: InsertOptions) -> Self {
        self.config.insert = insert;
        self
    }

    /// Page-counting mode of the locality sizer.
    pub fn sizer_mode(mut self, mode: SizerMode) -> Self {
        self.config.sizer_mode = mode;
        self
    }

    /// The policy to simulate (default: CD at level 2).
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches an event tracer for the run. Tracing observes the
    /// simulation — metrics are identical with or without it.
    pub fn tracer(mut self, tracer: &'t mut dyn Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Runs the front half of the pipeline once, returning a handle
    /// that can simulate many policies without re-compiling.
    pub fn prepare(self) -> Result<PreparedSimulation<'t>, SimulationError> {
        let (name, text) = match self.source {
            Source::Workload(name) => {
                let w = by_name(&name, self.scale).ok_or(SimulationError::UnknownWorkload(name))?;
                (w.name.to_string(), w.source)
            }
            Source::Inline { name, text } => (name, text),
        };
        let prepared = prepare(&name, &text, self.config)?;
        Ok(PreparedSimulation {
            prepared,
            policy: self.policy,
            tracer: self.tracer,
        })
    }

    /// Prepares and runs the configured policy in one step.
    pub fn run(self) -> Result<Report, SimulationError> {
        self.prepare().map(|mut p| p.run())
    }
}

/// A compiled, instrumented, traced program plus the builder's policy
/// and tracer — ready to simulate repeatedly.
///
/// [`PreparedSimulation::run`] uses the builder's policy;
/// [`PreparedSimulation::run_policy`] simulates any other
/// [`PolicySpec`] on the same prepared program.
pub struct PreparedSimulation<'t> {
    prepared: Prepared,
    policy: PolicySpec,
    tracer: Option<&'t mut dyn Tracer>,
}

impl fmt::Debug for PreparedSimulation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedSimulation")
            .field("program", &self.prepared.name())
            .field("policy", &self.policy)
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

impl PreparedSimulation<'_> {
    /// Runs the builder's configured policy (through the builder's
    /// tracer, when one was attached).
    pub fn run(&mut self) -> Report {
        self.run_policy(self.policy)
    }

    /// Runs any policy on the prepared program, reusing the compiled
    /// traces. The builder's tracer (if attached) observes this run
    /// too.
    pub fn run_policy(&mut self, policy: PolicySpec) -> Report {
        let tracer: &mut dyn Tracer = match &mut self.tracer {
            Some(t) => *t,
            None => &mut NullTracer,
        };
        let metrics = self
            .prepared
            .run_policy_traced(policy, tracer, &CancelToken::new())
            .expect("an idle token never stops a run");
        Report {
            policy: self.prepared.policy_label(policy),
            metrics,
        }
    }

    /// The underlying [`Prepared`] program, for everything the facade
    /// does not wrap (analysis, traces, fingerprints).
    pub fn prepared(&self) -> &Prepared {
        &self.prepared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_vmsim::{EventLog, MetricsRegistry, Tee};

    #[test]
    fn unknown_workload_is_reported() {
        let err = Simulation::workload("NOPE").run().unwrap_err();
        assert!(matches!(err, SimulationError::UnknownWorkload(_)));
        assert!(err.to_string().contains("NOPE"));
    }

    #[test]
    fn bad_source_surfaces_pipeline_error() {
        let err = Simulation::from_source("BAD", "PROGRAM X\nQ(1) = 1.0\nEND")
            .run()
            .unwrap_err();
        assert!(matches!(err, SimulationError::Pipeline(_)));
    }

    #[test]
    fn facade_matches_direct_pipeline_calls() {
        let report = Simulation::workload("MAIN")
            .policy(PolicySpec::Lru { frames: 8 })
            .run()
            .expect("MAIN runs");
        let w = by_name("MAIN", Scale::Small).expect("workload");
        let p = prepare(w.name, &w.source, PipelineConfig::default()).expect("pipeline");
        assert_eq!(report.metrics, p.run_policy(PolicySpec::Lru { frames: 8 }));
        assert_eq!(report.policy, "LRU(8)");
    }

    #[test]
    fn prepared_simulation_reruns_without_recompiling() {
        let mut prepared = Simulation::workload("FDJAC").prepare().expect("FDJAC");
        let cd = prepared.run();
        let lru = prepared.run_policy(PolicySpec::Lru { frames: 8 });
        assert!(cd.policy.starts_with("CD"));
        assert_eq!(cd.metrics.refs, lru.metrics.refs, "same reference string");
    }

    #[test]
    fn traced_facade_run_is_identical_and_captures_events() {
        let mut log = EventLog::new(1 << 14);
        let traced = Simulation::workload("MAIN").tracer(&mut log).run().unwrap();
        let plain = Simulation::workload("MAIN").run().unwrap();
        assert_eq!(traced, plain);
        assert!(!log.is_empty(), "a CD run emits directive events");
    }

    #[test]
    fn attached_registry_accumulates_a_snapshot_without_changing_the_run() {
        let mut registry = MetricsRegistry::new();
        let mut with = Simulation::workload("MAIN")
            .tracer(&mut registry)
            .prepare()
            .expect("MAIN");
        let a = with.run();
        let b = Simulation::workload("MAIN").run().expect("MAIN");
        assert_eq!(a, b, "an attached registry never changes the numbers");
        // The registry accumulates across runs on the same handle.
        with.run();
        drop(with);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("faults"), 2 * a.metrics.faults);
        assert_eq!(snap.counter("refs"), 2 * a.metrics.refs);
        assert!(
            snap.histogram("resident_occupancy").is_some(),
            "per-ref occupancy recorded"
        );
    }

    #[test]
    fn metrics_and_tracer_compose_through_a_tee() {
        let mut log = EventLog::new(1 << 14);
        let mut registry = MetricsRegistry::new();
        let report = Simulation::workload("MAIN")
            .tracer(&mut Tee::new(&mut log, &mut registry))
            .run()
            .expect("MAIN");
        assert_eq!(registry.snapshot().counter("faults"), report.metrics.faults);
        assert!(!log.is_empty(), "the user tracer still sees events");
        assert!(
            log.events().all(|e| e.event.kind() != "ref"),
            "the log stays at its own level"
        );
    }

    #[test]
    fn knobs_reach_the_pipeline() {
        let small = Simulation::workload("MAIN")
            .page_size(128)
            .fault_service(500)
            .min_alloc(1)
            .prepare()
            .expect("MAIN");
        let cfg = small.prepared().config();
        assert_eq!(cfg.geometry.page_bytes, 128);
        assert_eq!(cfg.fault_service, 500);
        assert_eq!(cfg.min_alloc, 1);
    }
}
