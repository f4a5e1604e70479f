//! Umbrella crate for the CDMM reproduction workspace.
//!
//! The front door is the [`Simulation`] facade — a fluent builder over
//! the whole compile → instrument → trace → simulate pipeline:
//!
//! ```
//! use cdmm_repro::{PolicySpec, Simulation};
//!
//! let report = Simulation::workload("MAIN")
//!     .policy(PolicySpec::Lru { frames: 8 })
//!     .run()
//!     .expect("built-in workload");
//! println!("{}: {} faults", report.policy, report.metrics.faults);
//! ```
//!
//! For multiprogramming at scale, the [`Fleet`] builder clones paper
//! workloads into many perturbed tenants and schedules them over
//! sharded memory cells (byte-identical results at any thread count):
//!
//! ```
//! use cdmm_repro::{Fleet, PolicySpec};
//!
//! let report = Fleet::tenants(4)
//!     .workloads(["FDJAC"])
//!     .policy_mix([PolicySpec::Ws { tau: 2000 }])
//!     .tenants_per_cell(2)
//!     .run()
//!     .expect("built-in workloads");
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
pub mod simulation;

pub use fleet::Fleet;
pub use simulation::{PreparedSimulation, Report, Simulation, SimulationError};

// The names a facade user needs, lifted to the crate root.
pub use cdmm_core::fleet::{ChaosSpec, FleetError, FleetSpec, PreparedFleet};
pub use cdmm_core::{PipelineConfig, PipelineError, PolicySpec};
pub use cdmm_locality::{InsertOptions, PageGeometry, SizerMode};
pub use cdmm_vmsim::policy::cd::CdSelector;
pub use cdmm_vmsim::{
    Admission, CellPressure, EventLog, FleetReport, FleetScorecard, HistogramSummary, JsonlSink,
    Metrics, MetricsRegistry, NullTracer, ProgressCounters, ProgressExporter, RegistrySnapshot,
    SimEvent, Span, Tee, TenantReport, Tracer, WorkerTimeline,
};
pub use cdmm_workloads::Scale;
