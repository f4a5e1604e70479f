//! End-to-end Compiler-Directed memory management: the paper's pipeline
//! and experiment harness.
//!
//! The pipeline (Sections 2–5 of the paper) is:
//!
//! 1. Parse and check a mini-FORTRAN program (`cdmm-lang`).
//! 2. Analyse its loop-locality structure and insert `ALLOCATE` /
//!    `LOCK` / `UNLOCK` directives (`cdmm-locality`).
//! 3. Execute it, producing an array page-reference trace with embedded
//!    directive events (`cdmm-trace`).
//! 4. Simulate the trace under the CD policy and under the LRU and WS
//!    baselines (`cdmm-vmsim`), comparing `PF`, `MEM` and `ST`.
//!
//! [`prepare`] runs steps 1–3 once; [`Prepared`] then answers any number
//! of policy questions. The [`experiments`] module regenerates each of
//! the paper's tables; [`sweep`] holds the parameter-matching machinery
//! (equal-memory and equal-fault comparisons, minimal-ST searches).
//!
//! # Examples
//!
//! ```
//! use cdmm_core::{prepare, PipelineConfig, PolicySpec};
//! use cdmm_vmsim::policy::cd::CdSelector;
//!
//! let src = "
//! PROGRAM DEMO
//! PARAMETER (N = 64)
//! DIMENSION A(N,N), V(N)
//! DO 10 J = 1, N
//!   DO 20 K = 1, N
//!     A(K,J) = V(K) + 1.0
//! 20 CONTINUE
//! 10 CONTINUE
//! END
//! ";
//! let p = prepare("DEMO", src, PipelineConfig::default()).unwrap();
//! let cd = p.run_policy(PolicySpec::Cd {
//!     selector: CdSelector::Innermost,
//! });
//! let lru = p.run_policy(PolicySpec::Lru {
//!     frames: p.virtual_pages().max(1) as usize,
//! });
//! assert_eq!(cd.refs, lru.refs, "policies see the same reference string");
//! ```

pub mod anomalies;
pub mod curves;
pub mod experiments;
pub mod fleet;
pub mod pipeline;
pub mod report;
pub mod sweep;

pub use cdmm_locality::PageGeometry;
pub use cdmm_trace::{CancelToken, InterpError};
pub use fleet::{prepare_fleet, run_fleet_spec, ChaosSpec, FleetError, FleetSpec, PreparedFleet};
pub use pipeline::{
    prepare, prepare_cancellable, selector_for, PipelineConfig, PipelineError, PolicySpec,
    Prepared, ValidateError,
};
pub use sweep::{panic_message, spec_key, CacheKey, Executor, JobError, Point, ResultCache};
