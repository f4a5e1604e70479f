//! Trace-driven virtual-memory simulator and memory-management policies.
//!
//! This crate is the experimental substrate of the reproduction — the
//! paper's "virtual memory simulator ... used to simulate program behavior
//! under the Least Recently Used (LRU), the Working Set (WS), and the CD
//! policies" (Section 5), extended with the related-work policies the
//! paper discusses (FIFO, Belady's OPT, PFF, and the damped/sampled/
//! variable-interval WS variants) and with the multiprogramming mode the
//! paper leaves as future work ([`fleet`]).
//!
//! Key types:
//!
//! - [`Policy`] — the interface every policy implements: one call per page
//!   reference, plus directive callbacks that only the CD policy acts on.
//! - [`simulate_with`] — the one driver: it runs a policy over a trace
//!   and accumulates [`Metrics`] (page faults `PF`, mean resident memory
//!   `MEM`, and space-time cost `ST` with a 2000-reference fault
//!   service, as in the paper). One run-level loop hands whole
//!   compressed runs to the policies' batch kernels, which hand a
//!   tracer their batches at [`Detail::Aggregates`] and decode
//!   reference by reference, with each reference's events, at
//!   [`Detail::Decisions`] or above; a [`CancelToken`] stops it. Its
//!   metrics equal the per-reference driver's, which lives with the
//!   other reference implementations in the dev-only `cdmm-oracle`
//!   crate.
//! - [`policy::cd::CdPolicy`] — the Compiler-Directed policy (Section 4).
//! - [`fleet`] — multiprogrammed memory cells with CD's PI-driven
//!   allocation and swapper, one [`Executor`] job per cell.
//! - [`executor`] — the one thread pool: a parallel map whose results
//!   merge by job index, so output never depends on thread count.
//! - [`observe`] — event tracing: policies emit typed [`SimEvent`]s
//!   (grants, hold-overs, evictions, lock breaks, degradations) that
//!   [`simulate_with`] forwards to a [`Tracer`].
//! - [`stats`] — a [`MetricsRegistry`] tracer that folds reference
//!   batches and directive outcomes into counters and streaming
//!   histograms (fault inter-arrival, per-PI grant levels, lock dwell,
//!   occupancy).
//!
//! # Examples
//!
//! ```
//! use cdmm_trace::synth;
//! use cdmm_vmsim::policy::lru::Lru;
//! use cdmm_vmsim::{simulate_with, CancelToken, NullTracer, SimConfig};
//!
//! let trace = synth::cyclic(8, 10);
//! let mut lru = Lru::new(4);
//! let token = CancelToken::new();
//! let m = simulate_with(&trace, &mut lru, SimConfig::default(), &mut NullTracer, &token)
//!     .expect("an idle token never stops a run");
//! // The classic LRU pathology: every reference in a cyclic sweep faults.
//! assert_eq!(m.faults, m.refs);
//! ```

#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod curve;
pub mod error;
pub mod executor;
pub mod fleet;
pub mod metrics;
pub mod observe;
pub mod policy;
pub mod progress;
pub mod recency;
pub mod sim;
pub mod stack;
pub mod stats;

pub use cdmm_trace::CancelToken;
pub use curve::{LruCurve, WsCurve};
pub use error::SimError;
pub use executor::{panic_message, Executor, JobError};
pub use fleet::{
    run_fleet, Admission, CellReport, FleetConfig, FleetReport, TenantReport, TenantSpec,
};
pub use metrics::{ExecStats, Metrics, Tally};
pub use observe::{
    Detail, EventLog, Histogram, JsonlSink, NullTracer, RefBatch, SimEvent, Span, Tee, TimedEvent,
    Tracer,
};
pub use policy::Policy;
pub use progress::{
    validate_progress_file, ProgressCounters, ProgressExporter, ProgressFrame, PROGRESS_SCHEMA,
};
pub use sim::{simulate_with, SimConfig};
pub use stats::{HistogramSummary, MetricsRegistry, PiStats, PiSummary, RegistrySnapshot};
