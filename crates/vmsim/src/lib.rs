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
//! - [`simulate`] — drives a policy over a [`cdmm_trace::Trace`] one
//!   reference at a time and accumulates [`Metrics`] (page faults `PF`,
//!   mean resident memory `MEM`, and space-time cost `ST` with a
//!   2000-reference fault service, as in the paper). It is the reference
//!   implementation.
//! - [`simulate_with`] — the production driver: run-level below
//!   [`Detail::Decisions`] (handing batches to a tracer at
//!   [`Detail::Aggregates`]), per-reference with events at or above it,
//!   and stoppable by a [`CancelToken`]; its metrics equal
//!   [`simulate`]'s.
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
//! use cdmm_vmsim::{simulate, SimConfig};
//! use cdmm_vmsim::policy::lru::Lru;
//!
//! let trace = synth::cyclic(8, 10);
//! let mut lru = Lru::new(4);
//! let m = simulate(&trace, &mut lru, SimConfig::default());
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
pub use sim::{simulate, simulate_with, SimConfig};
pub use stats::{HistogramSummary, MetricsRegistry, PiStats, PiSummary, RegistrySnapshot};
