//! The slow reference implementations the production kernels are held
//! to, in one dev-only crate.
//!
//! Every fast path of the reproduction — the run-level batch kernels,
//! the one-pass sweep curves, the Fenwick stack-distance pass, the
//! lowered interpreter, the dense served-baseline policies and the
//! batch-fed metrics registry — replaced a simpler implementation, and
//! the differential suites pin each fast path to its predecessor byte
//! for byte. The predecessors live here, so production keeps one driver
//! ([`cdmm_vmsim::simulate_with`]) and one memoized point
//! ([`cdmm_core::sweep::SweepPlan::point`]):
//!
//! - [`simulate`] — the per-reference driver: one policy call per
//!   reference, no tracer, no batching.
//! - [`interp::Walker`] — the string-keyed AST walker the lowered
//!   [`cdmm_trace::Interpreter`] replaced.
//! - [`stack::NaiveProfile`] — the move-to-front LRU stack pass the
//!   Fenwick [`cdmm_vmsim::stack::StackProfile`] replaced.
//! - [`search`] — the Table 3/4 matching searches that simulate every
//!   probe instead of reading a curve.
//! - [`models`] — the hash-based FIFO, Clock, PFF and OPT policies, the
//!   registry's per-reference event logic ([`models::PerRefRegistry`])
//!   and the per-reference traced loop ([`models::per_ref_loop`]).
//! - [`fixtures`] — the helpers the root test suites share: the nine
//!   prepared workloads, the `CDMM_EQUIV_SEED` seed and the suites'
//!   SplitMix64.
//!
//! Only `[dev-dependencies]` reach this crate (the root package's tests
//! and `cdmm-bench`'s benches), and it is never published. A production
//! crate's own unit tests cannot use it: the oracle depends on that
//! crate, so its test build would link two copies with distinct types.
//! Tests whose reference lives here therefore sit in the root `tests/`
//! directory.

#![warn(clippy::unwrap_used)]

pub mod fixtures;
pub mod interp;
pub mod models;
pub mod search;
pub mod stack;

mod sim;

pub use fixtures::{equiv_seed, prepared_workloads, SplitMix64};
pub use sim::simulate;
