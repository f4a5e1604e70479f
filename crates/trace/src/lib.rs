//! Reference-trace generation for the CDMM reproduction.
//!
//! The paper's evaluation is trace-driven: "Traces of array references
//! were generated for 9 numerical programs written in FORTRAN" (Section
//! 5). This crate turns checked mini-FORTRAN programs into exactly such
//! traces:
//!
//! - [`layout`] — maps each declared array onto a page-aligned region of
//!   the program's virtual space (column-major, like FORTRAN).
//! - [`event`] — the trace alphabet: page references plus the runtime
//!   side of the memory directives.
//! - [`interp`] — an interpreter that executes the program with real
//!   floating-point arithmetic and emits one [`event::Event::Ref`] per
//!   array-element access (constants and instructions are assumed
//!   memory-resident, as in the paper).
//! - [`gaps`] — one-pass inter-reference gap extraction over the
//!   compressed run/cycle structure, the substrate for answering every
//!   WS window from a single trace pass.
//! - [`synth`] — synthetic reference-string generators used by the policy
//!   test suites (cyclic sweeps, phased localities, uniform noise).
//! - [`stats`] — simple trace statistics.
//! - [`validate`] — directive-stream well-formedness checking and the
//!   seeded [`DirectiveFuzzer`] behind the chaos test suite.
//! - [`tenant`] — seeded per-tenant perturbation ([`TenantJitter`])
//!   used by the fleet scheduler to clone workloads into distinct
//!   tenants.
//! - [`cancel`] — the [`CancelToken`] polled by both the interpreter
//!   (so deadlines bound trace generation) and the simulation driver.
//!
//! # Examples
//!
//! ```
//! use cdmm_locality::PageGeometry;
//! use cdmm_trace::trace_program;
//!
//! let src = "
//! PROGRAM DOT
//! PARAMETER (N = 256)
//! DIMENSION X(N), Y(N)
//! S = 0.0
//! DO 10 I = 1, N
//!   S = S + X(I) * Y(I)
//! 10 CONTINUE
//! END
//! ";
//! let trace = trace_program(src, PageGeometry::PAPER).unwrap();
//! // 2 array references per iteration, 256 iterations.
//! assert_eq!(trace.ref_count(), 512);
//! ```

#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cancel;
pub mod compress;
pub mod event;
pub mod gaps;
pub mod interp;
pub mod layout;
pub mod stats;
pub mod synth;
pub mod tenant;
pub mod validate;

pub use cancel::CancelToken;
pub use compress::{COp, CompressedTrace, TraceBuilder};
pub use event::{Event, EventRef, EventSource, PageId, PageRange, Run, RunRef, Trace};
pub use gaps::{GapGroup, GapProfile};
pub use interp::{InterpConfig, InterpError, Interpreter, ProgramState};
pub use layout::MemoryLayout;
pub use stats::TraceStats;
pub use tenant::TenantJitter;
pub use validate::{DirectiveFuzzer, FaultKind, FuzzReport, Injection, Violation};

use cdmm_locality::PageGeometry;

/// Parses, checks and lays out `src`: the front half every
/// `trace_program*` entry point shares.
fn interpreter_for(src: &str, geometry: PageGeometry) -> Result<Interpreter, InterpError> {
    let mut program = cdmm_lang::parse(src).map_err(InterpError::Lang)?;
    let symbols = cdmm_lang::analyze(&mut program).map_err(InterpError::Lang)?;
    let layout = MemoryLayout::new(&symbols, geometry);
    Ok(Interpreter::new(&program, &symbols, layout))
}

/// Parses, checks, lays out and executes a program, returning its trace.
///
/// Directives present in the source (e.g. inserted by
/// [`cdmm_locality::instrument`]) become directive events in the trace.
pub fn trace_program(src: &str, geometry: PageGeometry) -> Result<Trace, InterpError> {
    interpreter_for(src, geometry)?.run()
}

/// [`trace_program`] in run-length-compressed form: the interpreter
/// streams references straight into a [`TraceBuilder`], so the flat
/// `Vec<Event>` is never materialized.
pub fn trace_program_compressed(
    src: &str,
    geometry: PageGeometry,
) -> Result<CompressedTrace, InterpError> {
    interpreter_for(src, geometry)?.run_compressed()
}

/// [`trace_program_compressed`] under a [`CancelToken`]: the
/// interpreter polls the token every [`interp::POLL_INTERVAL`] emitted
/// events and fails with [`InterpError::Cancelled`] when it fires, so a
/// deadline bounds trace generation on huge inline sources instead of
/// only kicking in once simulation starts.
pub fn trace_program_compressed_cancellable(
    src: &str,
    geometry: PageGeometry,
    token: &CancelToken,
) -> Result<CompressedTrace, InterpError> {
    interpreter_for(src, geometry)?
        .with_cancel(token.clone())
        .run_compressed()
}

/// Like [`trace_program`], but also returns the final variable state so
/// callers can check that the traced computation is numerically sound.
pub fn trace_program_with_state(
    src: &str,
    geometry: PageGeometry,
) -> Result<(Trace, ProgramState), InterpError> {
    interpreter_for(src, geometry)?.run_with_state()
}
