//! Compile → analyse → instrument → trace, packaged for repeated
//! policy evaluation.

use std::fmt;
use std::sync::{Arc, OnceLock};

use cdmm_lang::ast::{Program, Stmt};
use cdmm_lang::LangError;
use cdmm_locality::{
    analyze_program_with_mode, instrument, Analysis, InsertOptions, PageGeometry, SizerMode,
};
use cdmm_trace::{CancelToken, CompressedTrace, InterpError, Interpreter, MemoryLayout, Trace};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::clock::Clock;
use cdmm_vmsim::policy::fifo::Fifo;
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::policy::opt::Opt;
use cdmm_vmsim::policy::pff::Pff;
use cdmm_vmsim::policy::ws::WorkingSet;
use cdmm_vmsim::policy::ws_variants::{DampedWs, SampledWs, VariableSampledWs};
use cdmm_vmsim::policy::Policy;
use cdmm_vmsim::{simulate_with, Metrics, NullTracer, SimConfig, SimError, Tracer};
use cdmm_workloads::DirectiveLevel;

/// Pipeline-wide knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Page/element geometry (default: the paper's 256-byte pages).
    pub geometry: PageGeometry,
    /// Which directives to insert.
    pub insert: InsertOptions,
    /// Fault service time for the ST metric (default 2000 references).
    pub fault_service: u64,
    /// Minimum CD allocation in pages.
    pub min_alloc: u64,
    /// Page-counting mode of the locality sizer.
    pub sizer_mode: SizerMode,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            geometry: PageGeometry::PAPER,
            insert: InsertOptions::default(),
            fault_service: 2000,
            min_alloc: 2,
            sizer_mode: SizerMode::default(),
        }
    }
}

/// Pipeline failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Front-end or analysis failure.
    Lang(LangError),
    /// Trace-generation failure.
    Interp(InterpError),
    /// Transparency failure: instrumentation changed the program
    /// beyond inserting directives.
    Validate(ValidateError),
}

/// Where an instrumented program stops matching the analysed one.
///
/// Inserting directives must be behavior-preserving: with its
/// `Directive` statements skipped, the instrumented program has to be
/// the analysed program, so every execution emits the original
/// reference string. Corrupted instrumentation is rejected in release
/// builds too, as a first-class error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Position of the first statement instrumentation dropped, added
    /// or altered, counting the non-directive statements of both
    /// programs in pre-order from 0; `None` when the declarations
    /// (name, `PARAMETER`s or `DIMENSION`s) differ.
    pub first_divergence: Option<u64>,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.first_divergence {
            Some(i) => write!(
                f,
                "instrumentation changed statement {i} (directives skipped)"
            ),
            None => f.write_str("instrumentation changed the declarations"),
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Lang(e) => write!(f, "compile: {e}"),
            PipelineError::Interp(e) => write!(f, "trace: {e}"),
            PipelineError::Validate(e) => write!(f, "validate: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A program compiled, instrumented and traced — ready for any number of
/// policy simulations.
#[derive(Debug, Clone)]
pub struct Prepared {
    name: String,
    analysis: Analysis,
    /// Trace of the uninstrumented program (what LRU/WS/OPT see),
    /// stored run-length-compressed; the simulator streams it directly.
    /// Derived from `cd_trace` by dropping its directives.
    plain_trace: CompressedTrace,
    /// Trace of the instrumented program (directive events embedded).
    cd_trace: CompressedTrace,
    /// Flat decompression of the instrumented trace, decoded on first
    /// use and shared across clones — random-access consumers (chaos
    /// tenants) stop paying a fresh O(references) decode per call.
    cd_flat: Arc<OnceLock<Trace>>,
    config: PipelineConfig,
    /// Content hash of everything that determines simulation results:
    /// source text, both traces (reference string and directive stream),
    /// page geometry and pipeline knobs. Computed once at prepare time;
    /// the sweep result cache keys every point off it.
    fingerprint: crate::sweep::CacheKey,
}

/// Runs the front half of the pipeline on one program.
pub fn prepare(
    name: &str,
    source: &str,
    config: PipelineConfig,
) -> Result<Prepared, PipelineError> {
    prepare_cancellable(name, source, config, &CancelToken::new())
}

/// [`prepare`] under a cooperative [`CancelToken`].
///
/// Trace generation dominates prepare time — a pathological inline
/// source can demand billions of interpreter events — so the
/// interpreter polls the token every
/// [`cdmm_trace::interp::POLL_INTERVAL`] emitted events and aborts with
/// [`InterpError::Cancelled`] (surfaced as [`PipelineError::Interp`])
/// when a deadline expires mid-trace. An uncancelled run returns
/// exactly what [`prepare`] would.
pub fn prepare_cancellable(
    name: &str,
    source: &str,
    config: PipelineConfig,
    token: &CancelToken,
) -> Result<Prepared, PipelineError> {
    let analysis = analyze_program_with_mode(source, config.geometry, config.sizer_mode)
        .map_err(PipelineError::Lang)?;
    let instrumented = instrument(&analysis, config.insert);
    let (plain_trace, cd_trace) = trace_once(&analysis, &instrumented, config.geometry, token)?;
    let fingerprint = content_fingerprint(source, &plain_trace, &cd_trace, &config);
    Ok(Prepared {
        name: name.to_string(),
        analysis,
        plain_trace,
        cd_trace,
        cd_flat: Arc::new(OnceLock::new()),
        config,
        fingerprint,
    })
}

/// Interprets the instrumented program once and returns the plain and
/// instrumented traces.
///
/// The structural check proves that, directives aside, `instrumented`
/// is the analysed program. Directives touch no variable, so every
/// execution of it emits the analysed program's reference string, and
/// dropping the directives from its trace yields the plain trace.
fn trace_once(
    analysis: &Analysis,
    instrumented: &Program,
    geometry: PageGeometry,
    token: &CancelToken,
) -> Result<(CompressedTrace, CompressedTrace), PipelineError> {
    check_transparency(&analysis.program, instrumented).map_err(PipelineError::Validate)?;
    let layout = MemoryLayout::new(&analysis.symbols, geometry);
    let cd_trace = Interpreter::new(instrumented, &analysis.symbols, layout)
        .with_cancel(token.clone())
        .run_compressed()
        .map_err(PipelineError::Interp)?;
    Ok((cd_trace.without_directives(), cd_trace))
}

/// Verifies the paper's instrumentation-transparency requirement on the
/// programs themselves: `instrumented` must equal `analysed` once
/// `Directive` statements are skipped on both sides. O(AST), and it
/// covers every execution rather than the one traced.
fn check_transparency(analysed: &Program, instrumented: &Program) -> Result<(), ValidateError> {
    if analysed.name != instrumented.name
        || analysed.params != instrumented.params
        || analysed.arrays != instrumented.arrays
    {
        return Err(ValidateError {
            first_divergence: None,
        });
    }
    let mut matched = 0;
    if same_statements(&analysed.body, &instrumented.body, &mut matched) {
        Ok(())
    } else {
        Err(ValidateError {
            first_divergence: Some(matched),
        })
    }
}

/// Compares two statement lists with directives skipped, recursing into
/// loop and branch bodies; `matched` counts the statements whose own
/// fields matched, in pre-order.
fn same_statements(a: &[Stmt], b: &[Stmt], matched: &mut u64) -> bool {
    let code = |s: &&Stmt| !matches!(s, Stmt::Directive { .. });
    let mut b = b.iter().filter(code);
    for x in a.iter().filter(code) {
        let Some(y) = b.next() else {
            return false;
        };
        let bodies: [(&[Stmt], &[Stmt]); 2] = match (x, y) {
            (
                Stmt::Do {
                    label,
                    var,
                    lo,
                    hi,
                    step,
                    body,
                    ..
                },
                Stmt::Do {
                    label: label2,
                    var: var2,
                    lo: lo2,
                    hi: hi2,
                    step: step2,
                    body: body2,
                    ..
                },
            ) if (label, var, lo, hi, step) == (label2, var2, lo2, hi2, step2) => {
                [(body, body2), (&[], &[])]
            }
            (
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                },
                Stmt::If {
                    cond: cond2,
                    then_body: then2,
                    else_body: else2,
                    ..
                },
            ) if cond == cond2 => [(then_body, then2), (else_body, else2)],
            (Stmt::Assign { .. } | Stmt::Continue { .. }, _) if x == y => [(&[], &[]); 2],
            _ => return false,
        };
        *matched += 1;
        if !bodies.iter().all(|&(p, q)| same_statements(p, q, matched)) {
            return false;
        }
    }
    b.next().is_none()
}

/// Hashes the full simulation input of a prepared program. Runs over
/// the compressed ops, so the cost is O(runs), not O(references).
fn content_fingerprint(
    source: &str,
    plain: &CompressedTrace,
    cd: &CompressedTrace,
    config: &PipelineConfig,
) -> crate::sweep::CacheKey {
    use crate::sweep::cache::fingerprint_compressed;
    let mut h = crate::sweep::KeyHasher::new();
    h.write_str(source);
    fingerprint_compressed(&mut h, plain);
    fingerprint_compressed(&mut h, cd);
    h.write_u64(config.geometry.page_bytes);
    h.write_u64(config.geometry.elem_bytes);
    h.write_u64(config.fault_service);
    h.write_u64(config.min_alloc);
    h.write_u64(config.insert.allocate as u64);
    h.write_u64(config.insert.lock as u64);
    h.write_u64(match config.sizer_mode {
        SizerMode::PaperBound => 0,
        SizerMode::Tight => 1,
    });
    h.finish()
}

/// A policy choice expressed as plain data, so callers (sweep drivers,
/// the batch service, benches, examples) can pick a policy without
/// naming concrete simulator types.
///
/// [`Prepared::run_policy`] routes each variant onto the right trace:
/// CD variants consume the instrumented trace, everything else the
/// plain reference string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// The paper's compiler-directed policy.
    Cd {
        /// Which loop level's ALLOCATE requests to honor.
        selector: CdSelector,
    },
    /// CD with LOCK/UNLOCK ignored (ablation).
    CdNoLocks {
        /// Which loop level's ALLOCATE requests to honor.
        selector: CdSelector,
    },
    /// Fixed-allocation LRU.
    Lru {
        /// Frame allocation.
        frames: usize,
    },
    /// Denning's Working Set.
    Ws {
        /// Window in references.
        tau: u64,
    },
    /// Fixed-allocation FIFO.
    Fifo {
        /// Frame allocation.
        frames: usize,
    },
    /// Clock (second-chance) replacement.
    Clock {
        /// Frame allocation.
        frames: usize,
    },
    /// Belady's optimal fixed-space policy (needs trace lookahead).
    Opt {
        /// Frame allocation.
        frames: usize,
    },
    /// Page-Fault Frequency.
    Pff {
        /// Inter-fault threshold in references.
        threshold: u64,
    },
    /// WS with a damped release reserve.
    DampedWs {
        /// Window in references.
        tau: u64,
        /// Reserve capacity in pages.
        reserve_cap: usize,
    },
    /// WS evaluated only every `sigma` references.
    SampledWs {
        /// Window in references.
        tau: u64,
        /// Sampling interval in references.
        sigma: u64,
    },
    /// WS with a fault-driven variable sampling interval.
    VariableSampledWs {
        /// Shortest sampling interval.
        min_interval: u64,
        /// Longest sampling interval.
        max_interval: u64,
        /// Faults tolerated per interval before tightening.
        fault_quota: u64,
    },
}

impl PolicySpec {
    /// True for the variants that consume the instrumented trace.
    pub fn uses_directives(&self) -> bool {
        matches!(self, PolicySpec::Cd { .. } | PolicySpec::CdNoLocks { .. })
    }
}

/// Maps a workload's neutral directive level onto the CD selector.
pub fn selector_for(level: DirectiveLevel) -> CdSelector {
    match level {
        DirectiveLevel::Outermost => CdSelector::Outermost,
        DirectiveLevel::Innermost => CdSelector::Innermost,
        DirectiveLevel::AtLevel(k) => CdSelector::AtLevel(k),
    }
}

impl Prepared {
    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compile-time analysis (loop tree, priorities, locality sizes).
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The uninstrumented trace (page references only), compressed.
    /// Decompress with [`CompressedTrace::to_trace`] at consumers that
    /// need random access.
    pub fn plain_trace(&self) -> &CompressedTrace {
        &self.plain_trace
    }

    /// The instrumented trace (with directive events), compressed.
    pub fn cd_trace(&self) -> &CompressedTrace {
        &self.cd_trace
    }

    /// The instrumented trace as a flat event vector, decompressed on
    /// first use and memoized (clones share the decode).
    pub fn cd_trace_flat(&self) -> &Trace {
        self.cd_flat.get_or_init(|| self.cd_trace.to_trace())
    }

    /// The pipeline configuration used.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The content hash of this program's full simulation input (source,
    /// traces, directive stream, geometry, knobs).
    pub fn fingerprint(&self) -> crate::sweep::CacheKey {
        self.fingerprint
    }

    /// Total pages in the program's virtual space (the paper's `V`).
    pub fn virtual_pages(&self) -> u32 {
        self.plain_trace.virtual_pages()
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            fault_service: self.config.fault_service,
        }
    }

    /// Builds the policy a [`PolicySpec`] describes, parameterized by
    /// this program's config (CD min-alloc) and traces (OPT lookahead).
    ///
    /// The box is `Send` so built engines can be handed to the fleet
    /// scheduler's worker threads; every policy is a plain data
    /// structure, so this costs nothing.
    pub fn build_policy(&self, spec: PolicySpec) -> Box<dyn Policy + Send> {
        self.build_policy_while(spec, || true)
            .expect("an idle poll never stops the build")
    }

    /// [`Prepared::build_policy`] under a cooperative poll, which only
    /// OPT's lookahead pass consults (see [`Opt::for_trace_while`]).
    /// Returns `None` when the poll stopped the build.
    fn build_policy_while(
        &self,
        spec: PolicySpec,
        keep_going: impl FnMut() -> bool,
    ) -> Option<Box<dyn Policy + Send>> {
        Some(match spec {
            PolicySpec::Cd { selector } => {
                Box::new(CdPolicy::new(selector).with_min_alloc(self.config.min_alloc))
            }
            PolicySpec::CdNoLocks { selector } => Box::new(
                CdPolicy::new(selector)
                    .with_min_alloc(self.config.min_alloc)
                    .with_locks(false),
            ),
            PolicySpec::Lru { frames } => Box::new(Lru::new(frames.max(1))),
            PolicySpec::Ws { tau } => Box::new(WorkingSet::new(tau.max(1))),
            PolicySpec::Fifo { frames } => Box::new(Fifo::new(frames.max(1))),
            PolicySpec::Clock { frames } => Box::new(Clock::new(frames.max(1))),
            PolicySpec::Opt { frames } => Box::new(Opt::for_trace_while(
                &self.plain_trace,
                frames.max(1),
                keep_going,
            )?),
            PolicySpec::Pff { threshold } => Box::new(Pff::new(threshold.max(1))),
            PolicySpec::DampedWs { tau, reserve_cap } => {
                Box::new(DampedWs::new(tau.max(1), reserve_cap))
            }
            PolicySpec::SampledWs { tau, sigma } => {
                Box::new(SampledWs::new(tau.max(1), sigma.max(1)))
            }
            PolicySpec::VariableSampledWs {
                min_interval,
                max_interval,
                fault_quota,
            } => Box::new(VariableSampledWs::new(
                min_interval.max(1),
                max_interval.max(min_interval.max(1)),
                fault_quota.max(1),
            )),
        })
    }

    /// The label the built policy will report, e.g. `"LRU(26)"`.
    ///
    /// No trace work: OPT's label names only its allocation, so its
    /// label comes from an OPT over an empty trace rather than one that
    /// has paid the lookahead pass over the plain trace. Every other
    /// policy is built without touching a trace.
    pub fn policy_label(&self, spec: PolicySpec) -> String {
        match spec {
            PolicySpec::Opt { frames } => Opt::for_trace(&Trace::default(), frames.max(1)).label(),
            _ => self.build_policy(spec).label(),
        }
    }

    /// Runs any [`PolicySpec`] over the trace it belongs on (CD variants
    /// see the instrumented trace; everything else the plain one), at
    /// run granularity: the compressed trace's constant-stride runs hit
    /// the policies' batch kernels, with byte-identical [`Metrics`] to
    /// a per-reference run (the `run_level_equivalence` suite holds
    /// them to the per-reference driver in `cdmm-oracle`).
    pub fn run_policy(&self, spec: PolicySpec) -> Metrics {
        self.run_policy_cancellable(spec, &CancelToken::new())
            .expect("an idle token never stops a run")
    }

    /// [`Prepared::run_policy`] under a cooperative [`CancelToken`].
    ///
    /// The token is polled once per compressed trace run — never inside
    /// a run — so an uncancelled run computes exactly
    /// the [`Metrics`] of [`Prepared::run_policy`]. A stop (deadline
    /// expiry or explicit cancel) surfaces as
    /// [`SimError::DeadlineExceeded`] with the number of references
    /// processed.
    pub fn run_policy_cancellable(
        &self,
        spec: PolicySpec,
        token: &CancelToken,
    ) -> Result<Metrics, SimError> {
        self.run_policy_traced(spec, &mut NullTracer, token)
    }

    /// [`Prepared::run_policy_cancellable`] with an event tracer
    /// attached: at `Detail::Decisions` or above the policy's kernels
    /// decode reference by reference and the tracer sees every policy
    /// event; below it (a [`NullTracer`], or a `MetricsRegistry` fed
    /// reference batches and directive outcomes) they keep batching (see
    /// [`simulate_with`]). Metrics are identical either way.
    /// The batch service runs every sim job through here, under the
    /// job's deadline token.
    ///
    /// OPT's lookahead pass costs O(references) before the first one is
    /// simulated, so it polls the same token; a stop there is
    /// [`SimError::DeadlineExceeded`] with no references done.
    pub fn run_policy_traced(
        &self,
        spec: PolicySpec,
        tracer: &mut dyn Tracer,
        token: &CancelToken,
    ) -> Result<Metrics, SimError> {
        let mut policy = self
            .build_policy_while(spec, || !token.should_stop())
            .ok_or(SimError::DeadlineExceeded { refs_done: 0 })?;
        simulate_with(
            self.trace_for(spec),
            policy.as_mut(),
            self.sim_config(),
            tracer,
            token,
        )
    }

    fn trace_for(&self, spec: PolicySpec) -> &CompressedTrace {
        if spec.uses_directives() {
            &self.cd_trace
        } else {
            &self.plain_trace
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_workloads::{by_name, Scale};

    fn prepared(name: &str) -> Prepared {
        let w = by_name(name, Scale::Small).unwrap();
        prepare(w.name, &w.source, PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    #[test]
    fn traces_align_between_plain_and_instrumented() {
        for name in ["MAIN", "FDJAC", "CONDUCT"] {
            let p = prepared(name);
            let a: Vec<_> = p.plain_trace().iter_refs().collect();
            let b: Vec<_> = p.cd_trace().iter_refs().collect();
            assert_eq!(a, b, "{name}: directives changed the references");
            assert!(p.cd_trace().directive_count() > 0, "{name}: no directives");
        }
    }

    #[test]
    fn cd_outermost_uses_more_memory_fewer_faults_than_innermost() {
        let p = prepared("MAIN");
        let cd = |selector| p.run_policy(PolicySpec::Cd { selector });
        let outer = cd(CdSelector::Outermost);
        let inner = cd(CdSelector::Innermost);
        assert!(
            outer.mean_mem() > inner.mean_mem(),
            "outer {} vs inner {}",
            outer.mean_mem(),
            inner.mean_mem()
        );
        assert!(
            outer.faults <= inner.faults,
            "outer directives avoid faults"
        );
    }

    #[test]
    fn full_memory_lru_is_cold_faults_only() {
        let p = prepared("FIELD");
        let m = p.run_policy(PolicySpec::Lru {
            frames: p.virtual_pages() as usize,
        });
        assert_eq!(m.faults as u32, p.plain_trace().distinct_pages());
    }

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        let a = prepared("MAIN");
        let b = prepared("MAIN");
        assert_eq!(a.fingerprint(), b.fingerprint(), "same input, same key");
        let c = prepared("FIELD");
        assert_ne!(a.fingerprint(), c.fingerprint(), "different program");
        let w = by_name("MAIN", Scale::Small).unwrap();
        let cfg = PipelineConfig {
            fault_service: 999,
            ..PipelineConfig::default()
        };
        let d = prepare(w.name, &w.source, cfg).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint(), "different knobs");
    }

    #[test]
    fn parse_errors_surface() {
        let err = prepare(
            "BAD",
            "PROGRAM X\nQ(1) = 1.0\nEND",
            PipelineConfig::default(),
        );
        assert!(matches!(err, Err(PipelineError::Lang(_))));
    }

    #[test]
    fn transparency_check_rejects_dropped_and_altered_statements() {
        use cdmm_lang::ast::{Directive, Expr, Loc};
        let src = "PROGRAM T\nPARAMETER (N = 8)\nDIMENSION A(N,N), V(N)\nS = 0.0\n\
                   DO 10 J = 1, N\nV(J) = 0.0\nDO 20 I = 1, N\nV(J) = V(J) + A(I,J)\n\
                   20 CONTINUE\n10 CONTINUE\nEND";
        let analysis =
            analyze_program_with_mode(src, PageGeometry::PAPER, SizerMode::default()).unwrap();
        let instrumented = instrument(&analysis, InsertOptions::default());
        let token = CancelToken::new();
        let trace = |p: &Program| trace_once(&analysis, p, PageGeometry::PAPER, &token);
        let rejected_at = |at: Option<u64>| {
            Err(PipelineError::Validate(ValidateError {
                first_divergence: at,
            }))
        };
        assert!(trace(&instrumented).is_ok());

        // Directives may come and go.
        let mut more = instrumented.clone();
        more.body.insert(
            0,
            Stmt::Directive {
                dir: Directive::Unlock { arrays: vec![] },
                loc: Loc::default(),
            },
        );
        assert!(trace(&more).is_ok());
        assert!(trace(&analysis.program).is_ok());

        // Dropping the first statement (`S = 0.0`).
        let mut dropped = instrumented.clone();
        let first = dropped
            .body
            .iter()
            .position(|s| !matches!(s, Stmt::Directive { .. }))
            .unwrap();
        dropped.body.remove(first);
        assert_eq!(trace(&dropped), rejected_at(Some(0)));

        // Altering the innermost assignment: pre-order it follows
        // `S = 0.0`, both loops and `V(J) = 0.0`.
        let mut altered = instrumented.clone();
        fn innermost_assign(stmts: &mut [Stmt]) -> Option<&mut Expr> {
            let mut found = None;
            for s in stmts {
                match s {
                    Stmt::Do { body, .. } => {
                        if let Some(v) = innermost_assign(body) {
                            found = Some(v);
                        }
                    }
                    Stmt::Assign { value, .. } => found = Some(value),
                    _ => {}
                }
            }
            found
        }
        *innermost_assign(&mut altered.body).unwrap() = Expr::Real(1.0);
        let err = trace(&altered);
        assert_eq!(err, rejected_at(Some(4)));
        assert!(err.unwrap_err().to_string().starts_with("validate:"));

        // Changed declarations move the layout.
        let mut redeclared = instrumented.clone();
        redeclared.params[0].1 = 9;
        assert_eq!(trace(&redeclared), rejected_at(None));
    }

    #[test]
    fn traced_pipeline_runs_match_untraced() {
        use cdmm_vmsim::EventLog;
        let p = prepared("FDJAC");
        let token = CancelToken::new();
        for spec in [
            PolicySpec::Cd {
                selector: CdSelector::Innermost,
            },
            PolicySpec::Lru { frames: 8 },
            PolicySpec::Ws { tau: 500 },
        ] {
            let mut log = EventLog::new(1 << 14);
            let traced = p.run_policy_traced(spec, &mut log, &token);
            assert_eq!(traced, Ok(p.run_policy(spec)), "{spec:?}");
            assert!(!log.is_empty(), "{spec:?} must produce events");
        }
    }

    #[test]
    fn cancellable_pipeline_runs_match_and_stop() {
        let p = prepared("MAIN");
        let spec = PolicySpec::Cd {
            selector: CdSelector::Innermost,
        };
        let token = CancelToken::new();
        assert_eq!(
            p.run_policy_cancellable(spec, &token),
            Ok(p.run_policy(spec)),
            "an idle token must not perturb the run"
        );
        token.cancel();
        assert_eq!(
            p.run_policy_cancellable(spec, &token),
            Err(SimError::DeadlineExceeded { refs_done: 0 })
        );
    }

    #[test]
    fn cancellable_prepare_matches_and_stops_mid_trace() {
        use std::time::Duration;
        let w = by_name("MAIN", Scale::Small).unwrap();
        let token = CancelToken::new();
        let a = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
        let b = prepare_cancellable(w.name, &w.source, PipelineConfig::default(), &token).unwrap();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "an idle token must not perturb prepare"
        );

        // A huge inline program (~10M references) with an expired
        // deadline: trace generation must abort at an interpreter poll,
        // long before the event stream completes.
        let huge = "PROGRAM T\nDIMENSION V(64)\nDO 20 J = 1, 160000\nDO 10 I = 1, 64\n\
                    V(I) = 1.0\n10 CONTINUE\n20 CONTINUE\nEND";
        let token = CancelToken::with_deadline(Duration::ZERO);
        let err = prepare_cancellable("HUGE", huge, PipelineConfig::default(), &token).unwrap_err();
        match err {
            PipelineError::Interp(InterpError::Cancelled { events_done }) => {
                assert!(events_done < 10_000_000, "stopped early");
            }
            other => panic!("expected cancellation, got {other}"),
        }
    }

    #[test]
    fn selector_mapping() {
        assert_eq!(
            selector_for(DirectiveLevel::Outermost),
            CdSelector::Outermost
        );
        assert_eq!(
            selector_for(DirectiveLevel::Innermost),
            CdSelector::Innermost
        );
        assert_eq!(
            selector_for(DirectiveLevel::AtLevel(3)),
            CdSelector::AtLevel(3)
        );
    }
}
