//! The traced replay: for each request, the calls the service makes,
//! made again from here through each layer's public functions, in the
//! service's order, each inside a span.
//!
//! The replay keeps its own program memo, result cache and curve memo,
//! fed the same requests as the service, so every lookup hits or misses
//! exactly where the service's did. It returns the response row it
//! re-encodes, which must equal the service's row byte for byte.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use cdmm_core::fleet::prepare_fleet;
use cdmm_core::sweep::cache::fingerprint_compressed;
use cdmm_core::sweep::{full_lru_range, spec_key, ws_tau_grid, KeyHasher};
use cdmm_core::{
    prepare_cancellable, CacheKey, PipelineConfig, Point, PolicySpec, Prepared, ResultCache,
};
use cdmm_locality::{instrument, priority, Analysis, LocalitySizer, LoopTree};
use cdmm_serve::request::{
    attach_fields, encode_fleet_ok, encode_ok, encode_registry, encode_sweep_ok, FleetRequest,
    Request,
};
use cdmm_serve::{parse_request, JobRequest, SweepFamily, SweepRequest, WorkSource};
use cdmm_trace::trace_program_compressed_cancellable;
use cdmm_vmsim::{CancelToken, LruCurve, MetricsRegistry, NullTracer, WsCurve};
use cdmm_workloads::{by_name, Scale};

use crate::span::Recorder;

/// The deadline the service applies to every request.
pub const DEADLINE_MS: u64 = 5000;

/// Span names of the calls `prepare` is made of, replayed one by one.
pub const PREPARE_PARTS: [&str; 9] = [
    "lang.parse",
    "lang.sema",
    "locality.analyze",
    "locality.instrument",
    "lang.to_source",
    "trace.interp_plain",
    "trace.interp_cd",
    "core.align",
    "core.fingerprint",
];

/// The span enclosing one request's replay; its self time is the
/// replay's own glue, not a layer's.
pub const ROOT: &str = "replay.request";

/// The whole `prepare_cancellable` call, replayed after its parts only to
/// measure how much of it they cover; its time is not attributed again.
pub const PREPARE: &str = "core.prepare";

/// Work counts gathered at the same calls the spans time.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Programs prepared.
    pub prepares: u64,
    /// References in the plain traces.
    pub plain_refs: u64,
    /// References in the plain and instrumented traces together.
    pub interp_refs: u64,
    /// Compressed ops in the plain and instrumented traces together.
    pub ops: u64,
    /// Directive events in the instrumented traces.
    pub directives: u64,
    /// Operating points simulated (not recalled from the cache).
    pub sim_points: u64,
    /// References those simulations consumed.
    pub sim_refs: u64,
    /// Faults those simulations reported.
    pub sim_faults: u64,
    /// Flushes that wrote the cache file.
    pub flushes: u64,
    /// Bytes of cache file those flushes wrote.
    pub flush_bytes: u64,
    /// Fleet jobs run.
    pub fleet_jobs: u64,
    /// Tenants across those jobs.
    pub fleet_tenants: u64,
    /// Swap events across those jobs.
    pub fleet_swaps: u64,
}

/// The replay's own copy of the service's state.
pub struct Mirror {
    cache: ResultCache,
    cache_file: PathBuf,
    programs: HashMap<(String, String), Arc<Prepared>>,
    lru_curves: HashMap<CacheKey, Arc<LruCurve>>,
    ws_curves: HashMap<CacheKey, Arc<WsCurve>>,
    /// What the replayed calls did.
    pub counts: Counts,
    lookups_before: (u64, u64),
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// True for the policy families the run-level kernels answer.
fn run_level(spec: PolicySpec) -> bool {
    matches!(
        spec,
        PolicySpec::Cd { .. }
            | PolicySpec::CdNoLocks { .. }
            | PolicySpec::Lru { .. }
            | PolicySpec::Ws { .. }
    )
}

impl Mirror {
    /// A mirror whose result cache persists under `dir`, like the
    /// service's.
    pub fn new(dir: &Path) -> Result<Mirror, String> {
        Ok(Mirror {
            cache: ResultCache::at_dir(dir).map_err(text)?,
            cache_file: dir.join("results.jsonl"),
            programs: HashMap::new(),
            lru_curves: HashMap::new(),
            ws_curves: HashMap::new(),
            counts: Counts::default(),
            lookups_before: (0, 0),
        })
    }

    /// Forgets the counts so far (the set-up requests'), so the counts
    /// and cache ratios cover the measured stream only.
    pub fn reset_counts(&mut self) {
        self.counts = Counts::default();
        let s = self.cache.stats();
        self.lookups_before = (s.cache_hits, s.cache_hits + s.cache_misses);
    }

    /// Hits and lookups of the replay's result cache since the last
    /// [`Mirror::reset_counts`].
    pub fn cache_hits(&self) -> (u64, u64) {
        let s = self.cache.stats();
        let (h0, l0) = self.lookups_before;
        (s.cache_hits - h0, s.cache_hits + s.cache_misses - l0)
    }

    /// Replays request `i` and returns the response row it re-encodes.
    pub fn replay(&mut self, rec: &mut Recorder, i: usize, line: &str) -> Result<String, String> {
        let root = rec.begin(ROOT, i);
        let token = CancelToken::with_deadline(Duration::from_millis(DEADLINE_MS));
        let req = rec.time("serve.parse", i, || parse_request(line))?;
        let row = match &req {
            Request::Sim(r) => self.sim(rec, i, r, &token),
            Request::Sweep(r) => self.sweep(rec, i, r, &token),
            Request::Fleet(r) => self.fleet(rec, i, r, &token),
        }?;
        let drained = rec
            .time("core.cache_flush", i, || self.cache.flush())
            .map_err(text)?;
        if drained > 0 {
            self.counts.flushes += 1;
            self.counts.flush_bytes += std::fs::metadata(&self.cache_file).map_err(text)?.len();
        }
        rec.end(root);
        Ok(row)
    }

    fn resolve(
        &mut self,
        rec: &mut Recorder,
        i: usize,
        work: &WorkSource,
        scale: Scale,
        cfg: PipelineConfig,
        token: &CancelToken,
    ) -> Result<Arc<Prepared>, String> {
        let (name, source) = match work {
            WorkSource::Named(n) => {
                let w = rec
                    .time("workloads.by_name", i, || by_name(n, scale))
                    .ok_or_else(|| format!("no workload named {n}"))?;
                (w.name.to_string(), w.source)
            }
            WorkSource::Inline { name, source } => (name.clone(), source.clone()),
        };
        let key = (name, source);
        if let Some(p) = self.programs.get(&key) {
            return Ok(Arc::clone(p));
        }
        let p = Arc::new(self.prepare(rec, i, &key.0, &key.1, cfg, token)?);
        self.programs.insert(key, Arc::clone(&p));
        Ok(p)
    }

    /// `prepare`, one public call at a time, then whole.
    fn prepare(
        &mut self,
        rec: &mut Recorder,
        i: usize,
        name: &str,
        source: &str,
        cfg: PipelineConfig,
        token: &CancelToken,
    ) -> Result<Prepared, String> {
        let geometry = cfg.geometry;
        let mut program = rec
            .time("lang.parse", i, || cdmm_lang::parse(source))
            .map_err(text)?;
        let symbols = rec
            .time("lang.sema", i, || cdmm_lang::analyze(&mut program))
            .map_err(text)?;
        let analysis = rec.time("locality.analyze", i, || {
            let mut tree = LoopTree::build(&program);
            priority::assign(&mut tree);
            let sizes = LocalitySizer::new(&symbols, geometry)
                .with_mode(cfg.sizer_mode)
                .run(&tree);
            Analysis {
                program,
                symbols,
                tree,
                sizes,
            }
        });
        let instrumented = rec.time("locality.instrument", i, || {
            instrument(&analysis, cfg.insert)
        });
        let cd_source = rec.time("lang.to_source", i, || cdmm_lang::to_source(&instrumented));
        let plain = rec
            .time("trace.interp_plain", i, || {
                trace_program_compressed_cancellable(source, geometry, token)
            })
            .map_err(text)?;
        let cd = rec
            .time("trace.interp_cd", i, || {
                trace_program_compressed_cancellable(&cd_source, geometry, token)
            })
            .map_err(text)?;
        let aligned = rec.time("core.align", i, || {
            plain.ref_count() == cd.ref_count() && plain.iter_refs().eq(cd.iter_refs())
        });
        if !aligned {
            return Err(format!(
                "{name}: instrumentation changed the reference string"
            ));
        }
        black_box(rec.time("core.fingerprint", i, || {
            let mut h = KeyHasher::new();
            h.write_str(source);
            fingerprint_compressed(&mut h, &plain);
            fingerprint_compressed(&mut h, &cd);
            h.finish()
        }));
        let prepared = rec
            .time(PREPARE, i, || prepare_cancellable(name, source, cfg, token))
            .map_err(text)?;
        let c = &mut self.counts;
        c.prepares += 1;
        c.plain_refs += plain.ref_count();
        c.interp_refs += plain.ref_count() + cd.ref_count();
        c.ops += (plain.op_count() + cd.op_count()) as u64;
        c.directives += cd.directive_count();
        Ok(prepared)
    }

    fn sim(
        &mut self,
        rec: &mut Recorder,
        i: usize,
        r: &JobRequest,
        token: &CancelToken,
    ) -> Result<String, String> {
        let p = self.resolve(rec, i, &r.work, r.scale, r.pipeline_config(), token)?;
        let label = rec.time("core.policy_label", i, || p.policy_label(r.policy));
        let key = spec_key(&p, r.policy);
        if !r.trace && !r.metrics {
            if let Some(m) = rec.time("core.cache_lookup", i, || self.cache.lookup(key)) {
                return Ok(rec.time("serve.encode", i, || encode_ok(&r.id, &label, &m)));
            }
        }
        let (m, snapshot) = if r.metrics {
            let (m, snap) = rec.time("vmsim.report", i, || {
                let mut registry = MetricsRegistry::new();
                let m = p.run_policy_traced(r.policy, &mut registry, token);
                (m, registry.snapshot())
            });
            (m.map_err(text)?, Some(snap))
        } else {
            let name = if run_level(r.policy) {
                "vmsim.sim_run_level"
            } else {
                "vmsim.sim_per_ref"
            };
            let m = rec
                .time(name, i, || p.run_policy_cancellable(r.policy, token))
                .map_err(text)?;
            (m, None)
        };
        let c = &mut self.counts;
        c.sim_points += 1;
        c.sim_refs += m.refs;
        c.sim_faults += m.faults;
        rec.time("core.cache_insert", i, || self.cache.insert(key, m));
        Ok(rec.time("serve.encode", i, || {
            let extra = snapshot.as_ref().map(encode_registry).unwrap_or_default();
            attach_fields(&encode_ok(&r.id, &label, &m), &extra)
        }))
    }

    fn sweep(
        &mut self,
        rec: &mut Recorder,
        i: usize,
        r: &SweepRequest,
        token: &CancelToken,
    ) -> Result<String, String> {
        let p = self.resolve(rec, i, &r.work, r.scale, r.pipeline_config(), token)?;
        let fs = p.config().fault_service;
        let fp = p.fingerprint();
        let cache = &self.cache;
        // The service answers each point through the per-point cache,
        // evaluating the curve only on a miss.
        let point = |spec: PolicySpec, param: u64, eval: &dyn Fn() -> cdmm_vmsim::Metrics| {
            let key = spec_key(&p, spec);
            let metrics = cache.lookup(key).unwrap_or_else(|| {
                let m = eval();
                cache.insert(key, m);
                m
            });
            Point { param, metrics }
        };
        let points: Vec<Point> = match r.family {
            SweepFamily::Lru => {
                let curve = match self.lru_curves.get(&fp) {
                    Some(c) => Arc::clone(c),
                    None => Arc::new(
                        rec.time("vmsim.lru_curve", i, || LruCurve::compute(p.plain_trace())),
                    ),
                };
                let points = rec.time("core.sweep_points", i, || {
                    full_lru_range(&p)
                        .map(|m| {
                            point(PolicySpec::Lru { frames: m }, m as u64, &|| {
                                curve.metrics_at(m, fs)
                            })
                        })
                        .collect()
                });
                self.lru_curves.insert(fp, curve);
                points
            }
            SweepFamily::Ws => {
                let curve = match self.ws_curves.get(&fp) {
                    Some(c) => Arc::clone(c),
                    None => Arc::new(
                        rec.time("vmsim.ws_curve", i, || WsCurve::compute(p.plain_trace())),
                    ),
                };
                let points = rec.time("core.sweep_points", i, || {
                    ws_tau_grid(&p, r.points.unwrap_or(6))
                        .into_iter()
                        .map(|tau| {
                            point(PolicySpec::Ws { tau }, tau, &|| curve.metrics_at(tau, fs))
                        })
                        .collect()
                });
                self.ws_curves.insert(fp, curve);
                points
            }
        };
        Ok(rec.time("serve.encode", i, || {
            encode_sweep_ok(&r.id, r.family, &points)
        }))
    }

    fn fleet(
        &mut self,
        rec: &mut Recorder,
        i: usize,
        r: &FleetRequest,
        token: &CancelToken,
    ) -> Result<String, String> {
        let spec = r.fleet_spec();
        let prepared = rec
            .time("core.fleet_prepare", i, || prepare_fleet(&spec))
            .map_err(text)?;
        let tenants = prepared.tenant_count() as u64;
        let report = rec
            .time("vmsim.fleet_run", i, || {
                prepared.run_cancellable(&mut NullTracer, token)
            })
            .map_err(text)?;
        let c = &mut self.counts;
        c.fleet_jobs += 1;
        c.fleet_tenants += tenants;
        c.fleet_swaps += report.swap_events;
        Ok(rec.time("serve.encode", i, || encode_fleet_ok(&r.id, &report)))
    }
}
