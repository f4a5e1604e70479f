//! The paper's evaluation, table by table (Section 5).
//!
//! Each `tableN` function regenerates the corresponding table's rows.
//! Absolute numbers differ from 1985 (different trace lengths, different
//! programs reconstructed from their published algorithms); the *claims*
//! each table supports are asserted in the integration tests and recorded
//! against the paper's values in `EXPERIMENTS.md`.

use std::collections::BTreeMap;

use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::{CancelToken, ExecStats, Metrics, NullTracer};
use cdmm_workloads::{all, Scale, Variant, Workload};

use crate::pipeline::{prepare, selector_for, PipelineConfig, PolicySpec, Prepared};
use crate::sweep::{self, Executor, Point, ResultCache, SweepPlan};

/// Row names of Table 2, in paper order.
pub const TABLE2_ROWS: [&str; 8] = [
    "MAIN3", "FDJAC", "FIELD", "INIT", "APPROX", "HYBRJ", "CONDUCT", "TQL1",
];

/// Row names of Tables 3 and 4, in paper order.
pub const TABLE34_ROWS: [&str; 14] = [
    "MAIN", "MAIN1", "MAIN2", "MAIN3", "FDJAC", "FDJAC1", "FIELD", "INIT", "APPROX", "HYBRJ",
    "CONDUCT", "TQL1", "TQL2", "HWSCRT",
];

/// Row names of Table 1, in paper order.
pub const TABLE1_ROWS: [&str; 8] = [
    "MAIN", "MAIN1", "MAIN2", "MAIN3", "FDJAC", "FDJAC1", "TQL1", "TQL2",
];

/// Shared preparation cache: every program is compiled and traced once,
/// then reused across tables. Table generation shards its point grids
/// across the harness [`Executor`] and memoizes every simulated point in
/// the harness [`ResultCache`].
pub struct Harness {
    config: PipelineConfig,
    workloads: Vec<Workload>,
    cache: BTreeMap<String, Prepared>,
    exec: Executor,
    results: ResultCache,
}

impl Harness {
    /// Builds a harness at the given workload scale.
    ///
    /// The configuration matches the paper's experiments: `ALLOCATE`
    /// directives only — "the effectiveness of LOCK and UNLOCK directives
    /// is not studied in this work" (Section 3). The LOCK ablation bench
    /// re-runs with locks enabled.
    ///
    /// The default execution engine uses all available parallelism and
    /// an in-memory result cache; chain [`Harness::with_executor`] /
    /// [`Harness::with_result_cache`] to override.
    pub fn new(scale: Scale) -> Self {
        let config = PipelineConfig {
            insert: cdmm_locality::InsertOptions {
                allocate: true,
                lock: false,
            },
            ..PipelineConfig::default()
        };
        Self::with_config(scale, config)
    }

    /// Builds a harness with a custom pipeline configuration.
    pub fn with_config(scale: Scale, config: PipelineConfig) -> Self {
        Harness {
            config,
            workloads: all(scale),
            cache: BTreeMap::new(),
            exec: Executor::new(),
            results: ResultCache::in_memory(),
        }
    }

    /// Replaces the execution engine (`Executor::serial()` reproduces
    /// the single-threaded path bit-identically).
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// Replaces the result cache (e.g. `ResultCache::persistent()` to
    /// reuse points across runs, `ResultCache::disabled()` to force
    /// every point to simulate).
    pub fn with_result_cache(mut self, cache: ResultCache) -> Self {
        self.results = cache;
        self
    }

    /// The execution engine.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// The result cache.
    pub fn result_cache(&self) -> &ResultCache {
        &self.results
    }

    /// Snapshot of the cache-hit/miss and wall-time counters.
    pub fn exec_stats(&self) -> ExecStats {
        self.results.stats()
    }

    /// Resolves a table-row name (e.g. `"MAIN2"`) to its workload and
    /// directive-set variant.
    ///
    /// # Panics
    ///
    /// Panics on unknown row names — table definitions are static.
    pub fn resolve(&self, row: &str) -> (&Workload, Variant) {
        for w in &self.workloads {
            if let Some(v) = w.variant(row) {
                return (w, v);
            }
        }
        panic!("unknown table row {row}");
    }

    /// Returns (preparing on first use) the pipeline output for the
    /// program behind a row name.
    pub fn prepared(&mut self, row: &str) -> &Prepared {
        self.prepare_rows(&[row]);
        self.prepared_ref(row)
    }

    /// Compiles and traces every program behind `rows` that is not yet
    /// prepared, sharding the pipeline runs across the executor.
    pub fn prepare_rows(&mut self, rows: &[&str]) {
        let todo: Vec<(String, String)> = {
            let mut seen = Vec::new();
            for &row in rows {
                let (w, _) = self.resolve(row);
                if !self.cache.contains_key(w.name) && !seen.iter().any(|(n, _)| n == w.name) {
                    seen.push((w.name.to_string(), w.source.clone()));
                }
            }
            seen
        };
        if todo.is_empty() {
            return;
        }
        let config = self.config;
        let prepared = self.exec.map(&todo, |_, (name, source)| {
            prepare(name, source, config)
                .unwrap_or_else(|e| panic!("pipeline failed for {name}: {e}"))
        });
        for ((name, _), p) in todo.into_iter().zip(prepared) {
            self.cache.insert(name, p);
        }
    }

    /// The prepared program for an already-prepared row.
    ///
    /// # Panics
    ///
    /// Panics if the row was not prepared via [`Harness::prepared`] or
    /// [`Harness::prepare_rows`] first.
    pub fn prepared_ref(&self, row: &str) -> &Prepared {
        let (w, _) = self.resolve(row);
        self.cache
            .get(w.name)
            .unwrap_or_else(|| panic!("row {row} not prepared"))
    }

    /// The sweep plan over an already-prepared row's program, memoizing
    /// through the harness result cache.
    fn plan(&self, row: &str) -> SweepPlan<'_> {
        SweepPlan::new(&self.results, self.prepared_ref(row))
    }

    /// CD metrics for a row (its program run under its directive set).
    pub fn cd(&mut self, row: &str) -> Metrics {
        self.prepare_rows(&[row]);
        self.cd_at(row)
    }

    /// [`Harness::cd`] for an already-prepared row (shared-borrow, so it
    /// can run inside executor workers).
    pub fn cd_at(&self, row: &str) -> Metrics {
        let (_, variant) = self.resolve(row);
        let selector = selector_for(variant.level);
        cd_point(&self.plan(row), selector)
    }

    /// CD metrics of an already-prepared row's program under its *best*
    /// (minimal-ST) directive set. The paper's Table 2 compares against
    /// exactly this operating point — its row labels (`MAIN3`, `TQL1`)
    /// are the variants that achieved each program's ST minimum.
    pub fn cd_best_at(&self, row: &str) -> Metrics {
        let (w, _) = self.resolve(row);
        let plan = self.plan(row);
        w.variants
            .iter()
            .map(|v| cd_point(&plan, selector_for(v.level)))
            .min_by(|a, b| a.st_cost().partial_cmp(&b.st_cost()).expect("finite ST"))
            .expect("workloads always have at least one variant")
    }
}

/// One memoized, untraced CD point of a plan.
fn cd_point(plan: &SweepPlan<'_>, selector: CdSelector) -> Metrics {
    plan.point(
        PolicySpec::Cd { selector },
        &mut NullTracer,
        &CancelToken::new(),
    )
    .expect("an idle token never stops a run")
}

/// One row of Table 1: the effect of executing different directive sets
/// under the CD policy.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Variant name (`MAIN`, `MAIN1`, ...).
    pub program: String,
    /// Mean memory (pages).
    pub mem: f64,
    /// Page faults.
    pub pf: u64,
    /// Space-time cost.
    pub st: f64,
    /// Malformed directives the hardened CD policy clamped or
    /// discarded (0 on clean compiler output).
    pub recovered: u64,
}

/// Regenerates Table 1. Rows are sharded across the harness executor
/// and emitted in paper order regardless of completion order.
pub fn table1(harness: &mut Harness) -> Vec<Table1Row> {
    harness.prepare_rows(&TABLE1_ROWS);
    let h = &*harness;
    h.executor().map(&TABLE1_ROWS, |_, &row| {
        let m = h.cd_at(row);
        Table1Row {
            program: row.to_string(),
            mem: m.mean_mem(),
            pf: m.faults,
            st: m.st_cost(),
            recovered: m.recovered_directives,
        }
    })
}

/// One row of Table 2: minimal space-time cost of LRU and WS relative to
/// CD (`%ST`).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Program (variant) name.
    pub program: String,
    /// CD's space-time cost.
    pub cd_st: f64,
    /// `%ST` of the best LRU point vs CD.
    pub lru_pct_st: f64,
    /// `%ST` of the best WS point vs CD.
    pub ws_pct_st: f64,
}

/// Regenerates Table 2: LRU is swept over every allocation `1..=V`, WS
/// over a geometric window grid, and each family's minimal-ST point is
/// compared against CD.
///
/// The unit of work is one `(row, family)` sweep — the curve kernels
/// answer a whole family from a single trace pass, so the pass (not the
/// point) is what's worth sharding. Each of the 16 jobs runs its sweep
/// with a serial inner executor and folds it to its minimal-ST point;
/// the jobs themselves spread across the harness executor, and results
/// merge in deterministic job order.
pub fn table2(harness: &mut Harness) -> Vec<Table2Row> {
    harness.prepare_rows(&TABLE2_ROWS);
    let h = &*harness;
    let cds: Vec<Metrics> = TABLE2_ROWS.iter().map(|&row| h.cd_best_at(row)).collect();

    enum Family {
        Lru,
        Ws,
    }
    let mut jobs: Vec<(&Prepared, Family)> = Vec::new();
    for &name in TABLE2_ROWS.iter() {
        let p = h.prepared_ref(name);
        jobs.push((p, Family::Lru));
        jobs.push((p, Family::Ws));
    }
    let cache = h.result_cache();
    let inner = Executor::serial();
    let bests: Vec<Point> = h.executor().map(&jobs, |_, (p, family)| {
        let plan = SweepPlan::new(cache, p);
        let points = match family {
            Family::Lru => {
                let frames: Vec<u64> = sweep::full_lru_range(p).map(|m| m as u64).collect();
                plan.lru_grid(&inner, &plan.lru_curve(), &frames)
            }
            Family::Ws => plan.ws_grid(&inner, &plan.ws_curve(), &sweep::ws_tau_grid(p, 8)),
        };
        sweep::min_st(&points)
    });

    TABLE2_ROWS
        .iter()
        .enumerate()
        .map(|(row, &name)| {
            let lru_best = bests[2 * row];
            let ws_best = bests[2 * row + 1];
            let cd = cds[row];
            Table2Row {
                program: name.to_string(),
                cd_st: cd.st_cost(),
                lru_pct_st: lru_best.metrics.st_excess_pct(&cd),
                ws_pct_st: ws_best.metrics.st_excess_pct(&cd),
            }
        })
        .collect()
}

/// One row of Table 3: LRU and WS given the same average memory as CD.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Program (variant) name.
    pub program: String,
    /// CD's mean memory (the matching target).
    pub cd_mem: f64,
    /// CD's fault count.
    pub cd_pf: u64,
    /// `ΔPF` of LRU at the matched allocation.
    pub lru_dpf: i64,
    /// `%ST` of LRU at the matched allocation.
    pub lru_pct_st: f64,
    /// `ΔPF` of WS at the matched window.
    pub ws_dpf: i64,
    /// `%ST` of WS at the matched window.
    pub ws_pct_st: f64,
}

/// Regenerates Table 3. Each row's matching search runs as one executor
/// job (the binary-search probes inside a row are inherently serial, but
/// rows proceed concurrently and every probe is memoized).
pub fn table3(harness: &mut Harness) -> Vec<Table3Row> {
    harness.prepare_rows(&TABLE34_ROWS);
    let h = &*harness;
    h.executor().map(&TABLE34_ROWS, |_, &row| {
        let cd = h.cd_at(row);
        let plan = h.plan(row);
        let lru = plan.lru_match_mem(cd.mean_mem());
        let ws = plan.ws_match_mem(cd.mean_mem());
        Table3Row {
            program: row.to_string(),
            cd_mem: cd.mean_mem(),
            cd_pf: cd.faults,
            lru_dpf: lru.metrics.pf_excess(&cd),
            lru_pct_st: lru.metrics.st_excess_pct(&cd),
            ws_dpf: ws.metrics.pf_excess(&cd),
            ws_pct_st: ws.metrics.st_excess_pct(&cd),
        }
    })
}

/// One row of Table 4: the memory and ST cost LRU and WS pay to produce
/// no more faults than CD.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Program (variant) name.
    pub program: String,
    /// CD's fault count (the budget).
    pub cd_pf: u64,
    /// `%MEM` of the cheapest LRU allocation meeting the budget.
    pub lru_pct_mem: f64,
    /// `%ST` of that LRU point.
    pub lru_pct_st: f64,
    /// `%MEM` of the smallest WS window meeting the budget.
    pub ws_pct_mem: f64,
    /// `%ST` of that WS point.
    pub ws_pct_st: f64,
}

/// Regenerates Table 4. Rows run as concurrent executor jobs, like
/// [`table3`].
pub fn table4(harness: &mut Harness) -> Vec<Table4Row> {
    harness.prepare_rows(&TABLE34_ROWS);
    let h = &*harness;
    h.executor().map(&TABLE34_ROWS, |_, &row| {
        let cd = h.cd_at(row);
        let plan = h.plan(row);
        let lru = plan.lru_match_pf(cd.faults);
        let ws = plan.ws_match_pf(cd.faults);
        Table4Row {
            program: row.to_string(),
            cd_pf: cd.faults,
            lru_pct_mem: lru.metrics.mem_excess_pct(&cd),
            lru_pct_st: lru.metrics.st_excess_pct(&cd),
            ws_pct_mem: ws.metrics.mem_excess_pct(&cd),
            ws_pct_st: ws.metrics.st_excess_pct(&cd),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_resolves_all_table_rows() {
        let h = Harness::new(Scale::Small);
        for row in TABLE1_ROWS
            .iter()
            .chain(TABLE2_ROWS.iter())
            .chain(TABLE34_ROWS.iter())
        {
            let (w, v) = h.resolve(row);
            assert!(!w.name.is_empty());
            assert!(!v.name.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown table row")]
    fn unknown_row_panics() {
        Harness::new(Scale::Small).resolve("NOPE");
    }

    #[test]
    fn table1_small_scale_shape() {
        let mut h = Harness::new(Scale::Small);
        let rows = table1(&mut h);
        assert_eq!(rows.len(), 8);
        let get = |name: &str| rows.iter().find(|r| r.program == name).unwrap().clone();
        // Outer-level directive sets use more memory and fault less than
        // inner-level ones — the paper's central Table 1 observation.
        let main1 = get("MAIN1");
        let main3 = get("MAIN3");
        assert!(
            main1.mem > main3.mem,
            "MAIN1 {} vs MAIN3 {}",
            main1.mem,
            main3.mem
        );
        assert!(main1.pf <= main3.pf);
    }

    #[test]
    fn parallel_tables_match_serial_tables() {
        let run = |exec: Executor| {
            let mut h = Harness::new(Scale::Small).with_executor(exec);
            (table1(&mut h), table3(&mut h))
        };
        let (t1_serial, t3_serial) = run(Executor::serial());
        let (t1_par, t3_par) = run(Executor::with_threads(4));
        for (a, b) in t1_serial.iter().zip(&t1_par) {
            assert_eq!(a.program, b.program);
            assert_eq!(a.pf, b.pf);
            assert_eq!(a.mem.to_bits(), b.mem.to_bits(), "{}", a.program);
            assert_eq!(a.st.to_bits(), b.st.to_bits(), "{}", a.program);
        }
        for (a, b) in t3_serial.iter().zip(&t3_par) {
            assert_eq!(a.program, b.program);
            assert_eq!(
                (a.lru_dpf, a.ws_dpf),
                (b.lru_dpf, b.ws_dpf),
                "{}",
                a.program
            );
            assert_eq!(a.lru_pct_st.to_bits(), b.lru_pct_st.to_bits());
            assert_eq!(a.ws_pct_st.to_bits(), b.ws_pct_st.to_bits());
        }
    }

    #[test]
    fn harness_counts_cache_traffic() {
        let mut h = Harness::new(Scale::Small);
        let first = h.cd("MAIN");
        let again = h.cd("MAIN");
        assert_eq!(first, again);
        let s = h.exec_stats();
        assert!(s.cache_hits >= 1, "repeat CD point served from cache");
        assert_eq!(s.sim_points, s.cache_misses);
    }

    #[test]
    fn harness_cache_traffic_is_pinned_table_by_table() {
        // A fresh serial harness running Tables 1–4 in order: every CD
        // point, curve pass, grid point and match search goes through
        // the one sweep memo, so (hits, misses, simulated points) after
        // each table pin what is recalled, evaluated and simulated.
        let mut h = Harness::new(Scale::Small).with_executor(Executor::serial());
        let traffic = |h: &Harness| {
            let s = h.exec_stats();
            (s.cache_hits, s.cache_misses, s.sim_points)
        };
        table1(&mut h);
        assert_eq!(traffic(&h), (0, 8, 8), "after Table 1");
        table2(&mut h);
        assert_eq!(traffic(&h), (8, 280, 40), "after Table 2");
        table3(&mut h);
        assert_eq!(traffic(&h), (36, 294, 43), "after Table 3");
        table4(&mut h);
        assert_eq!(traffic(&h), (67, 305, 43), "after Table 4");
    }

    #[test]
    fn table3_rows_share_memory_with_cd() {
        let mut h = Harness::new(Scale::Small);
        let rows = table3(&mut h);
        assert_eq!(rows.len(), 14);
        for r in &rows {
            assert!(r.cd_mem > 0.0, "{}", r.program);
        }
    }

    #[test]
    fn table4_budgets_are_met() {
        let mut h = Harness::new(Scale::Small);
        let rows = table4(&mut h);
        for r in &rows {
            // Matched points may not fault more than CD, so their %MEM
            // must be >= 0 relative... (LRU needs at least CD's memory in
            // practice; we only assert the search respected the budget.)
            let cd = h.cd(&r.program);
            let lru = h.plan(&r.program).lru_match_pf(cd.faults);
            assert!(lru.metrics.faults <= cd.faults, "{}", r.program);
        }
    }
}
