//! `prepare` interprets each program once, the instrumented AST straight
//! into the CD trace, and derives the plain trace by dropping the
//! directives. The old path (interpret the source, re-parse and
//! interpret the printed instrumented source) is the oracle here.

use cdmm_core::{prepare, PipelineConfig, PolicySpec};
use cdmm_locality::{analyze_program, instrument, InsertOptions, PageGeometry};
use cdmm_trace::trace_program_compressed;
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::policy::opt::Opt;
use cdmm_vmsim::policy::ws::WorkingSet;
use cdmm_vmsim::{simulate_run_level, SimConfig};
use cdmm_workloads::{all, Scale};

/// `Prepared::fingerprint()` of every workload under the default
/// pipeline configuration, as the two-interpretation `prepare` computed
/// them: interpreting once must not move a single cache key.
const FINGERPRINTS: [(Scale, &str, &str); 18] = [
    (Scale::Small, "MAIN", "933b1399a439ef1d877f73249bde9745"),
    (Scale::Small, "FDJAC", "c58257461ba306058263091b9f57264b"),
    (Scale::Small, "TQL", "1df71682c4650920a8f63cf11fa2c299"),
    (Scale::Small, "FIELD", "c50c85e119db3a72cd8830bda0fef783"),
    (Scale::Small, "INIT", "1d0964c615d5190df2abea50d4c38f67"),
    (Scale::Small, "APPROX", "c3c640f4c7158cd0c2f9d38af6bd9758"),
    (Scale::Small, "HYBRJ", "b3bf8ab27ccd2ba7b8a2e48e053d07b0"),
    (Scale::Small, "CONDUCT", "bae96b4f4292b366dc6133b7ed707a15"),
    (Scale::Small, "HWSCRT", "7c541427c4dde5707dcd18cf166fee66"),
    (Scale::Paper, "MAIN", "72d00addc6d3ffbbfa981d47d49d8173"),
    (Scale::Paper, "FDJAC", "b10818740ea3694a8144b66cfbe90b1e"),
    (Scale::Paper, "TQL", "585330b13f36da7829a65d821196781d"),
    (Scale::Paper, "FIELD", "8caad7a3f14297c541688c5313673382"),
    (Scale::Paper, "INIT", "e172a58fa2374e251407f8770a52f2eb"),
    (Scale::Paper, "APPROX", "e598b500e7dee7b17dde9484299b3537"),
    (Scale::Paper, "HYBRJ", "b3e9b7d03a5223f9673667630779d95b"),
    (Scale::Paper, "CONDUCT", "789c62a3d517f29467e39e8af3ec131b"),
    (Scale::Paper, "HWSCRT", "b63632f703b72db61516a7acc4087e38"),
];

#[test]
fn both_traces_match_the_two_interpretation_path_on_every_workload() {
    let cfg = PipelineConfig::default();
    for scale in [Scale::Small, Scale::Paper] {
        for w in all(scale) {
            let p = prepare(w.name, &w.source, cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let plain = trace_program_compressed(&w.source, cfg.geometry).unwrap();
            assert_eq!(p.plain_trace(), &plain, "{} {scale:?}: plain trace", w.name);
            let analysis = analyze_program(&w.source, cfg.geometry).unwrap();
            let printed = cdmm_lang::to_source(&instrument(&analysis, cfg.insert));
            let cd = trace_program_compressed(&printed, cfg.geometry).unwrap();
            assert_eq!(p.cd_trace(), &cd, "{} {scale:?}: CD trace", w.name);
            assert_eq!(p.instrumented_source(), printed, "{} {scale:?}", w.name);
        }
    }
}

#[test]
fn fingerprints_are_unchanged_for_every_workload_configuration() {
    for (scale, name, want) in FINGERPRINTS {
        let w = cdmm_workloads::by_name(name, scale).unwrap();
        let p = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
        assert_eq!(p.fingerprint().to_hex(), want, "{name} {scale:?}");
    }
}

#[test]
fn hand_written_directives_leave_plain_policy_metrics_unchanged() {
    // Instrumentation strips the source's own `!MD$` lines, so the
    // plain trace no longer carries them; the policies that read the
    // plain trace ignore directives, so their metrics cannot move.
    let src = "PROGRAM HAND\nPARAMETER (N = 96)\nDIMENSION A(N,N), V(N)\n\
               !MD$ ALLOCATE ((2,40) ELSE (1,3))\nDO 10 J = 1, N\n!MD$ LOCK (2,V)\n\
               DO 20 I = 1, N\nA(I,J) = A(I,J) + V(I) * FLOAT(J)\n20 CONTINUE\n\
               !MD$ UNLOCK (V)\n10 CONTINUE\nDO 30 I = 1, N\nV(I) = A(I,I)\n30 CONTINUE\nEND";
    let cfg = PipelineConfig::default();
    let p = prepare("HAND", src, cfg).unwrap();
    let with_dirs = trace_program_compressed(src, PageGeometry::PAPER).unwrap();
    assert!(with_dirs.directive_count() > 0);
    assert_eq!(p.plain_trace().directive_count(), 0);
    assert!(p.plain_trace().iter_refs().eq(with_dirs.iter_refs()));

    let sim = SimConfig {
        fault_service: cfg.fault_service,
    };
    for frames in [1, 3, 8, 40, 200] {
        let lru = simulate_run_level(&with_dirs, &mut Lru::new(frames), sim);
        assert_eq!(
            p.run_policy(PolicySpec::Lru { frames }),
            lru,
            "LRU({frames})"
        );
        let opt = simulate_run_level(&with_dirs, &mut Opt::for_trace(&with_dirs, frames), sim);
        assert_eq!(
            p.run_policy(PolicySpec::Opt { frames }),
            opt,
            "OPT({frames})"
        );
    }
    for tau in [1, 50, 500, 5000] {
        let ws = simulate_run_level(&with_dirs, &mut WorkingSet::new(tau), sim);
        assert_eq!(p.run_policy(PolicySpec::Ws { tau }), ws, "WS({tau})");
    }
    let without = InsertOptions {
        allocate: false,
        lock: false,
    };
    let bare = prepare(
        "HAND",
        src,
        PipelineConfig {
            insert: without,
            ..cfg
        },
    )
    .unwrap();
    assert_eq!(bare.cd_trace().directive_count(), 0, "no directives kept");
}
