//! End-to-end integration tests: source text in, policy metrics out,
//! exercising every crate in the workspace together.

use cdmm_core::{prepare, PipelineConfig, PolicySpec};
use cdmm_locality::{analyze_program, instrument, InsertOptions, PageGeometry};
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_workloads::{all, by_name, Scale};

#[test]
fn every_workload_runs_through_the_full_pipeline() {
    for w in all(Scale::Small) {
        let p = prepare(w.name, &w.source, PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(p.plain_trace().ref_count() > 0, "{}", w.name);
        assert!(p.cd_trace().directive_count() > 0, "{}", w.name);
        assert!(p.virtual_pages() > 0, "{}", w.name);

        // Every directive level runs without panicking and produces a
        // consistent reference count.
        for selector in [
            CdSelector::Outermost,
            CdSelector::Innermost,
            CdSelector::AtLevel(2),
        ] {
            let m = p.run_policy(PolicySpec::Cd { selector });
            assert_eq!(m.refs, p.plain_trace().ref_count(), "{}", w.name);
            assert!(
                m.faults >= u64::from(p.plain_trace().distinct_pages()) / 2,
                "{}",
                w.name
            );
        }
    }
}

#[test]
fn directives_never_change_the_reference_string() {
    for w in all(Scale::Small) {
        let p = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
        let plain: Vec<_> = p.plain_trace().iter_refs().collect();
        let cd: Vec<_> = p.cd_trace().iter_refs().collect();
        assert_eq!(plain, cd, "{}", w.name);
    }
}

#[test]
fn cd_with_equal_memory_beats_lru_on_phased_programs() {
    // The paper's Table 3 claim, checked end-to-end on MAIN: at the same
    // average memory, LRU faults (much) more than CD.
    let w = by_name("MAIN", Scale::Small).unwrap();
    let p = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
    let cd = p.run_policy(PolicySpec::Cd {
        selector: CdSelector::AtLevel(2),
    });
    let lru = p.run_policy(PolicySpec::Lru {
        frames: cd.mean_mem().round().max(1.0) as usize,
    });
    assert!(
        lru.faults > cd.faults,
        "LRU {} vs CD {} at MEM {:.1}",
        lru.faults,
        cd.faults,
        cd.mean_mem()
    );
}

#[test]
fn outer_directives_trade_memory_for_faults() {
    // The paper's Table 1 claim on every multi-variant program.
    for name in ["MAIN", "TQL"] {
        let w = by_name(name, Scale::Small).unwrap();
        let p = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
        let outer = p.run_policy(PolicySpec::Cd {
            selector: CdSelector::Outermost,
        });
        let inner = p.run_policy(PolicySpec::Cd {
            selector: CdSelector::Innermost,
        });
        assert!(outer.mean_mem() > inner.mean_mem(), "{name}");
        assert!(outer.faults <= inner.faults, "{name}");
    }
}

#[test]
fn instrumented_sources_reparse_for_every_workload() {
    for w in all(Scale::Small) {
        let analysis = analyze_program(&w.source, PageGeometry::PAPER)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let out = instrument(&analysis, InsertOptions::default());
        let text = cdmm_lang::to_source(&out);
        let mut reparsed =
            cdmm_lang::parse(&text).unwrap_or_else(|e| panic!("{} reparse: {e}\n{text}", w.name));
        // `out` went through semantic analysis (intrinsics rewritten to
        // calls); bring the reparsed program to the same stage.
        cdmm_lang::analyze(&mut reparsed).unwrap_or_else(|e| panic!("{} recheck: {e}", w.name));
        assert_eq!(out, reparsed, "{}", w.name);
    }
}

#[test]
fn allocate_lists_satisfy_paper_invariants_in_every_workload_trace() {
    use cdmm_trace::Event;
    for w in all(Scale::Small) {
        let p = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
        let mut saw_alloc = false;
        for ev in &p.cd_trace().to_trace().events {
            if let Event::Alloc(args) = ev {
                saw_alloc = true;
                assert!(!args.is_empty(), "{}", w.name);
                for pair in args.windows(2) {
                    assert!(pair[0].pi > pair[1].pi, "{}: PI must decrease", w.name);
                    assert!(
                        pair[0].pages >= pair[1].pages,
                        "{}: X must not increase",
                        w.name
                    );
                }
            }
        }
        assert!(saw_alloc, "{}: no ALLOCATE events", w.name);
    }
}

#[test]
fn page_geometry_is_consistent_across_layout_and_analysis() {
    // The analysis's total_pages must equal the layout's total pages for
    // every workload — they are computed by different crates.
    for w in all(Scale::Small) {
        let analysis = analyze_program(&w.source, PageGeometry::PAPER).unwrap();
        let mut program = cdmm_lang::parse(&w.source).unwrap();
        let syms = cdmm_lang::analyze(&mut program).unwrap();
        let layout = cdmm_trace::MemoryLayout::new(&syms, PageGeometry::PAPER);
        assert_eq!(
            analysis.sizes.total_pages,
            u64::from(layout.total_pages()),
            "{}",
            w.name
        );
    }
}

#[test]
fn fault_service_time_scales_st_not_pf() {
    let w = by_name("FIELD", Scale::Small).unwrap();
    let fast = PipelineConfig {
        fault_service: 100,
        ..PipelineConfig::default()
    };
    let slow = PipelineConfig {
        fault_service: 4000,
        ..PipelineConfig::default()
    };
    let pf = prepare(w.name, &w.source, fast).unwrap();
    let ps = prepare(w.name, &w.source, slow).unwrap();
    let mf = pf.run_policy(PolicySpec::Cd {
        selector: CdSelector::AtLevel(2),
    });
    let ms = ps.run_policy(PolicySpec::Cd {
        selector: CdSelector::AtLevel(2),
    });
    assert_eq!(mf.faults, ms.faults);
    assert!(ms.st_cost() > mf.st_cost());
}
