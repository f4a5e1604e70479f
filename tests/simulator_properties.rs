//! Cross-cutting simulator properties: geometry sensitivity, determinism,
//! and selector equivalences.

use cdmm_core::fleet::{run_fleet_spec, FleetSpec};
use cdmm_core::{prepare, PipelineConfig, PolicySpec};
use cdmm_locality::PageGeometry;
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::Admission;
use cdmm_workloads::{by_name, Scale};

#[test]
fn larger_pages_shrink_the_virtual_space() {
    let w = by_name("CONDUCT", Scale::Small).unwrap();
    let small_pages = PipelineConfig {
        geometry: PageGeometry::new(256, 4),
        ..PipelineConfig::default()
    };
    let big_pages = PipelineConfig {
        geometry: PageGeometry::new(1024, 4),
        ..PipelineConfig::default()
    };
    let ps = prepare(w.name, &w.source, small_pages).unwrap();
    let pb = prepare(w.name, &w.source, big_pages).unwrap();
    assert!(pb.virtual_pages() < ps.virtual_pages());
    // 4x page size cannot shrink the footprint more than 4x (+rounding).
    assert!(u64::from(pb.virtual_pages()) * 4 >= u64::from(ps.virtual_pages()) / 2);
    // Reference counts are identical — geometry changes pages, not
    // semantics.
    assert_eq!(ps.plain_trace().ref_count(), pb.plain_trace().ref_count());
    // Fewer pages => no more cold faults.
    assert!(pb.plain_trace().distinct_pages() <= ps.plain_trace().distinct_pages());
}

#[test]
fn element_size_matters_like_page_size() {
    let w = by_name("FIELD", Scale::Small).unwrap();
    let single = PipelineConfig {
        geometry: PageGeometry::new(256, 4),
        ..PipelineConfig::default()
    };
    let double = PipelineConfig {
        geometry: PageGeometry::new(256, 8),
        ..PipelineConfig::default()
    };
    let p4 = prepare(w.name, &w.source, single).unwrap();
    let p8 = prepare(w.name, &w.source, double).unwrap();
    assert!(
        p8.virtual_pages() > p4.virtual_pages(),
        "double-precision reals need more pages"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let w = by_name("TQL", Scale::Small).unwrap();
    let a = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
    let b = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
    assert_eq!(a.plain_trace(), b.plain_trace());
    assert_eq!(a.cd_trace(), b.cd_trace());
    let ma = a.run_policy(PolicySpec::Cd {
        selector: CdSelector::AtLevel(2),
    });
    let mb = b.run_policy(PolicySpec::Cd {
        selector: CdSelector::AtLevel(2),
    });
    assert_eq!(ma, mb);
}

#[test]
fn multiprogramming_is_deterministic() {
    let mk = || {
        let spec = FleetSpec {
            tenants: 2,
            workloads: vec!["FDJAC".into(), "TQL".into()],
            policy_mix: vec![PolicySpec::Cd {
                selector: CdSelector::FirstFit,
            }],
            frames_per_cell: 24,
            tenants_per_cell: 2,
            admission: Admission::Free,
            jitter: false,
            ..FleetSpec::default()
        };
        run_fleet_spec(&spec).expect("fleet runs")
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b, "fleet reports are byte-identical run to run");
    assert!(a.makespan > 0);
    for (x, y) in a.tenants.iter().zip(b.tenants.iter()) {
        assert_eq!(x.metrics, y.metrics);
        assert_eq!(x.finished_at, y.finished_at);
    }
}

#[test]
fn first_fit_with_unbounded_memory_acts_like_outermost() {
    // In uniprogramming with no availability set, FirstFit always grants
    // the first (largest) request — the Outermost selector.
    let w = by_name("MAIN", Scale::Small).unwrap();
    let p = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
    let fit = p.run_policy(PolicySpec::Cd {
        selector: CdSelector::FirstFit,
    });
    let outer = p.run_policy(PolicySpec::Cd {
        selector: CdSelector::Outermost,
    });
    assert_eq!(fit, outer);
}

#[test]
fn cd_metrics_respond_to_min_alloc() {
    let w = by_name("FDJAC", Scale::Small).unwrap();
    let small = PipelineConfig {
        min_alloc: 1,
        ..PipelineConfig::default()
    };
    let large = PipelineConfig {
        min_alloc: 8,
        ..PipelineConfig::default()
    };
    let ps = prepare(w.name, &w.source, small).unwrap();
    let pl = prepare(w.name, &w.source, large).unwrap();
    let ms = ps.run_policy(PolicySpec::Cd {
        selector: CdSelector::Innermost,
    });
    let ml = pl.run_policy(PolicySpec::Cd {
        selector: CdSelector::Innermost,
    });
    assert!(
        ml.mean_mem() > ms.mean_mem(),
        "a larger floor holds more pages"
    );
    assert!(ml.faults <= ms.faults, "and can only reduce faults");
}
