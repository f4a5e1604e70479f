//! Table rendering and the paper's published values, for side-by-side
//! comparison in `EXPERIMENTS.md` and the bench binaries.

use std::fmt::Write as _;

use crate::experiments::{Table1Row, Table2Row, Table3Row, Table4Row};

pub mod scorecard;

/// The paper's published numbers, used only for reporting next to the
/// reproduction's measurements (never for computing them).
pub mod paper {
    /// Table 1: `(program, MEM, PF, ST/1e6)`.
    pub const TABLE1: [(&str, f64, u64, f64); 8] = [
        ("MAIN", 1.62, 531, 3.39),
        ("MAIN1", 20.37, 144, 3.89),
        ("MAIN2", 12.23, 319, 10.6),
        ("MAIN3", 1.11, 652, 2.77),
        ("FDJAC", 2.47, 178, 1.46),
        ("FDJAC1", 3.11, 175, 2.04),
        ("TQL1", 2.48, 322, 2.84),
        ("TQL2", 2.02, 421, 3.063),
    ];

    /// Table 2: `(program, %ST LRU vs CD, %ST WS vs CD)`.
    pub const TABLE2: [(&str, f64, f64); 8] = [
        ("MAIN3", 47.0, 17.0),
        ("FDJAC", 27.0, 39.0),
        ("FIELD", 23.0, 6.0),
        ("INIT", 133.0, 22.0),
        ("APPROX", 36.0, 58.0),
        ("HYBRJ", 31.0, 32.0),
        ("CONDUCT", 288.0, 32.0),
        ("TQL1", 7.0, 4.0),
    ];

    /// Table 3: `(program, LRU ΔPF, LRU %ST, WS ΔPF, WS %ST)`.
    pub const TABLE3: [(&str, i64, f64, i64, f64); 14] = [
        ("MAIN", 1530, 146.3, 0, -4.7),
        ("MAIN1", 236, 338.87, 207, 316.45),
        ("MAIN2", 207, 35.5, 207, 19.8),
        ("MAIN3", 22665, 1585.9, 22665, 1585.9),
        ("FDJAC", 337, 115.75, 293, 91.1),
        ("FDJAC1", 53, -6.8, 296, 60.78),
        ("FIELD", 2643, 1538.9, 2, 18.0),
        ("INIT", 2287, 979.5, 775, 630.0),
        ("APPROX", 365, 54.3, 203, 83.5),
        ("HYBRJ", 317, 159.1, 283, 139.1),
        ("CONDUCT", 3477, 988.3, 1944, 1840.5),
        ("TQL1", 1017, 191.55, 958, 223.9),
        ("TQL2", 918, 170.6, 969, 214.4),
        ("HWSCRT", 4028, 1047.9, 4033, 2265.2),
    ];

    /// Table 4: `(program, LRU %MEM, LRU %ST, WS %MEM, WS %ST)`.
    pub const TABLE4: [(&str, f64, f64, f64, f64); 14] = [
        ("MAIN", 150.0, 32.0, 14.0, -4.7),
        ("MAIN1", 170.0, 415.68, 72.5, 216.45),
        ("MAIN2", 88.0, 58.0, 80.5, 49.5),
        ("MAIN3", 170.3, 46.6, 64.0, 16.6),
        ("FDJAC", 102.0, 26.7, 123.0, 39.0),
        ("FDJAC1", 60.7, -9.3, 77.0, -0.3),
        ("FIELD", 106.8, 29.5, 53.4, 28.0),
        ("INIT", 171.2, 132.5, 151.8, 108.2),
        ("APPROX", 105.8, 36.2, 34.4, 77.9),
        ("HYBRJ", 41.5, 29.5, 82.3, 140.0),
        ("CONDUCT", 283.7, 324.6, 11.6, 36.1),
        ("TQL1", 61.3, 34.8, 86.4, 4.2),
        ("TQL2", 98.0, 25.2, 128.8, -3.3),
        ("HWSCRT", 442.0, 433.5, 124.6, 234.3),
    ];
}

fn paper1(program: &str) -> Option<(f64, u64, f64)> {
    paper::TABLE1
        .iter()
        .find(|r| r.0 == program)
        .map(|&(_, mem, pf, st)| (mem, pf, st))
}

/// Renders Table 1 with the paper's values alongside.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: Effect of executing different sets of directives under CD"
    );
    let _ = writeln!(
        out,
        "{:<8} | {:>8} {:>6} {:>12} {:>4} | {:>9} {:>6} {:>9}",
        "program", "MEM", "PF", "ST", "REC", "pMEM", "pPF", "pST(e6)"
    );
    let _ = writeln!(out, "{}", "-".repeat(77));
    for r in rows {
        let p = paper1(&r.program);
        let _ = writeln!(
            out,
            "{:<8} | {:>8.2} {:>6} {:>12.3e} {:>4} | {:>9} {:>6} {:>9}",
            r.program,
            r.mem,
            r.pf,
            r.st,
            r.recovered,
            p.map_or("-".into(), |x| format!("{:.2}", x.0)),
            p.map_or("-".into(), |x| format!("{}", x.1)),
            p.map_or("-".into(), |x| format!("{:.2}", x.2)),
        );
    }
    out
}

/// Renders Table 2 with the paper's values alongside.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: Minimal space-time cost of LRU and WS versus CD (%ST)"
    );
    let _ = writeln!(
        out,
        "{:<8} | {:>10} {:>10} | {:>10} {:>10}",
        "program", "LRU %ST", "WS %ST", "pLRU %ST", "pWS %ST"
    );
    let _ = writeln!(out, "{}", "-".repeat(60));
    for r in rows {
        let p = paper::TABLE2.iter().find(|x| x.0 == r.program);
        let _ = writeln!(
            out,
            "{:<8} | {:>10.1} {:>10.1} | {:>10} {:>10}",
            r.program,
            r.lru_pct_st,
            r.ws_pct_st,
            p.map_or("-".into(), |x| format!("{:.0}", x.1)),
            p.map_or("-".into(), |x| format!("{:.0}", x.2)),
        );
    }
    out
}

/// Renders Table 3 with the paper's values alongside.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: LRU and WS versus CD when similar average memory is allocated"
    );
    let _ = writeln!(
        out,
        "{:<8} | {:>7} {:>7} | {:>8} {:>9} {:>8} {:>9} | {:>8} {:>8} {:>8} {:>8}",
        "program",
        "cdMEM",
        "cdPF",
        "LRU dPF",
        "LRU %ST",
        "WS dPF",
        "WS %ST",
        "pLRUdPF",
        "pLRU%ST",
        "pWSdPF",
        "pWS%ST"
    );
    let _ = writeln!(out, "{}", "-".repeat(116));
    for r in rows {
        let p = paper::TABLE3.iter().find(|x| x.0 == r.program);
        let _ = writeln!(
            out,
            "{:<8} | {:>7.2} {:>7} | {:>8} {:>9.1} {:>8} {:>9.1} | {:>8} {:>8} {:>8} {:>8}",
            r.program,
            r.cd_mem,
            r.cd_pf,
            r.lru_dpf,
            r.lru_pct_st,
            r.ws_dpf,
            r.ws_pct_st,
            p.map_or("-".into(), |x| format!("{}", x.1)),
            p.map_or("-".into(), |x| format!("{:.0}", x.2)),
            p.map_or("-".into(), |x| format!("{}", x.3)),
            p.map_or("-".into(), |x| format!("{:.0}", x.4)),
        );
    }
    out
}

/// Renders Table 4 with the paper's values alongside.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: Cost of generating the same number of page faults as CD"
    );
    let _ = writeln!(
        out,
        "{:<8} | {:>6} | {:>9} {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8} {:>8}",
        "program",
        "cdPF",
        "LRU %MEM",
        "LRU %ST",
        "WS %MEM",
        "WS %ST",
        "pLRU%M",
        "pLRU%ST",
        "pWS%M",
        "pWS%ST"
    );
    let _ = writeln!(out, "{}", "-".repeat(106));
    for r in rows {
        let p = paper::TABLE4.iter().find(|x| x.0 == r.program);
        let _ = writeln!(
            out,
            "{:<8} | {:>6} | {:>9.1} {:>9.1} {:>9.1} {:>9.1} | {:>8} {:>8} {:>8} {:>8}",
            r.program,
            r.cd_pf,
            r.lru_pct_mem,
            r.lru_pct_st,
            r.ws_pct_mem,
            r.ws_pct_st,
            p.map_or("-".into(), |x| format!("{:.0}", x.1)),
            p.map_or("-".into(), |x| format!("{:.0}", x.2)),
            p.map_or("-".into(), |x| format!("{:.0}", x.3)),
            p.map_or("-".into(), |x| format!("{:.0}", x.4)),
        );
    }
    out
}

/// Renders a fleet run as a plain-text scorecard: headline totals, the
/// space-time and swapper-pressure distributions, a per-policy-family
/// breakdown (families keyed by the label prefix before the parameter,
/// so `WS(1700)` and `WS(2300)` fold into one `WS` row), and the (at
/// most three) cells with the most swap-outs, ties to the lower index.
pub fn render_fleet(report: &cdmm_vmsim::FleetReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fleet scorecard: {} tenants over {} cells",
        report.tenants.len(),
        report.cells.len()
    );
    let _ = writeln!(
        out,
        "  makespan {}  refs {}  faults {}  swap-outs {}  cpu {:.1}%",
        report.makespan,
        report.total_refs,
        report.total_faults,
        report.swap_events,
        report.cpu_utilization * 100.0
    );
    let _ = writeln!(
        out,
        "  ST cost        p50 {:>12}  p99 {:>12}  max {:>12}",
        report.st_cost.p50, report.st_cost.p99, report.st_cost.max
    );
    let _ = writeln!(
        out,
        "  swap pressure  p50 {:>12}  p99 {:>12}  max {:>12}",
        report.swap_pressure.p50, report.swap_pressure.p99, report.swap_pressure.max
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<8} | {:>7} {:>10} {:>10} {:>14}",
        "policy", "tenants", "faults", "swap-outs", "mean ST"
    );
    let _ = writeln!(out, "{}", "-".repeat(56));
    // Fold tenants into policy families, keeping first-seen order so
    // the table mirrors the fleet's policy mix.
    let mut families: Vec<(String, u64, u64, u64, f64)> = Vec::new();
    for t in &report.tenants {
        let family = t
            .policy
            .split(['(', ' '])
            .next()
            .unwrap_or(t.policy.as_str())
            .to_string();
        let row = match families.iter_mut().find(|f| f.0 == family) {
            Some(row) => row,
            None => {
                families.push((family, 0, 0, 0, 0.0));
                families.last_mut().expect("just pushed")
            }
        };
        row.1 += 1;
        row.2 += t.metrics.faults;
        row.3 += t.swap_outs;
        row.4 += t.metrics.st_cost();
    }
    for (family, tenants, faults, swaps, st) in &families {
        let _ = writeln!(
            out,
            "{:<8} | {:>7} {:>10} {:>10} {:>14.3e}",
            family,
            tenants,
            faults,
            swaps,
            st / *tenants as f64
        );
    }
    let mut hottest: Vec<usize> = (0..report.cells.len())
        .filter(|&i| report.cells[i].swap_events > 0)
        .collect();
    hottest.sort_by_key(|&i| (std::cmp::Reverse(report.cells[i].swap_events), i));
    hottest.truncate(3);
    if !hottest.is_empty() {
        let _ = writeln!(out, "\nhottest cells by swap-outs:");
    }
    for i in hottest {
        let cell = &report.cells[i];
        let _ = writeln!(
            out,
            "  cell {i}: {} swap-outs, {} forced admissions, util {:.2}",
            cell.swap_events, cell.forced_admissions, report.cpu_per_cell[i]
        );
    }
    out
}

/// Renders all four tables as Markdown (used to regenerate
/// `EXPERIMENTS.md`). Reproduced values sit next to the paper's.
pub fn render_markdown(
    t1: &[Table1Row],
    t2: &[Table2Row],
    t3: &[Table3Row],
    t4: &[Table4Row],
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### Table 1 — Effect of executing different sets of directives under CD\n"
    );
    let _ = writeln!(
        out,
        "| program | MEM | PF | ST | recovered | paper MEM | paper PF | paper ST |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---:|");
    for r in t1 {
        let p = paper::TABLE1.iter().find(|x| x.0 == r.program);
        let _ = writeln!(
            out,
            "| {} | {:.2} | {} | {:.3e} | {} | {} | {} | {} |",
            r.program,
            r.mem,
            r.pf,
            r.st,
            r.recovered,
            p.map_or("—".into(), |x| format!("{:.2}", x.1)),
            p.map_or("—".into(), |x| format!("{}", x.2)),
            p.map_or("—".into(), |x| format!("{:.2}e6", x.3)),
        );
    }
    let _ = writeln!(
        out,
        "\n### Table 2 — Minimal space-time cost of LRU and WS versus CD (%ST)\n"
    );
    let _ = writeln!(out, "| program | LRU %ST | WS %ST | paper LRU | paper WS |");
    let _ = writeln!(out, "|---|---:|---:|---:|---:|");
    for r in t2 {
        let p = paper::TABLE2.iter().find(|x| x.0 == r.program);
        let _ = writeln!(
            out,
            "| {} | {:.1} | {:.1} | {} | {} |",
            r.program,
            r.lru_pct_st,
            r.ws_pct_st,
            p.map_or("—".into(), |x| format!("{:.0}", x.1)),
            p.map_or("—".into(), |x| format!("{:.0}", x.2)),
        );
    }
    let _ = writeln!(
        out,
        "\n### Table 3 — LRU and WS versus CD at equal average memory\n"
    );
    let _ = writeln!(
        out,
        "| program | CD MEM | CD PF | LRU ΔPF | LRU %ST | WS ΔPF | WS %ST | paper LRU ΔPF | paper LRU %ST | paper WS ΔPF | paper WS %ST |"
    );
    let _ = writeln!(
        out,
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|"
    );
    for r in t3 {
        let p = paper::TABLE3.iter().find(|x| x.0 == r.program);
        let _ = writeln!(
            out,
            "| {} | {:.2} | {} | {} | {:.1} | {} | {:.1} | {} | {} | {} | {} |",
            r.program,
            r.cd_mem,
            r.cd_pf,
            r.lru_dpf,
            r.lru_pct_st,
            r.ws_dpf,
            r.ws_pct_st,
            p.map_or("—".into(), |x| format!("{}", x.1)),
            p.map_or("—".into(), |x| format!("{:.0}", x.2)),
            p.map_or("—".into(), |x| format!("{}", x.3)),
            p.map_or("—".into(), |x| format!("{:.0}", x.4)),
        );
    }
    let _ = writeln!(
        out,
        "\n### Table 4 — Cost of producing no more page faults than CD\n"
    );
    let _ = writeln!(
        out,
        "| program | CD PF | LRU %MEM | LRU %ST | WS %MEM | WS %ST | paper LRU %MEM | paper LRU %ST | paper WS %MEM | paper WS %ST |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for r in t4 {
        let p = paper::TABLE4.iter().find(|x| x.0 == r.program);
        let _ = writeln!(
            out,
            "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {} | {} | {} | {} |",
            r.program,
            r.cd_pf,
            r.lru_pct_mem,
            r.lru_pct_st,
            r.ws_pct_mem,
            r.ws_pct_st,
            p.map_or("—".into(), |x| format!("{:.0}", x.1)),
            p.map_or("—".into(), |x| format!("{:.0}", x.2)),
            p.map_or("—".into(), |x| format!("{:.0}", x.3)),
            p.map_or("—".into(), |x| format!("{:.0}", x.4)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Table1Row, Table2Row};

    #[test]
    fn paper_tables_have_expected_rows() {
        assert_eq!(paper::TABLE1.len(), 8);
        assert_eq!(paper::TABLE2.len(), 8);
        assert_eq!(paper::TABLE3.len(), 14);
        assert_eq!(paper::TABLE4.len(), 14);
    }

    #[test]
    fn render_table1_includes_paper_values() {
        let rows = vec![Table1Row {
            program: "MAIN".into(),
            mem: 2.0,
            pf: 100,
            st: 1.0e6,
            recovered: 3,
        }];
        let s = render_table1(&rows);
        assert!(s.contains("MAIN"));
        assert!(s.contains("531"), "paper PF value shown: {s}");
        assert!(s.contains("REC"), "recovered column header shown: {s}");
    }

    #[test]
    fn markdown_renderer_produces_tables() {
        let t1 = vec![Table1Row {
            program: "MAIN".into(),
            mem: 2.0,
            pf: 100,
            st: 1.0e6,
            recovered: 0,
        }];
        let md = render_markdown(&t1, &[], &[], &[]);
        assert!(md.contains("### Table 1"));
        assert!(md.contains("| MAIN |"));
        assert!(md.contains("| recovered |"), "recovered column in header");
        assert!(md.contains("### Table 4"));
    }

    #[test]
    fn render_fleet_lists_the_hottest_cells() {
        use cdmm_vmsim::{CellReport, FleetReport, Histogram, HistogramSummary};
        let cell = |swap_events, forced_admissions| CellReport {
            makespan: 100,
            busy: 50,
            total_faults: 0,
            swap_events,
            forced_admissions,
        };
        let empty = HistogramSummary::of(&Histogram::new());
        let mut report = FleetReport {
            tenants: Vec::new(),
            cells: vec![cell(0, 0), cell(3, 1), cell(5, 0), cell(3, 2), cell(1, 0)],
            makespan: 100,
            total_refs: 0,
            total_faults: 0,
            swap_events: 12,
            cpu_utilization: 0.5,
            cpu_per_cell: vec![0.5, 0.25, 0.75, 0.5, 1.0],
            st_cost: empty,
            swap_pressure: empty,
        };
        let s = render_fleet(&report);
        let hot = s
            .split_once("hottest cells by swap-outs:\n")
            .expect("section")
            .1;
        assert_eq!(
            hot.lines().collect::<Vec<_>>(),
            [
                "  cell 2: 5 swap-outs, 0 forced admissions, util 0.75",
                "  cell 1: 3 swap-outs, 1 forced admissions, util 0.25",
                "  cell 3: 3 swap-outs, 2 forced admissions, util 0.50",
            ]
        );
        for c in &mut report.cells {
            c.swap_events = 0;
        }
        assert!(!render_fleet(&report).contains("hottest"));
    }

    #[test]
    fn render_table2_handles_unknown_program() {
        let rows = vec![Table2Row {
            program: "NOPE".into(),
            cd_st: 1.0,
            lru_pct_st: 5.0,
            ws_pct_st: 4.0,
        }];
        let s = render_table2(&rows);
        assert!(s.contains("NOPE"));
        assert!(s.contains('-'), "missing paper value renders as dash");
    }
}
