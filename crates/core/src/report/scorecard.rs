//! Scorecard rendering of a [`RegistrySnapshot`].
//!
//! A [`cdmm_vmsim::MetricsRegistry`] attached to a run folds its
//! reference batches and directive outcomes into counters and histogram
//! digests; this module turns one
//! frozen snapshot into the markdown scorecard ([`render_markdown`])
//! the profiling bench prints.
//!
//! The rendering is deterministic: snapshots are name-ordered, so the
//! same run always produces byte-identical output.

use std::fmt::Write as _;

use cdmm_vmsim::RegistrySnapshot;

/// Renders a snapshot as a markdown scorecard: a counters/gauges table,
/// a histogram digest table, and a per-PI ALLOCATE table. Empty
/// sections are omitted; an empty snapshot renders a placeholder line.
pub fn render_markdown(snap: &RegistrySnapshot) -> String {
    let mut s = String::new();
    if snap.is_empty() {
        s.push_str("_no metrics recorded_\n");
        return s;
    }
    if !snap.counters.is_empty() || !snap.gauges.is_empty() {
        s.push_str("| metric | value |\n|---|---:|\n");
        for (name, v) in &snap.counters {
            let _ = writeln!(s, "| {name} | {v} |");
        }
        for (name, v) in &snap.gauges {
            let _ = writeln!(s, "| {name} (gauge) | {v} |");
        }
    }
    if !snap.hists.is_empty() {
        s.push_str("\n| histogram | n | mean | p50 | p90 | p99 | max |\n");
        s.push_str("|---|---:|---:|---:|---:|---:|---:|\n");
        for (name, h) in &snap.hists {
            let _ = writeln!(
                s,
                "| {name} | {} | {:.2} | {} | {} | {} | {} |",
                h.count, h.mean, h.p50, h.p90, h.p99, h.max
            );
        }
    }
    if !snap.pi.is_empty() {
        s.push_str("\n| PI | granted | held over | swap needed | pages p50 | pages max |\n");
        s.push_str("|---:|---:|---:|---:|---:|---:|\n");
        for (pi, p) in &snap.pi {
            let _ = writeln!(
                s,
                "| {pi} | {} | {} | {} | {} | {} |",
                p.granted, p.held_over, p.swap_needed, p.grant_pages.p50, p.grant_pages.max
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_vmsim::observe::{AllocDecision, SimEvent, Tracer as _};
    use cdmm_vmsim::MetricsRegistry;

    fn sample() -> RegistrySnapshot {
        let mut r = MetricsRegistry::new();
        r.record(
            0,
            &SimEvent::Alloc {
                pi: 2,
                pages: 8,
                decision: AllocDecision::Granted,
            },
        );
        r.record(0, &SimEvent::Recovered { total: 1 });
        r.record_sample("dwell", 16);
        r.snapshot()
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let snap = RegistrySnapshot::default();
        assert!(render_markdown(&snap).contains("no metrics recorded"));
    }

    #[test]
    fn markdown_has_all_three_sections() {
        let md = render_markdown(&sample());
        assert!(md.contains("| recovered_directives | 1 |"));
        assert!(md.contains("| dwell | 1 |"), "histogram row: {md}");
        assert!(md.contains("| 2 | 1 | 0 | 0 | 8 | 8 |"), "PI row: {md}");
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(render_markdown(&sample()), render_markdown(&sample()));
    }
}
