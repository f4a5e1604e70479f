//! Helpers the root differential suites share, one copy each.

use cdmm_core::{prepare, PipelineConfig, Prepared};
use cdmm_workloads::{all, Scale};

/// The nine paper workloads at small scale, each prepared under the
/// default pipeline configuration.
pub fn prepared_workloads() -> Vec<Prepared> {
    all(Scale::Small)
        .iter()
        .map(|w| {
            prepare(w.name, &w.source, PipelineConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name))
        })
        .collect()
}

/// The seed of the seeded differential campaigns: `CDMM_EQUIV_SEED`,
/// default 42.
pub fn equiv_seed() -> u64 {
    std::env::var("CDMM_EQUIV_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// SplitMix64: the repo-standard seeded generator for property tests.
///
/// Its [`SplitMix64::below`] reduces modulo the bound, unlike
/// `cdmm_trace::synth::SplitMix64`'s multiply-shift; every seeded
/// campaign's traces depend on that choice.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit value.
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`0` when `n` is 0), by modulo.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}
