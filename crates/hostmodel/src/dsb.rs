//! The DSB (Decoded Stream Buffer / µop cache) model.
//!
//! The DSB caches decoded µops by 32-byte fetch window. Codes with tight
//! loops live in it and stream µops at `dsb_width`; codes that touch
//! thousands of windows between reuses (gem5!) thrash it and fall back to
//! the MITE legacy decoders — the paper's Figs. 5–6.

use crate::cache::HostCache;
use crate::config::CacheGeom;

/// Fetch-window granularity of the DSB (bytes).
pub const WINDOW: u64 = 32;

/// µop-cache model.
#[derive(Debug, Clone)]
pub struct Dsb {
    cache: Option<HostCache>,
    /// µops delivered from the DSB.
    pub dsb_uops: u64,
    /// µops delivered from MITE.
    pub mite_uops: u64,
}

impl Dsb {
    /// Builds a DSB holding `capacity_uops` µops (0 disables it).
    /// Assumes ~6 µops per 32 B window and 8-way organization.
    pub fn new(capacity_uops: u64) -> Self {
        let cache = (capacity_uops > 0).then(|| {
            let windows = (capacity_uops / 6).max(8).next_power_of_two();
            HostCache::new(
                CacheGeom {
                    size: windows * WINDOW,
                    assoc: 8,
                },
                WINDOW,
            )
        });
        Dsb {
            cache,
            dsb_uops: 0,
            mite_uops: 0,
        }
    }

    /// Whether the machine has a µop cache at all.
    pub fn present(&self) -> bool {
        self.cache.is_some()
    }

    /// Records the decode of `n` consecutive windows from `first`, each
    /// worth `uops` µops; returns how many came from the DSB.
    #[inline]
    pub fn fetch_windows(&mut self, first: u64, n: u64, uops: u64) -> u64 {
        let Some(c) = &mut self.cache else {
            self.mite_uops += uops * n;
            return 0;
        };
        let mut hits = 0;
        for i in 0..n {
            hits += c.access(first + i * WINDOW) as u64;
        }
        self.dsb_uops += uops * hits;
        self.mite_uops += uops * (n - hits);
        hits
    }

    /// DSB coverage: fraction of µops delivered from the µop cache —
    /// the paper's Fig. 6 metric.
    pub fn coverage(&self) -> f64 {
        let total = self.dsb_uops + self.mite_uops;
        if total == 0 {
            0.0
        } else {
            self.dsb_uops as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_loop_gets_high_coverage() {
        let mut d = Dsb::new(1536);
        for _ in 0..1000 {
            for w in 0..4u64 {
                d.fetch_windows(0x400000 + w * WINDOW, 1, 6);
            }
        }
        assert!(d.coverage() > 0.99, "{}", d.coverage());
    }

    #[test]
    fn huge_code_footprint_thrashes() {
        let mut d = Dsb::new(1536);
        // Touch 100k distinct windows repeatedly: far beyond capacity.
        for round in 0..3 {
            for w in 0..100_000u64 {
                d.fetch_windows(w * WINDOW, 1, 6);
            }
            let _ = round;
        }
        assert!(d.coverage() < 0.05, "{}", d.coverage());
    }

    #[test]
    fn window_runs_count_hits_and_split_uops() {
        let mut d = Dsb::new(1536);
        assert_eq!(d.fetch_windows(0x1000, 3, 4), 0, "cold");
        assert_eq!(d.fetch_windows(0x1000 + WINDOW, 3, 4), 2);
        assert_eq!((d.dsb_uops, d.mite_uops), (8, 16));
    }

    #[test]
    fn absent_dsb_streams_from_mite() {
        let mut d = Dsb::new(0);
        assert!(!d.present());
        assert_eq!(d.fetch_windows(0, 1, 6), 0);
        assert_eq!(d.coverage(), 0.0);
        assert_eq!(d.mite_uops, 6);
        assert_eq!(d.fetch_windows(0, 3, 5), 0);
        assert_eq!(d.mite_uops, 21);
    }
}
