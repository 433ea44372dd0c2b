//! The DSB (Decoded Stream Buffer / µop cache) model.
//!
//! The DSB caches decoded µops by 32-byte fetch window. Codes with tight
//! loops live in it and stream µops at `dsb_width`; codes that touch
//! thousands of windows between reuses (gem5!) thrash it and fall back to
//! the MITE legacy decoders — the paper's Figs. 5–6.

use super::cache::HostCache;
use hostmodel::CacheGeom;

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

    /// Records the decode of `uops` µops spanning the window at
    /// `window_addr`; returns `true` if they came from the DSB.
    #[inline]
    pub fn fetch_window(&mut self, window_addr: u64, uops: u64) -> bool {
        match &mut self.cache {
            Some(c) => {
                let hit = c.access(window_addr);
                if hit {
                    self.dsb_uops += uops;
                } else {
                    self.mite_uops += uops;
                }
                hit
            }
            None => {
                self.mite_uops += uops;
                false
            }
        }
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
