//! A set-associative, write-back, write-allocate guest cache with true
//! LRU replacement — gem5's "classic" cache model.

use crate::config::CacheConfig;

/// Result of a cache lookup-with-allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Line address of a dirty victim that must be written back, if any.
    pub writeback: Option<u64>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64, // larger = more recently used
}

/// Per-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses.
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1]; 0 if no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Guest cache state (timing is handled by the hierarchy, not here).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    lines: Vec<Line>, // sets * assoc, row-major by set
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            cfg,
            sets,
            lines: vec![Line::default(); (sets * cfg.assoc) as usize],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Set index for an address (also used by instrumentation to report
    /// which part of the tag array a lookup touched).
    pub fn set_index(&self, addr: u64) -> u64 {
        (addr / self.cfg.line) % self.sets
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr / self.cfg.line * self.cfg.line
    }

    fn tag(&self, addr: u64) -> u64 {
        addr / self.cfg.line / self.sets
    }

    /// Looks up `addr`; on miss, allocates the line (evicting LRU).
    /// Marks the line dirty when `write`.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.tick += 1;
        self.stats.accesses += 1;
        let set = self.set_index(addr) as usize;
        let tag = self.tag(addr);
        let base = set * self.cfg.assoc as usize;
        let ways = &mut self.lines[base..base + self.cfg.assoc as usize];

        // Hit path.
        if let Some(l) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.lru = self.tick;
            l.dirty |= write;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }

        // Miss: victimize invalid first, else true-LRU.
        self.stats.misses += 1;
        let victim = match ways.iter_mut().find(|l| !l.valid) {
            Some(l) => l,
            None => ways.iter_mut().min_by_key(|l| l.lru).expect("assoc > 0"),
        };
        let writeback = (victim.valid && victim.dirty).then(|| {
            self.stats.writebacks += 1;
            // Reconstruct the victim's line address.
            (victim.tag * self.sets + set as u64) * self.cfg.line
        });
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.tick,
        };
        let _ = self.line_addr(addr);
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Whether `addr`'s line is currently resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_index(addr) as usize;
        let tag = self.tag(addr);
        let base = set * self.cfg.assoc as usize;
        self.lines[base..base + self.cfg.assoc as usize]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Number of valid lines (used for occupancy reports).
    pub fn valid_lines(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid).count() as u64
    }

    /// Invalidates everything (e.g. on guest reset).
    pub fn flush(&mut self) {
        self.lines.fill(Line::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B
        Cache::new(CacheConfig {
            size: 512,
            assoc: 2,
            line: 64,
            hit_latency: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1038, false).hit, "same line different offset");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three distinct tags mapping to set 0 (line*sets = 256 stride).
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // refresh tag 0
        c.access(2 * 256, false); // evicts tag 1
        assert!(c.probe(0));
        assert!(!c.probe(256));
        assert!(c.probe(512));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(256, false);
        let out = c.access(512, false); // evicts addr 0 (LRU, dirty)
        assert_eq!(out.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(256, false);
        let out = c.access(512, false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true); // now dirty via hit
        c.access(256, false);
        let out = c.access(512, false);
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for i in 0..1000u64 {
            c.access(i * 64, false);
        }
        assert!(c.valid_lines() <= 8);
        assert_eq!(c.valid_lines(), 8);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn set_index_distributes() {
        let c = tiny();
        assert_eq!(c.set_index(0), 0);
        assert_eq!(c.set_index(64), 1);
        assert_eq!(c.set_index(3 * 64), 3);
        assert_eq!(c.set_index(4 * 64), 0);
    }
}
