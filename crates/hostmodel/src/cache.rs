//! A fast set-associative host cache model (LRU).

use crate::config::CacheGeom;
use std::hint::select_unpredictable;

/// Tag store of a set-associative structure with LRU replacement, shared
/// by the caches and the TLBs.
///
/// A slot's stamp is the clock value of its last touch; 0 means the slot
/// was never filled (its tag is `u64::MAX`), so empty slots are the first
/// victims. When the `u32` clock would wrap, every set's stamps are
/// renumbered to their ranks (1 = least recent), which keeps each set's
/// victim order.
#[derive(Debug, Clone)]
pub(crate) struct Ways {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    ways: usize,
    clock: u32,
}

impl Ways {
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        Ways {
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            ways,
            clock: 0,
        }
    }

    /// Looks `tag` up in `set`; returns `true` on hit. A miss replaces
    /// the least recently used way (the first one on ties).
    #[inline(always)]
    pub(crate) fn access(&mut self, set: usize, tag: u64) -> bool {
        if self.clock == u32::MAX {
            self.renumber();
        }
        self.clock += 1;
        let base = set * self.ways;
        let tags = &self.tags[base..base + self.ways];
        // Scan every way without an early exit, and pick the victim with
        // selects rather than branches: which way hits, and which is
        // oldest, is data-dependent and would mispredict.
        let mut hit = usize::MAX;
        for (w, &t) in tags.iter().enumerate() {
            hit = select_unpredictable(t == tag, w, hit);
        }
        if hit != usize::MAX {
            self.stamps[base + hit] = self.clock;
            return true;
        }
        let stamps = &self.stamps[base..base + self.ways];
        let (mut lru, mut oldest) = (0, stamps[0]);
        for (w, &s) in stamps.iter().enumerate().skip(1) {
            lru = select_unpredictable(s < oldest, w, lru);
            oldest = oldest.min(s);
        }
        let victim = base + lru;
        self.tags[victim] = tag;
        self.stamps[victim] = self.clock;
        false
    }

    /// Number of filled slots.
    pub(crate) fn valid(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != u64::MAX).count() as u64
    }

    #[cold]
    fn renumber(&mut self) {
        let mut order: Vec<usize> = Vec::with_capacity(self.ways);
        let mut top = 0;
        for set in self.stamps.chunks_mut(self.ways) {
            order.clear();
            order.extend((0..set.len()).filter(|&w| set[w] != 0));
            order.sort_unstable_by_key(|&w| set[w]);
            for (rank, &w) in order.iter().enumerate() {
                set[w] = rank as u32 + 1;
            }
            top = top.max(order.len() as u32);
        }
        self.clock = top;
    }

    /// Test hook: restarts the clock at `clock` (stamps must not exceed it).
    #[cfg(test)]
    pub(crate) fn set_clock(&mut self, clock: u32) {
        self.clock = clock;
    }
}

/// Set-associative cache over line addresses.
///
/// Line, set and tag indexing use shifts and masks when the set count is
/// a power of two, and `/` and `%` otherwise (e.g. an 11-way LLC slice).
#[derive(Debug, Clone)]
pub struct HostCache {
    line_shift: u32,
    sets: u64,
    /// `log2(sets)` when `sets` is a power of two, else `None`.
    set_shift: Option<u32>,
    ways: Ways,
    /// Line number of the previous access: that line is resident and the
    /// most recent in its set, so touching it again changes nothing.
    /// `u64::MAX` before the first access: lines hold at least 2 bytes,
    /// so no line number reaches it.
    last_line: u64,
    /// Accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl HostCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent with `line`, or if `line`
    /// is not a power of two of at least 2 bytes.
    pub fn new(geom: CacheGeom, line: u64) -> Self {
        assert!(
            geom.size.is_multiple_of(geom.assoc * line) && geom.size > 0,
            "bad geometry {geom:?}"
        );
        assert!(
            line.is_power_of_two() && line >= 2,
            "line {line} is not a power of two >= 2"
        );
        let sets = geom.size / (geom.assoc * line);
        HostCache {
            line_shift: line.trailing_zeros(),
            sets,
            set_shift: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            ways: Ways::new(sets as usize, geom.assoc as usize),
            last_line: u64::MAX,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let lineno = addr >> self.line_shift;
        if lineno == self.last_line {
            return true;
        }
        self.last_line = lineno;
        let (set, tag) = match self.set_shift {
            Some(shift) => (lineno & (self.sets - 1), lineno >> shift),
            None => (lineno % self.sets, lineno / self.sets),
        };
        let hit = self.ways.access(set as usize, tag);
        self.misses += !hit as u64;
        hit
    }

    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Number of valid lines (LLC occupancy reporting).
    pub fn valid_lines(&self) -> u64 {
        self.ways.valid()
    }

    /// Bytes of valid data.
    pub fn occupancy_bytes(&self) -> u64 {
        self.valid_lines() << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HostCache {
        HostCache::new(
            CacheGeom {
                size: 512,
                assoc: 2,
            },
            64,
        ) // 4 sets
    }

    #[test]
    fn hit_after_miss() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103F), "same line");
        assert!(!c.access(0x1040), "next line");
    }

    #[test]
    fn lru_within_set() {
        let mut c = tiny();
        c.access(0); // set 0, tag 0
        c.access(256); // set 0, tag 1
        c.access(0); // refresh
        c.access(512); // evicts tag 1
        assert!(c.access(0));
        assert!(!c.access(256));
    }

    #[test]
    fn capacity_bounded() {
        let mut c = tiny();
        for i in 0..100 {
            c.access(i * 64);
        }
        assert_eq!(c.valid_lines(), 8);
        assert_eq!(c.occupancy_bytes(), 512);
    }

    /// Set-associative LRU with `u64` stamps: the clock never wraps.
    struct WideLru {
        sets: u64,
        ways: usize,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
    }

    impl WideLru {
        fn new(sets: u64, ways: usize) -> Self {
            let n = sets as usize * ways;
            WideLru {
                sets,
                ways,
                tags: vec![u64::MAX; n],
                stamps: vec![0; n],
                clock: 0,
            }
        }

        fn access(&mut self, lineno: u64) -> bool {
            self.clock += 1;
            let base = (lineno % self.sets) as usize * self.ways;
            let tag = lineno / self.sets;
            let set = base..base + self.ways;
            if let Some(i) = set.clone().find(|&i| self.tags[i] == tag) {
                self.stamps[i] = self.clock;
                return true;
            }
            let victim = set.min_by_key(|&i| self.stamps[i]).unwrap();
            self.tags[victim] = tag;
            self.stamps[victim] = self.clock;
            false
        }
    }

    fn victim_order_survives_clock_wrap(geom: CacheGeom, sets: u64) {
        let ways = geom.assoc as usize;
        let mut c = HostCache::new(geom, 64);
        c.ways.set_clock(u32::MAX - 5_000);
        let mut wide = WideLru::new(sets, ways);
        let mut g = testkit::Gen::new(7);
        for i in 0..20_000u64 {
            // A working set a little larger than the cache: plenty of
            // hits and evictions on both sides of the wrap.
            let lineno = g.u64_in(0..sets * (ways as u64 + 2));
            assert_eq!(c.access(lineno * 64), wide.access(lineno), "access {i}");
        }
        assert!(c.ways.clock < 20_000, "clock renumbered, not wrapped");
    }

    #[test]
    fn victim_order_survives_clock_wrap_pow2_sets() {
        victim_order_survives_clock_wrap(
            CacheGeom {
                size: 4096,
                assoc: 4,
            },
            16,
        );
    }

    #[test]
    fn victim_order_survives_clock_wrap_general_sets() {
        victim_order_survives_clock_wrap(
            CacheGeom {
                size: 64 * 33,
                assoc: 11,
            },
            3,
        );
    }

    #[test]
    fn renumbering_keeps_invalid_slots_at_zero() {
        let mut c = tiny();
        c.ways.set_clock(u32::MAX);
        c.access(0); // renumbers (nothing valid yet), then stamps 1
        assert_eq!(c.ways.clock, 1);
        assert_eq!(c.ways.stamps.iter().filter(|&&s| s == 0).count(), 7);
        // The empty way is still the victim: the first line survives.
        c.access(256);
        assert!(c.access(0));
    }

    #[test]
    fn non_power_of_two_sets_index_by_division() {
        let mut c = HostCache::new(
            CacheGeom {
                size: 64 * 3,
                assoc: 1,
            },
            64,
        );
        assert!(!c.access(0));
        assert!(!c.access(3 * 64), "line 3 maps to set 0 and evicts line 0");
        assert!(!c.access(0));
        assert!(!c.access(64));
        assert!(c.access(64));
        assert_eq!(c.valid_lines(), 2);
    }

    #[test]
    fn miss_rate_reported() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        assert!((c.miss_rate() - 0.5).abs() < 1e-9);
    }
}
