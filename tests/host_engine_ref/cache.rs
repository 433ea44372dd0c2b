//! A fast set-associative host cache model (LRU).

use hostmodel::CacheGeom;

/// Set-associative cache over line addresses.
#[derive(Debug, Clone)]
pub struct HostCache {
    sets: u64,
    assoc: usize,
    line: u64,
    tags: Vec<u64>, // sets * assoc; u64::MAX = invalid
    lru: Vec<u32>,
    clock: u32,
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
    /// Panics if the geometry is inconsistent with `line`.
    pub fn new(geom: CacheGeom, line: u64) -> Self {
        assert!(
            geom.size.is_multiple_of(geom.assoc * line) && geom.size > 0,
            "bad geometry {geom:?}"
        );
        let sets = geom.size / (geom.assoc * line);
        HostCache {
            sets,
            assoc: geom.assoc as usize,
            line,
            tags: vec![u64::MAX; (sets * geom.assoc) as usize],
            lru: vec![0; (sets * geom.assoc) as usize],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.clock = self.clock.wrapping_add(1);
        let lineno = addr / self.line;
        let set = (lineno % self.sets) as usize;
        let tag = lineno / self.sets;
        let base = set * self.assoc;
        let mut victim = base;
        let mut victim_lru = u32::MAX;
        for i in base..base + self.assoc {
            if self.tags[i] == tag {
                self.lru[i] = self.clock;
                return true;
            }
            if self.lru[i] < victim_lru {
                victim_lru = self.lru[i];
                victim = i;
            }
        }
        self.misses += 1;
        self.tags[victim] = tag;
        self.lru[victim] = self.clock;
        false
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
        self.tags.iter().filter(|&&t| t != u64::MAX).count() as u64
    }

    /// Bytes of valid data.
    pub fn occupancy_bytes(&self) -> u64 {
        self.valid_lines() * self.line
    }
}
