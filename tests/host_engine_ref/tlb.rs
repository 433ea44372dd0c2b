//! Host TLBs. Entries are keyed by opaque *page identifiers* supplied by
//! the text layout (which collapses huge-page-backed code onto 2 MB page
//! ids), so page size and huge-page effects flow through naturally.

/// Result of a two-level TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbResult {
    /// First-level hit: free.
    L1Hit,
    /// Second-level hit: costs the STLB latency.
    StlbHit,
    /// Full page walk.
    Walk,
}

/// A 4-way set-associative TLB level with hashed indexing and LRU
/// replacement (real first-level TLBs are 4–8-way).
#[derive(Debug, Clone)]
struct TlbLevel {
    slots: Vec<u64>, // sets x 4
    lru: Vec<u32>,
    mask: u64, // set mask
    clock: u32,
}

const TLB_WAYS: usize = 4;

impl TlbLevel {
    fn new(entries: u64) -> Self {
        let sets = (entries / TLB_WAYS as u64).next_power_of_two().max(1);
        TlbLevel {
            slots: vec![u64::MAX; (sets as usize) * TLB_WAYS],
            lru: vec![0; (sets as usize) * TLB_WAYS],
            mask: sets - 1,
            clock: 0,
        }
    }

    #[inline]
    fn access(&mut self, page: u64) -> bool {
        self.clock = self.clock.wrapping_add(1);
        let set = (hosttrace::mix64(page) & self.mask) as usize;
        let base = set * TLB_WAYS;
        let mut victim = base;
        let mut victim_lru = u32::MAX;
        for i in base..base + TLB_WAYS {
            if self.slots[i] == page {
                self.lru[i] = self.clock;
                return true;
            }
            if self.lru[i] < victim_lru {
                victim_lru = self.lru[i];
                victim = i;
            }
        }
        self.slots[victim] = page;
        self.lru[victim] = self.clock;
        false
    }
}

/// A two-level host TLB (L1 TLB + shared STLB).
#[derive(Debug, Clone)]
pub struct HostTlb {
    l1: TlbLevel,
    stlb: Option<TlbLevel>,
    /// Lookups.
    pub lookups: u64,
    /// First-level misses.
    pub l1_misses: u64,
    /// Full walks.
    pub walks: u64,
}

impl HostTlb {
    /// Builds a TLB with `l1_entries` and (if nonzero) `stlb_entries`.
    pub fn new(l1_entries: u64, stlb_entries: u64) -> Self {
        HostTlb {
            l1: TlbLevel::new(l1_entries),
            stlb: (stlb_entries > 0).then(|| TlbLevel::new(stlb_entries)),
            lookups: 0,
            l1_misses: 0,
            walks: 0,
        }
    }

    /// Translates `page`.
    #[inline]
    pub fn access(&mut self, page: u64) -> TlbResult {
        self.lookups += 1;
        if self.l1.access(page) {
            return TlbResult::L1Hit;
        }
        self.l1_misses += 1;
        if let Some(stlb) = &mut self.stlb {
            if stlb.access(page) {
                return TlbResult::StlbHit;
            }
        }
        self.walks += 1;
        TlbResult::Walk
    }

    /// First-level miss rate.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.lookups as f64
        }
    }
}
