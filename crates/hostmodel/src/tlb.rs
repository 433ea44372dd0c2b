//! Host TLBs. Entries are keyed by opaque *page identifiers* supplied by
//! the text layout (which collapses huge-page-backed code onto 2 MB page
//! ids), so page size and huge-page effects flow through naturally.

use crate::cache::Ways;

/// Result of a two-level TLB lookup. The discriminants index per-result
/// cost tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbResult {
    /// First-level hit: free.
    L1Hit = 0,
    /// Second-level hit: costs the STLB latency.
    StlbHit = 1,
    /// Full page walk.
    Walk = 2,
}

/// A 4-way set-associative TLB level with hashed indexing and LRU
/// replacement (real first-level TLBs are 4–8-way).
#[derive(Debug, Clone)]
struct TlbLevel {
    ways: Ways,
    mask: u64, // set mask
}

const TLB_WAYS: usize = 4;

impl TlbLevel {
    fn new(entries: u64) -> Self {
        let sets = (entries / TLB_WAYS as u64).next_power_of_two().max(1);
        TlbLevel {
            ways: Ways::new(sets as usize, TLB_WAYS),
            mask: sets - 1,
        }
    }

    /// Looks up `page`, whose index hash is `hash = mix64(page)`.
    #[inline(always)]
    fn access(&mut self, page: u64, hash: u64) -> bool {
        self.ways.access((hash & self.mask) as usize, page)
    }
}

/// A two-level host TLB (L1 TLB + shared STLB).
#[derive(Debug, Clone)]
pub struct HostTlb {
    l1: TlbLevel,
    stlb: Option<TlbLevel>,
    /// The previous page looked up: it is in the first level and the
    /// most recent in its set, so looking it up again changes nothing.
    /// Starts at `u64::MAX`, the empty-way tag, which a lookup of that
    /// page would hit anyway.
    last_page: u64,
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
            last_page: u64::MAX,
            lookups: 0,
            l1_misses: 0,
            walks: 0,
        }
    }

    /// Translates `page`.
    #[inline(always)]
    pub fn access(&mut self, page: u64) -> TlbResult {
        self.lookups += 1;
        if page == self.last_page {
            return TlbResult::L1Hit;
        }
        self.last_page = page;
        let hash = hosttrace::mix64(page);
        if self.l1.access(page, hash) {
            return TlbResult::L1Hit;
        }
        self.l1_misses += 1;
        if let Some(stlb) = &mut self.stlb {
            if stlb.access(page, hash) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_access_hits() {
        let mut t = HostTlb::new(64, 0);
        assert_eq!(t.access(42), TlbResult::Walk);
        assert_eq!(t.access(42), TlbResult::L1Hit);
        assert_eq!(t.lookups, 2);
        assert_eq!(t.walks, 1);
    }

    #[test]
    fn stlb_catches_l1_misses() {
        // L1 TLB holds one 4-way set here; touching 5 pages evicts the
        // LRU (page 0), which the larger STLB still holds.
        let mut t = HostTlb::new(4, 1024);
        for p in 0..5u64 {
            t.access(p);
        }
        let r = t.access(0);
        assert_eq!(r, TlbResult::StlbHit);
    }

    #[test]
    fn victim_order_survives_clock_wrap() {
        // Reference: one 4-way set with u64 stamps (never wraps).
        let mut level = TlbLevel::new(4);
        level.ways.set_clock(u32::MAX - 3_000);
        let mut pages = [u64::MAX; TLB_WAYS];
        let mut stamps = [0u64; TLB_WAYS];
        let mut g = testkit::Gen::new(11);
        for i in 1..=10_000u64 {
            let page = g.u64_in(0..6);
            let hit = match pages.iter().position(|&p| p == page) {
                Some(w) => {
                    stamps[w] = i;
                    true
                }
                None => {
                    let w = (0..TLB_WAYS).min_by_key(|&w| stamps[w]).unwrap();
                    pages[w] = page;
                    stamps[w] = i;
                    false
                }
            };
            assert_eq!(
                level.access(page, hosttrace::mix64(page)),
                hit,
                "access {i}"
            );
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut small = HostTlb::new(16, 0);
        let mut large = HostTlb::new(4096, 0);
        for round in 0..30 {
            for p in 0..512u64 {
                small.access(p);
                large.access(p);
            }
            let _ = round;
        }
        assert!(small.miss_rate() > 5.0 * large.miss_rate());
    }

    #[test]
    fn fewer_pages_fewer_misses() {
        // Same address stream, 4x larger pages => 4x fewer distinct pages.
        let mut t4k = HostTlb::new(64, 0);
        let mut t16k = HostTlb::new(64, 0);
        for round in 0..5 {
            for addr in (0..2_000_000u64).step_by(4096) {
                t4k.access(addr / 4096);
                t16k.access(addr / 16384);
            }
            let _ = round;
        }
        assert!(t16k.l1_misses < t4k.l1_misses / 2);
    }
}
