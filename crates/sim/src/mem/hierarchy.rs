//! The composed memory hierarchy: per-CPU L1I/L1D → shared L2 → DRAM.
//!
//! Timing is computed synchronously: an access walks down the hierarchy,
//! updating cache state and occupancy, and returns its total latency in
//! ticks; event-driven CPU models schedule their completion events at
//! `now + latency`. Every step reports itself to the
//! [`ExecutionObserver`](crate::observe::ExecutionObserver), because in
//! gem5 each of these steps is a (virtual) function call — the very calls
//! whose host-side cost the paper measures.

use crate::config::SystemConfig;
use crate::mem::cache::{Cache, CacheStats};
use crate::mem::dram::Dram;
use crate::observe::{CompClass, Obs};
use gem5sim_event::{Frequency, Tick};

/// What kind of access is being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (L1I path).
    InstFetch,
    /// Data read (L1D path).
    DataRead,
    /// Data write (L1D path, write-allocate).
    DataWrite,
}

/// The memory system below the CPUs.
#[derive(Debug)]
pub struct MemSystem {
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Cache,
    dram: Dram,
    clock: Frequency,
    l2_busy_until: Tick,
}

// Approximate host work (abstract units ≈ µops) of each handler body;
// these mirror the relative sizes of the corresponding gem5 functions.
const W_ACCESS: u16 = 30;
const W_MISS: u16 = 45;
const W_FILL: u16 = 25;
const W_WB: u16 = 20;
const W_XBAR: u16 = 18;
const W_DRAM: u16 = 60;

impl MemSystem {
    /// Builds the hierarchy for `cfg.num_cpus` CPUs.
    pub fn new(cfg: &SystemConfig) -> Self {
        MemSystem {
            l1i: (0..cfg.num_cpus).map(|_| Cache::new(cfg.l1i)).collect(),
            l1d: (0..cfg.num_cpus).map(|_| Cache::new(cfg.l1d)).collect(),
            l2: Cache::new(cfg.l2),
            dram: Dram::new(cfg.dram_latency_ns, cfg.dram_bw_bytes_per_sec, cfg.l2.line),
            clock: cfg.clock,
            l2_busy_until: 0,
        }
    }

    fn cyc(&self, cycles: u64) -> Tick {
        self.clock.cycles_to_ticks(cycles)
    }

    /// Performs an access for CPU `cpu`, returning the total latency in
    /// ticks. Updates cache state, occupancy and statistics, and emits
    /// observer reports for every handler on the path.
    pub fn access(
        &mut self,
        cpu: usize,
        kind: AccessKind,
        addr: u64,
        now: Tick,
        obs: &Obs,
    ) -> Tick {
        self.access_inner(cpu, kind, addr, now, obs, false)
    }

    /// Atomic-mode access: updates cache/TLB state and statistics (cache
    /// warming works, as in gem5's atomic mode) but models no contention —
    /// occupancy trackers are left untouched.
    pub fn access_atomic(
        &mut self,
        cpu: usize,
        kind: AccessKind,
        addr: u64,
        now: Tick,
        obs: &Obs,
    ) -> Tick {
        self.access_inner(cpu, kind, addr, now, obs, true)
    }

    fn access_inner(
        &mut self,
        cpu: usize,
        kind: AccessKind,
        addr: u64,
        now: Tick,
        obs: &Obs,
        atomic: bool,
    ) -> Tick {
        let (comp, write) = match kind {
            AccessKind::InstFetch => (CompClass::Icache, false),
            AccessKind::DataRead => (CompClass::Dcache, false),
            AccessKind::DataWrite => (CompClass::Dcache, true),
        };
        obs.call(
            comp,
            if atomic { "recvAtomicAccess" } else { "access" },
            cpu as u16,
            W_ACCESS,
        );
        let (hit, l1_wb, set, tag_bytes, l1_hit_cycles) = {
            let l1 = match kind {
                AccessKind::InstFetch => &mut self.l1i[cpu],
                _ => &mut self.l1d[cpu],
            };
            // Tag-array touch: the host reads this cache's tag storage.
            let set = l1.set_index(addr);
            let tag_bytes = (l1.config().assoc * 8) as u16;
            obs.data(
                comp,
                cpu as u16,
                (set * l1.config().assoc * 8) as u32,
                tag_bytes,
                false,
            );
            let out = l1.access(addr, write);
            (
                out.hit,
                out.writeback,
                set,
                tag_bytes,
                l1.config().hit_latency,
            )
        };
        let mut lat = self.cyc(l1_hit_cycles);
        if hit {
            return lat;
        }

        // L1 miss: MSHR allocation, crossbar, L2 lookup. The atomic mode
        // walks a much smaller fast path than the timing machinery.
        if atomic {
            obs.call(comp, "recvAtomicMiss", cpu as u16, W_MISS - 15);
            obs.call(CompClass::Xbar, "recvAtomicXbar", 0, W_XBAR - 8);
            obs.call(CompClass::L2, "recvAtomicAccess", 0, W_ACCESS);
        } else {
            obs.call(comp, "handleMiss", cpu as u16, W_MISS);
            obs.call(CompClass::Xbar, "recvTimingReq", 0, W_XBAR);
            obs.call(CompClass::L2, "access", 0, W_ACCESS);
        }
        let l2set = self.l2.set_index(addr);
        let l2_tag_bytes = (self.l2.config().assoc * 8) as u16;
        obs.data(
            CompClass::L2,
            0,
            (l2set * self.l2.config().assoc * 8) as u32,
            l2_tag_bytes,
            false,
        );

        // L2 port occupancy (contention between CPUs; skipped in atomic
        // mode). The port is busy for the full line transfer — 16 bytes
        // per cycle — so co-running harts that miss their L1s queue
        // behind each other, while a single blocking hart (whose L2
        // accesses are at least a hit latency apart) never waits.
        if atomic {
            lat += self.cyc(self.l2.config().hit_latency);
        } else {
            let transfer = self.l2.config().line.div_ceil(16);
            let start = (now + lat).max(self.l2_busy_until);
            let queue = start - (now + lat);
            self.l2_busy_until = start + self.cyc(transfer);
            lat += queue + self.cyc(self.l2.config().hit_latency);
        }

        let l2_out = self.l2.access(addr, false);
        if !l2_out.hit {
            obs.call(
                CompClass::L2,
                if atomic {
                    "recvAtomicMiss"
                } else {
                    "handleMiss"
                },
                0,
                W_MISS,
            );
            obs.call(
                CompClass::Dram,
                if atomic {
                    "recvAtomicDram"
                } else {
                    "recvTimingReq"
                },
                0,
                W_DRAM,
            );
            lat += if atomic {
                self.dram.access_atomic()
            } else {
                self.dram.access(now + lat)
            };
            obs.call(CompClass::L2, "fill", 0, W_FILL);
            if let Some(wb) = l2_out.writeback {
                // L2 victim writeback to DRAM (off the critical path).
                obs.call(CompClass::Dram, "writeback", 0, W_WB);
                let _ = wb;
                if !atomic {
                    let _ = self.dram.access(now + lat);
                }
            }
        }
        obs.call(
            comp,
            if atomic { "recvAtomicFill" } else { "fill" },
            cpu as u16,
            W_FILL,
        );
        obs.data(
            comp,
            cpu as u16,
            (set as u32) * tag_bytes as u32,
            tag_bytes,
            true,
        );

        if let Some(wb) = l1_wb {
            // L1 dirty victim written back into L2 (off the critical path).
            obs.call(comp, "writeback", cpu as u16, W_WB);
            obs.call(CompClass::L2, "recvWriteback", 0, W_WB);
            let _ = self.l2.access(wb, true);
        }
        lat
    }

    /// Latency of an L1 hit for `kind`, in ticks (used by CPU models for
    /// scheduling decisions).
    pub fn l1_hit_latency(&self, kind: AccessKind) -> Tick {
        let cycles = match kind {
            AccessKind::InstFetch => self.l1i[0].config().hit_latency,
            _ => self.l1d[0].config().hit_latency,
        };
        self.cyc(cycles)
    }

    /// Aggregated L1I stats across CPUs.
    pub fn l1i_stats(&self) -> CacheStats {
        sum_stats(self.l1i.iter().map(|c| c.stats()))
    }

    /// Aggregated L1D stats across CPUs.
    pub fn l1d_stats(&self) -> CacheStats {
        sum_stats(self.l1d.iter().map(|c| c.stats()))
    }

    /// L2 stats.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// DRAM demand accesses.
    pub fn dram_accesses(&self) -> u64 {
        self.dram.accesses
    }
}

fn sum_stats(iter: impl Iterator<Item = CacheStats>) -> CacheStats {
    iter.fold(CacheStats::default(), |a, s| CacheStats {
        accesses: a.accesses + s.accesses,
        misses: a.misses + s.misses,
        writebacks: a.writebacks + s.writebacks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CpuModel, SimMode, SystemConfig};

    fn small_system() -> MemSystem {
        let mut cfg = SystemConfig::new(CpuModel::Timing, SimMode::Se);
        cfg.l1i.size = 512;
        cfg.l1i.assoc = 2;
        cfg.l1d = cfg.l1i;
        cfg.l2.size = 4096;
        cfg.l2.assoc = 4;
        MemSystem::new(&cfg)
    }

    #[test]
    fn cold_miss_costs_more_than_hit() {
        let mut m = small_system();
        let obs = Obs::none();
        let miss = m.access(0, AccessKind::DataRead, 0x2000, 0, &obs);
        let hit = m.access(0, AccessKind::DataRead, 0x2000, miss, &obs);
        assert!(miss > hit, "miss {miss} must exceed hit {hit}");
        assert_eq!(m.l1d_stats().misses, 1);
        assert_eq!(m.l1d_stats().accesses, 2);
    }

    #[test]
    fn l2_hit_cheaper_than_dram() {
        let mut m = small_system();
        let obs = Obs::none();
        let dram_lat = m.access(0, AccessKind::DataRead, 0x4000, 0, &obs);
        // Evict from tiny L1 by touching conflicting lines, but keep in L2.
        for i in 1..=2u64 {
            m.access(0, AccessKind::DataRead, 0x4000 + i * 512, 0, &obs);
        }
        let l2_lat = m.access(0, AccessKind::DataRead, 0x4000, 0, &obs);
        assert!(l2_lat < dram_lat, "l2 {l2_lat} vs dram {dram_lat}");
        assert!(l2_lat > m.l1_hit_latency(AccessKind::DataRead));
    }

    #[test]
    fn inst_and_data_paths_are_separate() {
        let mut m = small_system();
        let obs = Obs::none();
        m.access(0, AccessKind::InstFetch, 0x8000, 0, &obs);
        assert_eq!(m.l1i_stats().accesses, 1);
        assert_eq!(m.l1d_stats().accesses, 0);
    }

    #[test]
    fn observer_sees_the_path() {
        use crate::observe::CountingObserver;
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut m = small_system();
        let ctr = Rc::new(RefCell::new(CountingObserver::default()));
        let obs = Obs::new(ctr.clone());
        m.access(0, AccessKind::DataRead, 0x2000, 0, &obs); // full miss path
        m.access(0, AccessKind::DataRead, 0x2000, 0, &obs); // hit path
        let c = ctr.borrow();
        assert!(c.calls >= 7, "miss path + hit path calls, got {}", c.calls);
        assert!(c.methods.contains(&(CompClass::Dram, "recvTimingReq")));
        assert!(c.methods.contains(&(CompClass::Dcache, "access")));
    }

    #[test]
    fn dram_accesses_counted() {
        let mut m = small_system();
        let obs = Obs::none();
        for i in 0..64u64 {
            m.access(0, AccessKind::DataRead, i * 4096, 0, &obs);
        }
        assert!(m.dram_accesses() >= 64);
    }
}
