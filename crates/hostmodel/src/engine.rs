//! The host execution engine: consumes the host instruction stream and
//! performs Top-Down cycle accounting.
//!
//! Everything that depends only on the configuration — index shifts,
//! the text segment's huge-page range, per-level and per-outcome stall
//! costs — is worked out once in [`HostEngine::new`]; the per-record
//! path indexes, looks up costs and adds. Results must stay bit-identical
//! to `tests/host_engine_ref`: every `f64` is added in the same order with
//! the same operands, and an unconditional addition whose guard is false
//! adds `+0.0` to a sum that is never `-0.0` (see DESIGN.md).

use crate::branch::HostBranchPredictor;
use crate::cache::HostCache;
use crate::config::HostConfig;
use crate::dsb::{Dsb, WINDOW};
use crate::stats::HostRunStats;
use crate::tlb::HostTlb;
use crate::topdown::{BeMem, TopDown};
use hosttrace::layout::{PageBacking, HUGE_PAGE};
use hosttrace::record::{DataRef, ExecRecord, TraceSink};
use hosttrace::registry::Registry;
use hosttrace::{mix2, mix64};
use std::sync::Arc;

/// Host virtual address of the simulated process's stack (function-local
/// data in [`ExecRecord`]s lands here — hot and small).
const STACK_BASE: u64 = 0x7FFF_F000_0000;

/// Host virtual address of the allocator arena holding SimObject state
/// reached through member pointers (distinct from the instrumented
/// state regions reported via [`DataRef`]s).
const HEAP_BASE: u64 = 0x20_0000_0000;

/// Miss-fill levels: index of the Top-Down back-end bucket that pays.
const L2: usize = 0;
const LLC: usize = 1;
const DRAM: usize = 2;

/// Per-configuration constants, derived once from the [`HostConfig`].
#[derive(Debug)]
struct Derived {
    line_shift: u32,
    page_shift: u32,
    /// Text addresses in `huge_lo..huge_hi` translate through 2 MB pages
    /// (empty for base-page backing).
    huge_lo: u64,
    huge_hi: u64,
    width: f64,
    dsb_width: f64,
    /// Fill latency per level, as `f64`.
    lat: [f64; 3],
    /// Local-load stall per fill level: `lat / mlp`.
    load_cost: [f64; 3],
    /// Local-store stall per fill level: `lat * 0.15 / mlp`.
    store_cost: [f64; 3],
    /// iTLB stall per [`TlbResult`](crate::tlb::TlbResult).
    itlb_cost: [f64; 3],
    /// dTLB stall of a function-local heap load, per `TlbResult`.
    local_dtlb_cost: [f64; 3],
    /// dTLB stall of a data reference, by `[prefetched][TlbResult]`.
    data_dtlb_cost: [[f64; 3]; 2],
    /// Data-reference fill stall, by `[write][prefetched][level]`.
    data_cost: [[[f64; 3]; 2]; 2],
    mispredict_bad_spec: f64,
    mispredict_resteer: f64,
    cond_unknown: f64,
    resteer: f64,
    penalty: f64,
}

impl Derived {
    fn new(cfg: &HostConfig, reg: &Registry) -> Self {
        let layout = reg.layout();
        let text_end = layout.base + layout.size;
        let huge_hi = match layout.backing {
            PageBacking::Base => layout.base,
            PageBacking::Ehp => text_end,
            PageBacking::Thp { coverage_pct } => {
                text_end.min(layout.base + layout.size * coverage_pct as u64 / 100)
            }
        };
        let lat = [cfg.l2_lat as f64, cfg.llc_lat as f64, cfg.dram_lat as f64];
        let (stlb, walk) = (cfg.stlb_lat as f64, cfg.walk_lat as f64);
        let stream_factor = |prefetched: usize| {
            if prefetched == 1 {
                cfg.prefetch_factor
            } else {
                1.0
            }
        };
        let penalty = cfg.mispredict_penalty as f64;
        let resteer = cfg.resteer_cycles as f64;
        Derived {
            line_shift: cfg.line.trailing_zeros(),
            page_shift: cfg.page.trailing_zeros(),
            huge_lo: layout.base,
            huge_hi,
            width: cfg.width as f64,
            dsb_width: cfg.dsb_width.max(1.0),
            lat,
            load_cost: lat.map(|l| l / cfg.mlp),
            store_cost: lat.map(|l| l * 0.15 / cfg.mlp),
            itlb_cost: [0.0, stlb, walk],
            local_dtlb_cost: [0.0, stlb / cfg.mlp, walk / cfg.mlp],
            data_dtlb_cost: [0, 1].map(|pf| {
                let walk_factor = stream_factor(pf) / cfg.mlp;
                [0.0, stlb * walk_factor, walk * walk_factor]
            }),
            data_cost: [1.0, 0.15].map(|factor| {
                [0, 1].map(|pf| lat.map(|l| l * factor * stream_factor(pf) / cfg.mlp))
            }),
            mispredict_bad_spec: penalty * 0.55,
            mispredict_resteer: penalty * 0.45,
            cond_unknown: resteer * 0.6,
            resteer,
            penalty,
        }
    }

    /// The iTLB page id of text address `addr` (the registry layout's
    /// `page_id`, with the huge-page range precomputed).
    #[inline]
    fn page_id(&self, addr: u64) -> u64 {
        if addr >= self.huge_lo && addr < self.huge_hi {
            (addr / HUGE_PAGE) | (1 << 62)
        } else {
            addr >> self.page_shift
        }
    }
}

/// The engine. Implements [`TraceSink`]; feed it a stream, then call
/// [`finish`](HostEngine::finish).
#[derive(Debug)]
pub struct HostEngine {
    cfg: HostConfig,
    reg: Arc<Registry>,
    k: Derived,
    l1i: HostCache,
    l1d: HostCache,
    l2: HostCache,
    llc: HostCache,
    itlb: HostTlb,
    dtlb: HostTlb,
    bp: HostBranchPredictor,
    dsb: Dsb,
    td: TopDown,
    /// Back-end memory stalls by fill level (`td.be_mem` at finish).
    be_mem: [f64; 3],
    uops: u64,
    dram_bytes: u64,
    records: u64,
    last_data_line: u64,
}

impl HostEngine {
    /// Builds an engine for `cfg` over the binary model `reg`.
    pub fn new(cfg: HostConfig, reg: Arc<Registry>) -> Self {
        cfg.validate();
        HostEngine {
            l1i: HostCache::new(cfg.l1i, cfg.line),
            l1d: HostCache::new(cfg.l1d, cfg.line),
            l2: HostCache::new(cfg.l2, cfg.line),
            llc: HostCache::new(cfg.llc, cfg.line),
            itlb: HostTlb::new(cfg.itlb_entries, cfg.stlb_entries),
            dtlb: HostTlb::new(cfg.dtlb_entries, cfg.stlb_entries),
            bp: HostBranchPredictor::new(cfg.bp_bits, cfg.btb_entries),
            dsb: Dsb::new(cfg.dsb_uops),
            td: TopDown::default(),
            be_mem: [0.0; 3],
            uops: 0,
            dram_bytes: 0,
            records: 0,
            last_data_line: u64::MAX - 8,
            k: Derived::new(&cfg, &reg),
            cfg,
            reg,
        }
    }

    /// The configuration this engine models.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// Fills a line missing in L1 through L2 → LLC → DRAM; returns the
    /// level that supplied it.
    #[inline]
    fn fill(&mut self, line: u64) -> usize {
        if self.l2.access(line) {
            L2
        } else if self.llc.access(line) {
            LLC
        } else {
            self.dram_bytes += self.cfg.line;
            DRAM
        }
    }

    /// Consumes the engine and produces final statistics.
    pub fn finish(self) -> HostRunStats {
        let insts = self.uops as f64 / self.cfg.uops_per_inst;
        let [l2, llc, dram] = self.be_mem;
        let topdown = TopDown {
            be_mem: BeMem { l2, llc, dram },
            ..self.td
        };
        HostRunStats {
            name: self.cfg.name.clone(),
            cycles: topdown.total_cycles(),
            uops: self.uops,
            instructions: insts,
            freq_ghz: self.cfg.freq_ghz,
            topdown,
            l1i_accesses: self.l1i.accesses,
            l1i_miss_rate: self.l1i.miss_rate(),
            l1d_accesses: self.l1d.accesses,
            l1d_miss_rate: self.l1d.miss_rate(),
            itlb_miss_rate: self.itlb.miss_rate(),
            dtlb_miss_rate: self.dtlb.miss_rate(),
            branch_lookups: self.bp.cond_lookups,
            branch_mispredict_rate: self.bp.mispredict_rate(),
            unknown_branches: self.bp.unknown_branches,
            dsb_coverage: self.dsb.coverage(),
            llc_occupancy_bytes: self.llc.occupancy_bytes(),
            dram_bytes: self.dram_bytes,
            records: self.records,
        }
    }
}

impl TraceSink for HostEngine {
    fn exec(&mut self, r: ExecRecord) {
        self.records += 1;
        let meta = self.reg.meta(r.func);
        let (addr, size, taken_rate) = (meta.addr, meta.size as u64, meta.taken_rate);
        let uops = r.uops as u64;
        let uopsf = uops as f64;
        self.uops += uops;
        let base = uopsf / self.k.width;
        self.td.retiring += base;

        // --- Instruction fetch: line touches over the executed span.
        //     Successive invocations take different paths through the
        //     function body, so the span start rotates within it. ---
        let bytes = ((uopsf * self.cfg.bytes_per_uop) as u64).max(16);
        let span = bytes.min(size + 16); // longer executions loop in place
        let off = ((r.variant as u64) * 96) % (size.saturating_sub(span) + 1);
        // Branch sites are static program points: the executed path picks
        // among a per-function set of 256 B regions, so sites recur and
        // predictors can learn them.
        let site_base = addr + (off & !255);
        let start = addr + off;
        let end = start + span;
        let line_mask = !(self.cfg.line - 1);
        let mut line = start & line_mask;
        let mut fetch_pen = 0.0;
        while line < end {
            if !self.l1i.access(line) {
                fetch_pen += self.k.lat[self.fill(line)];
            }
            line += self.cfg.line;
        }
        self.td.fe_latency.icache += fetch_pen / self.cfg.fetch_mlp;

        // --- iTLB over the touched pages (huge-page aware). ---
        let page = self.cfg.page;
        let mut paddr = start & !(page - 1);
        let mut itlb_pen = 0.0;
        let mut last_pid = u64::MAX;
        while paddr < end {
            let pid = self.k.page_id(paddr);
            if pid != last_pid {
                last_pid = pid;
                itlb_pen += self.k.itlb_cost[self.itlb.access(pid) as usize];
            }
            paddr += page;
        }
        // Page walks serialize instruction delivery far more than line
        // fills do; only adjacent-fetch overlap (x2) hides them.
        self.td.fe_latency.itlb += itlb_pen / 2.0;

        // --- Decode: DSB vs MITE. The record's µops are apportioned to
        //     the two supply paths by the fraction of its fetch windows
        //     resident in the µop cache. ---
        let wstart = start & !(WINDOW - 1);
        let n_windows = (end - wstart).div_ceil(WINDOW);
        // Both fit in u32 (µops are u16), where division is cheaper.
        let uops_per_window = (r.uops as u32 / n_windows as u32).max(1) as u64;
        let hits = self.dsb.fetch_windows(wstart, n_windows, uops_per_window);
        let dsb_frac = if self.dsb.present() {
            hits as f64 / n_windows as f64
        } else {
            0.0
        };
        let mite_uops_f = uopsf * (1.0 - dsb_frac);
        let mite_cycles = mite_uops_f / self.cfg.mite_width;
        let decode_cycles = mite_cycles + (uopsf - mite_uops_f) / self.k.dsb_width;
        // Attribute any shortfall to the slow component first: the legacy
        // decoders. The DSB only appears when it is itself the limiter
        // (Intel's accounting does the same, which is why the paper sees
        // 92-97% MITE). Without a shortfall both additions are +0.0.
        let deficit = (decode_cycles - base).max(0.0);
        let mite_excess = (mite_cycles - mite_uops_f / self.k.width).max(0.0);
        let to_mite = deficit.min(mite_excess);
        self.td.fe_bandwidth.mite += to_mite;
        self.td.fe_bandwidth.dsb += deficit - to_mite;

        // --- Conditional branches. Site j sits at `16 + (24 j) mod m`,
        //     an offset that advances by 24 and wraps. Well-biased
        //     sites behave like loop back-edges (periodic exits), low-bias
        //     sites are data-dependent. Loop-termination predictors
        //     (TAGE-style long history) capture periodic exits up to the
        //     machine's reach. ---
        let n_cond = r.cond_branches as u64;
        let m = size.max(24);
        let mut site_off = 0;
        let k0 = r.variant as u64 * n_cond;
        for k in k0..k0 + n_cond {
            let site = site_base + 16 + site_off;
            site_off += 24;
            if site_off >= m {
                site_off -= m;
            }
            let h = mix64(site);
            let (outcome, loop_covered) = if taken_rate >= 86 {
                let period = 64 + (taken_rate as u64 - 85) * 40 + (h % 64);
                (
                    !(k + site).is_multiple_of(period),
                    period <= self.cfg.loop_reach,
                )
            } else {
                ((mix2(site, k) % 100) < taken_rate as u64, false)
            };
            let (mis, unknown) = self.bp.cond_branch_hashed(site, h, outcome, loop_covered);
            // Wrong-path work is bad speculation; the fetch redirect is a
            // front-end resteer. A misprediction is never also unknown.
            let mis_cost = |c: f64| if mis { c } else { 0.0 };
            self.td.bad_speculation += mis_cost(self.k.mispredict_bad_spec);
            self.td.fe_latency.mispredict_resteers += mis_cost(self.k.mispredict_resteer);
            self.td.fe_latency.unknown_branches += if unknown { self.k.cond_unknown } else { 0.0 };
        }

        // --- Indirect branches (virtual dispatch). ---
        for j in 0..r.indirect_branches as u64 {
            let site = site_base + 8 + j * 40;
            // Site polymorphism: most virtual call sites are monomorphic
            // in practice; a minority see several receiver types.
            let h = mix64(site ^ 0xD15EA5E);
            let receiver = if h.is_multiple_of(8) {
                r.variant as u64 % (2 + mix64(h) % 4)
            } else {
                0
            };
            let unknown = self.bp.indirect_branch(site, mix2(site, receiver));
            self.td.fe_latency.unknown_branches += if unknown { self.k.resteer } else { 0.0 };
        }

        // --- Machine clears (memory-order nukes etc.) are rare and tied
        //     to store traffic. ---
        let penalty = self.k.penalty;
        self.td.fe_latency.clear_resteers += r.stores as f64 * 0.004 * penalty * 0.3;
        self.td.bad_speculation += r.stores as f64 * 0.004 * penalty * 0.7;

        // --- Function-local data: mostly stack (hot, tiny), with every
        //     fourth load reaching the heap — SimObject fields scattered
        //     by the allocator over ~1.5 MB of pages. The heap lines are
        //     hot (revisited each invocation) but the *pages* are many:
        //     this is what pressures the dTLB without pressuring DRAM, as
        //     the paper observes. ---
        let fid = r.func.0 as u64;
        let stack = fid.wrapping_mul(968);
        for j in 0..r.loads as u64 {
            let a = if j % 4 == 3 {
                let a = HEAP_BASE + (mix2(fid, j) % (1_500_000 / 64)) * 64;
                let tlb = self.dtlb.access(a >> self.k.page_shift);
                self.be_mem[L2] += self.k.local_dtlb_cost[tlb as usize];
                a
            } else {
                STACK_BASE + (stack + j * 64) % 10240
            };
            if !self.l1d.access(a) {
                let lvl = self.fill(a & line_mask);
                self.be_mem[lvl] += self.k.load_cost[lvl];
            }
        }
        for j in 0..r.stores as u64 {
            let a = STACK_BASE + (stack + 5120 + j * 64) % 10240;
            if !self.l1d.access(a) {
                // Stores drain through the store buffer: mostly hidden.
                let lvl = self.fill(a & line_mask);
                self.be_mem[lvl] += self.k.store_cost[lvl];
            }
        }

        // --- Residual core stalls: long dependency chains, division. ---
        self.td.be_core += uopsf * 0.012;
    }

    fn data(&mut self, d: DataRef) {
        // Hardware stride prefetchers hide most of the cost of
        // forward-sequential streams (and page walks amortize over them):
        // the paper's Sec. IV-A notes gem5's "predictable data cache
        // accesses ... efficiently captured by the hardware prefetchers".
        let line_shift = self.k.line_shift;
        let this_line = d.addr >> line_shift;
        let delta = this_line.wrapping_sub(self.last_data_line);
        let prefetched = (delta <= 4) as usize; // same line and small forward strides
        self.last_data_line = this_line;

        let tlb = self.dtlb.access(d.addr >> self.k.page_shift);
        self.be_mem[L2] += self.k.data_dtlb_cost[prefetched][tlb as usize];

        // Lines from the one holding `addr` through the one holding the
        // last byte (a reference running off the top of the address
        // space stops there).
        let first = this_line << line_shift;
        let end = d.addr.saturating_add(d.bytes as u64);
        let n_lines = if end > first {
            ((end - 1 - first) >> line_shift) + 1
        } else {
            0
        };
        let cost = self.k.data_cost[d.write as usize][prefetched];
        for i in 0..n_lines {
            let line = first + (i << line_shift);
            if !self.l1d.access(line) {
                let lvl = self.fill(line);
                self.be_mem[lvl] += cost[lvl];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeom;
    use hosttrace::layout::PageBacking;
    use hosttrace::registry::{BinaryVariant, FunctionId};

    fn cfg() -> HostConfig {
        HostConfig {
            name: "test".into(),
            width: 4,
            mite_width: 2.6,
            dsb_width: 6.0,
            dsb_uops: 1536,
            freq_ghz: 3.0,
            line: 64,
            page: 4096,
            l1i: CacheGeom::kib(32, 8),
            l1d: CacheGeom::kib(32, 8),
            l2: CacheGeom::mib(1, 16),
            llc: CacheGeom::mib(8, 16),
            l2_lat: 14,
            llc_lat: 44,
            dram_lat: 280,
            itlb_entries: 128,
            dtlb_entries: 64,
            stlb_entries: 1536,
            stlb_lat: 8,
            walk_lat: 35,
            bp_bits: 13,
            btb_entries: 4096,
            mispredict_penalty: 17,
            resteer_cycles: 9,
            loop_reach: 48,
            bytes_per_uop: 3.6,
            uops_per_inst: 1.1,
            mlp: 3.0,
            fetch_mlp: 2.0,
            prefetch_factor: 0.08,
        }
    }

    fn registry() -> Arc<Registry> {
        Arc::new(Registry::new(BinaryVariant::Base, PageBacking::Base))
    }

    fn rec(func: u32, uops: u16, variant: u32) -> ExecRecord {
        ExecRecord {
            func: FunctionId(func),
            uops,
            cond_branches: 3,
            indirect_branches: 1,
            loads: 4,
            stores: 2,
            variant,
        }
    }

    #[test]
    fn accounting_is_conserved() {
        let mut e = HostEngine::new(cfg(), registry());
        for i in 0..5000u32 {
            e.exec(rec(i % 4000, 20, i / 4000));
            e.data(DataRef {
                addr: 0x10_0000_0000 + (i as u64 * 192) % 65536,
                bytes: 64,
                write: i % 3 == 0,
            });
        }
        let s = e.finish();
        let (r, f, b, be) = s.topdown.level1_pct();
        assert!((r + f + b + be - 100.0).abs() < 1e-6, "{r} {f} {b} {be}");
        assert!(s.cycles > 0.0);
        assert!(s.ipc() > 0.0);
    }

    #[test]
    fn scattered_code_is_front_end_bound_hot_loop_is_not() {
        let reg = registry();
        // Hot loop: one small function repeatedly.
        let mut hot = HostEngine::new(cfg(), Arc::clone(&reg));
        for i in 0..20000u32 {
            hot.exec(rec(100, 24, i));
        }
        let hot_s = hot.finish();

        // Scattered: thousands of different functions.
        let mut cold = HostEngine::new(cfg(), Arc::clone(&reg));
        for i in 0..20000u32 {
            cold.exec(rec(i % 5000, 24, i / 5000));
        }
        let cold_s = cold.finish();

        let (_, hot_fe, _, _) = hot_s.topdown.level1_pct();
        let (_, cold_fe, _, _) = cold_s.topdown.level1_pct();
        assert!(
            cold_fe > 2.0 * hot_fe.max(1.0),
            "cold {cold_fe:.1}% vs hot {hot_fe:.1}%"
        );
        assert!(cold_s.dsb_coverage < 0.3);
        assert!(hot_s.dsb_coverage > 0.8);
        assert!(cold_s.itlb_miss_rate > hot_s.itlb_miss_rate);
    }

    #[test]
    fn bigger_l1i_reduces_icache_stalls() {
        let reg = registry();
        let run = |l1i_kib: u64| {
            let mut c = cfg();
            c.l1i = CacheGeom::kib(l1i_kib, 8);
            let mut e = HostEngine::new(c, Arc::clone(&reg));
            // Skewed random function selection (as real call profiles
            // are), not a cyclic sweep that would defeat LRU entirely:
            // 95% of calls hit a hot set of 150 functions (~100 KB of
            // code: beyond 8 KB, within 192 KB). Enough records that the
            // cold tail's compulsory DRAM fetches amortize.
            for i in 0..120_000u64 {
                let h = mix64(i);
                let f = if !h.is_multiple_of(20) {
                    h % 150
                } else {
                    150 + mix64(h) % 2350
                };
                e.exec(rec(f as u32, 24, (i / 150) as u32));
            }
            e.finish()
        };
        let small = run(8);
        let large = run(192);
        // Compulsory misses on the cold tail hit both configurations
        // equally; the capacity effect shows in the miss *rate* and in
        // total cycles.
        assert!(
            small.l1i_miss_rate > 2.0 * large.l1i_miss_rate,
            "small {} vs large {}",
            small.l1i_miss_rate,
            large.l1i_miss_rate
        );
        assert!(small.topdown.fe_latency.icache > 1.5 * large.topdown.fe_latency.icache);
        assert!(small.cycles > large.cycles);
    }

    #[test]
    fn larger_pages_reduce_itlb_stalls() {
        let reg = registry();
        let run = |page: u64| {
            let mut c = cfg();
            c.page = page;
            let mut e = HostEngine::new(c, Arc::clone(&reg));
            for i in 0..30000u32 {
                e.exec(rec(i % 2500, 24, i / 2500));
            }
            e.finish()
        };
        let p4k = run(4096);
        let p16k = run(16384);
        assert!(
            p16k.topdown.fe_latency.itlb < p4k.topdown.fe_latency.itlb,
            "16k {} vs 4k {}",
            p16k.topdown.fe_latency.itlb,
            p4k.topdown.fe_latency.itlb
        );
    }

    #[test]
    fn huge_page_backing_reduces_itlb_stalls() {
        let run = |backing: PageBacking| {
            let reg = Arc::new(Registry::new(BinaryVariant::Base, backing));
            let mut e = HostEngine::new(cfg(), reg);
            for i in 0..30000u32 {
                e.exec(rec(i % 2500, 24, i / 2500));
            }
            e.finish()
        };
        let base = run(PageBacking::Base);
        let thp = run(PageBacking::thp());
        let ehp = run(PageBacking::Ehp);
        assert!(thp.topdown.fe_latency.itlb < base.topdown.fe_latency.itlb * 0.6);
        assert!(ehp.topdown.fe_latency.itlb <= thp.topdown.fe_latency.itlb);
    }

    #[test]
    fn sim_state_working_set_shows_in_llc_not_dram() {
        let mut e = HostEngine::new(cfg(), registry());
        // A 1 MB simulated-state working set, touched repeatedly.
        for round in 0..20u64 {
            for off in (0..1_048_576u64).step_by(64) {
                e.data(DataRef {
                    addr: 0x10_0000_0000 + off,
                    bytes: 32,
                    write: round % 4 == 0,
                });
            }
        }
        let s = e.finish();
        assert!(s.llc_occupancy_bytes > 512 * 1024);
        // After warmup, DRAM traffic is only the initial fills (1 MB),
        // not the 20 MB of repeated touches.
        assert!(
            (s.dram_bytes as f64) < 0.15 * (20.0 * 1_048_576.0),
            "dram {}",
            s.dram_bytes
        );
    }

    #[test]
    fn data_ref_at_the_top_of_the_address_space_stops_at_the_last_line() {
        let mut e = HostEngine::new(cfg(), registry());
        e.data(DataRef {
            addr: u64::MAX - 10,
            bytes: 100,
            write: false,
        });
        e.data(DataRef {
            addr: u64::MAX - 100,
            bytes: u32::MAX,
            write: true,
        });
        let s = e.finish();
        assert_eq!(s.l1d_accesses, 3, "the last line, then the last two");
    }

    #[test]
    fn branch_outcomes_are_mostly_predictable_for_biased_sites() {
        let mut e = HostEngine::new(cfg(), registry());
        for i in 0..50000u32 {
            e.exec(rec(200, 24, i));
        }
        let s = e.finish();
        assert!(
            s.branch_mispredict_rate < 0.05,
            "{}",
            s.branch_mispredict_rate
        );
        assert!(s.branch_lookups > 100_000);
    }
}
