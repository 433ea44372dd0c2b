//! The host execution engine: consumes the host instruction stream and
//! performs Top-Down cycle accounting.

use super::branch::HostBranchPredictor;
use super::cache::HostCache;
use super::dsb::{Dsb, WINDOW};
use super::tlb::{HostTlb, TlbResult};
use hostmodel::HostConfig;
use hostmodel::HostRunStats;
use hostmodel::TopDown;
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

/// The engine. Implements [`TraceSink`]; feed it a stream, then call
/// [`finish`](HostEngine::finish).
#[derive(Debug)]
pub struct HostEngine {
    cfg: HostConfig,
    reg: Arc<Registry>,
    l1i: HostCache,
    l1d: HostCache,
    l2: HostCache,
    llc: HostCache,
    itlb: HostTlb,
    dtlb: HostTlb,
    bp: HostBranchPredictor,
    dsb: Dsb,
    td: TopDown,
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
            uops: 0,
            dram_bytes: 0,
            records: 0,
            last_data_line: u64::MAX - 8,
            cfg,
            reg,
        }
    }

    /// Fills an instruction-side line through L2 → LLC → DRAM; returns
    /// the raw penalty in cycles.
    #[inline]
    fn fill_iside(&mut self, line: u64) -> f64 {
        if self.l2.access(line) {
            self.cfg.l2_lat as f64
        } else if self.llc.access(line) {
            self.cfg.llc_lat as f64
        } else {
            self.dram_bytes += self.cfg.line;
            self.cfg.dram_lat as f64
        }
    }

    /// Fills a data-side line; returns `(penalty, level)` where level
    /// indexes the Top-Down back-end bucket (0 = L2, 1 = LLC, 2 = DRAM).
    #[inline]
    fn fill_dside(&mut self, line: u64) -> (f64, usize) {
        if self.l2.access(line) {
            (self.cfg.l2_lat as f64, 0)
        } else if self.llc.access(line) {
            (self.cfg.llc_lat as f64, 1)
        } else {
            self.dram_bytes += self.cfg.line;
            (self.cfg.dram_lat as f64, 2)
        }
    }

    #[inline]
    fn be_mem_add(&mut self, level: usize, cycles: f64) {
        match level {
            0 => self.td.be_mem.l2 += cycles,
            1 => self.td.be_mem.llc += cycles,
            _ => self.td.be_mem.dram += cycles,
        }
    }

    /// Generates the outcome of dynamic conditional branch number `k` at a
    /// site with the given taken bias, returning `(outcome, period)`:
    /// well-biased sites behave like loop back-edges (periodic exits,
    /// `period = Some(..)`), low-bias sites are data-dependent
    /// (`period = None`).
    #[inline]
    fn branch_outcome(site: u64, taken_rate: u8, k: u64) -> (bool, Option<u64>) {
        if taken_rate >= 86 {
            let period = 64 + (taken_rate as u64 - 85) * 40 + (mix64(site) % 64);
            (!(k + site).is_multiple_of(period), Some(period))
        } else {
            ((mix2(site, k) % 100) < taken_rate as u64, None)
        }
    }

    /// Consumes the engine and produces final statistics.
    pub fn finish(self) -> HostRunStats {
        let insts = self.uops as f64 / self.cfg.uops_per_inst;
        HostRunStats {
            name: self.cfg.name.clone(),
            cycles: self.td.total_cycles(),
            uops: self.uops,
            instructions: insts,
            freq_ghz: self.cfg.freq_ghz,
            topdown: self.td,
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
        let width = self.cfg.width as f64;
        let base = uopsf / width;
        self.td.retiring += base;

        // --- Instruction fetch: line touches over the executed span.
        //     Successive invocations take different paths through the
        //     function body, so the span start rotates within it. ---
        let bytes = ((uopsf * self.cfg.bytes_per_uop) as u64).max(16);
        let span = bytes.min(size + 16); // longer executions loop in place
        let off = ((r.variant as u64) * 96) % (size.saturating_sub(span) + 1);
        let base_addr = addr;
        // Branch sites are static program points: the executed path picks
        // among a per-function set of 256 B regions, so sites recur and
        // predictors can learn them.
        let site_base = base_addr + (off & !255);
        let addr = addr + off;
        let end = addr + span;
        let line_mask = !(self.cfg.line - 1);
        let mut line = addr & line_mask;
        let mut fetch_pen = 0.0;
        while line < end {
            if !self.l1i.access(line) {
                fetch_pen += self.fill_iside(line);
            }
            line += self.cfg.line;
        }
        self.td.fe_latency.icache += fetch_pen / self.cfg.fetch_mlp;

        // --- iTLB over the touched pages (huge-page aware). ---
        let page = self.cfg.page;
        let mut paddr = addr & !(page - 1);
        let mut itlb_pen = 0.0;
        let mut last_pid = u64::MAX;
        while paddr < end {
            let pid = self.reg.layout().page_id(paddr, page);
            if pid != last_pid {
                last_pid = pid;
                match self.itlb.access(pid) {
                    TlbResult::L1Hit => {}
                    TlbResult::StlbHit => itlb_pen += self.cfg.stlb_lat as f64,
                    TlbResult::Walk => itlb_pen += self.cfg.walk_lat as f64,
                }
            }
            paddr += page;
        }
        // Page walks serialize instruction delivery far more than line
        // fills do; only adjacent-fetch overlap (x2) hides them.
        self.td.fe_latency.itlb += itlb_pen / 2.0;

        // --- Decode: DSB vs MITE. The record's µops are apportioned to
        //     the two supply paths by the fraction of its fetch windows
        //     resident in the µop cache. ---
        let wstart = addr & !(WINDOW - 1);
        let n_windows = (end - wstart).div_ceil(WINDOW).max(1);
        let uops_per_window = (uops / n_windows).max(1);
        let mut hits = 0u64;
        let mut w = wstart;
        while w < end {
            if self.dsb.fetch_window(w, uops_per_window) {
                hits += 1;
            }
            w += WINDOW;
        }
        let dsb_frac = if self.dsb.present() {
            hits as f64 / n_windows as f64
        } else {
            0.0
        };
        let mite_uops_f = uopsf * (1.0 - dsb_frac);
        let decode_cycles =
            mite_uops_f / self.cfg.mite_width + (uopsf - mite_uops_f) / self.cfg.dsb_width.max(1.0);
        let deficit = (decode_cycles - base).max(0.0);
        if deficit > 0.0 {
            // Attribute the shortfall to the slow component first: the
            // legacy decoders. The DSB only appears when it is itself the
            // limiter (Intel's accounting does the same, which is why the
            // paper sees 92-97% MITE).
            let mite_excess = (mite_uops_f / self.cfg.mite_width - mite_uops_f / width).max(0.0);
            let to_mite = deficit.min(mite_excess);
            self.td.fe_bandwidth.mite += to_mite;
            self.td.fe_bandwidth.dsb += deficit - to_mite;
        }

        // --- Conditional branches. ---
        let penalty = self.cfg.mispredict_penalty as f64;
        let resteer = self.cfg.resteer_cycles as f64;
        let n_cond = r.cond_branches as u64;
        for j in 0..n_cond {
            let site = site_base + 16 + (j * 24) % size.max(24);
            let k = r.variant as u64 * n_cond + j;
            let (outcome, period) = Self::branch_outcome(site, taken_rate, k);
            // Loop-termination predictors (TAGE-style long history)
            // capture periodic exits up to the machine's reach.
            let loop_covered = period.is_some_and(|p| p <= self.cfg.loop_reach);
            let (mis, unknown) = self.bp.cond_branch(site, outcome, loop_covered);
            if mis {
                // Wrong-path work is bad speculation; the fetch redirect
                // is a front-end resteer.
                self.td.bad_speculation += penalty * 0.55;
                self.td.fe_latency.mispredict_resteers += penalty * 0.45;
            } else if unknown {
                self.td.fe_latency.unknown_branches += resteer * 0.6;
            }
        }

        // --- Indirect branches (virtual dispatch). ---
        for j in 0..r.indirect_branches as u64 {
            let site = site_base + 8 + j * 40;
            // Site polymorphism: most virtual call sites are monomorphic
            // in practice; a minority see several receiver types.
            let h = mix64(site ^ 0xD15EA5E);
            let poly = if h.is_multiple_of(8) {
                2 + mix64(h) % 4
            } else {
                1
            };
            let target = mix2(site, r.variant as u64 % poly);
            if self.bp.indirect_branch(site, target) {
                self.td.fe_latency.unknown_branches += resteer;
            }
        }

        // --- Machine clears (memory-order nukes etc.) are rare and tied
        //     to store traffic. ---
        self.td.fe_latency.clear_resteers += r.stores as f64 * 0.004 * penalty * 0.3;
        self.td.bad_speculation += r.stores as f64 * 0.004 * penalty * 0.7;

        // --- Function-local data: mostly stack (hot, tiny), with every
        //     third load reaching the heap — SimObject fields scattered by
        //     the allocator over ~1.5 MB of pages. The heap lines are hot
        //     (revisited each invocation) but the *pages* are many: this
        //     is what pressures the dTLB without pressuring DRAM, as the
        //     paper observes. ---
        let fid = r.func.0 as u64;
        for j in 0..r.loads as u64 {
            let a = if j % 4 == 3 {
                HEAP_BASE + (mix2(fid, j) % (1_500_000 / 64)) * 64
            } else {
                STACK_BASE + (fid.wrapping_mul(968) + j * 64) % 10240
            };
            if j % 4 == 3 {
                let pid = a / self.cfg.page;
                match self.dtlb.access(pid) {
                    TlbResult::L1Hit => {}
                    TlbResult::StlbHit => {
                        self.td.be_mem.l2 += self.cfg.stlb_lat as f64 / self.cfg.mlp
                    }
                    TlbResult::Walk => self.td.be_mem.l2 += self.cfg.walk_lat as f64 / self.cfg.mlp,
                }
            }
            if !self.l1d.access(a) {
                let (pen, lvl) = self.fill_dside(a & line_mask);
                self.be_mem_add(lvl, pen / self.cfg.mlp);
            }
        }
        for j in 0..r.stores as u64 {
            let a = STACK_BASE + (fid.wrapping_mul(968) + 5120 + j * 64) % 10240;
            if !self.l1d.access(a) {
                let (pen, lvl) = self.fill_dside(a & line_mask);
                // Stores drain through the store buffer: mostly hidden.
                self.be_mem_add(lvl, pen * 0.15 / self.cfg.mlp);
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
        let this_line = d.addr / self.cfg.line;
        let delta = this_line.wrapping_sub(self.last_data_line);
        let prefetched = delta <= 4; // covers same-line and small forward strides
        self.last_data_line = this_line;
        let stream_factor = if prefetched {
            self.cfg.prefetch_factor
        } else {
            1.0
        };

        let pid = d.addr / self.cfg.page;
        let walk_factor = stream_factor / self.cfg.mlp;
        match self.dtlb.access(pid) {
            TlbResult::L1Hit => {}
            TlbResult::StlbHit => self.td.be_mem.l2 += self.cfg.stlb_lat as f64 * walk_factor,
            TlbResult::Walk => self.td.be_mem.l2 += self.cfg.walk_lat as f64 * walk_factor,
        }
        let line_mask = !(self.cfg.line - 1);
        let mut line = d.addr & line_mask;
        let end = d.addr + d.bytes as u64;
        while line < end {
            if !self.l1d.access(line) {
                let (pen, lvl) = self.fill_dside(line);
                let factor = if d.write { 0.15 } else { 1.0 };
                self.be_mem_add(lvl, pen * factor * stream_factor / self.cfg.mlp);
            }
            line += self.cfg.line;
        }
    }
}
