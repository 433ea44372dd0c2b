//! Simulated-system configuration.

use gem5sim_event::Frequency;

/// CPU models, in increasing order of simulation detail — the paper's
/// primary experimental axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CpuModel {
    /// `AtomicSimpleCPU`: CPI = 1, atomic memory accesses with no
    /// contention or queuing modeled.
    Atomic,
    /// `TimingSimpleCPU`: CPI = 1 plus detailed memory timing (queuing
    /// delays, resource contention).
    Timing,
    /// `MinorCPU`: fixed in-order pipeline with detailed memory timing.
    Minor,
    /// `O3CPU`: out-of-order superscalar (ROB/IQ/LSQ, rename, tournament
    /// branch predictor) with detailed memory timing.
    O3,
}

impl CpuModel {
    /// All models, in increasing detail order.
    pub const ALL: [CpuModel; 4] = [
        CpuModel::Atomic,
        CpuModel::Timing,
        CpuModel::Minor,
        CpuModel::O3,
    ];

    /// Short uppercase name used in figures (matches the paper's labels).
    pub fn label(self) -> &'static str {
        match self {
            CpuModel::Atomic => "ATOMIC",
            CpuModel::Timing => "TIMING",
            CpuModel::Minor => "MINOR",
            CpuModel::O3 => "O3",
        }
    }

    /// 0-based detail rank (Atomic = 0 … O3 = 3).
    pub fn detail_rank(self) -> usize {
        match self {
            CpuModel::Atomic => 0,
            CpuModel::Timing => 1,
            CpuModel::Minor => 2,
            CpuModel::O3 => 3,
        }
    }
}

/// How guest instructions are driven through the event queue.
///
/// Both tiers produce byte-identical results — stats, traces, observer
/// streams and artifacts — by construction; the tier only changes how
/// much host work the event loop performs per guest instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecTier {
    /// One scheduled event per instruction (gem5's shape, and this
    /// repository's original behavior).
    Interp,
    /// Cached basic blocks executed straight-line with batched
    /// event-queue accounting. Applies to the simple models
    /// (Atomic/Timing); Minor and O3 always run per-instruction.
    Block,
}

impl ExecTier {
    /// Lowercase name, matching the `GEM5PROF_EXEC_TIER` values.
    pub fn label(self) -> &'static str {
        match self {
            ExecTier::Interp => "interp",
            ExecTier::Block => "block",
        }
    }
}

impl std::str::FromStr for ExecTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" => Ok(ExecTier::Interp),
            "block" => Ok(ExecTier::Block),
            other => Err(format!("unknown exec tier `{other}` (interp|block)")),
        }
    }
}

/// Simulation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimMode {
    /// Syscall emulation: user-level code only; `ecall`s serviced by the
    /// simulator; no TLBs or interrupts.
    Se,
    /// Full system: TLB translation on every access, timer interrupts,
    /// firmware `ecall` services.
    Fs,
}

impl SimMode {
    /// Short name used in figures.
    pub fn label(self) -> &'static str {
        match self {
            SimMode::Se => "SE",
            SimMode::Fs => "FS",
        }
    }
}

/// Geometry and latency of one guest cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: u64,
    /// Associativity (ways).
    pub assoc: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Hit latency in CPU cycles.
    pub hit_latency: u64,
    /// Number of MSHRs (outstanding misses); blocking when in flight
    /// misses reach this count.
    pub mshrs: u64,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `assoc * line`).
    pub fn sets(&self) -> u64 {
        assert!(
            self.size.is_multiple_of(self.assoc * self.line) && self.size > 0,
            "inconsistent cache geometry {self:?}"
        );
        self.size / (self.assoc * self.line)
    }
}

/// Full simulated-system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// CPU model.
    pub cpu_model: CpuModel,
    /// SE or FS mode.
    pub mode: SimMode,
    /// Number of CPUs (each runs the workload with its hart id in `tp`).
    pub num_cpus: usize,
    /// Guest CPU clock.
    pub clock: Frequency,
    /// Physical memory size in bytes.
    pub mem_size: u64,
    /// L1 instruction cache (per CPU).
    pub l1i: CacheConfig,
    /// L1 data cache (per CPU).
    pub l1d: CacheConfig,
    /// Unified L2 (shared).
    pub l2: CacheConfig,
    /// DRAM access latency in nanoseconds.
    pub dram_latency_ns: u64,
    /// DRAM peak bandwidth in bytes/sec (models occupancy).
    pub dram_bw_bytes_per_sec: u64,
    /// iTLB/dTLB entries (FS mode).
    pub tlb_entries: usize,
    /// Guest page size in bytes (FS mode).
    pub page_size: u64,
    /// Timer interrupt interval in guest microseconds (FS mode).
    pub timer_interval_us: u64,
    /// Pipeline width for Minor (fetch/execute per cycle).
    pub minor_width: usize,
    /// O3 pipeline width (fetch/rename/issue/commit per cycle).
    pub o3_width: usize,
    /// O3 reorder-buffer entries.
    pub rob_entries: usize,
    /// O3 issue-queue entries.
    pub iq_entries: usize,
    /// O3 load-queue entries.
    pub lq_entries: usize,
    /// O3 store-queue entries.
    pub sq_entries: usize,
    /// Physical integer registers (O3 rename).
    pub int_phys_regs: usize,
    /// Physical FP registers (O3 rename).
    pub fp_phys_regs: usize,
    /// Branch-predictor BTB entries (Minor/O3).
    pub btb_entries: usize,
    /// Safety valve: maximum committed instructions before forced exit
    /// (`None` = unlimited).
    pub max_insts: Option<u64>,
    /// Per-hart clock dividers: hart `i` ticks at `clock /
    /// hart_clock_div[i]` (missing entries divide by 1). The divider
    /// stretches only the CPU's own event cadence on the queue —
    /// cache/DRAM/TLB latencies stay on the undivided system clock, as
    /// with gem5's per-object clock domains.
    pub hart_clock_div: Vec<u64>,
    /// Guest execution tier (see [`ExecTier`]). Results are identical
    /// either way; `Block` is the fast default.
    pub exec_tier: ExecTier,
    /// Per-hart decoded-block cache capacity, in blocks (block tier).
    pub block_cache_blocks: usize,
}

impl SystemConfig {
    /// gem5-like defaults for the given model and mode (2 GHz guest,
    /// 32 KB L1s, 1 MB L2, 64 MB memory).
    pub fn new(cpu_model: CpuModel, mode: SimMode) -> Self {
        let l1 = CacheConfig {
            size: 32 * 1024,
            assoc: 8,
            line: 64,
            hit_latency: 2,
            mshrs: 4,
        };
        SystemConfig {
            cpu_model,
            mode,
            num_cpus: 1,
            clock: Frequency::from_ghz(2.0),
            mem_size: 64 * 1024 * 1024,
            l1i: l1,
            l1d: l1,
            l2: CacheConfig {
                size: 1024 * 1024,
                assoc: 16,
                line: 64,
                hit_latency: 12,
                mshrs: 16,
            },
            dram_latency_ns: 50,
            dram_bw_bytes_per_sec: 12_800_000_000,
            tlb_entries: 64,
            page_size: 4096,
            timer_interval_us: 100,
            minor_width: 2,
            o3_width: 8,
            rob_entries: 192,
            iq_entries: 64,
            lq_entries: 32,
            sq_entries: 32,
            int_phys_regs: 128,
            fp_phys_regs: 192,
            btb_entries: 4096,
            max_insts: None,
            hart_clock_div: Vec::new(),
            exec_tier: ExecTier::Block,
            block_cache_blocks: 4096,
        }
    }

    /// Sets the number of CPUs (builder style).
    pub fn with_cpus(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one CPU required");
        self.num_cpus = n;
        self
    }

    /// Sets the committed-instruction limit (builder style).
    pub fn with_max_insts(mut self, n: u64) -> Self {
        self.max_insts = Some(n);
        self
    }

    /// Sets per-hart clock dividers (builder style). Harts beyond the
    /// vector's length run undivided.
    pub fn with_hart_clock_divs(mut self, divs: Vec<u64>) -> Self {
        assert!(
            divs.iter().all(|&d| d >= 1),
            "clock dividers must be >= 1: {divs:?}"
        );
        self.hart_clock_div = divs;
        self
    }

    /// Sets the execution tier (builder style).
    pub fn with_exec_tier(mut self, tier: ExecTier) -> Self {
        self.exec_tier = tier;
        self
    }

    /// Sets the decoded-block cache capacity (builder style).
    pub fn with_block_cache_blocks(mut self, blocks: usize) -> Self {
        self.block_cache_blocks = blocks;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_order_reflects_detail() {
        assert!(CpuModel::Atomic < CpuModel::Timing);
        assert!(CpuModel::Timing < CpuModel::Minor);
        assert!(CpuModel::Minor < CpuModel::O3);
        for (i, m) in CpuModel::ALL.iter().enumerate() {
            assert_eq!(m.detail_rank(), i);
        }
    }

    #[test]
    fn cache_sets() {
        let c = CacheConfig {
            size: 32 * 1024,
            assoc: 8,
            line: 64,
            hit_latency: 2,
            mshrs: 4,
        };
        assert_eq!(c.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn bad_cache_geometry_panics() {
        let c = CacheConfig {
            size: 1000,
            assoc: 3,
            line: 64,
            hit_latency: 1,
            mshrs: 1,
        };
        let _ = c.sets();
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = SystemConfig::new(CpuModel::O3, SimMode::Fs);
        assert_eq!(cfg.l1i.sets(), 64);
        assert_eq!(cfg.l2.sets(), 1024);
        assert_eq!(cfg.num_cpus, 1);
        let cfg = cfg.with_cpus(4).with_max_insts(1000);
        assert_eq!(cfg.num_cpus, 4);
        assert_eq!(cfg.max_insts, Some(1000));
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(CpuModel::O3.label(), "O3");
        assert_eq!(SimMode::Fs.label(), "FS");
    }

    #[test]
    fn exec_tier_parses_its_own_labels() {
        for t in [ExecTier::Interp, ExecTier::Block] {
            assert_eq!(t.label().parse::<ExecTier>(), Ok(t));
        }
        assert!("jit".parse::<ExecTier>().is_err());
        let cfg = SystemConfig::new(CpuModel::Atomic, SimMode::Se);
        assert_eq!(cfg.exec_tier, ExecTier::Block, "block is the default");
        let cfg = cfg
            .with_exec_tier(ExecTier::Interp)
            .with_block_cache_blocks(8);
        assert_eq!(cfg.exec_tier, ExecTier::Interp);
        assert_eq!(cfg.block_cache_blocks, 8);
    }

    #[test]
    fn hart_clock_divs_default_to_undivided() {
        let cfg = SystemConfig::new(CpuModel::Timing, SimMode::Se);
        assert!(cfg.hart_clock_div.is_empty());
        let cfg = cfg.with_cpus(4).with_hart_clock_divs(vec![1, 2]);
        assert_eq!(cfg.hart_clock_div, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "clock dividers must be >= 1")]
    fn zero_clock_divider_panics() {
        let _ = SystemConfig::new(CpuModel::Timing, SimMode::Se).with_hart_clock_divs(vec![1, 0]);
    }
}
