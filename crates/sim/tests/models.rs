//! Cross-model integration tests: all four CPU models must compute the
//! same architectural results, while their timing and handler footprints
//! differ in the directions the paper relies on.

use gem5sim::config::{CpuModel, SimMode, SystemConfig};
use gem5sim::observe::{CountingObserver, Obs};
use gem5sim::system::System;
use gem5sim_isa::asm::ProgramBuilder;
use gem5sim_isa::{MemSize, Program, Reg};
use std::cell::RefCell;
use std::rc::Rc;

/// A little program with loops, memory traffic, data-dependent branches
/// and a function call: sums of a pseudo-random array, result printed via
/// exit code.
fn workload() -> Program {
    let mut b = ProgramBuilder::new();
    let base = 0x0010_0000i64;
    // Fill 256 words with an LCG.
    b.li(Reg::T0, base)
        .li(Reg::T1, 0) // i
        .li(Reg::T2, 256)
        .li(Reg::S0, 1103515245)
        .li(Reg::S1, 12345)
        .li(Reg::A0, 777) // seed
        .label("fill")
        .mul(Reg::A0, Reg::A0, Reg::S0)
        .add(Reg::A0, Reg::A0, Reg::S1)
        .slli(Reg::T3, Reg::T1, 3)
        .add(Reg::T3, Reg::T3, Reg::T0)
        .sd(Reg::A0, Reg::T3, 0)
        .addi(Reg::T1, Reg::T1, 1)
        .bne(Reg::T1, Reg::T2, "fill")
        // Sum elements, with a data-dependent branch (count odd values).
        .li(Reg::T1, 0)
        .li(Reg::A1, 0) // sum
        .li(Reg::A2, 0) // odd count
        .label("sum")
        .slli(Reg::T3, Reg::T1, 3)
        .add(Reg::T3, Reg::T3, Reg::T0)
        .ld(Reg::T4, Reg::T3, 0)
        .add(Reg::A1, Reg::A1, Reg::T4)
        .andi(Reg::T5, Reg::T4, 1)
        .beq(Reg::T5, Reg::ZERO, "even")
        .addi(Reg::A2, Reg::A2, 1)
        .label("even")
        .addi(Reg::T1, Reg::T1, 1)
        .bne(Reg::T1, Reg::T2, "sum")
        // Call a helper that xors sum and count.
        .call("mix")
        .halt()
        .label("mix")
        .xor(Reg::A0, Reg::A1, Reg::A2)
        .ret();
    b.assemble().unwrap()
}

fn run(model: CpuModel, mode: SimMode) -> gem5sim::system::SimResult {
    let cfg = SystemConfig::new(model, mode);
    let mut sys = System::new(cfg, workload());
    sys.run()
}

#[test]
fn all_models_commit_identical_instruction_counts() {
    let counts: Vec<u64> = CpuModel::ALL
        .iter()
        .map(|&m| run(m, SimMode::Se).committed_insts)
        .collect();
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    assert!(counts[0] > 3000, "workload is non-trivial: {}", counts[0]);
}

#[test]
fn se_and_fs_commit_same_user_work_modulo_irqs() {
    let se = run(CpuModel::Atomic, SimMode::Se);
    let fs = run(CpuModel::Atomic, SimMode::Fs);
    // No interrupt handler in this workload: FS adds TLB costs but not
    // instructions.
    assert_eq!(se.committed_insts, fs.committed_insts);
    assert!(fs.itlb.0 > 0, "FS mode exercises the iTLB");
    assert_eq!(se.itlb.0, 0, "SE mode bypasses the TLB");
    assert!(fs.sim_ticks >= se.sim_ticks, "translation costs time");
}

#[test]
fn detailed_memory_models_are_slower_than_atomic() {
    let atomic = run(CpuModel::Atomic, SimMode::Se);
    let timing = run(CpuModel::Timing, SimMode::Se);
    assert!(
        timing.sim_ticks > atomic.sim_ticks,
        "timing {} vs atomic {}",
        timing.sim_ticks,
        atomic.sim_ticks
    );
}

#[test]
fn o3_is_faster_than_timing_in_guest_time() {
    let timing = run(CpuModel::Timing, SimMode::Se);
    let o3 = run(CpuModel::O3, SimMode::Se);
    assert!(
        o3.sim_ticks < timing.sim_ticks,
        "an 8-wide OoO must beat a blocking 1-wide core: o3={} timing={}",
        o3.sim_ticks,
        timing.sim_ticks
    );
    assert!(
        o3.guest_ipc() > 1.0,
        "OoO IPC {} should exceed 1",
        o3.guest_ipc()
    );
}

#[test]
fn branch_predictor_engages_on_detailed_models() {
    for m in [CpuModel::Minor, CpuModel::O3] {
        let r = run(m, SimMode::Se);
        let (lookups, mispredicts) = r.bp.expect("detailed models have a predictor");
        assert!(lookups > 500, "{m:?}: {lookups}");
        assert!(
            mispredicts > 0,
            "data-dependent branches must miss sometimes"
        );
        assert!(mispredicts < lookups / 2, "predictor must beat a coin flip");
    }
}

#[test]
fn caches_see_traffic_and_reasonable_miss_rates() {
    let r = run(CpuModel::Timing, SimMode::Se);
    assert!(r.l1i.accesses > 1000);
    assert!(r.l1d.accesses > 400);
    assert!(r.l1i.miss_rate() < 0.5);
    assert!(r.l1d.misses > 0, "256-word array does not fit one line");
    assert!(r.dram_accesses > 0);
}

#[test]
fn observer_footprint_grows_with_cpu_detail() {
    let mut calls = Vec::new();
    let mut methods = Vec::new();
    for &m in &CpuModel::ALL {
        let ctr = Rc::new(RefCell::new(CountingObserver::default()));
        let cfg = SystemConfig::new(m, SimMode::Se);
        let mut sys = System::with_observer(cfg, workload(), Obs::new(ctr.clone()));
        sys.run();
        let c = ctr.borrow();
        calls.push(c.calls);
        methods.push(c.methods.len());
    }
    // The paper's central observation: more detailed CPU models touch more
    // simulator code per instruction (Fig. 15: 1602..5209 functions) and
    // run more handler work overall.
    assert!(
        methods.windows(2).all(|w| w[0] < w[1]),
        "distinct methods must grow with detail: {methods:?}"
    );
    assert!(
        calls[0] < calls[3],
        "O3 must execute more handler calls than Atomic: {calls:?}"
    );
}

#[test]
fn fs_timer_interrupts_are_delivered() {
    // Workload with an interrupt handler that counts ticks.
    let mut b = ProgramBuilder::new();
    b.li(Reg::S8, 0x8000) // counter address
        .li(Reg::T0, 200_000)
        .label("spin")
        .addi(Reg::T0, Reg::T0, -1)
        .bne(Reg::T0, Reg::ZERO, "spin")
        .halt()
        .label("__irq_handler")
        .ld(Reg::T6, Reg::S8, 0)
        .addi(Reg::T6, Reg::T6, 1)
        .sd(Reg::T6, Reg::S8, 0)
        .li(Reg::A7, 0x1000)
        .ecall();
    let prog = b.assemble().unwrap();
    let cfg = SystemConfig::new(CpuModel::Atomic, SimMode::Fs);
    let mut sys = System::new(cfg, prog);
    let r = sys.run();
    assert!(
        r.irqs_taken > 0,
        "spin loop long enough to catch timer irqs"
    );
}

#[test]
fn multicore_partitions_work() {
    // Each hart writes its id to a distinct slot; hart 0 also spins a bit.
    let mut b = ProgramBuilder::new();
    b.li(Reg::T0, 0x20000)
        .slli(Reg::T1, Reg::TP, 3)
        .add(Reg::T0, Reg::T0, Reg::T1)
        .addi(Reg::T2, Reg::TP, 1)
        .sd(Reg::T2, Reg::T0, 0)
        .halt();
    let prog = b.assemble().unwrap();
    let cfg = SystemConfig::new(CpuModel::Timing, SimMode::Se).with_cpus(4);
    let mut sys = System::new(cfg, prog);
    let r = sys.run();
    assert_eq!(r.committed_insts, 4 * 6);
    assert!(r.sim_ticks > 0);
}

#[test]
fn max_insts_limit_stops_simulation() {
    let cfg = SystemConfig::new(CpuModel::Atomic, SimMode::Se).with_max_insts(100);
    let mut sys = System::new(cfg, workload());
    let r = sys.run();
    assert!(r.committed_insts >= 100 && r.committed_insts < 110);
}

#[test]
fn stat_dump_is_complete() {
    let r = run(CpuModel::O3, SimMode::Se);
    let d = r.stat_dump();
    for key in [
        "sim_ticks",
        "sim_insts",
        "system.cpu.ipc",
        "system.l1i.miss_rate",
        "system.cpu.branchPred.lookups",
    ] {
        assert!(d.get(key).is_some(), "missing {key}");
    }
}

#[test]
fn write_syscall_reaches_stdout() {
    let mut b = ProgramBuilder::new();
    let msg_addr = 0x4000i64;
    b.li(Reg::T0, msg_addr)
        .li(Reg::T1, 0x6f6c6c65680i64 >> 4) // "hello" packed
        .sd(Reg::T1, Reg::T0, 0)
        .li(Reg::A7, 64)
        .li(Reg::A0, 1)
        .li(Reg::A1, msg_addr)
        .li(Reg::A2, 5)
        .ecall()
        .halt();
    let prog = b.assemble().unwrap();
    let cfg = SystemConfig::new(CpuModel::Timing, SimMode::Se);
    let mut sys = System::new(cfg, prog);
    let r = sys.run();
    assert_eq!(r.stdout, b"hello");
}

#[test]
fn memory_results_identical_across_models() {
    // Drive each model and compare a memory region via stdout.
    let mut outs = Vec::new();
    for &m in &CpuModel::ALL {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 0x5000)
            .li(Reg::T1, 0)
            .li(Reg::T2, 64)
            .label("w")
            .mul(Reg::T3, Reg::T1, Reg::T1)
            .slli(Reg::T4, Reg::T1, 0)
            .add(Reg::T3, Reg::T3, Reg::T4)
            .andi(Reg::T3, Reg::T3, 0xFF)
            .add(Reg::T5, Reg::T0, Reg::T1)
            .sb(Reg::T3, Reg::T5, 0)
            .addi(Reg::T1, Reg::T1, 1)
            .bne(Reg::T1, Reg::T2, "w")
            .li(Reg::A7, 64)
            .li(Reg::A0, 1)
            .li(Reg::A1, 0x5000)
            .li(Reg::A2, 64)
            .ecall()
            .halt();
        let prog = b.assemble().unwrap();
        let cfg = SystemConfig::new(m, SimMode::Se);
        let mut sys = System::new(cfg, prog);
        outs.push(sys.run().stdout);
    }
    assert!(outs.iter().all(|o| *o == outs[0] && o.len() == 64));
    // And the values are the expected i*i + i mod 256.
    assert_eq!(outs[0][3], (3 * 3 + 3) as u8);
    let _ = MemSize::D;
}
