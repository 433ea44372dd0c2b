//! `gem5sim-cli` — run the gem5-like simulator from the command line,
//! in the spirit of `gem5.opt se.py --cpu-type=... --caches ...`.
//!
//! ```text
//! gem5sim-cli --workload water_nsquared --cpu o3 --mode fs \
//!             --scale simsmall --l1i 32 --l1d 32 --l2 1024 \
//!             [--cpus N] [--trace] [--stats]
//! ```

use gem5sim::config::{CpuModel, ExecTier, SimMode, SystemConfig};
use gem5sim::system::System;
use gem5sim::trace::{Tracer, WriteTracer};
use gem5sim_workloads::{Scale, Workload};
use std::cell::RefCell;
use std::rc::Rc;

struct Args {
    workload: Workload,
    cpu: CpuModel,
    mode: SimMode,
    scale: Scale,
    exec_tier: ExecTier,
    cpus: usize,
    l1_kib: Option<u64>,
    l2_kib: Option<u64>,
    max_insts: Option<u64>,
    trace: bool,
    stats: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: gem5sim-cli [--workload NAME] [--cpu atomic|timing|minor|o3] \
         [--mode se|fs] [--scale test|simsmall|simmedium] [--cpus N] \
         [--exec-tier interp|block] [--l1 KiB] [--l2 KiB] [--max-insts N] \
         [--trace] [--stats]\n\
         workloads: {}",
        Workload::PARSEC
            .iter()
            .map(|w| w.name())
            .chain(["boot_exit", "sieve"])
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_workload(s: &str) -> Option<Workload> {
    Workload::PARSEC
        .into_iter()
        .chain([Workload::BootExit, Workload::Sieve])
        .find(|w| w.name() == s)
}

fn parse() -> Args {
    let mut args = Args {
        workload: Workload::WaterNsquared,
        cpu: CpuModel::Atomic,
        mode: SimMode::Se,
        scale: Scale::SimSmall,
        exec_tier: ExecTier::Block,
        cpus: 1,
        l1_kib: None,
        l2_kib: None,
        max_insts: None,
        trace: false,
        stats: true,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" | "-w" => {
                let v = value(&mut i);
                args.workload = parse_workload(&v).unwrap_or_else(|| usage());
            }
            "--cpu" | "-c" => {
                args.cpu = match value(&mut i).as_str() {
                    "atomic" => CpuModel::Atomic,
                    "timing" => CpuModel::Timing,
                    "minor" => CpuModel::Minor,
                    "o3" => CpuModel::O3,
                    _ => usage(),
                };
            }
            "--mode" | "-m" => {
                args.mode = match value(&mut i).as_str() {
                    "se" => SimMode::Se,
                    "fs" => SimMode::Fs,
                    _ => usage(),
                };
            }
            "--scale" | "-s" => {
                args.scale = match value(&mut i).as_str() {
                    "test" => Scale::Test,
                    "simsmall" => Scale::SimSmall,
                    "simmedium" => Scale::SimMedium,
                    _ => usage(),
                };
            }
            "--exec-tier" | "-t" => {
                args.exec_tier = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--cpus" | "-n" => args.cpus = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--l1" => args.l1_kib = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--l2" => args.l2_kib = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--max-insts" => {
                args.max_insts = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--trace" => args.trace = true,
            "--no-stats" => args.stats = false,
            "--stats" => args.stats = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    args
}

fn main() {
    let a = parse();
    let mut cfg = SystemConfig::new(a.cpu, a.mode)
        .with_cpus(a.cpus)
        .with_exec_tier(a.exec_tier);
    if let Some(kib) = a.l1_kib {
        cfg.l1i.size = kib * 1024;
        cfg.l1d.size = kib * 1024;
    }
    if let Some(kib) = a.l2_kib {
        cfg.l2.size = kib * 1024;
    }
    if let Some(n) = a.max_insts {
        cfg = cfg.with_max_insts(n);
    }

    eprintln!(
        "gem5sim: {} on {} ({:?}, {} hart{}, {} tier)",
        a.workload,
        a.cpu.label(),
        a.mode,
        a.cpus,
        if a.cpus == 1 { "" } else { "s" },
        a.exec_tier.label()
    );
    let program = a.workload.program(a.scale);
    let mut sys = System::new(cfg, program);
    if a.trace {
        sys.set_tracer(Tracer::new(Rc::new(RefCell::new(WriteTracer::new(
            std::io::stdout().lock(),
        )))));
    }
    let start = std::time::Instant::now();
    let result = sys.run();
    let host = start.elapsed();
    drop(sys);

    if !result.stdout.is_empty() {
        eprintln!("--- guest stdout ({} bytes) ---", result.stdout.len());
        eprintln!("{}", String::from_utf8_lossy(&result.stdout));
    }
    eprintln!(
        "Exiting @ tick {} because all harts halted (exit code {:?})",
        result.sim_ticks, result.exit_code
    );
    eprintln!(
        "simulated {} insts in {:.3}s host time ({:.0} KIPS), guest IPC {:.3}",
        result.committed_insts,
        host.as_secs_f64(),
        result.committed_insts as f64 / host.as_secs_f64() / 1000.0,
        result.guest_ipc()
    );
    if a.stats {
        bench::outln!("---------- Begin Simulation Statistics ----------");
        bench::out!("{}", result.stat_dump());
        bench::outln!("---------- End Simulation Statistics   ----------");
    }
}
