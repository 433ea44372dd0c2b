//! Platform comparison: the paper's motivating observation (Fig. 1) —
//! the same gem5 simulation runs much faster on an Apple M1 than on a
//! high-end Xeon server, and the profile shows why.
//!
//! ```sh
//! cargo run --release --example platform_comparison
//! ```

use gem5_profiling::prof::experiment::{profile, GuestSpec, HostSetup};
use gem5_profiling::sim::config::{CpuModel, SimMode};
use gem5_profiling::workloads::{Scale, Workload};
use platforms::PlatformId;

fn main() {
    let setups: Vec<HostSetup> = PlatformId::ALL
        .iter()
        .map(|p| HostSetup::platform(&p.platform()))
        .collect();

    println!("simulating canneal (simsmall) with four CPU models; host seconds per platform:\n");
    println!(
        "{:<8} {:>14} {:>12} {:>12}  speedup (Ultra vs Xeon)",
        "CPU", "Intel_Xeon", "M1_Pro", "M1_Ultra"
    );
    // One guest simulation per CPU model, run in parallel by the
    // work-stealing pool; each feeds all three platforms from one stream.
    let rows: Vec<Vec<f64>> = gem5_profiling::prof::parallel_map(&CpuModel::ALL, |&cpu| {
        let guest = GuestSpec::new(Workload::Canneal, Scale::SimSmall, cpu, SimMode::Fs);
        let run = profile(&guest, &setups);
        run.hosts.iter().map(|h| h.seconds()).collect()
    });
    for (cpu, s) in CpuModel::ALL.iter().zip(&rows) {
        println!(
            "{:<8} {:>13.4}s {:>11.4}s {:>11.4}s  {:>6.2}x",
            cpu.label(),
            s[0],
            s[1],
            s[2],
            s[0] / s[2]
        );
    }

    println!("\nwhy: the front-end stall sources on each platform (O3 model):");
    // Served from the trace cache — the O3 guest was already simulated
    // for the table above, so this profile is a pure replay.
    let run = profile(
        &GuestSpec::new(
            Workload::Canneal,
            Scale::SimSmall,
            CpuModel::O3,
            SimMode::Fs,
        ),
        &setups,
    );
    for h in &run.hosts {
        let td = &h.topdown;
        println!(
            "  {:<11} iCache {:>5.1}%  iTLB {:>5.1}%  unknown-br {:>5.1}%  IPC {:.2}",
            h.name,
            td.pct(td.fe_latency.icache),
            td.pct(td.fe_latency.itlb),
            td.pct(td.fe_latency.unknown_branches),
            h.ipc()
        );
    }
    println!("\n(paper: 6x larger iCache, 4x larger dCache and 16 KB pages nearly eliminate");
    println!(" the Xeon's dominant stall sources, giving M1 a 1.7-3x simulation-speed win)");
}
