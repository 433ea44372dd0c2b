//! `repro` — regenerates every table and figure of *Profiling gem5
//! Simulator* (ISPASS 2023).
//!
//! ```text
//! repro all [--quick]        # everything, in paper order
//! repro fig1 ... fig17       # one figure
//! repro table1 | table2      # configuration tables
//! repro hottest [cpu]        # named hottest functions (Fig. 15 detail)
//! ```
//!
//! `--threads N` (or the `GEM5PROF_THREADS` environment variable) pins
//! the parallel runner's worker count; the default is every core.
//! Output is byte-identical at any thread count.
//!
//! `--self-profile` turns the paper's methodology on the tool itself:
//! after the run it prints the gem5prof-obs span table (per-phase self
//! time, hottest first) and the fraction of wall time the spans account
//! for, on stderr so piped figure output stays clean.

use gem5prof::ablation;
use gem5prof::figures::{self, Fidelity};
use gem5sim::config::CpuModel;

fn fidelity(args: &[String]) -> Fidelity {
    if args.iter().any(|a| a == "--quick") {
        Fidelity::Quick
    } else {
        Fidelity::Paper
    }
}

/// Applies `--threads N` to the runner; exits on a malformed value.
/// `--threads 0` is accepted as "auto": it falls back to available
/// parallelism with a warning (matching `GEM5PROF_THREADS=0`).
fn apply_threads(args: &[String]) {
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(0) => {
                eprintln!("warning: --threads 0 — falling back to available parallelism");
                gem5prof::set_threads(0);
            }
            Some(n) => gem5prof::set_threads(n),
            None => {
                eprintln!("--threads requires a non-negative integer");
                std::process::exit(2);
            }
        }
    }
}

/// Prints the span table and wall-time accounting for `--self-profile`.
fn report_self_profile(wall: std::time::Duration) {
    let nodes = gem5prof_obs::span::snapshot();
    let root_ns: u64 = nodes
        .iter()
        .filter(|n| n.path == ["repro"])
        .map(|n| n.total_ns)
        .sum();
    eprintln!("\n--- self-profile (gem5prof-obs span table) ---");
    eprint!("{}", gem5prof_obs::span::render_table());
    let wall_ns = wall.as_nanos().max(1) as u64;
    eprintln!(
        "spans account for {:.1}% of {:.3}s wall time",
        100.0 * root_ns as f64 / wall_ns as f64,
        wall.as_secs_f64()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    apply_threads(&args);
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let f = fidelity(&args);
    let self_profile = args.iter().any(|a| a == "--self-profile");
    let wall_start = std::time::Instant::now();
    if self_profile {
        gem5prof_obs::span::reset();
    }
    // Root span: everything below (figure spans, profile/workload spans,
    // eventq drains) nests under `repro` in the table.
    let root = self_profile.then(|| gem5prof_obs::span("repro"));

    match cmd {
        "all" => {
            for t in figures::all_figures(f) {
                bench::outln!("{t}");
            }
        }
        "table1" => bench::outln!("{}", figures::table1()),
        "table2" => bench::outln!("{}", figures::table2()),
        "fig1" => bench::outln!("{}", figures::fig01(f)),
        "fig2" => bench::outln!("{}", figures::fig02(f)),
        "fig3" => bench::outln!("{}", figures::fig03(f)),
        "fig4" => bench::outln!("{}", figures::fig04(f)),
        "fig5" => bench::outln!("{}", figures::fig05(f)),
        "fig6" => bench::outln!("{}", figures::fig06(f)),
        "fig7" => bench::outln!("{}", figures::fig07(f)),
        "fig8" => bench::outln!("{}", figures::fig08(f)),
        "fig9" => bench::outln!("{}", figures::fig09(f)),
        "fig10" => bench::outln!("{}", figures::fig10(f)),
        "fig11" => bench::outln!("{}", figures::fig11(f)),
        "fig12" => bench::outln!("{}", figures::fig12(f)),
        "fig13" => bench::outln!("{}", figures::fig13(f)),
        "fig14" => bench::outln!("{}", figures::fig14(f)),
        "fig15" => bench::outln!("{}", figures::fig15(f)),
        "fig16" => bench::outln!("{}", figures::fig16(f)),
        "fig17" => bench::outln!("{}", figures::fig17(f)),
        "ablation" => {
            bench::outln!("{}", ablation::accelerator_study(f));
            bench::outln!("{}", ablation::host_mechanism_ablation(f));
        }
        "hottest" => {
            let cpu = match args.get(1).map(String::as_str) {
                Some("atomic") => CpuModel::Atomic,
                Some("timing") => CpuModel::Timing,
                Some("minor") => CpuModel::Minor,
                _ => CpuModel::O3,
            };
            bench::outln!("hottest functions ({cpu:?}, water_nsquared):");
            for (name, calls, share) in figures::fig15_hottest(f, cpu, 20) {
                bench::outln!("  {name:<40} {calls:>10} calls {:>6.2}%", 100.0 * share);
            }
        }
        other => {
            eprintln!(
                "unknown command `{other}`; try: all, table1, table2, fig1..fig17, hottest, ablation"
            );
            std::process::exit(2);
        }
    }

    drop(root);
    if self_profile {
        report_self_profile(wall_start.elapsed());
    }
}
