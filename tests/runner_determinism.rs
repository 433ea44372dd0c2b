//! The parallel runner's determinism contract: a figure built on N
//! threads is byte-identical to the same figure built on 1 thread.
//!
//! The comparison is on the rendered `Table` (its `Display` output —
//! exactly what `repro` prints), so any divergence in row order, value
//! or formatting fails the test.

use gem5_profiling::prof::experiment::{profile, GuestSpec, HostSetup};
use gem5_profiling::prof::figures::{fig01, fig14, Fidelity};
use gem5_profiling::prof::runner::clear_cache;
use gem5_profiling::prof::{threads, with_threads};
use gem5_profiling::sim::config::{CpuModel, SimMode};
use gem5_profiling::workloads::{Scale, Workload};
use platforms::firesim;

#[test]
fn fig01_is_byte_identical_across_thread_counts() {
    let parallel = with_threads(4, || fig01(Fidelity::Quick).to_string());
    let single = with_threads(1, || fig01(Fidelity::Quick).to_string());
    assert_eq!(parallel, single, "fig01 diverged between 4 and 1 threads");
}

#[test]
fn fig14_is_byte_identical_across_thread_counts() {
    let parallel = with_threads(4, || fig14(Fidelity::Quick).to_string());
    let single = with_threads(1, || fig14(Fidelity::Quick).to_string());
    assert_eq!(parallel, single, "fig14 diverged between 4 and 1 threads");
}

#[test]
fn multi_host_profile_is_identical_across_thread_counts_cold_and_warm() {
    // One guest, the seven Fig. 14 hosts: each host engine is its own
    // parallel task, so the thread count must not change a single bit.
    let spec = GuestSpec::new(Workload::Sieve, Scale::Test, CpuModel::O3, SimMode::Se);
    let hosts: Vec<HostSetup> = firesim::fig14_sweep()
        .into_iter()
        .map(HostSetup::raw)
        .collect();
    let cold_and_warm = |n| {
        with_threads(n, || {
            clear_cache();
            (profile(&spec, &hosts), profile(&spec, &hosts))
        })
    };
    let (reference, warm) = cold_and_warm(1);
    let mut runs = vec![("warm", 1, warm)];
    for n in [2, 5] {
        let (cold, warm) = cold_and_warm(n);
        runs.extend([("cold", n, cold), ("warm", n, warm)]);
    }
    for (label, n, run) in runs {
        assert_eq!(run.guest, reference.guest, "{label} guest, {n} threads");
        assert_eq!(run.hosts, reference.hosts, "{label} hosts, {n} threads");
        assert_eq!(
            run.profile, reference.profile,
            "{label} profile, {n} threads"
        );
    }
}

#[test]
fn threads_zero_falls_back_to_available_parallelism() {
    // `GEM5PROF_THREADS=0` (and `set_threads(0)`, which `with_threads(0, …)`
    // pins here) means "auto", not "zero workers". The other tests in this
    // file are immune to the env var: they pin a non-zero override, which
    // takes precedence.
    std::env::set_var("GEM5PROF_THREADS", "0");
    let resolved = with_threads(0, threads);
    std::env::remove_var("GEM5PROF_THREADS");
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        resolved, auto,
        "GEM5PROF_THREADS=0 must fall back to available parallelism"
    );
    assert!(resolved >= 1);
}

#[test]
fn garbage_thread_env_is_ignored() {
    std::env::set_var("GEM5PROF_THREADS", "lots");
    let resolved = with_threads(0, threads);
    std::env::remove_var("GEM5PROF_THREADS");
    assert!(resolved >= 1, "unparseable env var must not zero the pool");
}
