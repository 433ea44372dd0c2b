//! One bench per paper figure: each regenerates the figure at Quick
//! fidelity and reports its wall time. `repro all` produces the
//! full-size tables; these benches keep every figure pipeline healthy
//! and measured.
//!
//! Note: the guest-trace memoization cache is process-wide, so after the
//! first iteration of each figure the guest simulations are served by
//! replay — the numbers measure the steady-state (cached) pipeline.

use bench::harness::{Budget, Runner};
use gem5prof::figures::{self, Fidelity};
use gem5prof::report::Table;
use std::time::Duration;

fn main() {
    let mut r = Runner::from_args();
    let budget = Budget {
        max_time: Duration::from_secs(3),
        max_iters: 10,
    };

    type Figure = fn(Fidelity) -> Table;
    let figs: Vec<(&str, Figure)> = vec![
        ("fig01", figures::fig01),
        ("fig02", figures::fig02),
        ("fig03", figures::fig03),
        ("fig04", figures::fig04),
        ("fig05", figures::fig05),
        ("fig06", figures::fig06),
        ("fig07", figures::fig07),
        ("fig08", figures::fig08),
        ("fig09", figures::fig09),
        ("fig10", figures::fig10),
        ("fig11", figures::fig11),
        ("fig12", figures::fig12),
        ("fig13", figures::fig13),
        ("fig14", figures::fig14),
        ("fig15", figures::fig15),
    ];
    for (name, f) in figs {
        r.bench_with(&format!("figures/{name}"), budget, || {
            f(Fidelity::Quick).rows.len()
        });
    }

    r.bench_with("figures/table1", budget, || figures::table1().rows.len());
    r.bench_with("figures/table2", budget, || figures::table2().rows.len());

    r.finish();
}
