//! Golden-output regression suite: every quick-fidelity artifact the
//! `repro` binary can emit — Table I, Table II, Fig. 1 through Fig. 17
//! — rendered in-process and diffed byte-for-byte against the checked-in
//! references under `tests/golden/`.
//!
//! The whole pipeline is deterministic (seeded synthetic traces, fixed
//! host models, order-preserving `parallel_map`), so any byte of drift
//! in these renders is a behavior change in the simulator, the host
//! model, or the table renderer — exactly the regressions a refactor
//! of those layers must not smuggle in. Failures print a per-line diff,
//! not a bytes-differ boolean.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! GEM5PROF_BLESS=1 cargo test --test golden_repro
//! ```
//!
//! then review the diff of `tests/golden/` like any other code change.

use gem5prof::figures::{self, Fidelity};
use gem5sim::ExecTier;
use std::path::PathBuf;

/// Artifact names, in [`figures::all_figures`] order.
const NAMES: [&str; 19] = [
    "table1", "table2", "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
    "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn blessing() -> bool {
    std::env::var("GEM5PROF_BLESS").is_ok_and(|v| v == "1")
}

/// A readable per-line failure report: the first few diverging lines,
/// each shown as golden vs rendered.
fn diff_report(name: &str, expected: &str, actual: &str) -> String {
    let mut out = format!("`{name}` diverged from tests/golden/{name}.txt:\n");
    let (exp_lines, act_lines): (Vec<_>, Vec<_>) =
        (expected.lines().collect(), actual.lines().collect());
    let mut shown = 0;
    for i in 0..exp_lines.len().max(act_lines.len()) {
        let e = exp_lines.get(i).copied();
        let a = act_lines.get(i).copied();
        if e == a {
            continue;
        }
        out.push_str(&format!(
            "  line {:>3}: golden   {}\n  line {:>3}: rendered {}\n",
            i + 1,
            e.unwrap_or("<missing — golden ends here>"),
            i + 1,
            a.unwrap_or("<missing — render ends here>"),
        ));
        shown += 1;
        if shown == 8 {
            out.push_str("  … (further diverging lines elided)\n");
            break;
        }
    }
    if exp_lines.len() != act_lines.len() {
        out.push_str(&format!(
            "  golden has {} lines, render has {}\n",
            exp_lines.len(),
            act_lines.len()
        ));
    }
    out.push_str("  (intentional change? re-bless with GEM5PROF_BLESS=1 and review the diff)");
    out
}

#[test]
fn quick_artifacts_match_golden_outputs() {
    let tables = figures::all_figures(Fidelity::Quick);
    assert_eq!(
        tables.len(),
        NAMES.len(),
        "artifact list changed — update NAMES and re-bless"
    );
    let dir = golden_dir();
    if blessing() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        for (name, table) in NAMES.iter().zip(&tables) {
            std::fs::write(dir.join(format!("{name}.txt")), format!("{table}"))
                .unwrap_or_else(|e| panic!("bless {name}: {e}"));
        }
        eprintln!(
            "blessed {} golden artifacts into {}",
            NAMES.len(),
            dir.display()
        );
        return;
    }
    let mut failures = Vec::new();
    for (name, table) in NAMES.iter().zip(&tables) {
        let rendered = format!("{table}");
        let path = dir.join(format!("{name}.txt"));
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == rendered => {}
            Ok(expected) => failures.push(diff_report(name, &expected, &rendered)),
            Err(e) => failures.push(format!(
                "`{name}`: cannot read {} ({e}) — bless with GEM5PROF_BLESS=1",
                path.display()
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} golden artifacts diverged:\n\n{}",
        failures.len(),
        NAMES.len(),
        failures.join("\n\n")
    );
}

/// Execution-tier matrix: the interp and block tiers must each
/// reproduce all 19 blessed artifacts byte-for-byte. Nothing is
/// regenerated or re-blessed here — the goldens stay exactly as the
/// main test checked them in. The memoization cache is cleared before
/// each leg so the second tier genuinely re-simulates every guest
/// instead of replaying the first leg's cached traces.
#[test]
fn both_exec_tiers_reproduce_golden_artifacts() {
    if blessing() {
        return; // blessing is the main test's job
    }
    let dir = golden_dir();
    let mut failures = Vec::new();
    for tier in [ExecTier::Interp, ExecTier::Block] {
        gem5prof::with_exec_tier(tier, || {
            gem5prof::runner::clear_cache();
            let tables = figures::all_figures(Fidelity::Quick);
            assert_eq!(tables.len(), NAMES.len(), "artifact list changed");
            for (name, table) in NAMES.iter().zip(&tables) {
                let rendered = format!("{table}");
                let tagged = format!("{name} [{} tier]", tier.label());
                let path = dir.join(format!("{name}.txt"));
                match std::fs::read_to_string(&path) {
                    Ok(expected) if expected == rendered => {}
                    Ok(expected) => failures.push(diff_report(&tagged, &expected, &rendered)),
                    Err(e) => failures.push(format!(
                        "`{tagged}`: cannot read {} ({e}) — bless with GEM5PROF_BLESS=1",
                        path.display()
                    )),
                }
            }
        });
    }
    assert!(
        failures.is_empty(),
        "{} golden artifacts diverged across the tier matrix:\n\n{}",
        failures.len(),
        failures.join("\n\n")
    );
}
