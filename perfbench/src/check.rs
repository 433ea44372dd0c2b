//! Output checks. A response that fails any of them counts as failed.

use crate::json::{self, Json};
use crate::plan::{Expect, Req};
use gem5prof::report::Table;
use gem5prof::{ExperimentSpec, ProfileRun};
use gem5sim_workloads::Workload;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Checks that need no in-process computation: the status; for
/// experiments the canonical key and microbenchmark checksums; for
/// tables and figures byte equality with `tests/golden/`.
pub fn static_check(req: &Req, status: u16, body: &[u8]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("{}: status {status}", req.path));
    }
    let text = std::str::from_utf8(body).map_err(|_| format!("{}: non-UTF-8 body", req.path))?;
    match &req.expect {
        Expect::Health => {
            let j = json::parse(text)?;
            (j.str("status") == Some("ok"))
                .then_some(())
                .ok_or_else(|| "healthz: status is not ok".to_string())
        }
        Expect::Table(n) => golden_match(&format!("table{n}"), text),
        Expect::Figure(n) => golden_match(&format!("fig{n:02}"), text),
        Expect::Experiment(spec) => {
            let j = json::parse(text)?;
            let want = spec.canonical_key();
            if j.str("key") != Some(want.as_str()) {
                return Err(format!("key {:?} != canonical {want}", j.str("key")));
            }
            let got: Vec<&str> = j
                .arr("guest.checksums")
                .ok_or("missing guest.checksums")?
                .iter()
                .filter_map(|c| match c {
                    Json::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect();
            if let Some(expected) = expected_checksums(spec) {
                if got != expected.iter().map(String::as_str).collect::<Vec<_>>() {
                    return Err(format!("{want}: checksums {got:?} != {expected:?}"));
                }
            }
            Ok(())
        }
    }
}

/// `Microbench::expected_checksum` per hart, for microbenchmark specs.
fn expected_checksums(spec: &ExperimentSpec) -> Option<Vec<String>> {
    let Workload::Micro(main) = spec.workload else {
        return None;
    };
    Some(
        (0..spec.harts)
            .map(|h| {
                let m = match spec.corun {
                    Some(partner) if h % 2 == 1 => partner,
                    _ => main,
                };
                format!("{:#018x}", m.expected_checksum(spec.scale))
            })
            .collect(),
    )
}

/// Every deterministic guest and host field of an experiment response,
/// compared bit for bit with an in-process profile of the same spec.
pub fn matches_profile(run: &ProfileRun, body: &[u8]) -> Result<(), String> {
    let j = json::parse(std::str::from_utf8(body).map_err(|_| "non-UTF-8 body")?)?;
    let g = &run.guest;
    let h = &run.hosts[0];
    let (retiring, frontend, bad_spec, backend) = h.topdown.level1_pct();
    let fields: [(&str, f64); 19] = [
        ("guest.sim_ticks", g.sim_ticks as f64),
        ("guest.committed_insts", g.committed_insts as f64),
        ("guest.host_events", g.host_events as f64),
        (
            "guest.guest_mips",
            g.committed_insts as f64 / g.sim_seconds() / 1e6,
        ),
        ("host.seconds", h.seconds()),
        ("host.cycles", h.cycles),
        ("host.instructions", h.instructions),
        ("host.ipc", h.ipc()),
        ("host.topdown.retiring_pct", retiring),
        ("host.topdown.frontend_pct", frontend),
        ("host.topdown.bad_speculation_pct", bad_spec),
        ("host.topdown.backend_pct", backend),
        ("host.l1i_miss_rate", h.l1i_miss_rate),
        ("host.l1d_miss_rate", h.l1d_miss_rate),
        ("host.itlb_miss_rate", h.itlb_miss_rate),
        ("host.dtlb_miss_rate", h.dtlb_miss_rate),
        ("host.branch_mispredict_rate", h.branch_mispredict_rate),
        ("host.dsb_coverage", h.dsb_coverage),
        ("functions_touched", run.profile.functions_touched() as f64),
    ];
    for (path, want) in fields {
        let got = j.num(path).ok_or_else(|| format!("missing {path}"))?;
        if got.to_bits() != want.to_bits() {
            return Err(format!("{path}: served {got:?} != in-process {want:?}"));
        }
    }
    let sums: Vec<String> = g
        .guest_checksums
        .iter()
        .map(|c| format!("{c:#018x}"))
        .collect();
    let served: Vec<String> = j
        .arr("guest.checksums")
        .unwrap_or(&[])
        .iter()
        .filter_map(|c| match c {
            Json::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    if served != sums {
        return Err(format!(
            "checksums: served {served:?} != in-process {sums:?}"
        ));
    }
    Ok(())
}

/// Renders a served table or figure back into the text form of
/// `gem5prof::report::Table` and compares it with the golden file.
fn golden_match(name: &str, text: &str) -> Result<(), String> {
    let j = json::parse(text)?;
    let strings = |key: &str| -> Vec<String> {
        j.arr(key)
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| match v {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    };
    let mut table = Table::new(j.str("title").unwrap_or_default(), strings("columns"));
    for row in j.arr("rows").unwrap_or(&[]) {
        let values: Vec<f64> = row
            .arr("values")
            .unwrap_or(&[])
            .iter()
            .map(|v| match v {
                Json::Num(n) => *n,
                _ => f64::NAN,
            })
            .collect();
        if values.len() != table.columns.len() {
            return Err(format!("{name}: row width differs from columns"));
        }
        table.push(row.str("label").unwrap_or_default(), values);
    }
    for n in strings("notes") {
        table.note(n);
    }
    let golden = golden(name)?;
    if format!("{table}") == golden {
        Ok(())
    } else {
        Err(format!("{name}: differs from tests/golden/{name}.txt"))
    }
}

/// Golden text of an artifact, read once per process.
pub fn golden(name: &str) -> Result<String, String> {
    static CACHE: Mutex<Option<HashMap<String, String>>> = Mutex::new(None);
    let mut cache = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let map = cache.get_or_insert_with(HashMap::new);
    if let Some(t) = map.get(name) {
        return Ok(t.clone());
    }
    let path = PathBuf::from("tests")
        .join("golden")
        .join(format!("{name}.txt"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    map.insert(name.to_string(), text.clone());
    Ok(text)
}
