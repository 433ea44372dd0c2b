//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --daemon PATH --out DIR
//! ```
//!
//! Every round starts a fresh `gem5prof-served` child (`--workers` =
//! nproc, default exec tier, no disk tier), sends the round's warm-up
//! requests (set-up), then drives the measured requests from this one
//! process over at most nproc keep-alive connections in a closed loop.
//! Every response is checked. The last line of stdout is the result
//! object; a human-readable scorecard and the provenance go to stderr.
//!
//! With `--trace 0` the result carries the end-to-end metrics. With
//! `--trace 1` it carries the per-layer ledger: the first round is run
//! once plainly and once traced (scraping `/stats` and `/metrics`
//! around the measured phase), then every measured operation is
//! repeated in-process layer by layer (see `ledger`).

mod check;
mod daemon;
mod json;
mod ledger;
mod load;
mod plan;
mod stats;

use daemon::Daemon;
use json::Json;
use ledger::{Ledger, Span};
use load::{Judgement, Outcome};
use plan::{Expect, Plan, Req, Rng, Round};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = HashMap::new();
    for pair in argv.chunks(2) {
        let [k, v] = pair else {
            return Err(format!("flag `{}` needs a value", pair[0]));
        };
        kv.insert(k.trim_start_matches("--").to_string(), v.clone());
    }
    let take = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        take(k)?
            .parse()
            .map_err(|_| format!("--{k} wants a whole number"))
    };
    Ok(Args {
        workload: take("workload")?,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace: num("trace")? != 0,
        daemon: take("daemon")?.into(),
        out: take("out")?.into(),
    })
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The result of one run: the contract's result object plus failures.
struct Report {
    attempted: u64,
    failures: Vec<String>,
    violations: Vec<String>,
    metrics: Metrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Some(plan) = plan::plan(&args.workload, args.seed, args.seconds, nproc) else {
        eprintln!(
            "perfbench: unknown workload `{}` (want one of {:?})",
            args.workload,
            plan::WORKLOADS
        );
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    eprintln!("perfbench: provenance {}", provenance(&args, nproc));
    let run = if args.trace {
        traced(&args, &plan, nproc)
    } else {
        untraced(&args, &plan, nproc)
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in report.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    for v in &report.violations {
        eprintln!("perfbench: INVALID {v}");
    }
    let correct = report.failures.is_empty() && report.violations.is_empty();
    println!(
        "{}",
        json::result_line(
            correct,
            report.attempted.max(1),
            report.failures.len() as u64,
            &report.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn provenance(args: &Args, nproc: usize) -> String {
    let commit = std::env::var("GEM5PROF_COMMIT").ok().or_else(|| {
        let out = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    });
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{}\", \"exec_tier\": \"{:?}\", \"workers\": {nproc}, \"nproc\": {nproc}, \"rustc\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        commit.unwrap_or_else(|| "unknown".into()),
        gem5prof::exec_tier(),
        rustc.unwrap_or_else(|| "unknown".into()),
    )
}

/// One fresh-daemon round as observed from outside.
struct RoundRun {
    setup_s: f64,
    warm: Vec<(u16, Vec<u8>)>,
    outcomes: Vec<Outcome>,
    phase_s: f64,
    daemon_cpu_s: f64,
    client_cpu_s: f64,
    peak_rss_mb: f64,
    stats: (Json, Json),
    metrics: (String, String),
    net: (u64, u64),
    failures: Vec<String>,
}

impl RoundRun {
    /// A `/stats` counter's change over the measured phase.
    fn stat_delta(&self, path: &str) -> f64 {
        self.stats.1.num(path).unwrap_or(0.0) - self.stats.0.num(path).unwrap_or(0.0)
    }

    /// A `/metrics` family's change over the measured phase.
    fn metric_delta(&self, name: &str) -> f64 {
        daemon::prom_sum(&self.metrics.1, name) - daemon::prom_sum(&self.metrics.0, name)
    }
}

/// Identity of a request's result: the canonical key or the path.
fn result_key(req: &Req) -> String {
    req.spec()
        .map_or_else(|| req.path.clone(), |s| s.canonical_key())
}

/// Spawns a daemon, runs the warm-up (timed as set-up) and, with
/// `measure`, the measured phase.
fn run_round(
    args: &Args,
    plan: &Plan,
    round: &Round,
    workers: usize,
    measure: bool,
    scrape_metrics: bool,
) -> Result<RoundRun, String> {
    let t0 = Instant::now();
    let d = Daemon::spawn(&args.daemon, &args.out, workers)
        .map_err(|e| format!("cannot start {}: {e}", args.daemon.display()))?;
    let mut failures = Vec::new();
    let mut warm = Vec::new();
    {
        let mut conn = daemon::Conn::connect(&d.addr).map_err(|e| format!("connect: {e}"))?;
        for req in &round.warmup {
            let (status, body) = conn
                .send(&req.wire())
                .map_err(|e| format!("warm-up {}: {e}", req.path))?;
            if let Err(e) = check::static_check(req, status, &body) {
                failures.push(format!("warm-up {e}"));
            }
            warm.push((status, body));
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let mut run = RoundRun {
        setup_s,
        warm,
        outcomes: Vec::new(),
        phase_s: 0.0,
        daemon_cpu_s: 0.0,
        client_cpu_s: 0.0,
        peak_rss_mb: 0.0,
        stats: (Json::Null, Json::Null),
        metrics: (String::new(), String::new()),
        net: (0, 0),
        failures,
    };
    if !measure {
        d.stop();
        return Ok(run);
    }

    // Hot hits are checked inline against the warm-up body of the same
    // result key (itself checked above and, later, in-process).
    let inline = plan.workload == "hot_hits";
    let by_key: HashMap<String, &[u8]> = round
        .warmup
        .iter()
        .zip(&run.warm)
        .map(|(r, (_, b))| (result_key(r), b.as_slice()))
        .collect();
    let expected: Vec<Option<&[u8]>> = round
        .measured
        .iter()
        .map(|r| match r.expect {
            Expect::Health => None,
            _ => by_key.get(&result_key(r)).copied(),
        })
        .collect();
    let judge = |i: usize, status: u16, body: &[u8]| -> Judgement {
        if !inline {
            return Judgement::Keep;
        }
        if status != 200 {
            return Judgement::Fail(format!("{}: status {status}", round.measured[i].path));
        }
        let ok = match expected[i] {
            Some(want) => body == want,
            None => body.starts_with(b"{\"status\":\"ok\""),
        };
        if ok {
            Judgement::Pass
        } else {
            Judgement::Fail(format!(
                "{}: body differs from the warm-up response",
                round.measured[i].path
            ))
        }
    };
    let wires: Vec<Vec<u8>> = round.measured.iter().map(Req::wire).collect();

    let scrape = |path: &str| daemon::get(&d.addr, path).map_err(|e| format!("GET {path}: {e}"));
    let stats0 = json::parse(&scrape("/stats")?)?;
    let metrics0 = if scrape_metrics {
        scrape("/metrics")?
    } else {
        String::new()
    };
    let net0 = daemon::netstat();
    let cpu0 = d.cpu_seconds();
    let self0 = daemon::self_cpu_seconds();
    let start = Instant::now();
    run.outcomes = load::drive(&d.addr, &wires, plan.connections, start, &judge);
    run.phase_s = start.elapsed().as_secs_f64();
    run.client_cpu_s = daemon::self_cpu_seconds() - self0;
    run.daemon_cpu_s = d.cpu_seconds() - cpu0;
    let net1 = daemon::netstat();
    run.net = (net1.0.saturating_sub(net0.0), net1.1.saturating_sub(net0.1));
    let stats1 = json::parse(&scrape("/stats")?)?;
    let metrics1 = if scrape_metrics {
        scrape("/metrics")?
    } else {
        String::new()
    };
    run.stats = (stats0, stats1);
    run.metrics = (metrics0, metrics1);
    run.peak_rss_mb = d.peak_rss_mb();
    d.stop();

    for o in &run.outcomes {
        if let Some(f) = &o.failure {
            run.failures.push(f.clone());
        } else if let Some(body) = &o.body {
            if let Err(e) = check::static_check(&round.measured[o.index], o.status, body) {
                run.failures.push(e);
            }
        }
    }
    Ok(run)
}

/// The isolation each workload was chosen for, from `/stats` deltas
/// around the measured phase. A run that breaks it is invalid.
fn guards(workload: &str, round: &Round, run: &RoundRun) -> Vec<String> {
    let mut v = Vec::new();
    match workload {
        "cold_mix" => {
            let hits = run.stat_delta("trace_cache.hits");
            if hits != 0.0 {
                v.push(format!(
                    "cold_mix: {hits} trace-cache hits in the measured phase"
                ));
            }
            let keys: HashSet<String> = round.measured.iter().map(result_key).collect();
            if keys.len() != round.measured.len() {
                v.push("cold_mix: a spec key repeats within a round".into());
            }
        }
        "host_sweep" => {
            let misses = run.stat_delta("trace_cache.misses");
            if misses != 0.0 {
                v.push(format!(
                    "host_sweep: {misses} trace-cache misses in the measured phase"
                ));
            }
        }
        "hot_hits" => {
            let computes = run.stat_delta("result_cache.computes");
            if computes != 0.0 {
                v.push(format!(
                    "hot_hits: {computes} computes in the measured phase"
                ));
            }
        }
        _ => {}
    }
    // With at most nproc loopback connections the daemon's accept queue
    // cannot overflow; if it did, the run timed kernel SYN backoff. SYN
    // retransmits are counted netns-wide, so they only warn.
    if run.net.0 != 0 {
        v.push(format!(
            "ListenOverflows +{} during the phase: the run measured SYN backoff",
            run.net.0
        ));
    }
    if run.net.1 != 0 {
        eprintln!(
            "perfbench: warning: TCPSynRetrans +{} during the phase",
            run.net.1
        );
    }
    v
}

/// Compares served experiment bodies with in-process profiles of the
/// same specs. Returns the failures.
fn in_process_check<'a>(items: impl IntoIterator<Item = (&'a Req, &'a [u8])>) -> Vec<String> {
    items
        .into_iter()
        .filter_map(|(req, body)| {
            let spec = req.spec()?;
            let run = spec.run();
            check::matches_profile(&run, body)
                .err()
                .map(|e| format!("{}: {e}", spec.canonical_key()))
        })
        .collect()
}

fn untraced(args: &Args, plan: &Plan, nproc: usize) -> Result<Report, String> {
    let mut runs = Vec::new();
    for round in &plan.rounds {
        runs.push(run_round(args, plan, round, nproc, true, false)?);
    }
    // At least five set-up samples, whatever the round count.
    let mut setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    while setups.len() < 5 {
        setups.push(run_round(args, plan, &plan.rounds[0], nproc, false, false)?.setup_s);
    }

    let mut failures: Vec<String> = Vec::new();
    let mut violations = Vec::new();
    let mut attempted = 0u64;
    for (round, run) in plan.rounds.iter().zip(&runs) {
        failures.extend(run.failures.iter().cloned());
        violations.extend(guards(plan.workload, round, run));
        attempted += (round.warmup.len() + round.measured.len()) as u64;
    }

    // A seeded sample of served experiments, recomputed in-process.
    let mut rng = Rng::new(args.seed ^ 0xc4ec);
    let mut sample: Vec<(&Req, &[u8])> = Vec::new();
    for (round, run) in plan.rounds.iter().zip(&runs) {
        match plan.workload {
            "cold_mix" | "host_sweep" => {
                // Among the lighter half, to bound the check's cost.
                let mut idx: Vec<usize> = (0..round.measured.len()).collect();
                idx.sort_by(|&a, &b| {
                    round.measured[a]
                        .weight
                        .total_cmp(&round.measured[b].weight)
                });
                let i = idx[rng.below(idx.len().div_ceil(2))];
                if let Some(body) = &run.outcomes[i].body {
                    sample.push((&round.measured[i], body));
                }
            }
            "hot_hits" => {
                sample.extend(
                    round
                        .warmup
                        .iter()
                        .zip(&run.warm)
                        .map(|(r, (_, b))| (r, b.as_slice())),
                );
                break;
            }
            _ => {}
        }
    }
    gem5prof::runner::clear_cache();
    failures.extend(in_process_check(sample));

    let ops: usize = runs.iter().map(|r| r.outcomes.len()).sum();
    let phase: f64 = runs.iter().map(|r| r.phase_s).sum();
    let cpu: f64 = runs.iter().map(|r| r.daemon_cpu_s).sum();
    let mut lat_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.outcomes.iter().map(|o| o.latency_s * 1e3))
        .collect();
    lat_ms.sort_by(f64::total_cmp);
    let mut m = Metrics::new();
    m.insert("setup_s".into(), (stats::median(&setups), "s"));
    m.insert("throughput_ops".into(), (ops as f64 / phase, "ops/s"));
    m.insert(
        "latency_p50_ms".into(),
        (stats::percentile(&lat_ms, 50.0).unwrap_or(0.0), "ms"),
    );
    m.insert(
        "cpu_ms_per_op".into(),
        (cpu * 1e3 / ops.max(1) as f64, "ms"),
    );
    // Each round's daemon is fresh; its VmHWM at the end of the round is
    // one sample, and the median over rounds is steadier than the max.
    let rss: Vec<f64> = runs.iter().map(|r| r.peak_rss_mb).collect();
    m.insert("peak_rss_mb".into(), (stats::median(&rss), "MB"));

    let failed_frac = failures.len() as f64 / attempted.max(1) as f64;
    let digest = stats::response_digest(
        runs.iter()
            .flat_map(|r| &r.outcomes)
            .enumerate()
            .filter(|(_, o)| o.body.is_some())
            .map(|(i, o)| (i, o.body.as_deref().unwrap_or_default())),
    );
    eprintln!(
        "perfbench: {} rounds={} ops={ops} phase={phase:.3}s failed_frac={failed_frac} digest={digest:016x}",
        plan.workload,
        runs.len()
    );
    for (name, (v, unit)) in &m {
        eprintln!("perfbench:   {name:<16} {v:>14.6} {unit}");
    }
    match stats::p90(&lat_ms) {
        Some(p) => eprintln!("perfbench:   {:<16} {p:>14.6} ms", "latency_p90_ms"),
        None => eprintln!(
            "perfbench:   latency_p90_ms   omitted ({} ops < 100)",
            lat_ms.len()
        ),
    }
    if let Some((p, v)) = stats::highest_supported(&lat_ms, &[50.0, 90.0, 95.0, 99.0, 99.9]) {
        eprintln!("perfbench:   highest supported percentile p{p} = {v:.6} ms");
    }
    Ok(Report {
        attempted,
        failures,
        violations,
        metrics: m,
    })
}

fn traced(args: &Args, plan: &Plan, nproc: usize) -> Result<Report, String> {
    let round = &plan.rounds[0];
    let plain = run_round(args, plan, round, nproc, true, false)?;
    let run = run_round(args, plan, round, nproc, true, true)?;
    let mut failures: Vec<String> = plain
        .failures
        .iter()
        .chain(&run.failures)
        .cloned()
        .collect();
    let mut violations = guards(plan.workload, round, &plain);
    violations.extend(guards(plan.workload, round, &run));
    let attempted = 2 * (round.warmup.len() + round.measured.len()) as u64;

    let body =
        |r: &RoundRun, i: usize| -> Vec<u8> { r.outcomes[i].body.clone().unwrap_or_default() };
    let mut l = Ledger::new();
    let mut speedup = None;
    gem5prof::runner::clear_cache();
    match plan.workload {
        "cold_mix" => {
            for (i, req) in round.measured.iter().enumerate() {
                let spec = req.spec().expect("cold_mix sends experiments");
                let (profile, _, t) = l.cold(&spec.guest(), &[spec.host()], Some(i), || spec.run());
                l.profile_s += t;
                for r in [&plain, &run] {
                    if let Err(e) = check::matches_profile(&profile, &body(r, i)) {
                        failures.push(format!("{}: {e}", spec.canonical_key()));
                    }
                }
            }
        }
        "host_sweep" => {
            // Warm-up, in-process: record each guest and warm gem5prof's
            // trace cache with the same warm-up request the daemon saw.
            let mut streams = Vec::new();
            for spec in round.warmup.iter().filter_map(Req::spec) {
                let _ = spec.run();
                if let Some(s) = l.record(&spec.guest()) {
                    streams.push((spec.guest(), s));
                }
            }
            for (i, req) in round.measured.iter().enumerate() {
                let spec = req.spec().expect("host_sweep sends experiments");
                let Some((_, stream)) = streams.iter().find(|(g, _)| *g == spec.guest()) else {
                    failures.push(format!(
                        "{}: guest stream past the cache cap",
                        spec.canonical_key()
                    ));
                    continue;
                };
                let (profile, t) = l.replayed(stream, &spec.host(), Some(i), || spec.run());
                l.profile_s += t;
                for r in [&plain, &run] {
                    if let Err(e) = check::matches_profile(&profile, &body(r, i)) {
                        failures.push(format!("{}: {e}", spec.canonical_key()));
                    }
                }
            }
        }
        "hot_hits" => {
            // Nothing computes in the measured phase; the warm-up keys
            // every hit copies are checked in-process.
            for r in [&plain, &run] {
                failures.extend(in_process_check(
                    round
                        .warmup
                        .iter()
                        .zip(&r.warm)
                        .map(|(q, (_, b))| (q, b.as_slice())),
                ));
            }
        }
        _ => {
            let figs: Vec<u8> = round
                .measured
                .iter()
                .filter_map(|r| match r.expect {
                    Expect::Figure(n) => Some(n),
                    _ => None,
                })
                .collect();
            for (i, &n) in figs.iter().enumerate() {
                let (table, t) = l.span("core.figure", None, Some(i), |_| ledger::figure(n));
                l.profile_s += t;
                if check::golden(&format!("fig{n:02}")).ok() != Some(format!("{table}")) {
                    failures.push(format!("in-process fig{n:02} differs from its golden file"));
                }
            }
            gem5prof::runner::clear_cache();
            let (_, t1) = l.span("core.figures@1thread", None, None, |_| {
                gem5prof::with_threads(1, || figs.iter().for_each(|&n| drop(ledger::figure(n))))
            });
            speedup = Some(t1 / l.profile_s);
            let (guests, hosts) = ledger::fanout_probe();
            for g in &guests {
                let _ = l.cold(g, &hosts, None, || gem5prof::profile(g, &hosts));
            }
        }
    }
    let speedup = match speedup {
        Some(s) => s,
        None => {
            gem5prof::runner::clear_cache();
            let (_, t1) = l.span("core.fig02@1thread", None, None, |_| {
                gem5prof::with_threads(1, || ledger::figure(2))
            });
            gem5prof::runner::clear_cache();
            let (_, tn) = l.span("core.fig02@nproc", None, None, |_| {
                gem5prof::with_threads(nproc, || ledger::figure(2))
            });
            t1 / tn
        }
    };

    let m = per_layer(&l, &plain, &run, speedup);
    let client_spans: Vec<Span> = run
        .outcomes
        .iter()
        .map(|o| Span {
            name: format!("request/conn{}", o.conn),
            start_s: o.start_s,
            end_s: o.start_s + o.latency_s,
            parent: None,
            request: Some(o.index),
        })
        .collect();
    let spans_path = args
        .out
        .join(format!("spans-{}-seed{}.tsv", plan.workload, args.seed));
    l.write_spans(&spans_path, &client_spans)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!(
        "perfbench: {} traced, spans in {}",
        plan.workload,
        spans_path.display()
    );
    for (name, (v, unit)) in &m {
        eprintln!("perfbench:   {name:<34} {v:>16.6} {unit}");
    }
    Ok(Report {
        attempted,
        failures,
        violations,
        metrics: m,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(l: &Ledger, plain: &RoundRun, run: &RoundRun, speedup: f64) -> Metrics {
    let ops = run.outcomes.len().max(1) as f64;
    let resident = run
        .stats
        .1
        .num("trace_cache.resident_events")
        .unwrap_or(0.0);
    let trace_hits = run.stat_delta("trace_cache.hits");
    let trace_misses = run.stat_delta("trace_cache.misses");
    let hits = run.stat_delta("result_cache.hits");
    let computes = run.stat_delta("result_cache.computes");
    let coalesced = run.stat_delta("result_cache.coalesced");
    let queue_wait = run.metric_delta("served_queue_wait_seconds_sum");
    let compute = run.metric_delta("served_compute_seconds_sum");
    let client_latency: f64 = run.outcomes.iter().map(|o| o.latency_s).sum();
    let records = (l.exec_records + l.data_refs) as f64;
    let mut m = Metrics::new();
    let mut put = |name: &str, v: f64, unit: &'static str| {
        m.insert(name.to_string(), (v, unit));
    };
    put("sim.run_s", l.sim_s, "s");
    put("sim.insts", l.insts as f64, "count");
    put("sim.events", l.events as f64, "count");
    put(
        "sim.ns_per_inst",
        ratio(l.sim_s * 1e9, l.insts as f64),
        "ns",
    );
    put(
        "eventq.drain_s",
        run.metric_delta("gem5prof_eventq_drain_seconds_sum"),
        "s",
    );
    put("hosttrace.adapter_s", l.adapter_s, "s");
    put("hosttrace.record_s", l.record_s, "s");
    put("hosttrace.replay_s", l.replay_s, "s");
    put("hosttrace.exec_records", l.exec_records as f64, "count");
    put("hosttrace.data_refs", l.data_refs as f64, "count");
    put(
        "hosttrace.records_per_event",
        ratio(records, l.stream_events as f64),
        "ratio",
    );
    put(
        "hosttrace.trace_mb",
        resident * std::mem::size_of::<hosttrace::record::TraceEvent>() as f64 / (1024.0 * 1024.0),
        "MB",
    );
    put("hostmodel.exec_s", l.exec_s, "s");
    put(
        "hostmodel.ns_per_record",
        ratio(l.exec_s * 1e9, l.engine_records as f64),
        "ns",
    );
    put(
        "hostmodel.engines_per_stream",
        ratio(l.engines as f64, l.streams as f64),
        "count",
    );
    put("core.profile_s", l.profile_s, "s");
    put(
        "core.ledger_coverage",
        ratio(l.covered_layers_s, l.covered_profile_s),
        "ratio",
    );
    put(
        "core.trace_cache_hit_ratio",
        ratio(trace_hits, trace_hits + trace_misses),
        "ratio",
    );
    put("core.trace_cache_resident_events", resident, "count");
    put("core.parallel_speedup", speedup, "x");
    put("server.queue_wait_s", queue_wait, "s");
    put("server.compute_s", compute, "s");
    put(
        "server.lookup_s",
        run.metric_delta("served_cache_lookup_seconds_sum"),
        "s",
    );
    put(
        "server.overhead_us",
        (client_latency - queue_wait - compute) * 1e6 / ops,
        "us",
    );
    put(
        "server.result_cache_hit_ratio",
        ratio(hits, hits + computes + coalesced),
        "ratio",
    );
    put("server.computes", computes, "count");
    put("server.coalesced", coalesced, "count");
    put(
        "server.rejected",
        run.stat_delta("server.queue.rejected"),
        "count",
    );
    put("server.listen_overflows", run.net.0 as f64, "count");
    put("server.syn_retrans", run.net.1 as f64, "count");
    put(
        "bench.client_cpu_us_per_op",
        run.client_cpu_s * 1e6 / ops,
        "us",
    );
    put(
        "bench.trace_overhead_frac",
        ratio(run.phase_s, plain.phase_s) - 1.0,
        "ratio",
    );
    m
}
