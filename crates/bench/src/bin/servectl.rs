//! `servectl` — query one endpoint of a running `gem5prof-served` (or
//! cluster router) and pretty-print the JSON response, plus cluster
//! orchestration.
//!
//! ```text
//! servectl [--addr HOST:PORT] [--timeout-ms N] [--post BODY] PATH
//! servectl cluster spawn N [--addr HOST:PORT] [--cache-dir PATH] [--port-file PATH]
//! servectl cluster status [--addr HOST:PORT]
//! servectl cluster drain  [--addr HOST:PORT]
//! servectl profile history                    (snapshot index)
//! servectl profile snapshot [LABEL]           (capture a window)
//! servectl profile diff [A] [B]               (diff + regression gate; exit 4 on gate failure)
//! servectl profile bless [ID]                 (mark the baseline)
//!
//! servectl healthz
//! servectl stats
//! servectl figures/fig01
//! servectl --post '{"platform":"m1_pro","workload":"dedup","cpu":"o3"}' experiments
//! ```
//!
//! A leading `/` on PATH is optional. Exits 0 on a 2xx response, 1 on an
//! HTTP error status, 2 on usage errors, 3 on connection failure —
//! which makes it usable as a smoke test (`scripts/verify.sh`).
//!
//! `profile diff` adds exit code 4: the HTTP exchange succeeded but the
//! hot-span regression gate reported `pass: false`. `A`/`B` default to
//! `blessed`/`latest`, so a bare `servectl profile diff` is the
//! regression gate against the blessed baseline.
//!
//! `cluster spawn N` launches a detached `gem5prof-cluster --spawn N`
//! (found next to this binary): N daemons plus the router, as one
//! process tree. `cluster status` pretty-prints `GET /cluster` from the
//! router; `cluster drain` posts `/drain`, which the router's process
//! observes and turns into a graceful fleet-wide shutdown.
//!
//! The request rides the shared retry policy
//! (`gem5prof_served::retry`): 429s honor `Retry-After`, connect
//! refusal backs off exponentially — so a daemon still binding its
//! port, or momentarily saturated, does not flake the smoke test.

use gem5prof_served::minjson;
use gem5prof_served::retry::{request_with_retry, RetryPolicy};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: servectl [--addr HOST:PORT] [--timeout-ms N] [--post BODY] PATH\n\
         \x20      servectl cluster spawn N [--addr HOST:PORT] [--cache-dir PATH] [--port-file PATH]\n\
         \x20      servectl cluster status|drain [--addr HOST:PORT]\n\
         \x20      servectl profile history|snapshot [LABEL]|diff [A] [B]|bless [ID] [--addr HOST:PORT]"
    );
    std::process::exit(2);
}

/// Launches a detached `gem5prof-cluster --spawn N` process tree.
fn cluster_spawn(n: usize, addr: &str, cache_dir: Option<&str>, port_file: Option<&str>) -> ! {
    let bin = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("gem5prof-cluster")))
        .filter(|p| p.exists());
    let Some(bin) = bin else {
        eprintln!("servectl: cannot find gem5prof-cluster next to this binary");
        std::process::exit(3);
    };
    let mut cmd = std::process::Command::new(&bin);
    cmd.arg("--spawn")
        .arg(n.to_string())
        .arg("--addr")
        .arg(addr);
    if let Some(dir) = cache_dir {
        cmd.arg("--cache-dir").arg(dir);
    }
    if let Some(path) = port_file {
        cmd.arg("--port-file").arg(path);
    }
    match cmd.spawn() {
        Ok(child) => {
            // The child outlives servectl (dropping a Child does not
            // kill it); `cluster drain` or SIGTERM stops it later.
            bench::outln!(
                "servectl: spawned gem5prof-cluster (pid {}) with {n} nodes on {addr}",
                child.id()
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("servectl: cannot spawn {}: {e}", bin.display());
            std::process::exit(3);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut timeout = Duration::from_secs(30);
    let mut body: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut positionals: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        let mut step = 2;
        match args[i].as_str() {
            "--addr" => addr = Some(value(i)),
            "--timeout-ms" => {
                let ms: u64 = value(i).parse().unwrap_or_else(|_| usage());
                timeout = Duration::from_millis(ms);
            }
            "--post" => body = Some(value(i)),
            "--cache-dir" => cache_dir = Some(value(i)),
            "--port-file" => port_file = Some(value(i)),
            "--help" | "-h" => usage(),
            p if !p.starts_with("--") => {
                positionals.push(p.to_string());
                step = 1;
            }
            _ => usage(),
        }
        i += step;
    }

    // `profile diff` succeeds as an HTTP exchange even when the gate
    // fails; the gate verdict surfaces as exit code 4 instead.
    let mut gate_check = false;
    let path = match positionals.first().map(String::as_str) {
        Some("profile") if positionals.len() >= 2 => {
            match positionals.get(1).map(String::as_str) {
                Some("history") if positionals.len() == 2 => "/profile/history".to_string(),
                Some("snapshot") if positionals.len() <= 3 => {
                    let label = positionals.get(2).map_or("manual", String::as_str);
                    body = Some(String::new()); // POST
                    format!("/profile/snapshot?label={label}")
                }
                Some("diff") if positionals.len() <= 4 => {
                    let a = positionals.get(2).map_or("blessed", String::as_str);
                    let b = positionals.get(3).map_or("latest", String::as_str);
                    gate_check = true;
                    format!("/profile/diff?a={a}&b={b}")
                }
                Some("bless") if positionals.len() <= 3 => {
                    let id = positionals.get(2).map_or("latest", String::as_str);
                    body = Some(String::new()); // POST
                    format!("/profile/bless?id={id}")
                }
                _ => usage(),
            }
        }
        Some("cluster") => match positionals.get(1).map(String::as_str) {
            Some("spawn") => {
                let n: usize = positionals
                    .get(2)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
                cluster_spawn(
                    n,
                    addr.as_deref().unwrap_or("127.0.0.1:7100"),
                    cache_dir.as_deref(),
                    port_file.as_deref(),
                );
            }
            Some("status") if positionals.len() == 2 => "/cluster".to_string(),
            Some("drain") if positionals.len() == 2 => {
                body = Some(String::new()); // POST
                "/drain".to_string()
            }
            _ => usage(),
        },
        Some(p) if positionals.len() == 1 => {
            if p.starts_with('/') {
                p.to_string()
            } else {
                format!("/{p}")
            }
        }
        _ => usage(),
    };
    let addr = addr.unwrap_or_else(|| "127.0.0.1:7005".to_string());
    let method = if body.is_some() { "POST" } else { "GET" };

    let policy = RetryPolicy {
        max_retries: 3,
        base: Duration::from_millis(50),
        cap: Duration::from_secs(2),
        seed: 0,
        timeout,
    };
    let mut conn = None;
    let attempt = request_with_retry(&mut conn, &addr, method, &path, body.as_deref(), &policy, 0);
    if attempt.retries > 0 {
        eprintln!("servectl: {} retries before an answer", attempt.retries);
    }
    match attempt.result {
        Ok((status, body)) => {
            eprintln!("{method} {path} → {status}");
            match minjson::parse(&body) {
                Ok(doc) => bench::outln!("{}", doc.to_string_pretty()),
                Err(_) => bench::outln!("{body}"),
            }
            if !(200..300).contains(&status) {
                std::process::exit(1);
            }
            if gate_check {
                let pass = minjson::parse(&body)
                    .ok()
                    .and_then(|doc| doc.get("gate")?.get("pass")?.as_bool())
                    .unwrap_or(true);
                if !pass {
                    eprintln!("servectl: hot-span regression gate FAILED");
                    std::process::exit(4);
                }
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("servectl: {method} http://{addr}{path} failed: {e}");
            std::process::exit(3);
        }
    }
}
