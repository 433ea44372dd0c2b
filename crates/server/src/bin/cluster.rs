//! The `gem5prof-cluster` binary: N daemons behind a consistent-hash
//! router, as one process tree.
//!
//! ```text
//! gem5prof-cluster [--addr HOST:PORT] (--spawn N | --members A,B,...)
//!                  [--vnodes N] [--probe-ms N] [--fail-threshold N]
//!                  [--cache-dir PATH] [--node-arg ARG]... [--port-file PATH]
//! ```
//!
//! `--spawn N` launches N `gem5prof-served` children (found next to
//! this binary) on ephemeral ports, collects their bound addresses via
//! port files, and routes across them; `--members` joins daemons that
//! are already running. Each spawned node gets a stable `--node-id
//! node-<i>` and, with `--cache-dir BASE`, its own disk warm tier at
//! `BASE/node<i>` — which is what makes peer warm-tier fetch useful
//! across restarts. `--node-arg` appends one raw argument to every
//! child's command line (repeat it: `--node-arg --queue --node-arg 64`).
//!
//! Shutdown (SIGINT/SIGTERM, or a client `POST /drain` to the router)
//! drains the fleet gracefully: children get SIGTERM and finish
//! in-flight work before the router exits. Spawned children inherit the
//! environment, so `GEM5PROF_CHAOS` arms fault injection fleet-wide.

use gem5prof_served::cluster::{serve_cluster, ClusterConfig, ClusterHandle, MemberSpec};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Sends SIGTERM so the child drains gracefully (`Child::kill` would
/// SIGKILL and drop in-flight work on the floor).
#[cfg(unix)]
fn terminate(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        kill(pid as i32, SIGTERM);
    }
}

#[cfg(not(unix))]
fn terminate(_pid: u32) {}

fn usage() -> ! {
    eprintln!(
        "usage: gem5prof-cluster [--addr HOST:PORT] (--spawn N | --members A,B,...) \
         [--vnodes N] [--probe-ms N] [--fail-threshold N] [--cache-dir PATH] \
         [--node-arg ARG]... [--port-file PATH]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("gem5prof-cluster: {msg}");
    std::process::exit(1);
}

/// Spawns `n` daemons on ephemeral ports and waits for their port
/// files. Returns the children alongside their member specs.
fn spawn_nodes(
    n: usize,
    cache_dir: Option<&PathBuf>,
    node_args: &[String],
) -> (Vec<Child>, Vec<MemberSpec>) {
    let served = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("gem5prof-served")))
        .filter(|p| p.exists())
        .unwrap_or_else(|| fail("cannot find gem5prof-served next to this binary"));
    let scratch = std::env::temp_dir().join(format!("gem5prof-cluster-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        fail(&format!("cannot create {}: {e}", scratch.display()));
    }

    let mut children = Vec::new();
    let mut port_files = Vec::new();
    for i in 0..n {
        let port_file = scratch.join(format!("node{i}.port"));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(&served);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--node-id")
            .arg(format!("node-{i}"));
        if let Some(base) = cache_dir {
            cmd.arg("--cache-dir").arg(base.join(format!("node{i}")));
        }
        cmd.args(node_args);
        match cmd.spawn() {
            Ok(child) => {
                children.push(child);
                port_files.push(port_file);
            }
            Err(e) => {
                for c in &children {
                    terminate(c.id());
                }
                fail(&format!("cannot spawn node {i}: {e}"));
            }
        }
    }

    // A node is up once its port file appears with a parseable addr.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut members = Vec::new();
    for (i, port_file) in port_files.iter().enumerate() {
        let addr = loop {
            match std::fs::read_to_string(port_file) {
                Ok(s) if s.contains(':') => break s.trim().to_string(),
                _ if Instant::now() > deadline => {
                    for c in &children {
                        terminate(c.id());
                    }
                    fail(&format!("node {i} did not write its port file in time"));
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        members.push(MemberSpec {
            addr,
            pid: Some(children[i].id()),
        });
    }
    (children, members)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ClusterConfig::default();
    let mut spawn_n: Option<usize> = None;
    let mut member_list: Vec<String> = Vec::new();
    let mut cache_dir: Option<PathBuf> = None;
    let mut node_args: Vec<String> = Vec::new();
    let mut port_file: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        let parse_usize = |i: usize| -> usize { value(i).parse().unwrap_or_else(|_| usage()) };
        match args[i].as_str() {
            "--addr" => cfg.addr = value(i),
            "--spawn" => spawn_n = Some(parse_usize(i).max(1)),
            "--members" => {
                member_list = value(i)
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect()
            }
            "--vnodes" => cfg.vnodes = parse_usize(i).max(1),
            "--probe-ms" => cfg.probe_interval = Duration::from_millis(parse_usize(i) as u64),
            "--fail-threshold" => cfg.fail_threshold = parse_usize(i) as u32,
            "--cache-dir" => cache_dir = Some(value(i).into()),
            "--node-arg" => node_args.push(value(i)),
            "--port-file" => port_file = Some(value(i)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 2;
    }
    if spawn_n.is_some() != member_list.is_empty() {
        usage(); // exactly one of --spawn / --members
    }

    install_signal_handlers();

    let mut children: Vec<Child> = Vec::new();
    cfg.members = match spawn_n {
        Some(n) => {
            let (spawned, members) = spawn_nodes(n, cache_dir.as_ref(), &node_args);
            children = spawned;
            members
        }
        None => member_list.into_iter().map(MemberSpec::new).collect(),
    };

    let handle: ClusterHandle = match serve_cluster(cfg.clone()) {
        Ok(h) => h,
        Err(e) => {
            for c in &children {
                terminate(c.id());
            }
            fail(&format!("cannot bind {}: {e}", cfg.addr));
        }
    };
    let addr = handle.addr();
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            fail(&format!("cannot write port file {path}: {e}"));
        }
    }
    eprintln!(
        "gem5prof-cluster: routing on http://{addr} across {} members ({}), \
         vnodes={}, probe={}ms",
        handle.alive_members(),
        cfg.members
            .iter()
            .map(|m| m.addr.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        cfg.vnodes,
        cfg.probe_interval.as_millis(),
    );

    while !SHUTDOWN.load(Ordering::SeqCst) && !handle.drain_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("gem5prof-cluster: draining fleet…");
    for child in &children {
        terminate(child.id());
    }
    for child in &mut children {
        let _ = child.wait();
    }
    handle.shutdown();
    eprintln!("gem5prof-cluster: drained, exiting");
}
