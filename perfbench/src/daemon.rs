//! The daemon under test as a child process, a keep-alive HTTP client
//! for it, and the `/proc` readings taken around a measured phase.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

/// A running `gem5prof-served`, stopped (and reaped) on drop.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    pub pid: u32,
}

impl Daemon {
    /// Starts the daemon on an ephemeral port with `workers` workers,
    /// the default exec tier and no disk tier, and waits until it
    /// listens.
    pub fn spawn(exe: &Path, out_dir: &Path, workers: usize) -> io::Result<Daemon> {
        static SPAWNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = SPAWNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let port_file: PathBuf = out_dir.join(format!("daemon-{}-{n}.addr", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out_dir.join("daemon.log"))?;
        let child = Command::new(exe)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
                "--port-file",
            ])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let pid = child.id();
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            pid,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(a) = std::fs::read_to_string(&port_file) {
                if !a.trim().is_empty() {
                    daemon.addr = a.trim().to_string();
                    let _ = std::fs::remove_file(&port_file);
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(io::Error::other(format!("daemon exited early: {status}")));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon did not listen within 30 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// User + system CPU seconds of the whole daemon process so far.
    pub fn cpu_seconds(&self) -> f64 {
        proc_cpu_seconds(&format!("/proc/{}/stat", self.pid))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGTERM, then wait for the graceful drain (SIGKILL after 10 s).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        // SAFETY: kill(2) takes plain integers; `pid` is our own child,
        // not yet reaped (we hold its `Child`), so it names no other process.
        unsafe {
            kill(self.pid as i32, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn clock_ticks() -> f64 {
    // SAFETY: sysconf(3) takes an integer name and touches no memory.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// utime + stime from a `/proc/<pid>/stat` file, in seconds.
pub fn proc_cpu_seconds(path: &str) -> f64 {
    let Ok(s) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = s.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / clock_ticks()
}

/// The benchmark process's own CPU seconds (all threads), from
/// `getrusage(RUSAGE_SELF)` for microsecond resolution.
pub fn self_cpu_seconds() -> f64 {
    // struct rusage on 64-bit Linux: ru_utime and ru_stime as
    // (seconds, microseconds) pairs, then 14 longs.
    let mut u = [0i64; 18];
    // SAFETY: `u` is a writable buffer of exactly sizeof(struct rusage)
    // (144 bytes on 64-bit Linux), the only memory getrusage(2) writes.
    if unsafe { getrusage(0, &mut u) } != 0 {
        return 0.0;
    }
    (u[0] + u[2]) as f64 + (u[1] + u[3]) as f64 * 1e-6
}

/// `(ListenOverflows, TCPSynRetrans)` from `/proc/net/netstat`.
pub fn netstat() -> (u64, u64) {
    let Ok(s) = std::fs::read_to_string("/proc/net/netstat") else {
        return (0, 0);
    };
    let lines: Vec<&str> = s.lines().collect();
    let mut out = (0, 0);
    for pair in lines.chunks(2) {
        let [names, values] = pair else { continue };
        if !names.starts_with("TcpExt:") {
            continue;
        }
        for (n, v) in names.split_whitespace().zip(values.split_whitespace()) {
            match n {
                "ListenOverflows" => out.0 = v.parse().unwrap_or(0),
                "TCPSynRetrans" => out.1 = v.parse().unwrap_or(0),
                _ => {}
            }
        }
    }
    out
}

/// One keep-alive HTTP/1.1 connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends one pre-rendered request and reads the response
    /// (`Content-Length` framed). Returns the status and body.
    pub fn send(&mut self, wire: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(wire)?;
        let head_end = loop {
            if let Some(p) = find(&self.buf, b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::other("non-UTF-8 response head"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other("bad status line"))?;
        let mut len = None;
        for line in head.lines().skip(1) {
            if let Some((k, v)) = line.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse::<usize>().ok();
                } else if k.trim().eq_ignore_ascii_case("transfer-encoding") {
                    return Err(io::Error::other("unexpected chunked response"));
                }
            }
        }
        let len = len.ok_or_else(|| io::Error::other("response without content-length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok((status, body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// One-shot GET on a fresh connection (for `/stats` and `/metrics`).
pub fn get(addr: &str, path: &str) -> io::Result<String> {
    let mut c = Conn::connect(addr)?;
    let (status, body) =
        c.send(format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n").as_bytes())?;
    if status != 200 {
        return Err(io::Error::other(format!("GET {path}: status {status}")));
    }
    String::from_utf8(body).map_err(|_| io::Error::other("non-UTF-8 body"))
}

/// Sums every sample of a Prometheus metric family (all label sets).
pub fn prom_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let base = series.split('{').next()?;
            (base == name).then(|| value.parse::<f64>().ok()).flatten()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_sum_adds_label_sets() {
        let text = "# HELP x y\nserved_cache_lookup_seconds_sum{outcome=\"hit\"} 0.5\n\
                    served_cache_lookup_seconds_sum{outcome=\"miss\"} 0.25\n\
                    served_cache_lookup_seconds_count 3\n";
        assert_eq!(prom_sum(text, "served_cache_lookup_seconds_sum"), 0.75);
        assert_eq!(prom_sum(text, "served_cache_lookup_seconds_count"), 3.0);
        assert_eq!(prom_sum(text, "absent"), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1);
        assert!(self_cpu_seconds() >= 0.0);
        let _ = netstat();
    }
}
