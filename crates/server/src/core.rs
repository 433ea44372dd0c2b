//! The nonblocking readiness core: one poller thread driving every
//! connection through a read → parse → route → write state machine.
//!
//! A single thread owns all sockets via [`crate::poll::Poller`] (epoll
//! on Linux, `poll(2)` elsewhere), so concurrency is bounded by
//! `max_conns`, not by OS threads, and a slow client never pins a
//! thread through a multi-second compute. Blocking work stays on
//! threads — the engine's worker pool for computes, a small offload
//! pool for cluster forwards — and completed results re-enter the loop
//! through a self-wake pipe.
//!
//! Per-connection guarantees:
//!
//! * a **read deadline** armed when the connection goes idle and *not*
//!   extended by partial request bytes, so a slow-loris drip-feeding
//!   headers is disconnected on schedule;
//! * a **write deadline** extended only by actual write progress, so a
//!   client that stops reading mid-response is disconnected instead of
//!   holding its connection and buffers forever;
//! * a **connection cap**: accepts beyond `max_conns` get an immediate
//!   canned 503 + `Retry-After`, so open connections stay bounded;
//! * **accept-error backoff**: accept failures (EMFILE and friends)
//!   back off exponentially and are counted, so a descriptor shortage
//!   never turns into a hot retry loop.
//!
//! Accounting is exactly-once by construction: every parsed request
//! produces exactly one `count_response` — at response queue time for
//! replies (a later delivery failure does not un-count it), or as
//! status `0` ("other") when a connection dies while its compute is
//! still pending. Saturation 503s are *not* counted in the
//! request/response balance: no request was ever parsed on those
//! connections.

use crate::http::{self, ParseStatus, Request};
use crate::poll::{self, Poller, WakePipe, Waker};
use crate::routes::{error_body, Reply};
use gem5prof_chaos as chaos;
use gem5prof_obs as obs;
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token of the accept socket.
const LISTENER: u64 = 0;
/// Poller token of the self-wake pipe's read end.
const WAKEUP: u64 = 1;
/// First connection token; tokens are monotone and never reused, so a
/// stale event for a closed connection can never alias a new one.
const FIRST_CONN: u64 = 2;

/// Stop reading (and parsing pipelined requests) while this much
/// response data is still unflushed — per-connection memory stays
/// bounded no matter how fast the client pipelines.
const WBUF_SOFT_CAP: usize = 256 * 1024;
/// Hard cap on buffered request bytes; the parser's own line/body
/// limits reject anything near this, so hitting it means a flood.
const MAX_RBUF: usize = 2 * 1024 * 1024;
/// Cadence of streamed progress chunks while a compute is pending.
const STREAM_TICK: Duration = Duration::from_millis(200);
/// How long a drain waits for in-flight connections before forcing
/// them closed.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// Upper bound on one `wait()` so the loop re-checks the drain flag
/// even if a wake is lost.
const IDLE_POLL: Duration = Duration::from_millis(500);

/// What the service wants done with one parsed request.
pub(crate) enum Dispatch {
    /// Answer immediately.
    Reply(Reply),
    /// A compute is in flight; the result arrives on `rx` (the engine
    /// wakes the core via its waker when it sends). `stream` requests
    /// a chunked response with progress lines while waiting.
    Pending {
        rx: Receiver<Result<Arc<String>, String>>,
        stream: bool,
    },
    /// Run this blocking closure on the offload pool (cluster
    /// forwards); the reply re-enters the loop via the wake pipe.
    Offload(Box<dyn FnOnce() -> Reply + Send>),
    /// Drop the connection without a response (chaos `server.conn_drop`;
    /// the service has already counted the outcome).
    Hangup,
}

/// The routing/accounting half a readiness core serves. One impl per
/// daemon flavor: the experiment server and the cluster router.
pub(crate) trait Service: Send + Sync + 'static {
    /// Routes one parsed request. Called on the poller thread: must
    /// not block (hand blocking work to `Pending`/`Offload`).
    fn dispatch(&self, req: Request) -> Dispatch;
    /// One successfully parsed request (any route, any outcome).
    fn count_request(&self);
    /// Exactly one per counted request; status `0` means the
    /// connection died before a response could be written.
    fn count_response(&self, status: u16);
    /// A malformed request (answered 400 by the core). Counting is
    /// service-specific: the experiment server counts request+400, the
    /// router historically counts neither.
    fn count_parse_error(&self);
    /// Drain flag; once true the core stops accepting and unwinds.
    fn draining(&self) -> bool;
    /// Deadline for `Pending`/`Offload` work (maps to 504).
    fn deadline(&self) -> Duration;
    /// Whether injected wire faults (`http.read`, `http.short_read`,
    /// `http.torn_write`) count as recovered when survived. The
    /// experiment server credits them; the router never did.
    fn recover_wire_chaos(&self) -> bool {
        false
    }
    /// One progress line for streamed responses.
    fn progress_body(&self, elapsed: Duration) -> String {
        format!(
            "{{\"progress\":{{\"elapsed_ms\":{}}}}}",
            elapsed.as_millis()
        )
    }
}

/// Core tuning; every field has a production default upstream
/// (`ServeConfig` / `ClusterConfig`).
pub(crate) struct CoreConfig {
    /// Thread name + `core` metric label prefix.
    pub name: &'static str,
    /// Connection cap; accepts beyond it get a canned 503.
    pub max_conns: usize,
    /// Idle / header-drip deadline (not extended by partial bytes).
    pub read_timeout: Duration,
    /// Stalled-writer deadline (extended only by write progress).
    pub write_timeout: Duration,
    /// Socket send-buffer size override (tests/bench force small
    /// buffers to exercise the write deadline deterministically).
    pub sndbuf: Option<usize>,
    /// Blocking-offload pool size; `0` runs offloads inline (only
    /// sane for services that never return `Dispatch::Offload`).
    pub offload_threads: usize,
}

/// Counters the core exports on `/metrics`, labeled per core so
/// multiple cores in one process (tests, soak episodes, router +
/// nodes) stay distinguishable.
pub(crate) struct CoreStats {
    label: String,
    /// Currently open connections (gauge).
    pub open: AtomicI64,
    /// `accept(2)` failures (EMFILE etc.), each followed by backoff.
    pub accept_errors: AtomicU64,
    /// Connections refused with the canned 503 at the cap.
    pub saturation_rejects: AtomicU64,
}

static NEXT_CORE_ID: AtomicU64 = AtomicU64::new(0);

impl CoreStats {
    fn new(name: &str) -> CoreStats {
        CoreStats {
            label: format!("{name}-{}", NEXT_CORE_ID.fetch_add(1, Ordering::Relaxed)),
            open: AtomicI64::new(0),
            accept_errors: AtomicU64::new(0),
            saturation_rejects: AtomicU64::new(0),
        }
    }

    fn samples(&self) -> Vec<obs::Sample> {
        let labeled = |name: &str, help: &str, kind, value| obs::Sample {
            name: name.into(),
            help: help.into(),
            kind,
            labels: vec![("core".into(), self.label.clone())],
            value,
        };
        vec![
            labeled(
                "gem5prof_core_open_connections",
                "connections currently registered with the readiness core",
                obs::MetricKind::Gauge,
                self.open.load(Ordering::Relaxed) as f64,
            ),
            labeled(
                "gem5prof_accept_errors_total",
                "accept(2) failures (each backs the acceptor off exponentially)",
                obs::MetricKind::Counter,
                self.accept_errors.load(Ordering::Relaxed) as f64,
            ),
            labeled(
                "gem5prof_core_saturation_rejects_total",
                "connections refused with a canned 503 at the connection cap",
                obs::MetricKind::Counter,
                self.saturation_rejects.load(Ordering::Relaxed) as f64,
            ),
        ]
    }
}

/// Handle to a running core. The core exits on its own once the
/// service reports draining and every connection has unwound; `join`
/// wakes it (so it notices the flag) and waits for that.
pub(crate) struct CoreHandle {
    waker: Waker,
    thread: Option<JoinHandle<()>>,
    /// Also registered as an obs collector (`/metrics`); held here so
    /// unit tests can assert on counts without a scrape.
    #[allow(dead_code)]
    pub stats: Arc<CoreStats>,
}

impl CoreHandle {
    /// A cloneable waker for completion sources (the engine's worker
    /// pool) to nudge the loop.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Wakes the loop (e.g. right after setting the drain flag).
    pub fn wake(&self) {
        self.waker.wake();
    }

    /// Wakes the core and blocks until it has fully unwound.
    pub fn join(&mut self) {
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

type OffloadJob = (u64, Box<dyn FnOnce() -> Reply + Send>);

/// What `check_pending` decided, computed under the connection borrow
/// and acted on after it ends.
enum PendingAction {
    Nothing,
    Resolve(Reply),
    Progress,
}

struct Pending {
    /// `Some` for engine computes; `None` for offloaded closures
    /// (whose replies arrive via the completions list instead).
    rx: Option<Receiver<Result<Arc<String>, String>>>,
    deadline: Instant,
    close: bool,
    stream: bool,
    started: Instant,
    next_tick: Instant,
}

struct Conn {
    stream: TcpStream,
    fd: RawFd,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written.
    woff: usize,
    close_after_flush: bool,
    /// Closing because of an injected torn write (credited as
    /// recovered at close when the service recovers wire chaos).
    torn: bool,
    /// `http.read` visited for the request currently being parsed.
    chaos_read_visited: bool,
    /// `http.short_read` visited for the request currently being parsed.
    chaos_short_visited: bool,
    read_deadline: Option<Instant>,
    write_deadline: Option<Instant>,
    pending: Option<Pending>,
    /// Interest currently registered with the poller.
    reg_read: bool,
    reg_write: bool,
}

struct Core {
    poller: Poller,
    listener: Option<TcpListener>,
    listener_fd: RawFd,
    listener_registered: bool,
    pipe: WakePipe,
    service: Arc<dyn Service>,
    cfg: CoreConfig,
    stats: Arc<CoreStats>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    accept_streak: u32,
    accept_resume: Option<Instant>,
    offload_tx: Option<mpsc::Sender<OffloadJob>>,
    completions: Arc<Mutex<Vec<(u64, Reply)>>>,
    drain_started: Option<Instant>,
    /// Earliest known deadline/tick, recomputed by `run_timers`; a
    /// stale-early value only costs one extra wakeup.
    next_deadline: Option<Instant>,
}

/// Starts a readiness core on `listener`. Returns once the poller
/// thread is running; the core exits when `service.draining()` turns
/// true and the last connection unwinds (see [`CoreHandle::join`]).
pub(crate) fn spawn(
    listener: TcpListener,
    service: Arc<dyn Service>,
    cfg: CoreConfig,
) -> io::Result<CoreHandle> {
    listener.set_nonblocking(true)?;
    let pipe = WakePipe::new()?;
    let waker = pipe.waker();
    let mut poller = Poller::new()?;
    let listener_fd = listener.as_raw_fd();
    poller.add(listener_fd, LISTENER, true, false)?;
    poller.add(pipe.read_fd(), WAKEUP, true, false)?;

    let stats = Arc::new(CoreStats::new(cfg.name));
    // Arc (not Weak), like `ServerStats`: a shut-down core's counters
    // stay visible so summed series remain monotone.
    let stats_m = Arc::clone(&stats);
    obs::global().register_collector(Box::new(move || stats_m.samples()));

    let completions = Arc::new(Mutex::new(Vec::new()));
    let offload_tx = if cfg.offload_threads > 0 {
        let (tx, rx) = mpsc::channel::<OffloadJob>();
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..cfg.offload_threads {
            let rx = Arc::clone(&rx);
            let completions = Arc::clone(&completions);
            let waker = pipe.waker();
            // Detached: they exit when the core drops the sender; a straggler finishing a
            // forward after the core died pushes into a list nobody
            // reads and wakes a closed pipe, both harmless.
            let _ = std::thread::Builder::new()
                .name(format!("{}-offload-{i}", cfg.name))
                .spawn(move || loop {
                    let job = match rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
                        Ok(job) => job,
                        Err(_) => break,
                    };
                    let (token, f) = job;
                    let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                        .unwrap_or_else(|_| (500, error_body("forward task panicked"), Vec::new()));
                    completions
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((token, reply));
                    waker.wake();
                });
        }
        Some(tx)
    } else {
        None
    };

    let name = cfg.name;
    let core = Core {
        poller,
        listener: Some(listener),
        listener_fd,
        listener_registered: true,
        pipe,
        service,
        cfg,
        stats: Arc::clone(&stats),
        conns: HashMap::new(),
        next_token: FIRST_CONN,
        accept_streak: 0,
        accept_resume: None,
        offload_tx,
        completions,
        drain_started: None,
        next_deadline: None,
    };
    let thread = std::thread::Builder::new()
        .name(format!("{name}-core"))
        .spawn(move || core.run())?;
    Ok(CoreHandle {
        waker,
        thread: Some(thread),
        stats,
    })
}

impl Core {
    fn run(mut self) {
        let mut events: Vec<poll::Event> = Vec::new();
        loop {
            if self.service.draining() && self.drain_started.is_none() {
                self.begin_drain();
            }
            if let Some(t0) = self.drain_started {
                if self.conns.is_empty() {
                    break;
                }
                if t0.elapsed() >= DRAIN_GRACE {
                    self.force_close_all();
                    break;
                }
            }
            let timeout = self.next_timeout();
            match self.poller.wait(&mut events, Some(timeout)) {
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("gem5prof [{}-core]: poller failed: {e}", self.cfg.name);
                    break;
                }
            }
            for ev in events.drain(..) {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKEUP => self.wake_ready(),
                    token => self.conn_ready(token, ev.readable, ev.writable, ev.error),
                }
            }
            self.run_timers();
        }
        self.stats.open.store(0, Ordering::Relaxed);
    }

    fn next_timeout(&self) -> Duration {
        let mut next = self.next_deadline;
        if let Some(t) = self.accept_resume {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        let cap = if self.drain_started.is_some() {
            Duration::from_millis(100)
        } else {
            IDLE_POLL
        };
        match next {
            Some(t) => t.saturating_duration_since(Instant::now()).min(cap),
            None => cap,
        }
    }

    // ---- timers ------------------------------------------------------

    fn run_timers(&mut self) {
        let now = Instant::now();
        if self.accept_resume.is_some_and(|t| now >= t) {
            self.accept_resume = None;
            self.register_listener();
            self.accept_ready();
        }
        let mut next: Option<Instant> = None;
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.tick_conn(token, now, &mut next);
        }
        if let Some(t) = self.accept_resume {
            note(&mut next, t);
        }
        self.next_deadline = next;
    }

    fn tick_conn(&mut self, token: u64, now: Instant, next: &mut Option<Instant>) {
        let (rd, wd, has_pending) = match self.conns.get(&token) {
            Some(c) => (c.read_deadline, c.write_deadline, c.pending.is_some()),
            None => return,
        };
        // A blown read deadline is the slow-loris / idle kill; a blown
        // write deadline is the stalled-reader kill. Either way the
        // connection is gone (any response already queued was counted
        // at queue time; a still-pending compute is counted as `0`).
        if rd.is_some_and(|t| now >= t) || wd.is_some_and(|t| now >= t) {
            self.close_conn(token);
            return;
        }
        if let Some(t) = rd {
            note(next, t);
        }
        if let Some(t) = wd {
            note(next, t);
        }
        if has_pending {
            if self.check_pending(token, now) {
                self.process_rbuf(token);
            }
            if let Some(p) = self.conns.get(&token).and_then(|c| c.pending.as_ref()) {
                note(next, p.deadline);
                if p.stream {
                    note(next, p.next_tick);
                }
            }
        }
    }

    // ---- accept ------------------------------------------------------

    fn accept_ready(&mut self) {
        if self.drain_started.is_some() || self.accept_resume.is_some() {
            return;
        }
        loop {
            let accepted = match &self.listener {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    self.accept_streak = 0;
                    if self.conns.len() >= self.cfg.max_conns {
                        self.reject_overload(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    if let Some(b) = self.cfg.sndbuf {
                        poll::set_sndbuf(stream.as_raw_fd(), b);
                    }
                    let fd = stream.as_raw_fd();
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.add(fd, token, true, false).is_err() {
                        continue;
                    }
                    let now = Instant::now();
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            fd,
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            woff: 0,
                            close_after_flush: false,
                            torn: false,
                            chaos_read_visited: false,
                            chaos_short_visited: false,
                            read_deadline: Some(now + self.cfg.read_timeout),
                            write_deadline: None,
                            pending: None,
                            reg_read: true,
                            reg_write: false,
                        },
                    );
                    self.stats.open.fetch_add(1, Ordering::Relaxed);
                    note(&mut self.next_deadline, now + self.cfg.read_timeout);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => {
                    // EMFILE and friends: hammering accept() again in
                    // 10ms (the old behavior) just spins. Back off
                    // exponentially and deregister the listener so the
                    // level-triggered poller doesn't spin on it either.
                    self.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    self.accept_streak += 1;
                    let pause = (1u64 << self.accept_streak.min(10)).min(1000);
                    self.accept_resume = Some(Instant::now() + Duration::from_millis(pause));
                    self.deregister_listener();
                    return;
                }
            }
        }
    }

    /// The connection cap's canned 503: one best-effort write, then
    /// close. Never counted in the request/response balance — no
    /// request was parsed — but visible as its own counter.
    fn reject_overload(&mut self, stream: TcpStream) {
        self.stats
            .saturation_rejects
            .fetch_add(1, Ordering::Relaxed);
        let body = error_body("connection limit reached");
        let head = http::response_head(
            503,
            Some(body.len()),
            &[("retry-after".into(), "1".into())],
            true,
        );
        let mut buf = head.into_bytes();
        buf.extend_from_slice(body.as_bytes());
        let _ = stream.set_nonblocking(true);
        let _ = (&stream).write(&buf);
    }

    fn register_listener(&mut self) {
        if !self.listener_registered && self.listener.is_some() {
            self.listener_registered = self
                .poller
                .add(self.listener_fd, LISTENER, true, false)
                .is_ok();
        }
    }

    fn deregister_listener(&mut self) {
        if self.listener_registered {
            let _ = self.poller.delete(self.listener_fd);
            self.listener_registered = false;
        }
    }

    // ---- wake pipe ---------------------------------------------------

    fn wake_ready(&mut self) {
        self.pipe.drain();
        let done: Vec<(u64, Reply)> = {
            let mut g = self.completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *g)
        };
        for (token, reply) in done {
            let offload_pending = self
                .conns
                .get(&token)
                .and_then(|c| c.pending.as_ref())
                .is_some_and(|p| p.rx.is_none());
            if offload_pending {
                self.resolve(token, reply);
                self.process_rbuf(token);
            }
        }
        let now = Instant::now();
        let waiting: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.pending.as_ref().is_some_and(|p| p.rx.is_some()))
            .map(|(t, _)| *t)
            .collect();
        for token in waiting {
            if self.check_pending(token, now) {
                self.process_rbuf(token);
            }
        }
    }

    // ---- connection events -------------------------------------------

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool, error: bool) {
        if !self.conns.contains_key(&token) {
            return; // closed earlier in this batch
        }
        if writable {
            self.flush_conn(token);
        }
        if readable {
            self.on_readable(token);
        }
        // Pure HUP/ERR (no readable data path to observe EOF through):
        // the peer is gone.
        if error && !readable && self.conns.contains_key(&token) {
            self.close_conn(token);
        }
    }

    fn on_readable(&mut self, token: u64) {
        let mut buf = [0u8; 16384];
        loop {
            // Stop pulling while a compute is pending or output is
            // backed up: the bytes stay in the socket buffer and the
            // kernel applies TCP backpressure for us.
            let pull = match self.conns.get(&token) {
                Some(c) => {
                    c.pending.is_none()
                        && !c.close_after_flush
                        && c.wbuf.len() - c.woff < WBUF_SOFT_CAP
                }
                None => return,
            };
            if !pull {
                break;
            }
            let r = match self.conns.get_mut(&token) {
                Some(c) => c.stream.read(&mut buf),
                None => return,
            };
            match r {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    let c = self.conns.get_mut(&token).expect("conn exists");
                    c.rbuf.extend_from_slice(&buf[..n]);
                    if c.rbuf.len() > MAX_RBUF {
                        self.close_conn(token);
                        return;
                    }
                    self.process_rbuf(token);
                    if !self.conns.contains_key(&token) {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.sync_interest(token);
    }

    /// Parses and dispatches as many buffered requests as flow control
    /// allows. Runs after reads, after a pending resolution (pipelined
    /// requests behind a compute), and at drain start.
    fn process_rbuf(&mut self, token: u64) {
        loop {
            let now = Instant::now();
            let c = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => return,
            };
            if c.pending.is_some() || c.close_after_flush {
                break;
            }
            if c.wbuf.len() - c.woff >= WBUF_SOFT_CAP {
                break;
            }
            if c.rbuf.is_empty() {
                // Idle between requests: arm (never extend) the
                // keep-alive deadline.
                if c.read_deadline.is_none() {
                    let t = now + self.cfg.read_timeout;
                    c.read_deadline = Some(t);
                    note(&mut self.next_deadline, t);
                }
                break;
            }
            // Wire-read chaos, once per request attempt — the same
            // point the blocking reader injected at entry.
            if !c.chaos_read_visited {
                c.chaos_read_visited = true;
                if chaos::io_error("http.read").is_some() {
                    if self.service.recover_wire_chaos() {
                        chaos::recovered("http.read");
                    }
                    self.close_conn(token);
                    return;
                }
            }
            let parsed = http::try_parse_request(&c.rbuf);
            match parsed {
                Ok(ParseStatus::Partial { body_expected }) => {
                    // A peer dying mid-body is the `http.short_read`
                    // fault; visit it once per request with a body.
                    if body_expected && !c.chaos_short_visited {
                        c.chaos_short_visited = true;
                        if chaos::inject("http.short_read") {
                            if self.service.recover_wire_chaos() {
                                chaos::recovered("http.short_read");
                            }
                            self.close_conn(token);
                            return;
                        }
                    }
                    // Partial bytes do NOT extend the read deadline:
                    // that is the slow-loris kill.
                    if c.read_deadline.is_none() {
                        let t = now + self.cfg.read_timeout;
                        c.read_deadline = Some(t);
                        note(&mut self.next_deadline, t);
                    }
                    break;
                }
                Ok(ParseStatus::Complete { req, consumed }) => {
                    // The body may have arrived whole in one read; the
                    // short-read fault still applies to it.
                    let visit_short = !req.body.is_empty() && !c.chaos_short_visited;
                    c.rbuf.drain(..consumed);
                    c.read_deadline = None;
                    c.chaos_read_visited = false;
                    c.chaos_short_visited = false;
                    if visit_short && chaos::inject("http.short_read") {
                        if self.service.recover_wire_chaos() {
                            chaos::recovered("http.short_read");
                        }
                        self.close_conn(token);
                        return;
                    }
                    self.handle_request(token, req);
                    if !self.conns.contains_key(&token) {
                        return;
                    }
                }
                Err(e) => {
                    self.service.count_parse_error();
                    self.queue_response(token, 400, &error_body(&e.to_string()), &[], true);
                    return;
                }
            }
        }
        self.sync_interest(token);
    }

    fn handle_request(&mut self, token: u64, req: Request) {
        let req_close = req.close;
        self.service.count_request();
        match self.service.dispatch(req) {
            Dispatch::Reply((status, body, extra)) => {
                self.service.count_response(status);
                let close = req_close || self.service.draining();
                self.queue_response(token, status, &body, &extra, close);
            }
            Dispatch::Hangup => {
                self.close_conn(token);
            }
            Dispatch::Pending { rx, stream } => {
                let now = Instant::now();
                let deadline = now + self.service.deadline();
                let c = match self.conns.get_mut(&token) {
                    Some(c) => c,
                    None => return,
                };
                if stream {
                    // The head goes out immediately; progress lines and
                    // the result follow as chunks.
                    let head = http::response_head(
                        200,
                        None,
                        &[("content-type".into(), "application/x-ndjson".into())],
                        req_close,
                    );
                    c.wbuf.extend_from_slice(head.as_bytes());
                    if c.write_deadline.is_none() {
                        c.write_deadline = Some(now + self.cfg.write_timeout);
                    }
                }
                c.pending = Some(Pending {
                    rx: Some(rx),
                    deadline,
                    close: req_close,
                    stream,
                    started: now,
                    next_tick: now + STREAM_TICK,
                });
                note(&mut self.next_deadline, deadline);
                if stream {
                    note(&mut self.next_deadline, now + STREAM_TICK);
                    self.flush_conn(token);
                }
                // The result may already be there (cache re-check,
                // instant compute).
                self.check_pending(token, now);
            }
            Dispatch::Offload(f) => {
                let now = Instant::now();
                let deadline = now + self.service.deadline();
                let c = match self.conns.get_mut(&token) {
                    Some(c) => c,
                    None => return,
                };
                c.pending = Some(Pending {
                    rx: None,
                    deadline,
                    close: req_close,
                    stream: false,
                    started: now,
                    next_tick: now + STREAM_TICK,
                });
                note(&mut self.next_deadline, deadline);
                // Run inline if no pool is configured (or it died):
                // wrong place to block, but never wrong results.
                let inline = match &self.offload_tx {
                    Some(tx) => match tx.send((token, f)) {
                        Ok(()) => None,
                        Err(mpsc::SendError((_, f))) => Some(f),
                    },
                    None => Some(f),
                };
                if let Some(f) = inline {
                    let reply = f();
                    self.resolve(token, reply);
                }
            }
        }
    }

    /// Polls one pending compute: resolution, deadline expiry, or a
    /// due progress tick. Returns whether the pending was resolved.
    fn check_pending(&mut self, token: u64, now: Instant) -> bool {
        let action = {
            let c = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => return false,
            };
            let p = match &mut c.pending {
                Some(p) => p,
                None => return false,
            };
            match &p.rx {
                None => {
                    // Offloaded work: only the deadline applies here;
                    // results arrive via the completions list.
                    if now >= p.deadline {
                        PendingAction::Resolve((504, error_body("deadline exceeded"), Vec::new()))
                    } else {
                        PendingAction::Nothing
                    }
                }
                Some(rx) => match rx.try_recv() {
                    Ok(Ok(body)) => PendingAction::Resolve((200, (*body).clone(), Vec::new())),
                    Ok(Err(msg)) => PendingAction::Resolve((500, error_body(&msg), Vec::new())),
                    // The worker dropped the sender without answering
                    // (it panicked mid-job): report immediately.
                    Err(TryRecvError::Disconnected) => PendingAction::Resolve((
                        500,
                        error_body("worker failed before replying"),
                        Vec::new(),
                    )),
                    Err(TryRecvError::Empty) => {
                        if now >= p.deadline {
                            // Dropping the rx abandons only this
                            // wait: the eventual result still warms
                            // the cache for the next requester.
                            PendingAction::Resolve((
                                504,
                                error_body("deadline exceeded (result will be cached)"),
                                Vec::new(),
                            ))
                        } else if p.stream && now >= p.next_tick {
                            p.next_tick = now + STREAM_TICK;
                            PendingAction::Progress
                        } else {
                            PendingAction::Nothing
                        }
                    }
                },
            }
        };
        match action {
            PendingAction::Nothing => false,
            PendingAction::Resolve(reply) => {
                self.resolve(token, reply);
                true
            }
            PendingAction::Progress => {
                let line = self.service.progress_body(
                    self.conns
                        .get(&token)
                        .and_then(|c| c.pending.as_ref())
                        .map_or(Duration::ZERO, |p| now - p.started),
                );
                let c = match self.conns.get_mut(&token) {
                    Some(c) => c,
                    None => return false,
                };
                let mut line = line;
                line.push('\n');
                c.wbuf.extend_from_slice(&http::chunk(line.as_bytes()));
                if c.write_deadline.is_none() {
                    c.write_deadline = Some(now + self.cfg.write_timeout);
                }
                self.flush_conn(token);
                false
            }
        }
    }

    /// Completes a pending request with its final reply. Exactly one
    /// `count_response` per request happens here or in
    /// `handle_request`/`close_conn` — never two.
    fn resolve(&mut self, token: u64, reply: Reply) {
        let p = match self.conns.get_mut(&token).and_then(|c| c.pending.take()) {
            Some(p) => p,
            None => return,
        };
        let (status, body, extra) = reply;
        self.service.count_response(status);
        let close = p.close || self.service.draining();
        if p.stream {
            // The final chunk carries the full result (or error) body;
            // the logical status was already counted above.
            let now = Instant::now();
            let c = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => return,
            };
            let mut line = body;
            line.push('\n');
            c.wbuf.extend_from_slice(&http::chunk(line.as_bytes()));
            c.wbuf.extend_from_slice(http::FINAL_CHUNK);
            if close {
                c.close_after_flush = true;
            } else if c.read_deadline.is_none() {
                let t = now + self.cfg.read_timeout;
                c.read_deadline = Some(t);
                note(&mut self.next_deadline, t);
            }
            if c.write_deadline.is_none() {
                c.write_deadline = Some(now + self.cfg.write_timeout);
            }
            self.flush_conn(token);
        } else {
            self.queue_response(token, status, &body, &extra, close);
        }
    }

    /// Queues one complete response (head + body) and starts flushing.
    /// The caller has already counted the outcome; a later delivery
    /// failure does not un-count it.
    fn queue_response(
        &mut self,
        token: u64,
        status: u16,
        body: &str,
        extra: &[(String, String)],
        close: bool,
    ) {
        // Torn-write chaos: head plus half the body go out, then the
        // connection drops. The client must detect the truncation, not
        // hang on it.
        let torn = chaos::inject("http.torn_write");
        let now = Instant::now();
        let c = match self.conns.get_mut(&token) {
            Some(c) => c,
            None => return,
        };
        let head = http::response_head(status, Some(body.len()), extra, close);
        c.wbuf.extend_from_slice(head.as_bytes());
        if torn {
            c.wbuf.extend_from_slice(&body.as_bytes()[..body.len() / 2]);
            c.close_after_flush = true;
            c.torn = true;
        } else {
            c.wbuf.extend_from_slice(body.as_bytes());
            if close {
                c.close_after_flush = true;
            }
        }
        if c.write_deadline.is_none() {
            let t = now + self.cfg.write_timeout;
            c.write_deadline = Some(t);
            note(&mut self.next_deadline, t);
        }
        if !c.close_after_flush && c.pending.is_none() && c.read_deadline.is_none() {
            let t = now + self.cfg.read_timeout;
            c.read_deadline = Some(t);
            note(&mut self.next_deadline, t);
        }
        self.flush_conn(token);
    }

    fn flush_conn(&mut self, token: u64) {
        loop {
            let c = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => return,
            };
            if c.woff == c.wbuf.len() {
                c.wbuf.clear();
                c.woff = 0;
                c.write_deadline = None;
                if c.close_after_flush {
                    self.close_conn(token);
                    return;
                }
                break;
            }
            match c.stream.write(&c.wbuf[c.woff..]) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    c.woff += n;
                    // Progress (and only progress) extends the write
                    // deadline; a reader draining one byte per second
                    // still can't hold the connection forever past
                    // each stall.
                    c.write_deadline = Some(Instant::now() + self.cfg.write_timeout);
                    if c.woff > WBUF_SOFT_CAP {
                        c.wbuf.drain(..c.woff);
                        c.woff = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.sync_interest(token);
    }

    fn sync_interest(&mut self, token: u64) {
        let c = match self.conns.get_mut(&token) {
            Some(c) => c,
            None => return,
        };
        let want_read = c.pending.is_none()
            && !c.close_after_flush
            && c.rbuf.len() < MAX_RBUF
            && c.wbuf.len() - c.woff < WBUF_SOFT_CAP;
        let want_write = c.woff < c.wbuf.len();
        if (want_read, want_write) != (c.reg_read, c.reg_write)
            && self
                .poller
                .modify(c.fd, token, want_read, want_write)
                .is_ok()
        {
            c.reg_read = want_read;
            c.reg_write = want_write;
        }
    }

    fn close_conn(&mut self, token: u64) {
        let mut c = match self.conns.remove(&token) {
            Some(c) => c,
            None => return,
        };
        if c.pending.take().is_some() {
            // A parsed request whose compute will never reach the
            // wire: count it as "other" so every request still has
            // exactly one outcome (the same convention as an injected
            // `server.conn_drop`).
            self.service.count_response(0);
        }
        if c.torn && self.service.recover_wire_chaos() {
            chaos::recovered("http.torn_write");
        }
        let _ = self.poller.delete(c.fd);
        self.stats.open.fetch_add(-1, Ordering::Relaxed);
    }

    // ---- drain -------------------------------------------------------

    fn begin_drain(&mut self) {
        self.drain_started = Some(Instant::now());
        self.deregister_listener();
        // Dropping the listener closes the port: new connects are
        // refused at the kernel, same as the old acceptor exiting.
        self.listener = None;
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            // Buffered complete requests still get answers (503, or a
            // real reply for `/peek` — the service decides).
            self.process_rbuf(token);
            let idle = self
                .conns
                .get(&token)
                .is_some_and(|c| c.pending.is_none() && c.woff == c.wbuf.len());
            if idle {
                self.close_conn(token);
            }
        }
    }

    fn force_close_all(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }
}

fn note(next: &mut Option<Instant>, t: Instant) {
    *next = Some(next.map_or(t, |n| n.min(t)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::ClientConn;
    use std::sync::atomic::AtomicBool;

    struct EchoService {
        draining: Arc<AtomicBool>,
        requests: AtomicU64,
        responses: AtomicU64,
        other: AtomicU64,
    }

    impl EchoService {
        fn new() -> EchoService {
            EchoService {
                draining: Arc::new(AtomicBool::new(false)),
                requests: AtomicU64::new(0),
                responses: AtomicU64::new(0),
                other: AtomicU64::new(0),
            }
        }
    }

    impl Service for EchoService {
        fn dispatch(&self, req: Request) -> Dispatch {
            Dispatch::Reply((200, format!("{{\"path\":\"{}\"}}", req.path), Vec::new()))
        }
        fn count_request(&self) {
            self.requests.fetch_add(1, Ordering::Relaxed);
        }
        fn count_response(&self, status: u16) {
            self.responses.fetch_add(1, Ordering::Relaxed);
            if status == 0 {
                self.other.fetch_add(1, Ordering::Relaxed);
            }
        }
        fn count_parse_error(&self) {
            self.requests.fetch_add(1, Ordering::Relaxed);
            self.responses.fetch_add(1, Ordering::Relaxed);
        }
        fn draining(&self) -> bool {
            self.draining.load(Ordering::Relaxed)
        }
        fn deadline(&self) -> Duration {
            Duration::from_secs(5)
        }
    }

    fn start(max_conns: usize) -> (std::net::SocketAddr, Arc<EchoService>, CoreHandle) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let service = Arc::new(EchoService::new());
        let handle = spawn(
            listener,
            Arc::clone(&service) as Arc<dyn Service>,
            CoreConfig {
                name: "core-test",
                max_conns,
                read_timeout: Duration::from_secs(2),
                write_timeout: Duration::from_secs(2),
                sndbuf: None,
                offload_threads: 0,
            },
        )
        .expect("spawn core");
        (addr, service, handle)
    }

    fn stop(service: &EchoService, handle: &mut CoreHandle) {
        service.draining.store(true, Ordering::Relaxed);
        handle.join();
    }

    #[test]
    fn serves_keepalive_requests_and_counts_them() {
        let (addr, service, mut handle) = start(8);
        let mut conn = ClientConn::connect(addr, Duration::from_secs(5)).expect("connect");
        for path in ["/alpha", "/beta"] {
            let (status, body) = conn.request("GET", path, None).expect("request");
            assert_eq!(status, 200);
            assert!(body.contains(path), "echo body: {body}");
        }
        stop(&service, &mut handle);
        assert_eq!(service.requests.load(Ordering::Relaxed), 2);
        assert_eq!(service.responses.load(Ordering::Relaxed), 2);
        assert_eq!(service.other.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn rejects_connections_beyond_the_cap_with_a_canned_503() {
        let (addr, service, mut handle) = start(1);
        // First connection does a request, guaranteeing it is
        // registered before the second arrives.
        let mut keeper = ClientConn::connect(addr, Duration::from_secs(5)).expect("connect");
        let (status, _) = keeper.request("GET", "/hold", None).expect("request");
        assert_eq!(status, 200);
        // Second connection gets the canned 503 without sending a byte.
        let mut extra = std::net::TcpStream::connect(addr).expect("connect 2");
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut raw = String::new();
        extra.read_to_string(&mut raw).expect("read 503");
        assert!(
            raw.starts_with("HTTP/1.1 503"),
            "expected canned 503, got: {raw:?}"
        );
        assert!(raw.contains("connection limit reached"), "{raw:?}");
        assert_eq!(handle.stats.saturation_rejects.load(Ordering::Relaxed), 1);
        // The canned 503 is out-of-band: no request was parsed, so the
        // request/response balance is untouched.
        stop(&service, &mut handle);
        assert_eq!(service.requests.load(Ordering::Relaxed), 1);
        assert_eq!(service.responses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn malformed_request_gets_a_400_and_closes() {
        let (addr, service, mut handle) = start(8);
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        s.write_all(b"BOGUS\r\n\r\n").expect("write");
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 400"), "got: {raw:?}");
        stop(&service, &mut handle);
        assert_eq!(service.requests.load(Ordering::Relaxed), 1);
        assert_eq!(service.responses.load(Ordering::Relaxed), 1);
    }
}
