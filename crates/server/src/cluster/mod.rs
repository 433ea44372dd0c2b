//! Sharded cluster serving: a consistent-hash router over N daemons.
//!
//! The router accepts the same HTTP surface as a single daemon and
//! forwards each request to the *owner* of its canonical result-cache
//! key on a [`ring::HashRing`]. Because every duplicate of a key lands
//! on the same node, that node's single-flight coalescing collapses a
//! fleet-wide duplicate herd to exactly one compute — the cluster
//! inherits the single-node exactly-once property by construction.
//!
//! ```text
//!            ┌──────────┐   consistent hash    ┌────────────┐
//! clients ──▶│  router  │──── key → owner ────▶│ node (1/N) │
//!            └──────────┘                      └────────────┘
//!               │  ▲  probes /healthz; ejects after consecutive
//!               │  └─ failures, re-admits on recovery (and re-pushes
//!               │     the peer list to the returning node)
//!               └─ on owner failure: clockwise failover, same ring
//! ```
//!
//! Membership is *liveness-filtered*, not rebuilt: ejection flips a
//! flag and lookups walk past dead members ([`ring::HashRing::owner`]),
//! so re-admission restores the original key ownership — and minimal
//! movement means a node kill migrates only the dead node's keys.
//! Migrated keys are re-computed at most once thanks to the peer
//! warm-tier fetch (`POST /peek`) in the engine: the new owner asks the
//! old owners' disk tiers before computing.
//!
//! Router-local endpoints: `GET /healthz` (router liveness), `GET
//! /cluster` (membership + per-member routing counters, including node
//! pids when the router spawned them), `GET /metrics` (fleet-wide
//! `gem5prof_cluster_*` series), `POST /drain` (graceful fleet drain,
//! observed by the `gem5prof-cluster` binary). Everything else is
//! forwarded.

pub mod ring;

use crate::core::{self, CoreConfig, CoreHandle, Dispatch};
use crate::http::{self, ClientConn, Request};
use crate::minjson::Json;
use crate::routes;
use gem5prof_obs as obs;
use ring::{HashRing, DEFAULT_VNODES};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle keep-alive timeout for router-side connections.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Pooled keep-alive connections kept per member.
const POOL_CAP: usize = 8;
/// Distinguishes concurrent routers (e.g. under soak) in `/metrics`.
static NEXT_ROUTER_ID: AtomicU64 = AtomicU64::new(0);

/// One downstream daemon as configured: address plus, when the router
/// spawned the process itself, its pid (surfaced in `/cluster` so
/// operators and the verify smoke can target a hard kill).
#[derive(Debug, Clone)]
pub struct MemberSpec {
    pub addr: String,
    pub pid: Option<u32>,
}

impl MemberSpec {
    pub fn new(addr: impl Into<String>) -> MemberSpec {
        MemberSpec {
            addr: addr.into(),
            pid: None,
        }
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Downstream daemons. Ring ownership is keyed by their addresses,
    /// so the member list order is irrelevant but the addresses must be
    /// stable across router restarts for warm tiers to stay aligned.
    pub members: Vec<MemberSpec>,
    /// Virtual nodes per member on the hash ring.
    pub vnodes: usize,
    /// Health-probe cadence.
    pub probe_interval: Duration,
    /// Consecutive probe/forward failures before a member is ejected.
    pub fail_threshold: u32,
    /// Connect timeout for forwards and probes (dead-node failover
    /// latency is bounded by this).
    pub connect_timeout: Duration,
    /// Read/write timeout for forwarded requests; must exceed the
    /// nodes' compute deadline or slow cold computes look like faults.
    pub io_timeout: Duration,
    /// Client-connection cap on the router's readiness core; accepts
    /// beyond it get a canned 503 + `Retry-After`.
    pub max_conns: usize,
    /// Blocking forward pool size: how many member forwards can be in
    /// flight at once (the poller thread itself never blocks).
    pub forward_threads: usize,
    /// Idle / slow-header client deadline (not extended by partial
    /// request bytes).
    pub read_timeout: Duration,
    /// Stalled-reader client deadline (extended only by write
    /// progress).
    pub write_timeout: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            addr: "127.0.0.1:0".into(),
            members: Vec::new(),
            vnodes: DEFAULT_VNODES,
            probe_interval: Duration::from_millis(250),
            fail_threshold: 2,
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(35),
            max_conns: 4096,
            forward_threads: 32,
            read_timeout: IDLE_TIMEOUT,
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Per-member runtime state.
struct Member {
    addr: String,
    pid: Option<u32>,
    /// Routing eligibility; flipped by the prober (and by forward
    /// failures once they reach the threshold).
    alive: AtomicBool,
    /// Consecutive failures; any success resets it.
    failures: AtomicU32,
    /// Requests answered through this member.
    routed: AtomicU64,
    /// `node_id` the member last reported in `/healthz`.
    node_id: Mutex<String>,
    /// Keep-alive connection pool.
    pool: Mutex<Vec<ClientConn>>,
}

impl Member {
    fn new(spec: MemberSpec) -> Member {
        Member {
            addr: spec.addr,
            pid: spec.pid,
            alive: AtomicBool::new(true),
            failures: AtomicU32::new(0),
            routed: AtomicU64::new(0),
            node_id: Mutex::new(String::new()),
            pool: Mutex::new(Vec::new()),
        }
    }
}

/// Shared router state.
struct Cluster {
    id: u64,
    members: Vec<Member>,
    ring: HashRing,
    vnodes: usize,
    fail_threshold: u32,
    connect_timeout: Duration,
    io_timeout: Duration,
    draining: AtomicBool,
    /// Set by `POST /drain`; the `gem5prof-cluster` binary polls it to
    /// start a fleet-wide graceful shutdown.
    drain_requested: AtomicBool,
    stop: AtomicBool,
    started: Instant,
    /// Round-robin cursor for keyless routes (`/stats`, `/profile`).
    rr: AtomicU64,
    requests: AtomicU64,
    forward_errors: AtomicU64,
    unroutable: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
}

type Reply = (u16, String, Vec<(String, String)>);

fn error_body(msg: &str) -> String {
    Json::obj(vec![("error", Json::str(msg))]).to_string_compact()
}

fn retry_after_header() -> Vec<(String, String)> {
    vec![("retry-after".into(), "1".into())]
}

impl Cluster {
    fn new(cfg: &ClusterConfig) -> Cluster {
        let addrs: Vec<&str> = cfg.members.iter().map(|m| m.addr.as_str()).collect();
        Cluster {
            id: NEXT_ROUTER_ID.fetch_add(1, Ordering::Relaxed),
            ring: HashRing::new(&addrs, cfg.vnodes),
            members: cfg.members.iter().cloned().map(Member::new).collect(),
            vnodes: cfg.vnodes.max(1),
            fail_threshold: cfg.fail_threshold.max(1),
            connect_timeout: cfg.connect_timeout,
            io_timeout: cfg.io_timeout,
            draining: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            rr: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            forward_errors: AtomicU64::new(0),
            unroutable: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
        }
    }

    // -- membership ---------------------------------------------------

    fn note_success(&self, idx: usize, node_id: Option<&str>) {
        let m = &self.members[idx];
        m.failures.store(0, Ordering::Relaxed);
        if let Some(id) = node_id {
            let mut slot = m.node_id.lock().unwrap_or_else(|e| e.into_inner());
            if *slot != id {
                *slot = id.to_string();
            }
        }
        if !m.alive.swap(true, Ordering::SeqCst) {
            self.readmissions.fetch_add(1, Ordering::Relaxed);
            // A restarted process on the same address lost its peer
            // list (and may be a different process entirely): re-push
            // so its warm-tier probes resume.
            self.push_peers(idx);
        }
    }

    fn note_failure(&self, idx: usize) {
        let m = &self.members[idx];
        let failures = m.failures.fetch_add(1, Ordering::Relaxed) + 1;
        // Stale pooled connections to a faulted member would only turn
        // into more transport errors.
        m.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
        if failures >= self.fail_threshold && m.alive.swap(false, Ordering::SeqCst) {
            self.ejections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pushes the peer list (every *other* member) to member `idx`, so
    /// its engine can probe the rest of the fleet's warm tiers before
    /// computing a cold key. Best-effort: a dead member gets the list
    /// again on re-admission.
    fn push_peers(&self, idx: usize) {
        let peers: Vec<&str> = self
            .members
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != idx)
            .map(|(_, m)| m.addr.as_str())
            .collect();
        let _ = http::one_shot(
            &self.members[idx].addr,
            "POST",
            "/peers",
            Some(&peers.join(",")),
            self.connect_timeout,
        );
    }

    /// One probe round: `GET /healthz` against every member. A healthy
    /// answer is a 200 with `draining:false` — a draining node is
    /// routed around exactly like a dead one (it rejects computes),
    /// though its warm tier stays reachable to peers via `/peek`.
    fn probe_all(&self) {
        for idx in 0..self.members.len() {
            // Probing dead members costs a connect timeout each; bail
            // mid-round so shutdown never waits out the whole fleet.
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let m = &self.members[idx];
            match http::one_shot(&m.addr, "GET", "/healthz", None, self.connect_timeout) {
                Ok((200, body)) => {
                    let doc = crate::minjson::parse(&body).ok();
                    let draining = doc
                        .as_ref()
                        .and_then(|d| d.get("draining"))
                        .and_then(Json::as_bool)
                        .unwrap_or(false);
                    if draining {
                        self.note_failure(idx);
                    } else {
                        let node_id = doc
                            .as_ref()
                            .and_then(|d| d.get("node_id"))
                            .and_then(Json::as_str);
                        self.note_success(idx, node_id);
                    }
                }
                _ => self.note_failure(idx),
            }
        }
    }

    // -- forwarding ---------------------------------------------------

    /// Forwards one request to the ring owner of its key, walking the
    /// failover order on transport errors and drain rejections. Keyless
    /// routes round-robin across live members.
    fn forward(&self, req: &Request) -> Reply {
        let body = match std::str::from_utf8(&req.body) {
            Ok(b) => (!b.is_empty()).then_some(b),
            Err(_) => return (400, error_body("body is not UTF-8"), Vec::new()),
        };
        let path = match &req.query {
            Some(q) => format!("{}?{}", req.path, q),
            None => req.path.clone(),
        };
        let order: Vec<usize> = match routes::route_key(req) {
            Some(key) => self.ring.successors(&key).collect(),
            None => {
                let n = self.members.len();
                let start = self.rr.fetch_add(1, Ordering::Relaxed) as usize;
                (0..n).map(|i| (start + i) % n).collect()
            }
        };
        // Live members first in ring order; ejected ones after, as a
        // last resort (the probe may simply not have re-admitted a
        // recovered node yet).
        let candidates = order
            .iter()
            .copied()
            .filter(|&i| self.members[i].alive.load(Ordering::Relaxed))
            .chain(
                order
                    .iter()
                    .copied()
                    .filter(|&i| !self.members[i].alive.load(Ordering::Relaxed)),
            );
        let mut drain_reply: Option<Reply> = None;
        for idx in candidates {
            match self.try_member(idx, &req.method, &path, body) {
                None => {
                    self.forward_errors.fetch_add(1, Ordering::Relaxed);
                }
                Some((status, headers, rbody)) => {
                    let retry_after = headers.iter().any(|(k, _)| k == "retry-after");
                    if status == 503 && retry_after {
                        // The member is draining: remember its answer
                        // (it is the honest reply if *everyone* is
                        // draining) but try the next candidate first.
                        drain_reply = Some((status, rbody, retry_after_header()));
                        continue;
                    }
                    self.members[idx].routed.fetch_add(1, Ordering::Relaxed);
                    // Pass through the headers that change client
                    // behavior; everything else is router-local.
                    let extra = headers
                        .into_iter()
                        .filter(|(k, _)| k == "retry-after" || k == "content-type")
                        .collect();
                    return (status, rbody, extra);
                }
            }
        }
        if let Some(reply) = drain_reply {
            return reply;
        }
        self.unroutable.fetch_add(1, Ordering::Relaxed);
        (
            503,
            error_body("no live cluster member"),
            retry_after_header(),
        )
    }

    /// One forward attempt against member `idx`: a pooled keep-alive
    /// connection if available (with one fresh-connection retry, since
    /// a pooled conn may have idled out), else a new connection.
    fn try_member(
        &self,
        idx: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Option<http::ClientResponse> {
        let m = &self.members[idx];
        let pooled = m.pool.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let had_pooled = pooled.is_some();
        let mut conn = match pooled {
            Some(c) => c,
            None => self.connect(idx)?,
        };
        let resp = match conn.request_with_headers(method, path, body) {
            Ok(resp) => resp,
            Err(_) if had_pooled => {
                // Stale pooled connection — not evidence the node is
                // down. Retry once on a fresh socket before blaming it.
                let mut conn = self.connect(idx)?;
                match conn.request_with_headers(method, path, body) {
                    Ok(resp) => {
                        self.stash(idx, conn, resp.0);
                        self.note_success(idx, None);
                        return Some(resp);
                    }
                    Err(_) => {
                        self.note_failure(idx);
                        return None;
                    }
                }
            }
            Err(_) => {
                self.note_failure(idx);
                return None;
            }
        };
        self.stash(idx, conn, resp.0);
        self.note_success(idx, None);
        Some(resp)
    }

    fn connect(&self, idx: usize) -> Option<ClientConn> {
        let m = &self.members[idx];
        match ClientConn::connect(m.addr.as_str(), self.connect_timeout) {
            Ok(conn) => {
                let _ = conn.set_io_timeout(self.io_timeout);
                Some(conn)
            }
            Err(_) => {
                self.note_failure(idx);
                None
            }
        }
    }

    /// Returns a connection to the member's pool unless the response
    /// closed it (drain 503s arrive with `Connection: close`).
    fn stash(&self, idx: usize, conn: ClientConn, status: u16) {
        if status == 503 {
            return;
        }
        let mut pool = self.members[idx]
            .pool
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if pool.len() < POOL_CAP {
            pool.push(conn);
        }
    }

    // -- introspection ------------------------------------------------

    fn alive_count(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.alive.load(Ordering::Relaxed))
            .count()
    }

    fn healthz_json(&self) -> String {
        Json::obj(vec![
            ("status", Json::str("ok")),
            ("role", Json::str("router")),
            (
                "draining",
                Json::Bool(self.draining.load(Ordering::Relaxed)),
            ),
            (
                "uptime_seconds",
                Json::Num(self.started.elapsed().as_secs_f64()),
            ),
            ("members_alive", Json::Num(self.alive_count() as f64)),
            ("members_total", Json::Num(self.members.len() as f64)),
        ])
        .to_string_compact()
    }

    fn status_json(&self) -> String {
        let members = self
            .members
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("addr", Json::str(&m.addr)),
                    (
                        "node_id",
                        Json::str(&*m.node_id.lock().unwrap_or_else(|e| e.into_inner())),
                    ),
                    ("alive", Json::Bool(m.alive.load(Ordering::Relaxed))),
                    ("routed", Json::Num(m.routed.load(Ordering::Relaxed) as f64)),
                    (
                        "consecutive_failures",
                        Json::Num(m.failures.load(Ordering::Relaxed) as f64),
                    ),
                ];
                if let Some(pid) = m.pid {
                    fields.push(("pid", Json::Num(pid as f64)));
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("router_id", Json::Num(self.id as f64)),
            ("vnodes", Json::Num(self.vnodes as f64)),
            (
                "requests",
                Json::Num(self.requests.load(Ordering::Relaxed) as f64),
            ),
            (
                "forward_errors",
                Json::Num(self.forward_errors.load(Ordering::Relaxed) as f64),
            ),
            (
                "ejections",
                Json::Num(self.ejections.load(Ordering::Relaxed) as f64),
            ),
            (
                "readmissions",
                Json::Num(self.readmissions.load(Ordering::Relaxed) as f64),
            ),
            ("members", Json::Arr(members)),
        ])
        .to_string_compact()
    }

    /// Fleet-wide `gem5prof_cluster_*` series for `/metrics`. Labeled
    /// with the router id so concurrent routers (soak) don't collide.
    fn metric_samples(&self) -> Vec<obs::Sample> {
        let router = self.id.to_string();
        let mut samples = Vec::new();
        let mut push = |name: &str, help: &str, kind, labels: Vec<(String, String)>, value: f64| {
            let mut labels = labels;
            labels.push(("router".into(), router.clone()));
            samples.push(obs::Sample {
                name: name.into(),
                help: help.into(),
                kind,
                labels,
                value,
            });
        };
        for m in &self.members {
            push(
                "gem5prof_cluster_routed_total",
                "requests answered through each member",
                obs::MetricKind::Counter,
                vec![("member".into(), m.addr.clone())],
                m.routed.load(Ordering::Relaxed) as f64,
            );
        }
        for (state, v) in [
            ("alive", self.alive_count()),
            ("ejected", self.members.len() - self.alive_count()),
        ] {
            push(
                "gem5prof_cluster_members",
                "cluster members by liveness state",
                obs::MetricKind::Gauge,
                vec![("state".into(), state.into())],
                v as f64,
            );
        }
        for (name, help, v) in [
            (
                "gem5prof_cluster_ejections_total",
                "members ejected after consecutive health failures",
                &self.ejections,
            ),
            (
                "gem5prof_cluster_readmissions_total",
                "ejected members re-admitted after recovery",
                &self.readmissions,
            ),
            (
                "gem5prof_cluster_forward_errors_total",
                "forward attempts that failed at the transport layer",
                &self.forward_errors,
            ),
            (
                "gem5prof_cluster_unroutable_total",
                "requests 503ed because no member was reachable",
                &self.unroutable,
            ),
        ] {
            push(
                name,
                help,
                obs::MetricKind::Counter,
                Vec::new(),
                v.load(Ordering::Relaxed) as f64,
            );
        }
        samples
    }
}

/// Router-local routes: liveness, status, metrics, drain control and
/// their 405s. `None` means "not ours — forward to the owner".
fn local_reply(req: &Request, cluster: &Cluster) -> Option<Reply> {
    Some(match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, cluster.healthz_json(), Vec::new()),
        ("GET", "/cluster") => (200, cluster.status_json(), Vec::new()),
        ("GET", "/metrics") => (
            200,
            obs::global().render_prometheus(),
            vec![(
                "content-type".into(),
                "text/plain; version=0.0.4; charset=utf-8".into(),
            )],
        ),
        ("POST", "/drain") => {
            cluster.drain_requested.store(true, Ordering::SeqCst);
            (
                200,
                Json::obj(vec![("draining", Json::Bool(true))]).to_string_compact(),
                Vec::new(),
            )
        }
        (_, "/cluster" | "/drain") => (405, error_body("method not allowed"), Vec::new()),
        _ => return None,
    })
}

/// The router's half of the readiness core: local routes answered
/// inline on the poller thread; everything else offloaded to the
/// forward pool (a member forward is blocking I/O bounded by
/// `connect_timeout`/`io_timeout`, which must never stall the poller).
struct RouterService {
    cluster: Arc<Cluster>,
    /// Backstop for a wedged forward; the transport timeouts inside
    /// `forward` fire far earlier on every healthy path.
    forward_deadline: Duration,
}

impl core::Service for RouterService {
    fn dispatch(&self, req: Request) -> Dispatch {
        let draining = self.cluster.draining.load(Ordering::Relaxed);
        // `/healthz` and `/cluster` stay observable during a drain so
        // orchestration can watch it complete.
        if draining && req.path != "/healthz" && req.path != "/cluster" {
            return Dispatch::Reply((503, error_body("draining"), retry_after_header()));
        }
        match local_reply(&req, &self.cluster) {
            Some(reply) => Dispatch::Reply(reply),
            None => {
                let cluster = Arc::clone(&self.cluster);
                Dispatch::Offload(Box::new(move || cluster.forward(&req)))
            }
        }
    }

    fn count_request(&self) {
        self.cluster.requests.fetch_add(1, Ordering::Relaxed);
    }

    // The router keeps no response books (nodes count their own
    // outcomes), and it counts only parsed requests, so parse errors
    // go uncounted too.
    fn count_response(&self, _status: u16) {}

    fn count_parse_error(&self) {}

    fn draining(&self) -> bool {
        self.cluster.draining.load(Ordering::Relaxed)
    }

    fn deadline(&self) -> Duration {
        self.forward_deadline
    }
}

/// A running cluster router. `shutdown` stops the acceptor and prober;
/// it does NOT touch the member daemons (the `gem5prof-cluster` binary
/// owns spawned processes).
pub struct ClusterHandle {
    addr: SocketAddr,
    cluster: Arc<Cluster>,
    core: Option<CoreHandle>,
    prober: Option<JoinHandle<()>>,
}

impl ClusterHandle {
    /// The actually-bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client asked for a fleet drain via `POST /drain`.
    pub fn drain_requested(&self) -> bool {
        self.cluster.drain_requested.load(Ordering::SeqCst)
    }

    /// Currently-live member count, per the last probe round.
    pub fn alive_members(&self) -> usize {
        self.cluster.alive_count()
    }

    /// Stops routing: reject new requests with 503, stop the prober,
    /// join both threads.
    pub fn shutdown(mut self) {
        self.cluster.draining.store(true, Ordering::SeqCst);
        self.cluster.stop.store(true, Ordering::SeqCst);
        if let Some(mut core) = self.core.take() {
            core.join();
        }
        if let Some(t) = self.prober.take() {
            let _ = t.join();
        }
    }
}

/// Binds the router, pushes initial peer lists to the members, starts
/// the health prober and acceptor. Returns once the socket listens.
pub fn serve_cluster(cfg: ClusterConfig) -> io::Result<ClusterHandle> {
    if cfg.members.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cluster needs at least one member",
        ));
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let cluster = Arc::new(Cluster::new(&cfg));
    // Arm every node's peer warm-tier fetch before traffic arrives.
    for idx in 0..cluster.members.len() {
        cluster.push_peers(idx);
    }
    // One synchronous probe round so `/cluster` is accurate immediately
    // and obviously-dead members are ejected before the first request.
    cluster.probe_all();

    let c = Arc::clone(&cluster);
    obs::global().register_collector(Box::new(move || c.metric_samples()));

    let prober = {
        let cluster = Arc::clone(&cluster);
        let interval = cfg.probe_interval.max(Duration::from_millis(10));
        std::thread::Builder::new()
            .name("cluster-prober".into())
            .spawn(move || {
                while !cluster.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if cluster.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    cluster.probe_all();
                }
            })?
    };

    let service: Arc<dyn core::Service> = Arc::new(RouterService {
        cluster: Arc::clone(&cluster),
        // Generous: `forward` walks owner + successors, each attempt
        // bounded by connect/io timeouts; this only catches a wedge.
        forward_deadline: (cfg.connect_timeout + cfg.io_timeout) * 4,
    });
    let core = core::spawn(
        listener,
        service,
        CoreConfig {
            name: "cluster",
            max_conns: cfg.max_conns,
            read_timeout: cfg.read_timeout,
            write_timeout: cfg.write_timeout,
            sndbuf: None,
            offload_threads: cfg.forward_threads.max(1),
        },
    )?;

    Ok(ClusterHandle {
        addr,
        cluster,
        core: Some(core),
        prober: Some(prober),
    })
}
