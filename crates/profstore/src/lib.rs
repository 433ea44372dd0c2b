//! `gem5prof-profstore` — the continuous profiling store.
//!
//! The paper's method is longitudinal: profile the simulator, land a
//! win, and keep profiling so the win cannot silently decay. This crate
//! is that loop as infrastructure. It persists per-window span profiles
//! and metrics snapshots into a bounded, checksummed on-disk ring of
//! `G5PS` segments ([`frame`], the framing the server's disk warm tier
//! shares: magic + version + FNV-1a checksum, temp-write + rename,
//! corrupt/stale segments counted and skipped), diffs any two snapshots
//! by per-call self time, and gates named hot spans against a blessed
//! baseline.
//!
//! ```text
//! capture ──► ProfStore::store ──► in-memory index (immediately queryable)
//!                   │
//!                   └─► writer thread (write-behind, off the request path)
//!                            └─► snap-<id>.g5ps  (ring-pruned at capacity)
//! ```
//!
//! Persistence is **write-behind**: `store` indexes the snapshot in
//! memory and returns its id at once; a dedicated writer thread encodes
//! and lands the segment afterwards, so a snapshot capture never puts
//! filesystem latency on a request path. [`ProfStore::flush`] drains
//! the writer (graceful shutdown calls it), and the
//! `profstore.disk_write` chaos point can tear a segment mid-write —
//! the torn file is counted `corrupt` and skipped at the next open,
//! costing history, never wrong diffs.

pub mod diff;
pub mod frame;
pub mod ring;

pub use diff::{
    collapsed, gate, DiffReport, DiffRow, GateCheck, GateResult, DEFAULT_HOT_SPANS,
    DEFAULT_MIN_DELTA_NS, DEFAULT_THRESHOLD_PCT,
};

use gem5prof_chaos as chaos;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// One aggregated span path inside a snapshot window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// `;`-joined span path, outermost first.
    pub path: String,
    /// Completions of this path within the window.
    pub count: u64,
    /// Wall time including children, summed over the window.
    pub total_ns: u64,
    /// Wall time excluding children, summed over the window.
    pub self_ns: u64,
}

/// One flattened metric series value inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Series name, labels inline (`name{k="v"}`).
    pub name: String,
    /// Value at capture time.
    pub value: f64,
}

/// One profiling window: the span table and metrics as they stood at
/// capture time. The capturer resets the span table afterwards, so
/// consecutive snapshots are disjoint windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Monotonically increasing id, unique within one store directory.
    pub id: u64,
    /// Capture wall-clock time, milliseconds since the Unix epoch.
    pub taken_unix_ms: u64,
    /// Caller-supplied label (`baseline`, `bench`, `soak`, …).
    pub label: String,
    /// Identity of the daemon that captured the window.
    pub node_id: String,
    /// The span table of the window.
    pub spans: Vec<SpanRow>,
    /// Flattened metric values at capture time.
    pub metrics: Vec<MetricRow>,
}

impl Snapshot {
    /// Total self time across the window's spans.
    pub fn total_self_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.self_ns).sum()
    }
}

/// Atomic counters for the store, shared with scrape-time collectors.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Snapshots captured (indexed in memory).
    pub snapshots: AtomicU64,
    /// Segments persisted to disk.
    pub writes: AtomicU64,
    /// Failed persists (the snapshot stays memory-only).
    pub write_errors: AtomicU64,
    /// Segments ignored at open for failing magic/length/checksum.
    pub corrupt: AtomicU64,
    /// Segments ignored at open for an older schema version.
    pub stale: AtomicU64,
}

/// Point-in-time store counters for `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub snapshots: u64,
    pub writes: u64,
    pub write_errors: u64,
    pub corrupt: u64,
    pub stale: u64,
}

impl StoreStats {
    /// Point-in-time copy.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            snapshots: self.snapshots.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
        }
    }
}

/// Name of the blessed-baseline marker file inside the store directory.
const BLESSED_FILE: &str = "blessed";

enum Msg {
    Write(Arc<Snapshot>),
    Flush(mpsc::Sender<()>),
}

struct Inner {
    /// Snapshots by id, ascending — the queryable window history.
    index: BTreeMap<u64, Arc<Snapshot>>,
    /// Next id to assign.
    next_id: u64,
    /// Blessed baseline id, if one was marked (may point at an
    /// already-pruned snapshot; resolution checks the index).
    blessed: Option<u64>,
}

/// The continuous profiling store: a bounded ring of snapshot segments
/// under one directory, with an in-memory index for queries.
pub struct ProfStore {
    dir: PathBuf,
    capacity: usize,
    inner: Mutex<Inner>,
    stats: Arc<StoreStats>,
    tx: mpsc::Sender<Msg>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("snap-{id:016x}.{}", ring::EXT))
}

/// Parses `snap-<16 hex>.g5ps` back to an id.
fn segment_id(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let hex = name
        .strip_prefix("snap-")?
        .strip_suffix(&format!(".{}", ring::EXT))?;
    u64::from_str_radix(hex, 16).ok()
}

/// Persists one segment; on an injected `profstore.disk_write` fault
/// the write is *torn* — half the segment lands at the final path — so
/// the recovery path (checksum rejection at the next open) is the one
/// that actually runs under chaos, not just a clean error return.
fn persist(dir: &Path, snap: &Snapshot, stats: &StoreStats) {
    let bytes = ring::encode(snap);
    let path = segment_path(dir, snap.id);
    let result = (|| -> io::Result<()> {
        if let Some(e) = chaos::io_error("profstore.disk_write") {
            let _ = std::fs::write(&path, &bytes[..bytes.len() / 2]);
            return Err(e);
        }
        frame::write_atomic(&path, &bytes)
    })();
    match result {
        Ok(()) => {
            stats.writes.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            stats.write_errors.fetch_add(1, Ordering::Relaxed);
            if chaos::is_chaos_error(&e) {
                chaos::recovered("profstore.disk_write");
            }
        }
    }
}

/// Deletes the oldest segment files beyond `capacity` (by filename id).
fn prune_disk(dir: &Path, capacity: usize) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut ids: Vec<(u64, PathBuf)> = rd
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let p = e.path();
            segment_id(&p).map(|id| (id, p))
        })
        .collect();
    if ids.len() <= capacity {
        return;
    }
    ids.sort_by_key(|(id, _)| *id);
    let excess = ids.len() - capacity;
    for (_, path) in ids.into_iter().take(excess) {
        let _ = std::fs::remove_file(path);
    }
}

impl ProfStore {
    /// Opens (creating if needed) the store directory, decoding every
    /// valid segment into the index. Corrupt and stale segments are
    /// counted and skipped; their ids still advance `next_id` so a torn
    /// newest segment can never cause id reuse.
    pub fn open(dir: &Path, capacity: usize) -> io::Result<Arc<ProfStore>> {
        let capacity = capacity.max(1);
        std::fs::create_dir_all(dir)?;
        let stats = Arc::new(StoreStats::default());
        let mut index = BTreeMap::new();
        let mut max_id = 0u64;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(file_id) = segment_id(&path) else {
                continue;
            };
            max_id = max_id.max(file_id);
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            match ring::decode(&bytes) {
                Ok(snap) => {
                    max_id = max_id.max(snap.id);
                    index.insert(snap.id, Arc::new(snap));
                }
                Err(frame::Reject::Corrupt) => {
                    stats.corrupt.fetch_add(1, Ordering::Relaxed);
                }
                Err(frame::Reject::Stale) => {
                    stats.stale.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let blessed = std::fs::read_to_string(dir.join(BLESSED_FILE))
            .ok()
            .and_then(|s| s.trim().parse().ok());

        let (tx, rx) = mpsc::channel::<Msg>();
        let writer_dir = dir.to_path_buf();
        let writer_stats = Arc::clone(&stats);
        let writer = std::thread::Builder::new()
            .name("profstore-writer".into())
            .spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Write(snap) => {
                            persist(&writer_dir, &snap, &writer_stats);
                            prune_disk(&writer_dir, capacity);
                        }
                        Msg::Flush(done) => {
                            let _ = done.send(());
                        }
                    }
                }
            })?;

        Ok(Arc::new(ProfStore {
            dir: dir.to_path_buf(),
            capacity,
            inner: Mutex::new(Inner {
                index,
                next_id: max_id + 1,
                blessed,
            }),
            stats,
            tx,
            writer: Mutex::new(Some(writer)),
        }))
    }

    /// Captures one window: assigns the next id, indexes the snapshot
    /// (immediately queryable), prunes the memory ring, and hands the
    /// segment to the writer thread. Returns the assigned id without
    /// waiting for the disk.
    pub fn store(
        &self,
        label: &str,
        node_id: &str,
        spans: Vec<SpanRow>,
        metrics: Vec<MetricRow>,
    ) -> u64 {
        let taken_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let id = inner.next_id;
        inner.next_id += 1;
        let snap = Arc::new(Snapshot {
            id,
            taken_unix_ms,
            label: label.to_string(),
            node_id: node_id.to_string(),
            spans,
            metrics,
        });
        inner.index.insert(id, Arc::clone(&snap));
        while inner.index.len() > self.capacity {
            let oldest = *inner.index.keys().next().expect("non-empty index");
            inner.index.remove(&oldest);
        }
        drop(inner);
        self.stats.snapshots.fetch_add(1, Ordering::Relaxed);
        let _ = self.tx.send(Msg::Write(snap));
        id
    }

    /// Blocks until every snapshot handed to the writer so far has been
    /// persisted (or counted as a write error). Graceful shutdown calls
    /// this so a drained daemon leaves no segment behind in the queue.
    pub fn flush(&self) {
        let (done_tx, done_rx) = mpsc::channel();
        if self.tx.send(Msg::Flush(done_tx)).is_ok() {
            let _ = done_rx.recv();
        }
    }

    /// Marks snapshot `id` as the blessed baseline, persisting the
    /// marker (temp-write + rename) so the baseline survives restarts.
    /// Fails if the id is not in the index.
    pub fn bless(&self, id: u64) -> io::Result<u64> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if !inner.index.contains_key(&id) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("unknown snapshot `{id}`"),
            ));
        }
        frame::write_atomic(&self.dir.join(BLESSED_FILE), id.to_string().as_bytes())?;
        inner.blessed = Some(id);
        Ok(id)
    }

    /// The blessed baseline id, if one is marked *and* still indexed.
    pub fn blessed(&self) -> Option<u64> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.blessed.filter(|id| inner.index.contains_key(id))
    }

    /// Resolves a snapshot selector: `latest`, `blessed`, or a decimal
    /// id. Returns `None` when nothing matches (empty store, no blessed
    /// marker, pruned or unknown id).
    pub fn resolve(&self, selector: &str) -> Option<u64> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match selector {
            "latest" => inner.index.keys().next_back().copied(),
            "blessed" => inner.blessed.filter(|id| inner.index.contains_key(id)),
            digits => digits
                .parse()
                .ok()
                .filter(|id| inner.index.contains_key(id)),
        }
    }

    /// The snapshot with the given id, if still in the ring.
    pub fn get(&self, id: u64) -> Option<Arc<Snapshot>> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .index
            .get(&id)
            .cloned()
    }

    /// Every indexed snapshot, ascending by id.
    pub fn history(&self) -> Vec<Arc<Snapshot>> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .index
            .values()
            .cloned()
            .collect()
    }

    /// Indexed snapshot count.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .index
            .len()
    }

    /// True when no snapshot is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity (snapshots kept, memory and disk).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Store counter values.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The live counter set, for scrape-time metric collectors. The
    /// `Arc` keeps counts visible after the store itself is dropped,
    /// so summed series stay monotone.
    pub fn stats_handle(&self) -> Arc<StoreStats> {
        Arc::clone(&self.stats)
    }
}

impl Drop for ProfStore {
    fn drop(&mut self) {
        // Closing the channel ends the writer loop; join so every
        // queued segment lands before the store is gone.
        let (dead_tx, _) = mpsc::channel();
        let tx = std::mem::replace(&mut self.tx, dead_tx);
        drop(tx);
        if let Some(handle) = self.writer.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Chaos arming is process-global; serialize tests that persist.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gem5prof-profstore-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rows(n: u64) -> Vec<SpanRow> {
        vec![SpanRow {
            path: "profile;dedup;guest_sim".into(),
            count: n,
            total_ns: n * 1_000,
            self_ns: n * 900,
        }]
    }

    #[test]
    fn store_flush_reopen_round_trips() {
        let _g = serial();
        let dir = tmpdir("reopen");
        {
            let store = ProfStore::open(&dir, 8).unwrap();
            let id1 = store.store("baseline", "n1", rows(2), Vec::new());
            let id2 = store.store(
                "second",
                "n1",
                rows(3),
                vec![MetricRow {
                    name: "x_total".into(),
                    value: 5.0,
                }],
            );
            assert_eq!((id1, id2), (1, 2));
            store.bless(id1).unwrap();
            store.flush();
            assert_eq!(store.stats().writes, 2);
        }
        let store = ProfStore::open(&dir, 8).unwrap();
        assert_eq!(store.len(), 2, "segments must survive the restart");
        assert_eq!(store.resolve("latest"), Some(2));
        assert_eq!(store.resolve("blessed"), Some(1));
        assert_eq!(store.resolve("2"), Some(2));
        assert_eq!(store.resolve("99"), None);
        assert_eq!(store.get(2).unwrap().metrics[0].value, 5.0);
        assert_eq!(store.get(1).unwrap().label, "baseline");
        // Ids keep advancing past what the directory already holds.
        assert_eq!(store.store("third", "n2", rows(1), Vec::new()), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_is_bounded_in_memory_and_on_disk() {
        let _g = serial();
        let dir = tmpdir("ring");
        let store = ProfStore::open(&dir, 3).unwrap();
        for i in 0..6 {
            store.store(&format!("w{i}"), "n", rows(i + 1), Vec::new());
        }
        store.flush();
        assert_eq!(store.len(), 3);
        assert_eq!(store.resolve("latest"), Some(6));
        assert_eq!(store.get(1), None, "oldest snapshots pruned");
        let on_disk = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| segment_id(&e.unwrap().path()))
            .count();
        assert_eq!(on_disk, 3, "disk ring pruned to capacity");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_stale_segments_are_counted_and_skipped() {
        let _g = serial();
        let dir = tmpdir("corrupt");
        {
            let store = ProfStore::open(&dir, 8).unwrap();
            for i in 0..3 {
                store.store(&format!("s{i}"), "n", rows(1), Vec::new());
            }
            store.flush();
        }
        // Tear segment 2 and downgrade segment 3's version byte.
        let p2 = segment_path(&dir, 2);
        let bytes = std::fs::read(&p2).unwrap();
        std::fs::write(&p2, &bytes[..bytes.len() / 2]).unwrap();
        let p3 = segment_path(&dir, 3);
        let mut old = std::fs::read(&p3).unwrap();
        old[4] = ring::SEGMENT_FORMAT_VERSION.wrapping_add(1);
        std::fs::write(&p3, old).unwrap();

        let store = ProfStore::open(&dir, 8).unwrap();
        assert_eq!(store.len(), 1, "only the intact segment survives");
        assert_eq!(store.stats().corrupt, 1);
        assert_eq!(store.stats().stale, 1);
        // Damaged ids still advance the counter: no id reuse.
        assert_eq!(store.store("fresh", "n", rows(1), Vec::new()), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_tears_writes_and_recovery_skips_them() {
        let _g = serial();
        let dir = tmpdir("chaos");
        {
            let store = ProfStore::open(&dir, 8).unwrap();
            store.store("intact", "n", rows(1), Vec::new());
            store.flush();
            chaos::arm(
                chaos::Plan::new(42)
                    .with_prob(0.0)
                    .with_point("profstore.disk_write", 1.0),
            );
            store.store("torn", "n", rows(2), Vec::new());
            store.flush();
            chaos::disarm();
            let stats = store.stats();
            assert_eq!(stats.writes, 1);
            assert_eq!(stats.write_errors, 1, "injected tear must be counted");
            // The torn snapshot is still queryable from memory.
            assert_eq!(store.len(), 2);
        }
        // …but after a restart only the intact segment loads, and the
        // torn one is visible as `corrupt`, not silently absent.
        let store = ProfStore::open(&dir, 8).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(1).unwrap().label, "intact");
        assert_eq!(store.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bless_rejects_unknown_ids() {
        let _g = serial();
        let dir = tmpdir("bless");
        let store = ProfStore::open(&dir, 4).unwrap();
        assert!(store.bless(1).is_err(), "nothing to bless yet");
        let id = store.store("only", "n", rows(1), Vec::new());
        assert_eq!(store.bless(id).unwrap(), id);
        assert_eq!(store.blessed(), Some(id));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
