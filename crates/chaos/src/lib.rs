//! `gem5prof-chaos` — a deterministic, seeded fault-injection harness.
//!
//! Production code declares **named fault points** (`"http.read"`,
//! `"engine.job_panic"`, …) at the places where the serving and runner
//! layers can fail. When the harness is *disarmed* (the default) every
//! hook is a single relaxed atomic load — production builds pay nothing.
//! When *armed* from a seeded [`Plan`], each visit to a point draws a
//! deterministic decision and, on injection, the call site turns it into
//! the matching failure: an I/O error, a short read, a torn write, an
//! artificial delay, a panicking job, or a poisoned result.
//!
//! # Determinism contract
//!
//! The decision for the *k*-th visit of point *p* is a pure function of
//! `(plan.seed, p, k)` — no wall clock, no global RNG. Replaying the
//! same request sequence against the same seed reproduces the same
//! fault schedule, which is what makes a failing `soak` seed a one-line
//! repro instead of a flake.
//!
//! # Accounting
//!
//! Every injected fault increments `chaos_injected_total{point=…}` and
//! every fault the system survived (connection closed cleanly, panic
//! caught, poisoned entry discarded, delay absorbed) increments
//! `chaos_recovered_total{point=…}` in the `gem5prof-obs` registry, so
//! `/metrics` shows the harness at work. [`report`] returns the same
//! numbers per point since the last [`arm`].
//!
//! # Arming
//!
//! Programmatic: `chaos::arm(Plan::new(42).with_prob(0.1))`. From the
//! environment (the served daemon does this at startup):
//!
//! ```text
//! GEM5PROF_CHAOS="seed=42"                       # all points at the default probability
//! GEM5PROF_CHAOS="7"                             # bare integer = seed
//! GEM5PROF_CHAOS="seed=7,prob=0.2,engine.job_panic=1.0,http.read=0"
//! ```

use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Fast path: is the harness armed at all?
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-lifetime totals (monotone across re-arms).
static INJECTED_TOTAL: AtomicU64 = AtomicU64::new(0);
static RECOVERED_TOTAL: AtomicU64 = AtomicU64::new(0);

/// A seeded scenario: which points fire, and how often.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Seed for the per-point decision stream.
    pub seed: u64,
    /// Injection probability for points without an override.
    pub default_prob: f64,
    /// Per-point probability overrides (`0.0` disables a point).
    overrides: Vec<(String, f64)>,
}

impl Plan {
    /// A plan firing every point at the default 5% probability.
    pub fn new(seed: u64) -> Plan {
        Plan {
            seed,
            default_prob: 0.05,
            overrides: Vec::new(),
        }
    }

    /// Sets the default injection probability (clamped to `0.0..=1.0`).
    pub fn with_prob(mut self, p: f64) -> Plan {
        self.default_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Overrides one point's probability (clamped to `0.0..=1.0`).
    pub fn with_point(mut self, point: &str, p: f64) -> Plan {
        self.overrides.push((point.to_string(), p.clamp(0.0, 1.0)));
        self
    }

    /// Probability for a point under this plan.
    pub fn prob_for(&self, point: &str) -> f64 {
        self.overrides
            .iter()
            .rev()
            .find(|(name, _)| name == point)
            .map(|(_, p)| *p)
            .unwrap_or(self.default_prob)
    }

    /// Parses the `GEM5PROF_CHAOS` format: either a bare seed (`"42"`)
    /// or comma-separated `k=v` pairs where `k` is `seed`, `prob`, or a
    /// fault-point name (anything containing a `.`).
    pub fn parse(spec: &str) -> Result<Plan, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("empty chaos spec".into());
        }
        if let Ok(seed) = spec.parse::<u64>() {
            return Ok(Plan::new(seed));
        }
        let mut plan = Plan::new(0);
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("bad chaos spec item `{part}` (want k=v)"))?;
            match k {
                "seed" => {
                    plan.seed = v
                        .parse()
                        .map_err(|_| format!("bad chaos seed `{v}` (want u64)"))?;
                }
                "prob" => {
                    let p: f64 = v
                        .parse()
                        .map_err(|_| format!("bad chaos prob `{v}` (want 0.0..=1.0)"))?;
                    plan = plan.with_prob(p);
                }
                point if point.contains('.') => {
                    let p: f64 = v
                        .parse()
                        .map_err(|_| format!("bad probability `{v}` for point `{point}`"))?;
                    plan = plan.with_point(point, p);
                }
                other => return Err(format!("unknown chaos key `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// Per-point state since the last [`arm`].
struct PointState {
    hits: u64,
    injected: u64,
    recovered: u64,
    prob: f64,
    obs_injected: Arc<gem5prof_obs::Counter>,
    obs_recovered: Arc<gem5prof_obs::Counter>,
}

struct State {
    plan: Plan,
    points: HashMap<&'static str, PointState>,
}

fn state() -> &'static Mutex<Option<State>> {
    static STATE: Mutex<Option<State>> = Mutex::new(None);
    &STATE
}

/// Arms the harness with `plan`, resetting every point's decision
/// stream to visit zero (so the same plan replays the same schedule).
pub fn arm(plan: Plan) {
    let mut guard = state().lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(State {
        plan,
        points: HashMap::new(),
    });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disarms the harness. Per-point accounting from the last armed window
/// stays readable via [`report`].
pub fn disarm() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the harness is currently armed.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arms from the `GEM5PROF_CHAOS` environment variable, if set.
/// Returns the parsed plan on success; a malformed spec is reported on
/// stderr and ignored (the harness stays disarmed — a typo must not
/// silently run chaos against a production daemon).
pub fn arm_from_env() -> Option<Plan> {
    let spec = std::env::var("GEM5PROF_CHAOS").ok()?;
    match Plan::parse(&spec) {
        Ok(plan) => {
            arm(plan.clone());
            Some(plan)
        }
        Err(e) => {
            eprintln!("warning: ignoring malformed GEM5PROF_CHAOS `{spec}`: {e}");
            None
        }
    }
}

/// SplitMix64: a stateless 64-bit mixer. Here it is the per-visit
/// decision hash; the serving side shares it for retry jitter, cluster
/// ring positions and loadgen's duplicate coin, so a seed replays the
/// same way everywhere.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 over bytes. Here it seeds each fault point's own stream
/// from the point name; the serving side shares it for on-disk
/// checksums, cache file names and cluster ring keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Visits a fault point and returns the decision word if the plan
/// injects a fault at this visit (`None` otherwise, including whenever
/// the harness is disarmed).
fn decide(point: &'static str) -> Option<u64> {
    let mut guard = state().lock().unwrap_or_else(|e| e.into_inner());
    let st = guard.as_mut()?;
    let seed = st.plan.seed;
    let prob = st.plan.prob_for(point);
    let ps = st.points.entry(point).or_insert_with(|| {
        let r = gem5prof_obs::global();
        PointState {
            hits: 0,
            injected: 0,
            recovered: 0,
            prob,
            obs_injected: r.counter_with(
                "chaos_injected_total",
                "faults injected by the chaos harness, by fault point",
                &[("point", point)],
            ),
            obs_recovered: r.counter_with(
                "chaos_recovered_total",
                "injected faults the system survived, by fault point",
                &[("point", point)],
            ),
        }
    });
    let k = ps.hits;
    ps.hits += 1;
    let word = splitmix64(seed ^ fnv1a64(point.as_bytes()) ^ k.wrapping_mul(0x2545_F491_4F6C_DD1D));
    // Top 53 bits → uniform in [0, 1).
    let draw = (word >> 11) as f64 / (1u64 << 53) as f64;
    if draw < ps.prob {
        ps.injected += 1;
        ps.obs_injected.inc();
        INJECTED_TOTAL.fetch_add(1, Ordering::Relaxed);
        Some(word)
    } else {
        None
    }
}

/// Should a fault fire at `point` on this visit? Zero-cost when
/// disarmed. The caller turns `true` into its failure mode (panic,
/// poisoned body, dropped connection, …).
#[inline]
pub fn inject(point: &'static str) -> bool {
    if !enabled() {
        return false;
    }
    decide(point).is_some()
}

/// An injected I/O error at `point`, if the plan fires. The message
/// carries the `chaos:` marker [`is_chaos_error`] recognizes, so
/// recovery sites can attribute the failure.
#[inline]
pub fn io_error(point: &'static str) -> Option<io::Error> {
    if !enabled() {
        return None;
    }
    decide(point).map(|_| io::Error::other(format!("chaos: injected I/O error at {point}")))
}

/// An injected delay at `point`, if the plan fires: 1–20 ms derived
/// from the decision word (deterministic per visit).
#[inline]
pub fn delay(point: &'static str) -> Option<Duration> {
    if !enabled() {
        return None;
    }
    decide(point).map(|word| Duration::from_millis(1 + splitmix64(word) % 20))
}

/// Records that an injected fault at `point` was survived.
pub fn recovered(point: &'static str) {
    let mut guard = state().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(st) = guard.as_mut() {
        if let Some(ps) = st.points.get_mut(point) {
            ps.recovered += 1;
            ps.obs_recovered.inc();
            RECOVERED_TOTAL.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Silences the default panic report for injected panics — they are
/// expected, caught, and accounted as recovered, so the backtrace spam
/// only obscures real failures. Non-chaos panics still reach the
/// previously installed hook untouched. Idempotent.
pub fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if msg.is_some_and(|m| m.contains("chaos:")) {
                return;
            }
            prev(info);
        }));
    });
}

/// Is this error one the harness injected?
pub fn is_chaos_error(e: &io::Error) -> bool {
    e.to_string().contains("chaos:")
}

/// Is this caught panic payload one the harness injected?
pub fn is_chaos_panic(payload: &(dyn Any + Send)) -> bool {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.contains("chaos:"))
        .or_else(|| {
            payload
                .downcast_ref::<String>()
                .map(|s| s.contains("chaos:"))
        })
        .unwrap_or(false)
}

/// Faults injected over the process lifetime (across re-arms).
pub fn injected_total() -> u64 {
    INJECTED_TOTAL.load(Ordering::Relaxed)
}

/// Injected faults survived over the process lifetime.
pub fn recovered_total() -> u64 {
    RECOVERED_TOTAL.load(Ordering::Relaxed)
}

/// Per-point accounting since the last [`arm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointReport {
    /// Fault-point name.
    pub point: &'static str,
    /// Visits to the point.
    pub hits: u64,
    /// Faults injected.
    pub injected: u64,
    /// Injected faults survived.
    pub recovered: u64,
}

/// Accounting for every point visited since the last [`arm`], sorted by
/// point name for stable output.
pub fn report() -> Vec<PointReport> {
    let guard = state().lock().unwrap_or_else(|e| e.into_inner());
    let mut v: Vec<PointReport> = guard
        .as_ref()
        .map(|st| {
            st.points
                .iter()
                .map(|(&point, ps)| PointReport {
                    point,
                    hits: ps.hits,
                    injected: ps.injected,
                    recovered: ps.recovered,
                })
                .collect()
        })
        .unwrap_or_default();
    v.sort_by_key(|r| r.point);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chaos state is process-global; tests that arm it must not
    /// interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Published reference vectors: retry jitter, ring positions, cache
    /// file names and on-disk checksums all depend on these bits.
    #[test]
    fn shared_hashes_match_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
    }

    #[test]
    fn disarmed_points_never_fire() {
        let _g = serial();
        disarm();
        for _ in 0..1000 {
            assert!(!inject("test.never"));
            assert!(io_error("test.never").is_none());
            assert!(delay("test.never").is_none());
        }
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let _g = serial();
        let run = |seed: u64| -> Vec<bool> {
            arm(Plan::new(seed).with_prob(0.3));
            let got = (0..200).map(|_| inject("test.replay")).collect();
            disarm();
            got
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must replay the same fault schedule");
        assert_ne!(a, c, "different seeds must differ somewhere in 200 draws");
        assert!(a.iter().any(|&x| x), "p=0.3 over 200 draws must fire");
        assert!(!a.iter().all(|&x| x), "p=0.3 over 200 draws must also pass");
    }

    #[test]
    fn per_point_overrides_and_accounting() {
        let _g = serial();
        arm(Plan::new(7)
            .with_prob(0.0)
            .with_point("test.always", 1.0)
            .with_point("test.off", 0.0));
        for _ in 0..10 {
            assert!(inject("test.always"));
            assert!(!inject("test.off"));
        }
        recovered("test.always");
        recovered("test.always");
        let rep = report();
        let always = rep.iter().find(|r| r.point == "test.always").unwrap();
        assert_eq!(
            (always.hits, always.injected, always.recovered),
            (10, 10, 2)
        );
        let off = rep.iter().find(|r| r.point == "test.off").unwrap();
        assert_eq!((off.hits, off.injected), (10, 0));
        disarm();
    }

    #[test]
    fn delays_are_deterministic_and_bounded() {
        let _g = serial();
        arm(Plan::new(9).with_prob(1.0));
        let a: Vec<Duration> = (0..50).map(|_| delay("test.delay").unwrap()).collect();
        arm(Plan::new(9).with_prob(1.0));
        let b: Vec<Duration> = (0..50).map(|_| delay("test.delay").unwrap()).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|d| (1..=20).contains(&d.as_millis())));
        disarm();
    }

    #[test]
    fn plan_parsing() {
        assert_eq!(Plan::parse("42").unwrap(), Plan::new(42));
        let p = Plan::parse("seed=7,prob=0.2,engine.job_panic=1.0,http.read=0").unwrap();
        assert_eq!(p.seed, 7);
        assert!((p.default_prob - 0.2).abs() < 1e-12);
        assert_eq!(p.prob_for("engine.job_panic"), 1.0);
        assert_eq!(p.prob_for("http.read"), 0.0);
        assert!((p.prob_for("engine.job_delay") - 0.2).abs() < 1e-12);
        for bad in ["", "seed=x", "prob=nope", "wat=1", "loose"] {
            assert!(Plan::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn error_and_panic_markers() {
        let _g = serial();
        arm(Plan::new(1).with_prob(1.0));
        let e = io_error("test.err").unwrap();
        assert!(is_chaos_error(&e));
        assert!(!is_chaos_error(&io::Error::other("disk on fire")));
        let payload: Box<dyn Any + Send> = Box::new("chaos: injected job panic".to_string());
        assert!(is_chaos_panic(payload.as_ref()));
        let other: Box<dyn Any + Send> = Box::new("index out of bounds");
        assert!(!is_chaos_panic(other.as_ref()));
        disarm();
    }
}
