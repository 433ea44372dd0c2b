//! Seeded request plans: what each workload sends, and in which order.
//!
//! A plan is a list of rounds. Every round runs against a fresh daemon:
//! its `warmup` requests are part of set-up, its `measured` requests are
//! the timed phase. Everything here is a pure function of the workload,
//! the seed and the round count, so the same seed always yields the same
//! request bytes.

use gem5prof::spec::{parse_cpu, parse_microbench, parse_mode, parse_workload};
use gem5prof::ExperimentSpec;
use gem5sim_workloads::Scale;
use platforms::{PlatformId, SystemKnobs};

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["cold_mix", "host_sweep", "hot_hits", "figure_batch"];

/// A small deterministic generator (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_f00d_9e57_7a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a correct response to a request looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `GET /healthz`: status 200 and `"status":"ok"`.
    Health,
    /// `GET /tables/tableN`: equals `tests/golden/tableN.txt`.
    Table(u8),
    /// `GET /figures/figNN`: equals `tests/golden/figNN.txt`.
    Figure(u8),
    /// `POST /experiments`: the canonical key of this spec, microbench
    /// checksums, and (where checked in-process) bit-equal fields.
    Experiment(ExperimentSpec),
}

/// One HTTP request, fully rendered.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub post: bool,
    pub path: String,
    pub body: String,
    pub expect: Expect,
    /// Relative cost used to order cold requests longest-first.
    pub weight: f64,
}

impl Req {
    fn get(path: String, expect: Expect) -> Self {
        Req {
            post: false,
            path,
            body: String::new(),
            expect,
            weight: 1.0,
        }
    }

    /// The request as it goes on the wire (keep-alive HTTP/1.1).
    pub fn wire(&self) -> Vec<u8> {
        if self.post {
            format!(
                "POST {} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
                self.path,
                self.body.len(),
                self.body
            )
            .into_bytes()
        } else {
            format!("GET {} HTTP/1.1\r\nhost: perfbench\r\n\r\n", self.path).into_bytes()
        }
    }

    pub fn spec(&self) -> Option<&ExperimentSpec> {
        match &self.expect {
            Expect::Experiment(s) => Some(s),
            _ => None,
        }
    }
}

/// One fresh-daemon round.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    pub warmup: Vec<Req>,
    pub measured: Vec<Req>,
}

/// A workload's whole request plan for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workload: &'static str,
    /// Keep-alive connections the generator opens per round.
    pub connections: usize,
    pub rounds: Vec<Round>,
}

/// The wire fields of one experiment, before rendering.
#[derive(Debug, Clone)]
struct Wire {
    platform: &'static str,
    workload: &'static str,
    cpu: &'static str,
    mode: &'static str,
    knobs: String,
    harts: u64,
    corun: Option<&'static str>,
}

impl Wire {
    fn new(
        platform: &'static str,
        workload: &'static str,
        cpu: &'static str,
        mode: &'static str,
    ) -> Self {
        Wire {
            platform,
            workload,
            cpu,
            mode,
            knobs: String::new(),
            harts: 1,
            corun: None,
        }
    }

    fn knobs(mut self, knobs: &str) -> Self {
        self.knobs = knobs.to_string();
        self
    }

    /// The spec the daemon must parse this body into.
    fn spec(&self) -> ExperimentSpec {
        ExperimentSpec {
            platform: PlatformId::from_name(self.platform).expect("known platform"),
            workload: parse_workload(self.workload).expect("known workload"),
            scale: Scale::Test,
            cpu: parse_cpu(self.cpu).expect("known cpu"),
            mode: parse_mode(self.mode).expect("known mode"),
            knobs: SystemKnobs::parse(&self.knobs).expect("valid knobs"),
            harts: self.harts as usize,
            corun: self
                .corun
                .map(|c| parse_microbench(c).expect("known microbench")),
            corun_div: 1,
        }
    }

    /// Renders the JSON body. With `vary`, field order, letter case and
    /// the presence of default-valued fields are seeded, so the daemon's
    /// canonical key (not the body bytes) is what must match.
    fn render(&self, vary: Option<&mut Rng>) -> String {
        let mut fields: Vec<(&str, String)> = vec![
            ("platform", quoted(self.platform)),
            ("workload", quoted(self.workload)),
            ("cpu", quoted(self.cpu)),
            ("mode", quoted(self.mode)),
            ("scale", quoted("test")),
        ];
        if !self.knobs.is_empty() {
            fields.push(("knobs", quoted(&self.knobs)));
        }
        if self.harts != 1 {
            fields.push(("harts", self.harts.to_string()));
        }
        if let Some(c) = self.corun {
            fields.push(("corun", quoted(c)));
        }
        if let Some(rng) = vary {
            // `scale` is the default; drop it half the time.
            if rng.below(2) == 0 {
                fields.retain(|(k, _)| *k != "scale");
            }
            for (_, v) in fields.iter_mut() {
                if v.starts_with('"') {
                    *v = match rng.below(3) {
                        0 => v.to_ascii_uppercase(),
                        1 => v.clone(),
                        _ => mixed_case(v),
                    };
                }
            }
            rng.shuffle(&mut fields);
        }
        let inner: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", inner.join(","))
    }

    fn request(&self, vary: Option<&mut Rng>) -> Req {
        Req {
            post: true,
            path: "/experiments".into(),
            body: self.render(vary),
            expect: Expect::Experiment(self.spec()),
            weight: cold_weight(self.workload, self.cpu)
                + self.corun.map_or(0.0, |c| cold_weight(c, self.cpu)),
        }
    }
}

fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

fn mixed_case(s: &str) -> String {
    s.chars()
        .enumerate()
        .map(|(i, c)| {
            if i % 2 == 0 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

const PLATFORMS: [&str; 3] = ["intel_xeon", "m1_pro", "m1_ultra"];
const CPUS: [&str; 4] = ["atomic", "timing", "minor", "o3"];
const MODES: [&str; 2] = ["se", "fs"];

/// The cold pool: the PARSEC kernels, sieve and the microbenchmarks.
const COLD_WORKLOADS: [&str; 16] = [
    "blackscholes",
    "canneal",
    "dedup",
    "streamcluster",
    "water_nsquared",
    "water_spatial",
    "ocean_cp",
    "ocean_ncp",
    "fmm",
    "sieve",
    "alu",
    "branch_pred",
    "branch_unpred",
    "mem_seq",
    "mem_stride",
    "call_ret",
];

/// The pool workloads whose cold cost is seconds: `cold_mix` runs each
/// on one CPU model per round.
const HEAVY: [&str; 3] = ["canneal", "mem_seq", "mem_stride"];

/// Microbenchmarks cheap enough to pair as 2-hart co-runs.
const LIGHT_MICRO: [&str; 4] = ["alu", "branch_pred", "branch_unpred", "call_ret"];

/// Approximate cold cost (ms on an Atomic CPU, 2-core x86 VM) of each
/// workload at test scale, times a per-CPU-model factor. Only used to
/// send long requests first, so a round's makespan does not depend on
/// where a long request happens to land in the seeded order.
fn cold_weight(workload: &str, cpu: &str) -> f64 {
    let base = match workload {
        "canneal" => 1300.0,
        "mem_seq" => 880.0,
        "mem_stride" => 2400.0,
        "dedup" | "branch_pred" => 110.0,
        "streamcluster" | "branch_unpred" => 170.0,
        "fmm" | "sieve" | "alu" => 200.0,
        "ocean_cp" | "ocean_ncp" | "call_ret" => 60.0,
        _ => 25.0,
    };
    let factor = match cpu {
        "timing" => 1.3,
        "minor" => 2.0,
        "o3" => 2.8,
        _ => 1.0,
    };
    base * factor
}

fn health() -> Req {
    Req::get("/healthz".into(), Expect::Health)
}

/// Longest-first order with a small seeded jitter, so near-equal-cost
/// requests still arrive in a seed-dependent order.
fn longest_first(reqs: &mut [Req], rng: &mut Rng) {
    let mut keyed: Vec<(f64, Req)> = reqs
        .iter()
        .map(|r| (r.weight * (1.0 + 0.05 * rng.unit()), r.clone()))
        .collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (slot, (_, r)) in reqs.iter_mut().zip(keyed) {
        *slot = r;
    }
}

/// Requests a `hot_hits` round sends per configured second.
pub const HOT_REQUESTS_PER_SECOND: usize = 45_000;

/// Builds the plan of `workload` for `seed` and `seconds` of measurement.
/// Round counts are fixed by `seconds` (not by elapsed time), so every
/// build measures the same work.
pub fn plan(workload: &str, seed: u64, seconds: u64, connections: usize) -> Option<Plan> {
    let mut rng = Rng::new(seed);
    let secs = seconds.max(1) as f64;
    let rounds_for = |nominal_s: f64| ((secs / nominal_s).round() as usize).max(1);
    let (connections, rounds) = match workload {
        "cold_mix" => (connections, cold_mix(&mut rng, rounds_for(7.5))),
        "host_sweep" => (connections, host_sweep(&mut rng, rounds_for(3.0))),
        "hot_hits" => {
            let rounds = rounds_for(3.0);
            let per_round = HOT_REQUESTS_PER_SECOND * seconds.max(1) as usize / rounds;
            (connections, hot_hits(&mut rng, rounds, per_round))
        }
        "figure_batch" => (1, figure_batch(&mut rng, 2 * rounds_for(13.0))),
        _ => return None,
    };
    let workload = WORKLOADS.into_iter().find(|w| *w == workload)?;
    Some(Plan {
        workload,
        connections,
        rounds,
    })
}

/// Every light pool workload on every CPU model, each heavy one on one
/// CPU model, plus one 2-hart co-run pair per round; CPU model, mode and
/// platform rotate with the round and the seed picks the pair's roles
/// and the order among near-equal-cost requests. The mix of round `r` is
/// the same for every seed: cold costs span 20 ms to 7 s and an Intel
/// Xeon host model costs ~1.6x an M1 one, so seeded specs or platforms
/// would make a run's total work seed-dependent. The light workloads
/// run on all four CPU models so that some fifty moderate-cost requests
/// lie near the median latency; a handful of specs there would sit
/// 15-20% apart, and the median would jump between them from run to
/// run. A round never repeats a guest spec, and every round starts on a
/// fresh daemon, so each request misses both caches.
fn cold_mix(rng: &mut Rng, rounds: usize) -> Vec<Round> {
    (0..rounds)
        .map(|r| {
            let mut measured: Vec<Req> = Vec::new();
            for (i, &w) in COLD_WORKLOADS.iter().enumerate() {
                let cpus = if HEAVY.contains(&w) {
                    vec![(i + r) % 4]
                } else {
                    (0..4).collect()
                };
                for c in cpus {
                    let (platform, mode) = (PLATFORMS[(i + c + r) % 3], MODES[(i / 2 + c + r) % 2]);
                    measured.push(Wire::new(platform, w, CPUS[c], mode).request(None));
                }
            }
            let (mut main, mut partner) = (LIGHT_MICRO[r % 4], LIGHT_MICRO[(r + 1) % 4]);
            if rng.below(2) == 0 {
                std::mem::swap(&mut main, &mut partner);
            }
            let mut pair = Wire::new(PLATFORMS[r % 3], main, CPUS[r % 2], MODES[r % 2]);
            pair.harts = 2;
            pair.corun = Some(partner);
            measured.push(pair.request(None));
            longest_first(&mut measured, rng);
            Round {
                // boot_exit is outside the pool: it builds the registry
                // without warming any measured guest.
                warmup: vec![
                    health(),
                    Wire::new("intel_xeon", "boot_exit", "atomic", "se").request(None),
                ],
                measured,
            }
        })
        .collect()
}

/// Guests recorded during warm-up (at a 1 GHz host that the sweep never
/// asks for), then replayed on 3 platforms x 6 knob sets.
fn host_sweep(rng: &mut Rng, rounds: usize) -> Vec<Round> {
    let guests: Vec<(&'static str, &'static str, &'static str)> =
        [("dedup", "o3"), ("sieve", "timing")]
            .into_iter()
            .map(|(w, c)| (w, c, rng.pick(&MODES)))
            .collect();
    let knob_sets = [
        "default".to_string(),
        rng.pick(&["thp", "thp25", "thp75"]).to_string(),
        "ehp".to_string(),
        "o3".to_string(),
        format!("freq={}", rng.pick(&["2.0", "2.4", "2.8", "3.2"])),
        format!("corun={}", rng.pick(&["per_core:2", "per_thread:2"])),
    ];
    let warmup: Vec<Req> = std::iter::once(health())
        .chain(guests.iter().map(|&(w, c, m)| {
            Wire::new("intel_xeon", w, c, m)
                .knobs("freq=1.0")
                .request(None)
        }))
        .collect();
    (0..rounds)
        .map(|_| {
            let mut measured = Vec::new();
            for &(w, c, m) in &guests {
                for p in PLATFORMS {
                    for k in &knob_sets {
                        measured.push(Wire::new(p, w, c, m).knobs(k).request(None));
                    }
                }
            }
            rng.shuffle(&mut measured);
            Round {
                warmup: warmup.clone(),
                measured,
            }
        })
        .collect()
}

/// Warm-up computes a few cheap keys; the measured phase re-asks for
/// them (bodies re-rendered with varied field order and case) mixed
/// with cached tables, cached figures and health checks.
fn hot_hits(rng: &mut Rng, rounds: usize, per_round: usize) -> Vec<Round> {
    // The warmed keys are the same for every seed, so the daemon's
    // footprint is too; the seed drives the measured mix.
    let wires = [
        Wire::new("intel_xeon", "blackscholes", "atomic", "se"),
        Wire::new("m1_pro", "water_nsquared", "timing", "fs"),
        Wire::new("m1_ultra", "water_spatial", "atomic", "fs"),
        Wire::new("intel_xeon", "ocean_ncp", "timing", "se"),
    ];
    let tables = [1u8, 2];
    let figures = [8u8, 15];
    let mut warmup = vec![health()];
    warmup.extend(wires.iter().map(|w| w.request(None)));
    warmup.extend(tables.iter().map(|&t| table(t)));
    warmup.extend(figures.iter().map(|&f| figure(f)));
    (0..rounds)
        .map(|_| {
            let measured = (0..per_round)
                .map(|_| match rng.below(10) {
                    0..=3 => {
                        let i = rng.below(wires.len());
                        wires[i].request(Some(rng))
                    }
                    4 | 5 => table(rng.pick(&tables)),
                    6 | 7 => figure(rng.pick(&figures)),
                    _ => health(),
                })
                .collect();
            Round {
                warmup: warmup.clone(),
                measured,
            }
        })
        .collect()
}

/// The quick-fidelity figures whose cold cost is seconds, in a seeded
/// order, over one connection.
///
/// Rounds come in pairs: a seeded order, then the same order reversed.
/// Which figures share trace-cache entries, and how much is resident
/// when a memory-hungry figure (fig13) runs, depend on the order; a
/// reversed pair evens out the order's effect on peak memory.
fn figure_batch(rng: &mut Rng, rounds: usize) -> Vec<Round> {
    let mut figs: Vec<u8> = (2..=15).collect();
    (0..rounds)
        .map(|r| {
            if r % 2 == 0 {
                rng.shuffle(&mut figs);
            } else {
                figs.reverse();
            }
            Round {
                // blackscholes appears in no figure: the registry gets
                // built without warming any figure's guest.
                warmup: vec![
                    health(),
                    Wire::new("intel_xeon", "blackscholes", "atomic", "se").request(None),
                ],
                measured: figs.iter().map(|&f| figure(f)).collect(),
            }
        })
        .collect()
}

fn table(n: u8) -> Req {
    Req::get(format!("/tables/table{n}"), Expect::Table(n))
}

fn figure(n: u8) -> Req {
    Req::get(
        format!("/figures/fig{n:02}?fidelity=quick"),
        Expect::Figure(n),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn wire_list(p: &Plan) -> Vec<Vec<u8>> {
        p.rounds
            .iter()
            .flat_map(|r| r.warmup.iter().chain(&r.measured))
            .map(Req::wire)
            .collect()
    }

    #[test]
    fn same_seed_same_requests_and_different_seeds_differ() {
        for w in WORKLOADS {
            let a = plan(w, 7, 10, 2).unwrap();
            let b = plan(w, 7, 10, 2).unwrap();
            assert_eq!(wire_list(&a), wire_list(&b), "{w}: seed 7 twice");
            let c = plan(w, 8, 10, 2).unwrap();
            assert_ne!(wire_list(&a), wire_list(&c), "{w}: seeds 7 and 8");
        }
    }

    #[test]
    fn cold_mix_never_repeats_a_guest_spec() {
        for seed in 0..50 {
            let p = plan("cold_mix", seed, 20, 2).unwrap();
            for round in &p.rounds {
                let mut guests = HashSet::new();
                for r in round.warmup.iter().chain(&round.measured) {
                    if let Some(s) = r.spec() {
                        assert!(
                            guests.insert(format!("{:?}", s.guest())),
                            "seed {seed}: guest {:?} repeated",
                            s.guest()
                        );
                    }
                }
                assert_eq!(
                    round.measured.len(),
                    HEAVY.len() + 4 * (COLD_WORKLOADS.len() - HEAVY.len()) + 1
                );
            }
        }
    }

    #[test]
    fn host_sweep_keys_are_distinct_and_guests_come_from_warmup() {
        let p = plan("host_sweep", 3, 10, 2).unwrap();
        for round in &p.rounds {
            let warm: HashSet<String> = round
                .warmup
                .iter()
                .filter_map(Req::spec)
                .map(|s| format!("{:?}", s.guest()))
                .collect();
            let mut keys = HashSet::new();
            for r in &round.measured {
                let s = r.spec().unwrap();
                assert!(warm.contains(&format!("{:?}", s.guest())));
                assert!(
                    keys.insert(s.canonical_key()),
                    "repeated {}",
                    s.canonical_key()
                );
            }
            for r in &round.warmup {
                if let Some(s) = r.spec() {
                    assert!(!keys.contains(&s.canonical_key()), "warm-up key measured");
                }
            }
        }
    }

    #[test]
    fn hot_hits_only_asks_for_warmed_keys() {
        let p = plan("hot_hits", 5, 2, 2).unwrap();
        for round in &p.rounds {
            let warm: HashSet<String> = round
                .warmup
                .iter()
                .map(|r| r.spec().map_or(r.path.clone(), |s| s.canonical_key()))
                .collect();
            for r in &round.measured {
                let k = r.spec().map_or(r.path.clone(), |s| s.canonical_key());
                assert!(warm.contains(&k), "{k} not warmed");
            }
            // Body variation is exercised, not just one rendering.
            let bodies: HashSet<&str> = round.measured.iter().map(|r| r.body.as_str()).collect();
            assert!(bodies.len() > 10);
        }
    }

    #[test]
    fn round_counts_follow_seconds_not_elapsed_time() {
        assert_eq!(plan("cold_mix", 1, 15, 2).unwrap().rounds.len(), 2);
        assert_eq!(plan("cold_mix", 1, 1, 2).unwrap().rounds.len(), 1);
        assert_eq!(plan("figure_batch", 1, 10, 2).unwrap().connections, 1);
        assert!(plan("nope", 1, 10, 2).is_none());
    }
}
