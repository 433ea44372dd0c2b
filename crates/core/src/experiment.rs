//! Experiment plumbing: one guest simulation, many host evaluations.
//!
//! [`profile`] records once and replays once per host. The first call
//! for a [`GuestSpec`] simulates the guest into a recorder and caches
//! the post-adapter event stream (see [`crate::runner`]); that call and
//! every later one for the same spec then replay the stream into each
//! host's engine as its own parallel task, without touching the
//! simulator again. A stream past the cache cap is the one exception:
//! it is not kept. With one host or one thread the first simulation
//! feeds the engines live once it passes the cap; otherwise each
//! parallel worker re-simulates the guest once, feeding its share of
//! the hosts' engines live. Every engine consumes the identical stream
//! in order, so results never depend on the path or the thread count.

use crate::runner::{self, CachedGuest, TRACE_CACHE_CAP};
use gem5sim::config::{CpuModel, SimMode, SystemConfig};
use gem5sim::observe::{ExecutionObserver, Obs};
use gem5sim::system::{SimResult, System};
use gem5sim_workloads::{Microbench, Scale, Workload};
use hostmodel::{HostEngine, HostRunStats};
use hosttrace::record::{replay, FanoutSink, TraceEvent};
use hosttrace::{
    BinaryVariant, CallProfile, DataRef, ExecRecord, PageBacking, Registry, TraceAdapter, TraceSink,
};
use platforms::{Platform, SystemKnobs};
use specgen::SpecBenchmark;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock};

/// What to simulate on the guest side.
///
/// Doubles as the guest-trace memoization key: two equal specs are
/// guaranteed the same simulation, so one recorded stream serves both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GuestSpec {
    /// Workload program.
    pub workload: Workload,
    /// Input scale.
    pub scale: Scale,
    /// CPU model under simulation.
    pub cpu: CpuModel,
    /// FS or SE mode.
    pub mode: SimMode,
    /// Number of guest harts. With no co-run partner, every hart runs
    /// `workload`; interference happens in the shared L2 and DRAM.
    pub harts: usize,
    /// Co-run partner for odd harts (requires `workload` to be a
    /// microbench — the pair is built by
    /// [`gem5sim_workloads::corun_program`]).
    pub corun: Option<Microbench>,
    /// Clock divider applied to odd harts (1 = all harts share the
    /// system clock), for asymmetric co-run scenarios.
    pub corun_div: u64,
}

impl GuestSpec {
    /// Creates a single-hart spec.
    pub fn new(workload: Workload, scale: Scale, cpu: CpuModel, mode: SimMode) -> Self {
        GuestSpec {
            workload,
            scale,
            cpu,
            mode,
            harts: 1,
            corun: None,
            corun_div: 1,
        }
    }

    /// Sets the hart count (builder style).
    pub fn with_harts(mut self, harts: usize) -> Self {
        assert!(harts >= 1, "at least one hart required");
        self.harts = harts;
        self
    }

    /// Sets the odd-hart co-run partner (builder style).
    pub fn with_corun(mut self, partner: Microbench) -> Self {
        self.corun = Some(partner);
        self
    }

    /// Sets the odd-hart clock divider (builder style).
    pub fn with_corun_div(mut self, div: u64) -> Self {
        assert!(div >= 1, "clock divider must be >= 1");
        self.corun_div = div;
        self
    }

    /// Figure-style label, e.g. `O3_WATER_NSQUARED`; co-run specs get
    /// `_VS_<partner>` and multi-hart specs `_X<harts>` suffixes.
    pub fn label(&self) -> String {
        let mut l = format!(
            "{}_{}",
            self.cpu.label(),
            self.workload.name().to_uppercase()
        );
        if let Some(p) = self.corun {
            l.push_str(&format!("_VS_{}", p.name().to_uppercase()));
        }
        if self.harts > 1 {
            l.push_str(&format!("_X{}", self.harts));
        }
        l
    }
}

/// One host evaluation point: a platform microarchitecture plus the
/// binary/backing the simulator runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSetup {
    /// Host CPU configuration (already knob-adjusted).
    pub config: hostmodel::HostConfig,
    /// Which simulator binary runs (`-O3` or not).
    pub binary: BinaryVariant,
    /// Text page backing (base / THP / EHP).
    pub backing: PageBacking,
}

impl HostSetup {
    /// A platform at default knobs.
    pub fn platform(p: &Platform) -> Self {
        HostSetup {
            config: p.config.clone(),
            binary: BinaryVariant::Base,
            backing: PageBacking::Base,
        }
    }

    /// A platform with tuning knobs applied.
    pub fn with_knobs(p: &Platform, knobs: &SystemKnobs) -> Self {
        HostSetup {
            config: knobs.apply(&p.config),
            binary: knobs.binary,
            backing: knobs.backing,
        }
    }

    /// A raw host configuration (e.g. a FireSim sweep point).
    pub fn raw(config: hostmodel::HostConfig) -> Self {
        HostSetup {
            config,
            binary: BinaryVariant::Base,
            backing: PageBacking::Base,
        }
    }
}

/// Results of profiling one guest run on several hosts.
#[derive(Debug)]
pub struct ProfileRun {
    /// Guest-side simulation results (identical for all hosts).
    pub guest: SimResult,
    /// One host profile per [`HostSetup`], in input order.
    pub hosts: Vec<HostRunStats>,
    /// Host-function call profile (Fig. 15).
    pub profile: CallProfile,
    /// The canonical binary model, for naming functions.
    pub registry: Arc<Registry>,
}

/// Registries are deterministic per `(binary, backing)`; share them
/// process-wide so every worker thread sees the same instance.
pub(crate) fn registry_for(binary: BinaryVariant, backing: PageBacking) -> Arc<Registry> {
    type Key = (BinaryVariant, PageBacking);
    type Registries = Mutex<Vec<(Key, Arc<Registry>)>>;
    static CACHE: OnceLock<Registries> = OnceLock::new();
    let mut c = CACHE
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if let Some((_, r)) = c.iter().find(|(k, _)| *k == (binary, backing)) {
        return Arc::clone(r);
    }
    let r = Arc::new(Registry::new(binary, backing));
    c.push(((binary, backing), Arc::clone(&r)));
    r
}

/// Runs the guest simulation of `guest` once, observed by `adapter`,
/// and returns the guest results with the adapter's sink and call
/// profile.
pub(crate) fn simulate<S: TraceSink + 'static>(
    guest: &GuestSpec,
    adapter: TraceAdapter<S>,
) -> (SimResult, S, CallProfile) {
    let adapter = Rc::new(RefCell::new(adapter));
    let obs = Obs::new(Rc::clone(&adapter) as Rc<RefCell<dyn ExecutionObserver>>);

    let program = match guest.corun {
        Some(partner) => {
            let Workload::Micro(main) = guest.workload else {
                panic!(
                    "co-run partner requires a microbench workload, got `{}`",
                    guest.workload
                );
            };
            gem5sim_workloads::corun_program(main, partner, guest.scale)
        }
        None => guest.workload.program(guest.scale),
    };
    let mut cfg = SystemConfig::new(guest.cpu, guest.mode)
        .with_cpus(guest.harts)
        .with_exec_tier(runner::exec_tier());
    if guest.corun_div > 1 {
        // Asymmetric pair: odd harts (the co-run partner's slot) run on
        // a divided clock.
        cfg = cfg.with_hart_clock_divs(
            (0..guest.harts)
                .map(|i| if i % 2 == 1 { guest.corun_div } else { 1 })
                .collect(),
        );
    }
    let mut sys = System::with_observer(cfg, program, obs);
    let result = {
        let _sim = gem5prof_obs::span("guest_sim");
        sys.run()
    };
    drop(sys);

    let adapter = Rc::into_inner(adapter).expect("system dropped; adapter is uniquely owned");
    let (sink, profile) = adapter.into_inner().into_parts();
    (result, sink, profile)
}

fn engine_for(host: &HostSetup) -> HostEngine {
    HostEngine::new(host.config.clone(), registry_for(host.binary, host.backing))
}

/// The sink of a profile miss: records the stream for the cache, up to
/// `cap` events. Past the cap it replays the recorded prefix into the
/// engines of its `live` hosts and feeds them from then on, so they see
/// the whole stream from this one simulation.
struct MissSink {
    events: Vec<TraceEvent>,
    cap: usize,
    live: Vec<HostSetup>,
    engines: Option<FanoutSink<HostEngine>>,
}

impl MissSink {
    fn new(cap: usize, live: Vec<HostSetup>) -> Self {
        MissSink {
            events: Vec::new(),
            cap,
            live,
            engines: None,
        }
    }

    /// Records `ev` while the stream is within the cap; past it, returns
    /// the live engines for the caller to feed.
    fn past_cap(&mut self, ev: TraceEvent) -> Option<&mut FanoutSink<HostEngine>> {
        if self.engines.is_none() {
            if self.events.len() < self.cap {
                self.events.push(ev);
                return None;
            }
            let mut engines = FanoutSink::new(self.live.iter().map(engine_for).collect());
            replay(&std::mem::take(&mut self.events), &mut engines);
            self.engines = Some(engines);
        }
        self.engines.as_mut()
    }

    /// The recorded stream, or the live hosts' results (none when there
    /// were no live hosts) if the stream passed the cap.
    fn finish(self) -> Result<Vec<TraceEvent>, Vec<HostRunStats>> {
        match self.engines {
            None => Ok(self.events),
            Some(engines) => Err(engines
                .into_inner()
                .into_iter()
                .map(HostEngine::finish)
                .collect()),
        }
    }
}

impl TraceSink for MissSink {
    fn exec(&mut self, rec: ExecRecord) {
        if let Some(engines) = self.past_cap(TraceEvent::exec(rec)) {
            engines.exec(rec);
        }
    }
    fn data(&mut self, dref: DataRef) {
        if let Some(engines) = self.past_cap(TraceEvent::data(dref)) {
            engines.data(dref);
        }
    }
}

/// Profiles a stream too long to keep: each worker re-runs the guest
/// once and feeds its share of the hosts live, so this costs threads()
/// simulations, not one per host.
fn resimulate(guest: &GuestSpec, hosts: &[HostSetup], canon: &Arc<Registry>) -> Vec<HostRunStats> {
    let per_worker = hosts.len().div_ceil(runner::threads());
    let shares: Vec<&[HostSetup]> = hosts.chunks(per_worker).collect();
    runner::parallel_map(&shares, |share| {
        let _engine = gem5prof_obs::span("host_engine");
        let engines = FanoutSink::new(share.iter().map(engine_for).collect());
        let adapter = TraceAdapter::new(Arc::clone(canon), engines);
        let engines = simulate(guest, adapter).1.into_inner();
        engines
            .into_iter()
            .map(HostEngine::finish)
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Profiles one guest run on several hosts. Every host sees the same
/// instrumentation stream, so host comparisons are exact, not sampled.
///
/// Record once, replay per host: a miss simulates the guest once into a
/// recorder and caches the stream; then (as on a hit) each host's engine
/// replays the whole stream as its own [`runner::parallel_map`] task.
/// Later profiles of the same spec perform zero guest simulation. A
/// stream past the cache cap is not kept: its hosts are fed live, from
/// the first simulation when there is one host or one thread, else from
/// one re-simulation per worker.
pub fn profile(guest: &GuestSpec, hosts: &[HostSetup]) -> ProfileRun {
    profile_with_cap(guest, hosts, TRACE_CACHE_CAP)
}

fn profile_with_cap(guest: &GuestSpec, hosts: &[HostSetup], cap: usize) -> ProfileRun {
    assert!(!hosts.is_empty(), "at least one host setup required");
    let _span = gem5prof_obs::span("profile");
    let _wspan = gem5prof_obs::span(guest.workload.name());
    let canon = registry_for(BinaryVariant::Base, PageBacking::Base);

    let cached = match runner::cache_lookup(guest) {
        Some(cached) => cached,
        None => {
            // With one host or one thread a second simulation gains
            // nothing: past the cap the hosts take the stream live from
            // this one. Otherwise each worker re-simulates its share.
            let live = if hosts.len() == 1 || runner::threads() == 1 {
                hosts.to_vec()
            } else {
                Vec::new()
            };
            let adapter = TraceAdapter::new(Arc::clone(&canon), MissSink::new(cap, live));
            let (guest_result, sink, profile) = simulate(guest, adapter);
            let events = match sink.finish() {
                Ok(events) => events,
                Err(live) => {
                    let hosts = if live.is_empty() {
                        resimulate(guest, hosts, &canon)
                    } else {
                        live
                    };
                    return ProfileRun {
                        guest: guest_result,
                        hosts,
                        profile,
                        registry: canon,
                    };
                }
            };
            runner::cache_insert(
                *guest,
                CachedGuest {
                    guest: guest_result,
                    profile,
                    events,
                },
            )
        }
    };

    let hosts = runner::parallel_map(hosts, |h| {
        let _engine = gem5prof_obs::span("host_engine");
        let mut engine = engine_for(h);
        replay(&cached.events, &mut engine);
        engine.finish()
    });
    ProfileRun {
        guest: cached.guest.clone(),
        hosts,
        profile: cached.profile.clone(),
        registry: canon,
    }
}

/// Profiles a bare-metal SPEC reference benchmark on several hosts.
pub fn profile_spec(bench: SpecBenchmark, hosts: &[HostSetup], records: u64) -> Vec<HostRunStats> {
    hosts
        .iter()
        .map(|h| {
            let reg = registry_for(h.binary, h.backing);
            let mut engine = HostEngine::new(h.config.clone(), Arc::clone(&reg));
            bench.generate(&reg, &mut engine, records);
            engine.finish()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use platforms::{intel_xeon, m1_pro, m1_ultra};

    fn quick(cpu: CpuModel) -> GuestSpec {
        GuestSpec::new(Workload::Dedup, Scale::Test, cpu, SimMode::Se)
    }

    #[test]
    fn hosts_see_identical_streams() {
        let xeon = HostSetup::platform(&intel_xeon());
        let run = profile(&quick(CpuModel::Atomic), &[xeon.clone(), xeon]);
        assert_eq!(run.hosts.len(), 2);
        assert_eq!(run.hosts[0].records, run.hosts[1].records);
        assert_eq!(run.hosts[0].cycles, run.hosts[1].cycles);
    }

    #[test]
    fn m1_outruns_xeon_on_the_same_simulation() {
        let hosts = [
            HostSetup::platform(&intel_xeon()),
            HostSetup::platform(&m1_pro()),
        ];
        let run = profile(&quick(CpuModel::O3), &hosts);
        let (xeon, m1) = (&run.hosts[0], &run.hosts[1]);
        assert!(
            m1.seconds() < xeon.seconds(),
            "m1 {} vs xeon {}",
            m1.seconds(),
            xeon.seconds()
        );
        assert!(m1.ipc() > xeon.ipc());
    }

    #[test]
    fn guest_results_are_host_independent() {
        let a = profile(
            &quick(CpuModel::Timing),
            &[HostSetup::platform(&intel_xeon())],
        );
        let b = profile(&quick(CpuModel::Timing), &[HostSetup::platform(&m1_pro())]);
        assert_eq!(a.guest.committed_insts, b.guest.committed_insts);
        assert_eq!(a.guest.sim_ticks, b.guest.sim_ticks);
    }

    #[test]
    fn past_cap_live_run_equals_cached_replay() {
        let hosts = [
            HostSetup::platform(&intel_xeon()),
            HostSetup::platform(&m1_pro()),
            HostSetup::platform(&m1_ultra()),
        ];
        // A spec no other test profiles, so the capped calls really run
        // live instead of hitting a stream cached by someone else.
        let spec = GuestSpec::new(Workload::Sieve, Scale::Test, CpuModel::Minor, SimMode::Se)
            .with_harts(2);
        // One thread feeds all three hosts from the first simulation;
        // two re-simulate once per share, 2 + 1 hosts.
        let live: Vec<ProfileRun> = [1, 2]
            .into_iter()
            .map(|t| runner::with_threads(t, || profile_with_cap(&spec, &hosts, 1_000)))
            .collect();
        assert!(
            runner::cache_lookup(&spec).is_none(),
            "a stream past the cap must not be cached"
        );
        let replayed = profile(&spec, &hosts);
        for live in &live {
            assert_eq!(live.guest, replayed.guest);
            assert_eq!(live.hosts, replayed.hosts);
            assert_eq!(live.profile, replayed.profile);
        }
    }

    #[test]
    fn functions_touched_grow_with_cpu_detail() {
        let host = [HostSetup::platform(&intel_xeon())];
        let counts: Vec<u64> = CpuModel::ALL
            .iter()
            .map(|&cpu| profile(&quick(cpu), &host).profile.functions_touched())
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] < w[1]),
            "functions touched must grow with detail: {counts:?}"
        );
    }

    #[test]
    fn spec_profiles_run() {
        let hosts = [HostSetup::platform(&intel_xeon())];
        let stats = profile_spec(SpecBenchmark::X264, &hosts, 5000);
        assert_eq!(stats.len(), 1);
        assert!(stats[0].ipc() > 1.0);
    }

    #[test]
    fn labels_are_paper_style() {
        assert_eq!(quick(CpuModel::O3).label(), "O3_DEDUP");
        let pair = GuestSpec::new(
            Workload::Micro(Microbench::MemStride),
            Scale::Test,
            CpuModel::Timing,
            SimMode::Se,
        )
        .with_harts(4)
        .with_corun(Microbench::Alu);
        assert_eq!(pair.label(), "TIMING_MEM_STRIDE_VS_ALU_X4");
    }

    #[test]
    fn corun_profile_reports_parity_checksums() {
        let spec = GuestSpec::new(
            Workload::Micro(Microbench::MemStride),
            Scale::Test,
            CpuModel::Timing,
            SimMode::Se,
        )
        .with_harts(2)
        .with_corun(Microbench::Alu);
        let run = profile(&spec, &[HostSetup::platform(&intel_xeon())]);
        assert_eq!(
            run.guest.guest_checksums,
            vec![
                Microbench::MemStride.expected_checksum(Scale::Test),
                Microbench::Alu.expected_checksum(Scale::Test),
            ]
        );
        // The memoized replay serves the multi-hart spec too.
        let replayed = profile(&spec, &[HostSetup::platform(&intel_xeon())]);
        assert_eq!(run.guest, replayed.guest);
    }

    #[test]
    #[should_panic(expected = "requires a microbench workload")]
    fn corun_with_non_microbench_workload_panics() {
        let spec = quick(CpuModel::Atomic).with_corun(Microbench::Alu);
        let _ = profile(&spec, &[HostSetup::platform(&intel_xeon())]);
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn empty_hosts_panic() {
        let _ = profile(&quick(CpuModel::Atomic), &[]);
    }
}
