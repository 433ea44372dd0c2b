//! The traced run's in-process layer ledger.
//!
//! Each layer is timed by calling its public API from here, one pass per
//! layer over the same guest, and taking differences:
//!
//! * `sim`: `System::new(cfg, program).run()` with no observer;
//! * `hosttrace` adapter: the same run behind `TraceAdapter<CountingSink>`,
//!   minus `sim`; recorder: the run with `RecordingSink`, minus the
//!   counting run; replay: `record::replay` into an opaque `NullSink`;
//! * `hostmodel`: replay into the `HostEngine`s plus `finish()`, minus
//!   the bare replay;
//! * `core`: `ExperimentSpec::run()` / `gem5prof::profile` /
//!   `figures::figNN`, the call the daemon's workers make.
//!
//! Every timed call is a span (name, start, end, parent, request id)
//! kept in memory and written out at the end of the run.

use gem5prof::experiment::{GuestSpec, HostSetup};
use gem5prof::figures::{self, Fidelity};
use gem5prof::report::Table;
use gem5sim::observe::{ExecutionObserver, Obs};
use gem5sim::{SimResult, System, SystemConfig};
use gem5sim_isa::Program;
use hostmodel::{HostEngine, HostRunStats};
use hosttrace::record::{replay, CountingSink, FanoutSink, NullSink, RecordingSink, TraceEvent};
use hosttrace::{
    BinaryVariant, DataRef, ExecRecord, PageBacking, Registry, TraceAdapter, TraceSink,
};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The daemon caches at most this many events per guest stream (the
/// core crate's `TRACE_CACHE_CAP`); longer streams are profiled live.
const STREAM_CAP: usize = 8_000_000;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub request: Option<usize>,
}

/// Per-layer sums over the ledger's operations.
#[derive(Debug, Default)]
pub struct Ledger {
    origin: Option<Instant>,
    pub spans: Vec<Span>,
    registries: Vec<((BinaryVariant, PageBacking), Arc<Registry>)>,
    pub sim_s: f64,
    pub insts: u64,
    pub events: u64,
    pub adapter_s: f64,
    pub record_s: f64,
    pub replay_s: f64,
    pub exec_records: u64,
    pub data_refs: u64,
    /// Simulated events behind the streams counted in `exec_records`.
    pub stream_events: u64,
    pub exec_s: f64,
    /// Records fed to engines, counted once per engine.
    pub engine_records: u64,
    pub engines: u64,
    pub streams: u64,
    pub profile_s: f64,
    /// Layer spans and core spans over the operations that have both.
    pub covered_layers_s: f64,
    pub covered_profile_s: f64,
}

/// A recorded guest stream with the counts the ledger reports.
pub struct Stream {
    events: Vec<TraceEvent>,
    execs: u64,
    datas: u64,
    sim_events: u64,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            origin: Some(Instant::now()),
            ..Default::default()
        }
    }

    fn now(&self) -> f64 {
        self.origin.map_or(0.0, |o| o.elapsed().as_secs_f64())
    }

    /// Times `f` as a span; returns its result and duration.
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: Option<usize>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        let idx = self.spans.len();
        let start_s = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s: start_s,
            parent,
            request,
        });
        let r = f(self);
        let end_s = self.now();
        self.spans[idx].end_s = end_s;
        (r, end_s - start_s)
    }

    fn registry(&mut self, binary: BinaryVariant, backing: PageBacking) -> Arc<Registry> {
        if let Some((_, r)) = self
            .registries
            .iter()
            .find(|(k, _)| *k == (binary, backing))
        {
            return Arc::clone(r);
        }
        let r = Arc::new(Registry::new(binary, backing));
        self.registries.push(((binary, backing), Arc::clone(&r)));
        r
    }

    fn engines(&mut self, hosts: &[HostSetup]) -> Vec<HostEngine> {
        hosts
            .iter()
            .map(|h| HostEngine::new(h.config.clone(), self.registry(h.binary, h.backing)))
            .collect()
    }

    /// A cold operation, layer by layer: simulate, adapt, record, replay,
    /// and the host engines; then the core call it decomposes. Returns
    /// the core call's result, the recorded stream and the core call's
    /// duration (which the caller books as `core.profile_s` or not).
    pub fn cold<R>(
        &mut self,
        guest: &GuestSpec,
        hosts: &[HostSetup],
        request: Option<usize>,
        core: impl FnOnce() -> R,
    ) -> (R, Option<Stream>, f64) {
        let op = self.spans.len();
        let ((r, stream, layers, profile), _) = self.span("op", None, request, |l| {
            let parent = Some(op);
            let canon = l.registry(BinaryVariant::Base, PageBacking::Base);
            let (sim, t_sim) = l.span("sim.run", parent, request, |_| {
                System::new(sys_config(guest), program(guest)).run()
            });
            let (counting, t_count) = l.span("hosttrace.adapter+sim", parent, request, |_| {
                observe(guest, &canon, CountingSink::default()).1
            });
            let (recorder, t_rec) = l.span("hosttrace.record+adapter+sim", parent, request, |_| {
                observe(guest, &canon, RecordingSink::with_cap(STREAM_CAP)).1
            });
            l.sim_s += t_sim;
            l.insts += sim.committed_insts;
            l.events += sim.host_events;
            l.adapter_s += t_count - t_sim;
            l.record_s += t_rec - t_count;
            l.exec_records += counting.execs;
            l.data_refs += counting.datas;
            l.stream_events += sim.host_events;
            let mut layers = t_rec;
            let stream = match recorder.into_events() {
                Some(events) => {
                    let s = Stream {
                        events,
                        execs: counting.execs,
                        datas: counting.datas,
                        sim_events: sim.host_events,
                    };
                    // The cold path feeds engines live; it never replays.
                    let (t_replay, t_engine) = l.engine_pass(&s, hosts, parent, request);
                    layers += t_engine - t_replay;
                    Some(s)
                }
                None => {
                    // Past the cache cap the daemon feeds engines live.
                    let engines = l.engines(hosts);
                    let n = engines.len() as u64;
                    let (_, t_live) = l.span("hostmodel.live+adapter+sim", parent, request, |_| {
                        observe(guest, &canon, FanoutSink::new(engines)).1
                    });
                    l.exec_s += t_live - t_count;
                    l.engine_records += (counting.execs + counting.datas) * n;
                    l.engines += n;
                    l.streams += 1;
                    layers += t_live - t_count;
                    None
                }
            };
            gem5prof::runner::clear_cache();
            let (r, t_profile) = l.span("core.profile", parent, request, |_| core());
            (r, stream, layers, t_profile)
        });
        self.covered_layers_s += layers;
        self.covered_profile_s += profile;
        (r, stream, profile)
    }

    /// Replays `stream` bare and into engines for `hosts`; returns the
    /// bare replay time and the replay + engine time (the work of a
    /// trace-cache hit).
    fn engine_pass(
        &mut self,
        s: &Stream,
        hosts: &[HostSetup],
        parent: Option<usize>,
        request: Option<usize>,
    ) -> (f64, f64) {
        let (_, t_replay) = self.span("hosttrace.replay", parent, request, |_| {
            replay(&s.events, &mut Opaque(NullSink))
        });
        let engines = self.engines(hosts);
        let n = engines.len() as u64;
        let (_, t_engine) = self.span("hostmodel.exec+replay", parent, request, |_| {
            let mut fan = FanoutSink::new(engines);
            replay(&s.events, &mut fan);
            fan.into_inner()
                .into_iter()
                .map(HostEngine::finish)
                .collect::<Vec<HostRunStats>>()
        });
        self.replay_s += t_replay;
        self.exec_s += t_engine - t_replay;
        self.engine_records += (s.execs + s.datas) * n;
        self.engines += n;
        self.streams += 1;
        (t_replay, t_engine)
    }

    /// A trace-cache hit: replay a recorded stream into one engine, then
    /// the core call (served from gem5prof's warm trace cache).
    pub fn replayed<R>(
        &mut self,
        stream: &Stream,
        host: &HostSetup,
        request: Option<usize>,
        core: impl FnOnce() -> R,
    ) -> (R, f64) {
        let op = self.spans.len();
        let ((r, layers, profile), _) = self.span("op", None, request, |l| {
            let parent = Some(op);
            let (_, layers) = l.engine_pass(stream, std::slice::from_ref(host), parent, request);
            l.exec_records += stream.execs;
            l.data_refs += stream.datas;
            l.stream_events += stream.sim_events;
            let (r, t_profile) = l.span("core.profile", parent, request, |_| core());
            (r, layers, t_profile)
        });
        self.covered_layers_s += layers;
        self.covered_profile_s += profile;
        (r, profile)
    }

    /// Records a guest's stream outside the measured accounting (the
    /// daemon does this during warm-up).
    pub fn record(&mut self, guest: &GuestSpec) -> Option<Stream> {
        let canon = self.registry(BinaryVariant::Base, PageBacking::Base);
        let (sim, counting) = observe(guest, &canon, CountingSink::default());
        let (_, rec) = observe(guest, &canon, RecordingSink::with_cap(STREAM_CAP));
        rec.into_events().map(|events| Stream {
            events,
            execs: counting.execs,
            datas: counting.datas,
            sim_events: sim.host_events,
        })
    }

    pub fn write_spans(&self, path: &std::path::Path, extra: &[Span]) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "source\tname\tstart_s\tend_s\tparent\trequest")?;
        for (source, spans) in [("client", extra), ("ledger", &self.spans[..])] {
            for s in spans {
                writeln!(
                    f,
                    "{source}\t{}\t{:.9}\t{:.9}\t{}\t{}",
                    s.name,
                    s.start_s,
                    s.end_s,
                    s.parent.map_or("-".into(), |p| p.to_string()),
                    s.request.map_or("-".into(), |r| r.to_string()),
                )?;
            }
        }
        f.flush()
    }
}

/// `NullSink` behind `black_box`, so the optimizer cannot delete the
/// replay loop it is meant to time.
struct Opaque(NullSink);

impl TraceSink for Opaque {
    fn exec(&mut self, rec: ExecRecord) {
        self.0.exec(std::hint::black_box(rec));
    }
    fn data(&mut self, dref: DataRef) {
        self.0.data(std::hint::black_box(dref));
    }
}

/// The guest program, as `gem5prof::profile` builds it.
fn program(guest: &GuestSpec) -> Program {
    match guest.corun {
        Some(partner) => {
            let gem5sim_workloads::Workload::Micro(main) = guest.workload else {
                panic!("co-run partner requires a microbench workload");
            };
            gem5sim_workloads::corun_program(main, partner, guest.scale)
        }
        None => guest.workload.program(guest.scale),
    }
}

/// The system configuration, as `gem5prof::profile` builds it.
fn sys_config(guest: &GuestSpec) -> SystemConfig {
    let mut cfg = SystemConfig::new(guest.cpu, guest.mode)
        .with_cpus(guest.harts)
        .with_exec_tier(gem5prof::exec_tier());
    if guest.corun_div > 1 {
        cfg = cfg.with_hart_clock_divs(
            (0..guest.harts)
                .map(|i| if i % 2 == 1 { guest.corun_div } else { 1 })
                .collect(),
        );
    }
    cfg
}

/// Runs the guest behind a `TraceAdapter` feeding `sink`.
fn observe<S: TraceSink + 'static>(
    guest: &GuestSpec,
    reg: &Arc<Registry>,
    sink: S,
) -> (SimResult, S) {
    let adapter = Rc::new(RefCell::new(TraceAdapter::new(Arc::clone(reg), sink)));
    let obs = Obs::new(Rc::clone(&adapter) as Rc<RefCell<dyn ExecutionObserver>>);
    let mut sys = System::with_observer(sys_config(guest), program(guest), obs);
    let result = sys.run();
    drop(sys);
    let adapter = Rc::try_unwrap(adapter)
        .ok()
        .expect("system dropped; adapter uniquely owned")
        .into_inner();
    (result, adapter.into_parts().0)
}

/// Quick-fidelity figure `n`, as the daemon's `/figures/figNN` computes it.
pub fn figure(n: u8) -> Table {
    let f = Fidelity::Quick;
    match n {
        1 => figures::fig01(f),
        2 => figures::fig02(f),
        3 => figures::fig03(f),
        4 => figures::fig04(f),
        5 => figures::fig05(f),
        6 => figures::fig06(f),
        7 => figures::fig07(f),
        8 => figures::fig08(f),
        9 => figures::fig09(f),
        10 => figures::fig10(f),
        11 => figures::fig11(f),
        12 => figures::fig12(f),
        13 => figures::fig13(f),
        14 => figures::fig14(f),
        15 => figures::fig15(f),
        16 => figures::fig16(f),
        _ => figures::fig17(f),
    }
}

/// The batch path's shape (Fig. 14's): one Sieve guest per CPU model,
/// each stream fanned out to every FireSim cache configuration.
pub fn fanout_probe() -> (Vec<GuestSpec>, Vec<HostSetup>) {
    use gem5sim::config::{CpuModel, SimMode};
    let guests = [CpuModel::Atomic, CpuModel::Timing, CpuModel::O3]
        .into_iter()
        .map(|cpu| {
            GuestSpec::new(
                gem5sim_workloads::Workload::Sieve,
                Fidelity::Quick.scale(),
                cpu,
                SimMode::Se,
            )
        })
        .collect();
    let hosts = platforms::firesim::fig14_sweep()
        .into_iter()
        .map(HostSetup::raw)
        .collect();
    (guests, hosts)
}
