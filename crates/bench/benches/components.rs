//! Component microbenchmarks: the building blocks whose speed bounds the
//! whole reproduction pipeline.

use bench::harness::Runner;
use gem5prof::experiment::{profile, GuestSpec, HostSetup};
use gem5sim::config::{CpuModel, SimMode, SystemConfig};
use gem5sim::observe::{ExecutionObserver, Obs};
use gem5sim::system::System;
use gem5sim_event::{EventQueue, Priority};
use gem5sim_workloads::{Scale, Workload};
use hostmodel::HostEngine;
use hosttrace::record::{replay, ExecRecord, RecordingSink, TraceEvent, TraceSink};
use hosttrace::registry::FunctionId;
use hosttrace::{BinaryVariant, PageBacking, Registry, TraceAdapter};
use platforms::firesim;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Records the host stream of one guest run (dedup, O3, SE, test
/// scale): what the trace cache holds for a real experiment.
fn record_dedup_o3(reg: &Arc<Registry>) -> Vec<TraceEvent> {
    let adapter = Rc::new(RefCell::new(TraceAdapter::new(
        Arc::clone(reg),
        RecordingSink::with_cap(usize::MAX),
    )));
    let obs = Obs::new(Rc::clone(&adapter) as Rc<RefCell<dyn ExecutionObserver>>);
    let mut sys = System::with_observer(
        SystemConfig::new(CpuModel::O3, SimMode::Se),
        Workload::Dedup.program(Scale::Test),
        obs,
    );
    sys.run();
    drop(sys);
    let Ok(adapter) = Rc::try_unwrap(adapter) else {
        panic!("system dropped; adapter uniquely owned");
    };
    let (recorder, _) = adapter.into_inner().into_parts();
    recorder.into_events().expect("uncapped recorder")
}

fn main() {
    let mut r = Runner::from_args();

    r.bench("eventq/schedule_service_10k", || {
        let eq = EventQueue::new();
        for t in 0..10_000u64 {
            eq.schedule(t, Priority::DEFAULT, |_| {});
        }
        eq.run(None)
    });

    for cpu in CpuModel::ALL {
        let prog = Workload::Dedup.program(Scale::Test);
        r.bench(&format!("guest_cpu_models/{}", cpu.label()), || {
            let mut sys = System::new(SystemConfig::new(cpu, SimMode::Se), prog.clone());
            sys.run().committed_insts
        });
    }

    let reg = Arc::new(Registry::new(BinaryVariant::Base, PageBacking::Base));
    r.bench("host_engine/exec_100k_records", || {
        let mut e = HostEngine::new(platforms::intel_xeon().config, Arc::clone(&reg));
        for i in 0..100_000u32 {
            e.exec(ExecRecord {
                func: FunctionId(i % 4000),
                uops: 16,
                cond_branches: 3,
                indirect_branches: 1,
                loads: 4,
                stores: 2,
                variant: i / 4000,
            });
        }
        e.finish().cycles
    });

    let events = record_dedup_o3(&reg);
    r.bench("host_engine/replay_recorded_dedup_o3", || {
        let mut e = HostEngine::new(platforms::intel_xeon().config, Arc::clone(&reg));
        replay(&events, &mut e);
        e.finish().cycles
    });

    // The shape of one Fig. 14 point: one guest on the seven FireSim
    // hosts. Cold records the stream and replays it per host; warm
    // replays the cached stream only.
    let spec = GuestSpec::new(Workload::Sieve, Scale::Test, CpuModel::O3, SimMode::Se);
    let hosts: Vec<HostSetup> = firesim::fig14_sweep()
        .into_iter()
        .map(HostSetup::raw)
        .collect();
    r.bench("profile/fig14_shape_cold", || {
        gem5prof::runner::clear_cache();
        profile(&spec, &hosts).hosts.len()
    });
    r.bench("profile/fig14_shape_warm", || {
        profile(&spec, &hosts).hosts.len()
    });

    r.finish();
}
